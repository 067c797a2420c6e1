#include "cluster/standby.h"

#include <map>

#include "common/coding.h"
#include "engine/page.h"

namespace polarmp {

StandbyReplicator::StandbyReplicator(LogStore* primary_log,
                                     const Options& options)
    : primary_log_(primary_log),
      options_(options),
      merge_(primary_log) {}

StandbyReplicator::~StandbyReplicator() { Stop(); }

void StandbyReplicator::Start() {
  MutexLock lock(stop_mu_);
  if (started_) return;
  started_ = true;
  stop_ = false;
  replicator_ = std::thread([this] { ReplicationLoop(); });
}

void StandbyReplicator::Stop() {
  {
    MutexLock lock(stop_mu_);
    if (!started_) return;
    stop_ = true;
    stop_cv_.notify_all();
  }
  replicator_.join();
  MutexLock lock(stop_mu_);
  started_ = false;
}

void StandbyReplicator::ReplicationLoop() {
  for (;;) {
    {
      UniqueLock lock(stop_mu_);
      stop_cv_.wait_for(lock,
                        std::chrono::milliseconds(options_.poll_interval_ms),
                        [&] { return stop_; });
      if (stop_) return;
    }
    const Status s = ApplyAvailable();
    if (!s.ok()) POLARMP_LOG(Warn) << "standby apply stopped: " << s.ToString();
  }
}

StatusOr<char*> StandbyReplicator::PageForRedo(PageId page_id) {
  std::unique_ptr<char[]>& page = pages_[page_id.Pack()];
  if (page == nullptr) page = std::make_unique<char[]>(options_.page_size);
  return page.get();  // zero-filled when new
}

const char* StandbyReplicator::FindPage(PageId page_id) const {
  auto it = pages_.find(page_id.Pack());
  return it == pages_.end() ? nullptr : it->second.get();
}

Status StandbyReplicator::ApplyAvailable() {
  MutexLock lock(mu_);
  for (NodeId node : primary_log_->AllLogs()) {
    merge_.AddStream(node, 0, /*end=*/std::nullopt);
  }
  for (;;) {
    while (const LogRecord* rec = merge_.Front()) {
      POLARMP_ASSIGN_OR_RETURN(
          const RedoOutcome outcome,
          ApplyRedoRecord(*rec, options_.page_size, this, nullptr));
      if (outcome == RedoOutcome::kPageApplied) ++records_applied_;
      merge_.Pop();
    }
    POLARMP_ASSIGN_OR_RETURN(const bool progressed, merge_.Step());
    if (!progressed) break;
  }
  cv_.notify_all();
  return Status::OK();
}

bool StandbyReplicator::WaitForCatchUp(uint64_t timeout_ms) {
  std::map<NodeId, Lsn> targets;
  for (NodeId node : primary_log_->AllLogs()) {
    auto end = primary_log_->DurableLsn(node);
    if (end.ok()) targets[node] = end.value();
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  UniqueLock lock(mu_);
  return cv_.wait_until(lock, deadline, [&] {
    for (const auto& [node, target] : targets) {
      if (merge_.ConsumedLsn(node) < target) return false;
    }
    return true;
  });
}

uint64_t StandbyReplicator::LagBytes() const {
  MutexLock lock(mu_);
  uint64_t lag = 0;
  for (NodeId node : primary_log_->AllLogs()) {
    auto end = primary_log_->DurableLsn(node);
    if (end.ok()) lag += end.value() - merge_.ConsumedLsn(node);
  }
  return lag;
}

uint64_t StandbyReplicator::records_applied() const {
  MutexLock lock(mu_);
  return records_applied_;
}

Status StandbyReplicator::ScanTable(
    SpaceId space, const std::function<bool(const RowView&)>& fn) const {
  MutexLock lock(mu_);
  const char* buf = FindPage(PageId{space, 0});
  if (buf == nullptr) {
    return Status::NotFound("space not replicated: " + std::to_string(space));
  }
  // Descend the leftmost path, then walk the leaf chain.
  for (int depth = 0; depth < 64; ++depth) {
    Page page(const_cast<char*>(buf), options_.page_size);
    if (page.is_leaf()) break;
    if (page.nslots() == 0) return Status::Corruption("empty internal page");
    auto row = page.RowAt(0);
    POLARMP_RETURN_IF_ERROR(row.status());
    if (row.value().value.size() < 4) {
      return Status::Corruption("bad child pointer");
    }
    buf = FindPage(PageId{space, DecodeFixed32(row.value().value.data())});
    if (buf == nullptr) return Status::Corruption("missing child page");
  }
  for (;;) {
    Page page(const_cast<char*>(buf), options_.page_size);
    for (int slot = 0; slot < page.nslots(); ++slot) {
      auto row = page.RowAt(slot);
      POLARMP_RETURN_IF_ERROR(row.status());
      if (!fn(row.value())) return Status::OK();
    }
    const PageNo next = page.next();
    if (next == kInvalidPageNo) break;
    buf = FindPage(PageId{space, next});
    if (buf == nullptr) return Status::Corruption("missing leaf page");
  }
  return Status::OK();
}

}  // namespace polarmp
