#include "wal/log_writer.h"

#include <algorithm>

#include "obs/trace.h"

namespace polarmp {

LogWriter::LogWriter(NodeId node, LogStore* store)
    : node_(node), store_(store) {
  if (!store_->LogExists(node_)) {
    const Status s = store_->CreateLog(node_);
    POLARMP_CHECK(s.ok()) << s.ToString();
  }
  const auto durable = store_->DurableLsn(node_);
  POLARMP_CHECK(durable.ok());
  durable_ = durable.value();
  buffer_start_ = durable_;
  flusher_ = std::thread([this] { FlusherLoop(); });
}

LogWriter::~LogWriter() {
  {
    MutexLock lock(group_mu_);
    stop_ = true;
    flusher_cv_.notify_all();
  }
  flusher_.join();
}

Lsn LogWriter::Add(const std::vector<LogRecord>& records) {
  std::string encoded;
  for (const LogRecord& rec : records) rec.AppendTo(&encoded);
  return AddEncoded(encoded);
}

Lsn LogWriter::AddEncoded(const std::string& encoded) {
  appends_.Inc();
  MutexLock lock(mu_);
  buffer_ += encoded;
  return buffer_start_ + buffer_.size();
}

Status LogWriter::AdmitLocked(Lsn lsn, bool* queue) {
  *queue = false;
  if (abandoned_ || stop_) return Status::Aborted("log writer abandoned");
  // Checked under group_mu_: a leader publishes durable_ before it retakes
  // group_mu_ to land, so a waiter admitted here is covered by that landing
  // or a later one.
  MutexLock lock(mu_);
  if (durable_ >= lsn) return Status::OK();
  if (lsn > buffer_start_ + buffer_.size()) {
    return Status::Internal("force target beyond buffered log");
  }
  *queue = true;
  return Status::OK();
}

void LogWriter::EnqueueLocked(Waiter w) {
  w.seq = next_seq_++;
  w.enqueue_ns = obs::TraceSpan::NowNanos();
  if (w.parked == nullptr) {
    ++flusher_waiters_;
    if (!leading_) flusher_cv_.notify_one();
  }
  force_queue_depth_.Add(1);
  waiters_.push_back(std::move(w));
}

Status LogWriter::Force(Lsn lsn) {
  UniqueLock lock(group_mu_);
  bool queue = false;
  const Status admitted = AdmitLocked(lsn, &queue);
  if (!queue) return admitted;
  Parked parked;
  Waiter w;
  w.target = lsn;
  w.parked = &parked;
  EnqueueLocked(std::move(w));
  const uint64_t start_ns = obs::TraceSpan::NowNanos();
  while (!parked.done) {
    if (!leading_ && !paused_ && !abandoned_) {
      LeadLocked();
    } else {
      parked.cv.wait(lock);
    }
  }
  lock.unlock();
  commit_wait_ns_.Record(obs::TraceSpan::NowNanos() - start_ns);
  return parked.status;
}

void LogWriter::Submit(Waiter w) {
  Status status;
  {
    MutexLock lock(group_mu_);
    bool queue = false;
    status = AdmitLocked(w.target, &queue);
    if (queue) {
      EnqueueLocked(std::move(w));
      return;
    }
    if (status.ok() && (flusher_busy_ || !completions_.empty())) {
      // Already durable, but earlier completions have not run yet: queue
      // behind them to keep the LSN order.
      w.enqueue_ns = obs::TraceSpan::NowNanos();
      w.status = status;
      completions_.push_back(std::move(w));
      flusher_cv_.notify_one();
      return;
    }
  }
  // Nothing ahead of it (or rejected): complete on the caller's thread.
  if (w.promise != nullptr) w.promise->Set(status);
  if (w.cb) w.cb(std::move(status));
}

void LogWriter::ForceAsync(Lsn lsn, ForceCallback cb) {
  Waiter w;
  w.target = lsn;
  w.cb = std::move(cb);
  Submit(std::move(w));
}

LogWriter::ForceHandle LogWriter::ForceAsync(Lsn lsn) {
  Waiter w;
  w.target = lsn;
  w.promise = std::make_unique<StatusPromise>();
  ForceHandle handle = w.promise->future();
  Submit(std::move(w));
  return handle;
}

LogWriter::ForceHandle LogWriter::ForceAllAsync() {
  return ForceAsync(buffered_lsn());
}

void LogWriter::ForceAllAsync(ForceCallback cb) {
  ForceAsync(buffered_lsn(), std::move(cb));
}

Status LogWriter::ForceTo(Lsn lsn) { return ForceAsync(lsn).Wait(); }

Status LogWriter::ForceAll() { return ForceAllAsync().Wait(); }

void LogWriter::LeadLocked() {
  leading_ = true;
  group_mu_.unlock();
  // Claim the WHOLE buffer: one storage append covers every queued waiter
  // (group commit). While it is on the wire, committers keep buffering and
  // queueing — the next group accumulates behind this one (the pipeline).
  std::string batch;
  Lsn batch_start = 0;
  {
    MutexLock lock(mu_);
    batch.swap(buffer_);
    batch_start = buffer_start_;
    buffer_start_ += batch.size();
  }
  // An empty claim lands the already-durable prefix without an append.
  Status status = Status::OK();
  if (!batch.empty()) {
    forces_.Inc();
    // force_ns is the device force alone; waiters' time is commit_wait_ns.
    obs::TraceSpan span(&force_ns_);
    auto appended = store_->Append(node_, batch);
    if (appended.ok()) {
      POLARMP_CHECK_EQ(appended.value(), batch_start)
          << "log stream diverged from writer bookkeeping";
    } else {
      status = appended.status();
      span.Cancel();
    }
  }
  const Lsn new_durable = batch_start + batch.size();
  {
    MutexLock lock(mu_);
    if (status.ok()) {
      durable_ = new_durable;
    } else {
      // Put the batch back so a later force can retry the bytes.
      buffer_.insert(0, batch);
      buffer_start_ = batch_start;
    }
  }
  group_mu_.lock();
  leading_ = false;
  LandLocked(new_durable, status);
}

void LogWriter::LandLocked(Lsn durable, const Status& status) {
  // On an error every queued waiter fails: the durability they asked for
  // did not happen, and retry policy lives above the log writer.
  std::vector<Waiter> landed;
  size_t group = 0;
  auto keep = waiters_.begin();
  for (Waiter& w : waiters_) {
    if (status.ok() && w.target > durable) {
      if (&*keep != &w) *keep = std::move(w);
      ++keep;
      continue;
    }
    ++group;
    force_queue_depth_.Add(-1);
    if (w.parked != nullptr) {
      w.parked->status = status;
      w.parked->done = true;
      w.parked->cv.notify_one();
    } else {
      --flusher_waiters_;
      w.status = status;
      landed.push_back(std::move(w));
    }
  }
  waiters_.erase(keep, waiters_.end());
  if (group > 0 && status.ok()) group_size_.Record(group);
  if (!landed.empty()) {
    // Completion order contract: ascending LSN (request order breaks
    // ties). Every target here exceeds the previous landing's durable
    // point, so appending keeps completions_ globally ordered.
    std::sort(landed.begin(), landed.end(),
              [](const Waiter& a, const Waiter& b) {
                return a.target != b.target ? a.target < b.target
                                            : a.seq < b.seq;
              });
    for (Waiter& w : landed) completions_.push_back(std::move(w));
  }
  if (!landed.empty() || stop_) flusher_cv_.notify_one();
  // Hand leadership on: a parked thread leads next; with none, the flusher
  // forces for the callback/handle waiters.
  if (!paused_) {
    auto next = std::find_if(waiters_.begin(), waiters_.end(),
                             [](const Waiter& w) { return w.parked != nullptr; });
    if (next != waiters_.end()) {
      next->parked->cv.notify_one();
    } else if (flusher_waiters_ > 0) {
      flusher_cv_.notify_one();
    }
  }
  idle_cv_.notify_all();
}

void LogWriter::Complete(std::vector<Waiter> done) {
  // Runs with NO LogWriter locks held: callbacks may take engine locks
  // (finalizing an async commit takes the TIT and the transaction table,
  // and backfilling its rows latches pages).
  for (Waiter& w : done) {
    commit_wait_ns_.Record(obs::TraceSpan::NowNanos() - w.enqueue_ns);
    if (w.promise != nullptr) w.promise->Set(w.status);
    if (w.cb) w.cb(std::move(w.status));
  }
}

void LogWriter::FlusherLoop() {
  UniqueLock lock(group_mu_);
  for (;;) {
    if (!completions_.empty()) {
      std::vector<Waiter> done;
      done.swap(completions_);
      flusher_busy_ = true;
      lock.unlock();
      Complete(std::move(done));
      lock.lock();
      flusher_busy_ = false;
      idle_cv_.notify_all();
      continue;
    }
    if (stop_ && !leading_) {
      if (waiters_.empty()) return;
      LandLocked(0, Status::Aborted("log writer abandoned"));
      continue;
    }
    if (flusher_waiters_ > 0 && !leading_ && !paused_ && !abandoned_ &&
        !stop_) {
      LeadLocked();
      continue;
    }
    flusher_cv_.wait(lock);
  }
}

void LogWriter::PauseFlusher() {
  UniqueLock lock(group_mu_);
  paused_ = true;
  // Wait out an in-flight force: after return no new force starts.
  idle_cv_.wait(lock, [&]() REQUIRES(group_mu_) { return !leading_; });
}

void LogWriter::ResumeFlusher() {
  MutexLock lock(group_mu_);
  paused_ = false;
  for (Waiter& w : waiters_) {
    if (w.parked != nullptr) w.parked->cv.notify_one();
  }
  flusher_cv_.notify_one();
}

void LogWriter::Abandon() {
  UniqueLock lock(group_mu_);
  abandoned_ = true;
  // No new leader starts from here; an append already on the wire lands
  // and completes its waiters normally (those bytes made it out).
  idle_cv_.wait(lock, [&]() REQUIRES(group_mu_) { return !leading_; });
  {
    // The volatile buffer evaporates, as it would in a real crash.
    MutexLock buffer_lock(mu_);
    buffer_.clear();
  }
  LandLocked(0, Status::Aborted("log writer abandoned"));
  // Quiesce: on return no completion callback is running or pending.
  idle_cv_.wait(lock, [&]() REQUIRES(group_mu_) {
    return completions_.empty() && !flusher_busy_;
  });
}

size_t LogWriter::pending_forces() const {
  MutexLock lock(group_mu_);
  return waiters_.size();
}

void LogWriter::ResetCounters() {
  appends_.Reset();
  forces_.Reset();
  force_ns_.Reset();
  commit_wait_ns_.Reset();
  group_size_.Reset();
}

Lsn LogWriter::durable_lsn() const {
  MutexLock lock(mu_);
  return durable_;
}

Lsn LogWriter::buffered_lsn() const {
  MutexLock lock(mu_);
  return buffer_start_ + buffer_.size();
}

}  // namespace polarmp
