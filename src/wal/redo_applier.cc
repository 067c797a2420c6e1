#include "wal/redo_applier.h"

#include <algorithm>
#include <string_view>
#include <vector>

#include "common/coding.h"
#include "engine/page.h"

namespace polarmp {

namespace {

// Bytes read from one stream per merge step.
constexpr uint64_t kChunkBytes = 1 << 20;

// Size of the row image at the front of `images`, or 0 if it is truncated.
size_t RowImageSize(std::string_view images) {
  if (images.size() < kRowHeaderSize) return 0;
  const size_t size = RowSizeAt(images.data());
  return size <= images.size() ? size : 0;
}

bool IsRowImageBatch(std::string_view images) {
  while (!images.empty()) {
    const size_t size = RowImageSize(images);
    if (size == 0) return false;
    images.remove_prefix(size);
  }
  return true;
}

bool IsUndoImage(std::string_view body) {
  auto rec = UndoRecord::Decode(Slice(body.data(), body.size()));
  return rec.ok() && rec.value().EncodedSize() == body.size();
}

Status Malformed(const LogRecord& rec) {
  return Status::Corruption("malformed redo record of type " +
                            std::to_string(static_cast<int>(rec.type)));
}

// The page-LLSN gate: `op` runs iff the page is older than the record.
template <typename Op>
StatusOr<RedoOutcome> ApplyToPage(const LogRecord& rec, uint32_t page_size,
                                  RedoPageSource* pages, Op op) {
  if (rec.llsn == 0) return Malformed(rec);
  POLARMP_ASSIGN_OR_RETURN(char* buf, pages->PageForRedo(rec.page_id));
  Page page(buf, page_size);
  if (page.llsn() >= rec.llsn) return RedoOutcome::kPageSkipped;
  POLARMP_RETURN_IF_ERROR(op(page));
  page.set_llsn(rec.llsn);
  return RedoOutcome::kPageApplied;
}

}  // namespace

StatusOr<RedoOutcome> ApplyRedoRecord(const LogRecord& rec,
                                      uint32_t page_size,
                                      RedoPageSource* pages, UndoStore* undo) {
  const std::string& body = rec.body;
  switch (rec.type) {
    case LogRecordType::kInitPage:
      if (body.size() != 9) return Malformed(rec);  // level, prev, next
      return ApplyToPage(rec, page_size, pages, [&](Page& page) {
        page.Init(rec.page_id, static_cast<uint8_t>(body[0]),
                  DecodeFixed32(body.data() + 1),
                  DecodeFixed32(body.data() + 5));
        return Status::OK();
      });
    case LogRecordType::kWriteRow:
      if (body.empty() || RowImageSize(body) != body.size()) {
        return Malformed(rec);
      }
      return ApplyToPage(rec, page_size, pages,
                         [&](Page& page) { return page.WriteRow(body); });
    case LogRecordType::kRemoveRow:
      if (body.size() != 8) return Malformed(rec);  // key
      return ApplyToPage(rec, page_size, pages, [&](Page& page) {
        const Status s =
            page.RemoveRow(static_cast<int64_t>(DecodeFixed64(body.data())));
        return s.IsNotFound() ? Status::OK() : s;
      });
    case LogRecordType::kSetPageLinks:
      if (body.size() != 8) return Malformed(rec);  // prev, next
      return ApplyToPage(rec, page_size, pages, [&](Page& page) {
        page.set_links(DecodeFixed32(body.data()),
                       DecodeFixed32(body.data() + 4));
        return Status::OK();
      });
    case LogRecordType::kLoadRows:
      if (!IsRowImageBatch(body)) return Malformed(rec);
      return ApplyToPage(rec, page_size, pages,
                         [&](Page& page) { return page.LoadRows(body); });
    case LogRecordType::kTruncateRows:
      if (!body.empty()) return Malformed(rec);
      return ApplyToPage(rec, page_size, pages, [&](Page& page) {
        page.TruncateFromKey(static_cast<int64_t>(rec.aux));
        return Status::OK();
      });
    case LogRecordType::kUndoAppend:
      if (!IsUndoImage(body)) return Malformed(rec);
      if (undo != nullptr) {
        // Appends never wrap the segment's ring.
        const uint64_t segment = undo->segment_bytes();
        if (rec.aux % segment + body.size() > segment) return Malformed(rec);
        POLARMP_RETURN_IF_ERROR(undo->WriteRaw(rec.node, rec.aux, body));
      }
      return RedoOutcome::kNotPageRecord;
    case LogRecordType::kTrxCommit:
    case LogRecordType::kTrxRollbackEnd:
    case LogRecordType::kLlsnMark:
      if (!body.empty()) return Malformed(rec);
      return RedoOutcome::kNotPageRecord;
  }
  return Malformed(rec);
}

void RedoMerge::AddStream(NodeId node, Lsn from, std::optional<Lsn> end) {
  if (streams_.count(node) != 0) return;
  Stream& s = streams_[node];
  s.read = from;
  s.consumed = from;
  s.end = end;
}

StatusOr<bool> RedoMerge::Step() {
  bool progressed = false;
  for (auto& [node, s] : streams_) {
    if (!s.pending.empty() || s.Drained()) continue;
    uint64_t want = kChunkBytes;
    if (s.end.has_value()) want = std::min(want, *s.end - s.read);
    std::string chunk;
    POLARMP_RETURN_IF_ERROR(log_store_->ReadAt(node, s.read, want, &chunk));
    progressed |= !chunk.empty();
    s.read += chunk.size();
    s.tail += chunk;
    size_t pos = 0;
    while (pos < s.tail.size()) {
      size_t consumed = 0;
      auto rec =
          LogRecord::Decode(std::string_view(s.tail).substr(pos), &consumed);
      if (!rec.ok()) break;  // incomplete tail; the next chunk completes it
      s.horizon = std::max(s.horizon, rec.value().llsn);
      s.pending.push_back(Entry{std::move(rec).value(), s.horizon, &s});
      pos += consumed;
    }
    s.tail.erase(0, pos);
    if (s.Drained() && !s.tail.empty()) {
      return Status::Corruption("torn record at end of node log " +
                                std::to_string(node));
    }
  }
  // LLSN_bound: every unread record's LLSN exceeds it (§4.4).
  Llsn bound = UINT64_MAX;
  for (const auto& [node, s] : streams_) {
    if (!s.Drained()) bound = std::min(bound, s.horizon);
  }
  // Same-page records from different nodes must interleave by LLSN, not
  // stream by stream, so the batch is sorted before it is handed out.
  std::vector<Entry> batch;
  for (auto& [node, s] : streams_) {
    while (!s.pending.empty() && s.pending.front().key <= bound) {
      batch.push_back(std::move(s.pending.front()));
      s.pending.pop_front();
    }
  }
  std::stable_sort(batch.begin(), batch.end(),
                   [](const Entry& a, const Entry& b) {
                     return a.key < b.key;
                   });
  progressed |= !batch.empty();
  for (Entry& e : batch) ready_.push_back(std::move(e));
  return progressed;
}

const LogRecord* RedoMerge::Front() const {
  return ready_.empty() ? nullptr : &ready_.front().rec;
}

void RedoMerge::Pop() {
  Entry& e = ready_.front();
  e.stream->consumed += e.rec.EncodedSize();
  ready_.pop_front();
}

bool RedoMerge::Done() const {
  if (!ready_.empty()) return false;
  for (const auto& [node, s] : streams_) {
    if (!s.Drained() || !s.pending.empty()) return false;
  }
  return true;
}

Lsn RedoMerge::ConsumedLsn(NodeId node) const {
  auto it = streams_.find(node);
  return it == streams_.end() ? 0 : it->second.consumed;
}

}  // namespace polarmp
