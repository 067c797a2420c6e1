#ifndef POLARMP_WAL_REDO_APPLIER_H_
#define POLARMP_WAL_REDO_APPLIER_H_

#include <deque>
#include <map>
#include <optional>
#include <string>

#include "engine/undo.h"
#include "storage/log_store.h"
#include "wal/log_record.h"

namespace polarmp {

// The one redo applier (§4.4). Crash recovery, single-node restart, online
// takeover and the cross-region standby (§3) all replay redo through
// RedoMerge (which record next) and ApplyRedoRecord (what it does to its
// page), over their own RedoPageSource.

// Where ApplyRedoRecord finds pages.
class RedoPageSource {
 public:
  virtual ~RedoPageSource() = default;
  // `page_id`'s current image: a page-size buffer, zero-filled (LLSN 0) if
  // the page was never materialized. Stays valid while the source lives.
  virtual StatusOr<char*> PageForRedo(PageId page_id) = 0;
};

enum class RedoOutcome {
  kPageApplied,    // the page was older; it now carries the record
  kPageSkipped,    // the page's LLSN was already at or past the record's
  kNotPageRecord,  // transaction, undo-append or heartbeat record
};

// Validates `rec` and applies it to its page iff the page's LLSN stamp is
// older, which makes replay idempotent. kUndoAppend bytes are rewritten
// into `undo` unless it is null. A record of unknown type or malformed
// body returns Corruption and changes nothing.
StatusOr<RedoOutcome> ApplyRedoRecord(const LogRecord& rec,
                                      uint32_t page_size,
                                      RedoPageSource* pages, UndoStore* undo);

// Merges per-node redo streams into one LLSN-ordered sequence.
//
// Each step reads one chunk from every stream with nothing pending and
// computes LLSN_bound, the smallest decoded LLSN horizon among the streams
// that hold it down; as every stream is LLSN-monotone, no unread record can
// undershoot it. Records at or below the bound become ready in LLSN order;
// the rest stay decoded for the next step. Transaction records (LLSN 0)
// ride at their stream predecessor's LLSN, so each stream is consumed in
// stream order.
//
// A stream stops holding the bound down once drained to the end its caller
// gave (recovery: the durable LSN). A stream without an end (the standby's)
// is tailed; kLlsnMark heartbeats keep an idle one's horizon moving.
class RedoMerge {
 public:
  explicit RedoMerge(LogStore* log_store) : log_store_(log_store) {}

  RedoMerge(const RedoMerge&) = delete;
  RedoMerge& operator=(const RedoMerge&) = delete;

  // Merges `node`'s stream from `from` on; no-op if already merged.
  void AddStream(NodeId node, Lsn from, std::optional<Lsn> end);

  // One merge round. False if it neither read a byte nor readied a record;
  // Corruption if a stream's given end cuts a record.
  StatusOr<bool> Step();

  // The next ready record, or nullptr. It stays ready until Pop, so a
  // consumer that fails to apply it leaves it pending.
  const LogRecord* Front() const;
  void Pop();

  // Every stream drained to its end with nothing left to pop.
  bool Done() const;

  // `node`'s stream position below which every record was popped.
  Lsn ConsumedLsn(NodeId node) const;

 private:
  struct Stream;
  struct Entry {
    LogRecord rec;
    Llsn key = 0;  // rec.llsn, or the stream predecessor's for LLSN 0
    Stream* stream = nullptr;
  };
  struct Stream {
    Lsn read = 0;
    Lsn consumed = 0;
    std::optional<Lsn> end;
    std::string tail;  // undecoded bytes of the last chunk
    std::deque<Entry> pending;
    Llsn horizon = 0;  // max LLSN decoded so far

    bool Drained() const { return end.has_value() && read >= *end; }
  };

  LogStore* const log_store_;
  std::map<NodeId, Stream> streams_;
  std::deque<Entry> ready_;
};

}  // namespace polarmp

#endif  // POLARMP_WAL_REDO_APPLIER_H_
