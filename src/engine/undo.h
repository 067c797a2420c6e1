#ifndef POLARMP_ENGINE_UNDO_H_
#define POLARMP_ENGINE_UNDO_H_

#include <atomic>
#include <map>
#include <string>

#include "common/lock_rank.h"
#include "dsm/dsm.h"
#include "engine/row.h"

namespace polarmp {

// The row operation an undo record reverses.
enum class UndoType : uint8_t {
  kInsert = 1,  // row did not exist before: rollback removes it
  kUpdate = 2,  // restore previous image/metadata
  kDelete = 3,  // clear the tombstone, restore previous image
};

// Undo record: the previous version of one row plus chain links. Serves
// both MVCC version reconstruction (walk `prev_undo` of the *row*) and
// transaction rollback (walk `trx_prev` of the *transaction*).
struct UndoRecord {
  UndoType type = UndoType::kUpdate;
  SpaceId space = 0;
  int64_t key = 0;
  GTrxId trx = kInvalidGTrxId;   // transaction that wrote this record
  UndoPtr trx_prev = kNullUndoPtr;  // that transaction's previous record

  // Snapshot of the row before the operation (meaningless for kInsert).
  GTrxId prev_trx = kInvalidGTrxId;
  Csn prev_cts = kCsnInit;
  UndoPtr prev_undo = kNullUndoPtr;
  uint8_t prev_flags = 0;
  std::string prev_value;

  std::string Encode() const;
  static StatusOr<UndoRecord> Decode(Slice data);
  size_t EncodedSize() const;
  static constexpr size_t kHeaderSize = 58;
};

// Undo store: one append-only ring segment per node, living in DSM so that
// any node can reconstruct any row's history with one-sided reads (the
// paper keeps undo in shared storage pages reachable through Buffer Fusion;
// a DSM-resident store exercises the same remote-read path with the same
// RDMA pricing, and recovery rebuilds it from kUndoAppend redo records —
// "undo logs are also protected by its redo logs", §4.4).
class UndoStore {
 public:
  UndoStore(Dsm* dsm, uint64_t segment_bytes);

  UndoStore(const UndoStore&) = delete;
  UndoStore& operator=(const UndoStore&) = delete;

  Status AddNode(NodeId node);

  struct AppendResult {
    UndoPtr ptr;        // stable pointer to the record
    uint64_t offset;    // logical offset (for the kUndoAppend redo record)
    std::string bytes;  // encoded record (for the kUndoAppend redo record)
  };

  // Appends a record to `node`'s segment (called by that node's workers;
  // charged as a DSM write). Fails with Internal if the live window would
  // exceed the segment (undo retention outran purge).
  StatusOr<AppendResult> Append(NodeId node, const UndoRecord& rec);

  // Reads a record from any node's segment; `from` prices the access.
  // NotFound if the record was purged.
  StatusOr<UndoRecord> Read(EndpointId from, UndoPtr ptr) const;

  // Purge: declare everything below `offset` in `node`'s segment dead.
  Status FreeUpTo(NodeId node, uint64_t offset);

  // Recovery: raw replay of a kUndoAppend record.
  Status WriteRaw(NodeId node, uint64_t offset, Slice bytes);

  uint64_t head(NodeId node) const;
  uint64_t tail(NodeId node) const;
  uint64_t segment_bytes() const { return capacity_; }

 private:
  struct Segment {
    // polarlint: unguarded(written once when the segment is created)
    DsmPtr base;
    // Logical append offset (0..7 reserved) and purge watermark; lock-free
    // readers on the history-walk path.
    // polarlint: allow(raw-atomic) ring cursors, not counters
    // polarlint: unguarded(lock-free ring cursor)
    std::atomic<uint64_t> head{8};
    // polarlint: allow(raw-atomic) ring cursors, not counters
    // polarlint: unguarded(lock-free ring cursor)
    std::atomic<uint64_t> tail{8};
    // Serializes appenders only; readers go through the atomic cursors.
    RankedMutex append_mu{LockRank::kUndoSegment, "undo.segment_append"};
  };

  Dsm* const dsm_;
  const uint64_t capacity_;
  mutable RankedMutex mu_{LockRank::kUndoTable, "undo.segments"};
  // Guards the map only: Segment objects are never erased, so a Segment*
  // looked up under mu_ stays valid after the lock is dropped.
  std::map<NodeId, std::unique_ptr<Segment>> segments_ GUARDED_BY(mu_);
};

}  // namespace polarmp

#endif  // POLARMP_ENGINE_UNDO_H_
