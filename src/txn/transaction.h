#ifndef POLARMP_TXN_TRANSACTION_H_
#define POLARMP_TXN_TRANSACTION_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/lock_rank.h"
#include "common/status_future.h"
#include "engine/btree.h"
#include "engine/undo.h"
#include "obs/metrics.h"
#include "pmfs/lock_fusion.h"
#include "pmfs/transaction_fusion.h"
#include "txn/read_view.h"
#include "txn/tit.h"

namespace polarmp {

enum class TrxState : uint8_t {
  kActive,
  // Commit in flight: provisional CTS published, redo buffered, waiting
  // for the group force to land. TrxManager::FinishCommit moves it on.
  kCommitting,
  kCommitted,
  kRolledBack,
};

// A transaction executing on one node (PolarDB-MP never needs distributed
// transactions: every node sees all data, §1).
class Transaction {
 public:
  Transaction(TrxId local_id, GTrxId gid, IsolationLevel iso)
      : local_id_(local_id), gid_(gid), iso_(iso) {}

  TrxId local_id() const { return local_id_; }
  GTrxId gid() const { return gid_; }
  IsolationLevel isolation() const { return iso_; }
  TrxState state() const { return state_.load(std::memory_order_acquire); }
  Csn cts() const { return cts_; }

  const ReadView& view() const { return view_; }
  // view_.cts is written by the owner thread (RefreshView) while the
  // TrxManager background thread scans it for the minimum view, so the
  // cross-thread accesses go through std::atomic_ref.
  bool has_view() const { return view_cts() != kCsnInit; }
  Csn view_cts() const {
    return std::atomic_ref<Csn>(const_cast<Csn&>(view_.cts))
        .load(std::memory_order_acquire);
  }

  UndoPtr last_undo() const { return last_undo_; }
  // Owner-written, scanned by the background purge pass (atomic_ref, like
  // view_cts() and first_lsn()).
  uint64_t first_undo_offset() const {
    return std::atomic_ref<uint64_t>(const_cast<uint64_t&>(first_undo_offset_))
        .load(std::memory_order_acquire);
  }
  bool has_writes() const { return last_undo_ != kNullUndoPtr; }
  // LSN of the transaction's first redo byte (checkpoints must not pass it
  // while the transaction is active); 0 if it has not written. Written by
  // the owner thread, scanned by the background checkpoint pass — same
  // atomic_ref discipline as view_cts().
  Lsn first_lsn() const {
    return std::atomic_ref<Lsn>(const_cast<Lsn&>(first_lsn_))
        .load(std::memory_order_acquire);
  }

 private:
  friend class TrxManager;

  struct TouchedRow {
    PageId page;  // leaf the row lived on at write time (backfill hint)
    int64_t key;
    SpaceId space;
    bool tombstone;
  };

  const TrxId local_id_;
  const GTrxId gid_;
  const IsolationLevel iso_;
  std::atomic<TrxState> state_{TrxState::kActive};
  ReadView view_;
  Csn cts_ = kCsnInit;

  UndoPtr last_undo_ = kNullUndoPtr;
  // Published before the first undo append: at or below every undo offset
  // the transaction writes (UINT64_MAX until then).
  uint64_t first_undo_offset_ = UINT64_MAX;
  Lsn first_lsn_ = 0;
  std::vector<TouchedRow> touched_;

  // Async-commit lifecycle, both guarded by TrxManager::mu_: while
  // commit_pending_ a queued force completion (FinishCommit, on the log
  // writer's flusher) still needs this object, so Release defers the erase
  // and sets released_ instead; whoever clears commit_pending_ performs it.
  // polarlint: unguarded(guarded by TrxManager::mu_, annotated there)
  bool commit_pending_ = false;
  // polarlint: unguarded(guarded by TrxManager::mu_, annotated there)
  bool released_ = false;
};

// Per-node transaction manager: TIT slot lifecycle, MVCC visibility
// (Algorithm 1), the embedded-row-lock write protocol (§4.3.2), the
// commit (CTS fetch → provisional publish → redo append → group force;
// then finalize: post-force CTS → TIT publish → CTS backfill → waiter
// notification) and undo-based rollback. A default commit leads or follows
// the group force and finalizes on the committer's own thread; an async
// commit is finalized by the log writer's flusher, which runs force
// callbacks in LSN order with no log writer locks held. The background
// tick drives min-view reporting, TIT recycling and undo purge.
class TrxManager {
 public:
  struct Options {
    uint64_t lock_wait_timeout_ms = 2'000;
    int write_retry_limit = 64;
    // Opt-in async-commit mode: the client-visible commit point moves to
    // force-ENQUEUE time — CommitAsync completes its callback/future as
    // soon as the commit record is on the group-commit pipeline, row locks
    // release early (writers may overwrite a kCommitting row), and the CTS
    // is finalized in the background when the force lands. Trades the
    // durability wait for a crash window: a commit acknowledged but not yet
    // forced is rolled back by recovery (its provisional CTS is never
    // finalized, so no reader ever admitted it). Default off = classic
    // durable commit (the blocking point is the group force).
    bool async_commit = false;
  };

  TrxManager(EngineContext* engine, Tit* tit, TsoClient* tso,
             TransactionFusion* txn_fusion, LockFusion* lock_fusion,
             UndoStore* undo, const Options& options);

  TrxManager(const TrxManager&) = delete;
  TrxManager& operator=(const TrxManager&) = delete;

  // Maps a tablespace to its tree so Rollback can route undo records.
  // Installed by DbNode before any transaction runs.
  void SetTreeResolver(std::function<BTree*(SpaceId)> resolver) {
    tree_resolver_ = std::move(resolver);
  }

  NodeId node() const { return engine_->node; }

  // Commit completion primitive. The future/callback completes with the
  // commit's outcome Status at the client-visible commit point: once the
  // group force lands (default), or at force-enqueue (async_commit mode).
  using CommitFuture = StatusFuture;
  using CommitCallback = std::function<void(Status)>;

  StatusOr<Transaction*> Begin(IsolationLevel iso);

  // Commit: fetches the CTS, publishes it provisionally, buffers the commit
  // record and forces it. By default the caller leads or follows the group
  // force and runs FinishCommit (CTS finalization, backfill, waiter wakeup)
  // itself, so `done` runs on the caller before this returns. In
  // async_commit mode `done` runs at once and the flusher runs FinishCommit
  // when the force lands. On a non-OK completion in the default mode the
  // transaction is back in kActive and the caller must Rollback it
  // (Session does).
  CommitFuture CommitAsync(Transaction* trx);
  void CommitAsync(Transaction* trx, CommitCallback done);

  // Blocking form — equivalent to CommitAsync(trx).Wait(). In async_commit
  // mode this returns at the enqueue point.
  Status Commit(Transaction* trx);

  Status Rollback(Transaction* trx);
  // After Commit/Rollback the pointer stays valid until Release. With a
  // commit still in flight (async mode) the destruction is deferred to the
  // force completion; callers must not touch the pointer after Release.
  void Release(Transaction* trx);

  // ---- row operations (engine-facing; Session wraps them) ----

  // Writes `value` (or a tombstone) for `key`, acquiring the embedded row
  // lock, emitting undo and redo. `must_not_exist` gives INSERT semantics
  // (AlreadyExists if a committed, non-deleted version exists).
  // On success *prev (if non-null) receives the previous committed version
  // (absent for fresh inserts), which callers use for GSI maintenance.
  // Errors: Aborted (deadlock victim), Busy (lock wait timeout), NotFound
  // (update/delete of a missing row — when `require_exists`).
  Status WriteRow(Transaction* trx, BTree* tree, int64_t key, Slice value,
                  bool tombstone, bool must_not_exist, bool require_exists,
                  std::optional<RowVersion>* prev);

  // MVCC point read. NotFound if no visible version (or visible tombstone).
  StatusOr<std::string> ReadRow(Transaction* trx, BTree* tree, int64_t key);

  // Locking point read (SELECT ... FOR UPDATE): acquires the embedded row
  // lock by re-publishing the current committed version under this
  // transaction's gid (regular kUpdate undo restores it on rollback), then
  // returns that value. Unlike ReadRow this reads the LATEST committed
  // version, not the snapshot — which is the point: read-modify-write
  // cycles built on plain ReadRow lose updates under read committed (two
  // transactions read the same base, both write), while a ForUpdate read
  // serializes them on the row lock. Errors mirror WriteRow: Aborted
  // (deadlock victim / SI conflict), Busy (lock wait timeout), NotFound
  // (missing row or visible tombstone).
  StatusOr<std::string> ReadRowForUpdate(Transaction* trx, BTree* tree,
                                         int64_t key);

  // MVCC range scan: visible versions of rows with lo <= key <= hi.
  Status ScanRows(Transaction* trx, BTree* tree, int64_t lo, int64_t hi,
                  const std::function<bool(int64_t, const std::string&)>& fn);

  // Algorithm 1 (GetCTSForRow) generalized to any reconstructed version.
  Csn GetCtsForVersion(GTrxId g_trx, Csn row_cts) const;

  // Drives min-view reporting, TIT recycling and undo purge; called by the
  // node's background thread.
  void BackgroundTick();

  // Checkpoint gate: the lowest first-redo LSN among active writing
  // transactions (UINT64_MAX if none).
  Lsn OldestActiveFirstLsn() const;

  // Recovery: rolls back a pre-crash transaction identified by its gid and
  // last undo pointer, through the normal (logged, locked) engine path.
  Status RollbackRecovered(GTrxId gid, UndoPtr last_undo);

  // Crash support: forget all volatile transaction state. The caller
  // quiesces the log writer first (LogWriter::Abandon), so no force
  // completion still references a Transaction that dies here.
  void DropAll();

  // Telemetry shims over this node's registry handles ("txn.*" counters;
  // the commit-path decomposition feeds "txn_fusion.commit*_ns").
  uint64_t purged_rows() const { return purged_rows_.Value(); }
  uint64_t lock_waits() const { return lock_waits_.Value(); }
  uint64_t deadlock_aborts() const { return deadlock_aborts_.Value(); }

 private:
  // Refreshes the statement view per the isolation level.
  Status RefreshView(Transaction* trx);
  // RefreshView for a writing statement: a no-op unless the view is read.
  Status RefreshWriteView(Transaction* trx);
  // Appends one of the transaction's undo records, first keeping purge off
  // it.
  StatusOr<UndoStore::AppendResult> AppendUndo(Transaction* trx,
                                               const UndoRecord& rec);

  // True if the transaction behind `g_trx` is still active (conservative on
  // unreachable owners).
  bool IsTrxActive(GTrxId g_trx) const;

  // Fig. 6 wait protocol. OK = holder finished, retry the row; Aborted =
  // deadlock victim; Busy = timeout.
  Status WaitForRowLock(Transaction* trx, GTrxId holder);

  // Reconstructs the newest version visible to `view`, starting from the
  // on-page row. Returns nullopt if no visible version exists.
  StatusOr<std::optional<RowVersion>> VisibleVersion(
      const Transaction* trx, const RowView& row) const;

  // Best-effort commit-time CTS backfill (§4.1).
  void BackfillCts(Transaction* trx);

  // Force-completion continuation, run with no locks held: on the
  // committer's thread (default mode) or the log writer's flusher (async
  // mode). It may write pages, and a page eviction's log force is led by
  // the same thread. Finalizes the CTS (fetched AFTER the force), publishes
  // it, backfills rows, wakes waiters and completes `done`; on a force
  // error it re-activates and, in async mode, rolls the acknowledged commit
  // back.
  void FinishCommit(Transaction* trx, Csn provisional_cts, Status force_status,
                    CommitCallback done);

  // Clears trx->commit_pending_ and performs a Release that arrived while
  // the commit was in flight.
  void FinishCommitBookkeeping(Transaction* trx);

  // Physically removes `key`'s row if it is a globally-visible tombstone.
  Status PurgeRow(SpaceId space, int64_t key, Csn gmin);

  void FinishWaiters(Transaction* trx);

  EngineContext* const engine_;
  Tit* const tit_;
  TsoClient* const tso_;
  TransactionFusion* const txn_fusion_;
  LockFusion* const lock_fusion_;
  UndoStore* const undo_;
  const Options options_;
  // polarlint: unguarded(installed once by DbNode before transactions run)
  std::function<BTree*(SpaceId)> tree_resolver_;

  mutable RankedMutex mu_{LockRank::kTrxManager, "txn.active"};
  TrxId next_local_id_ GUARDED_BY(mu_) = 1;
  std::map<TrxId, std::unique_ptr<Transaction>> active_ GUARDED_BY(mu_);

  struct FinishedTrx {
    GTrxId gid;
    Csn recycle_after;          // recycle when global min view exceeds this
    uint64_t first_undo_offset;  // UINT64_MAX if no undo
    uint64_t end_undo_offset;    // undo head when the trx finished
  };
  std::vector<FinishedTrx> finished_ GUARDED_BY(mu_);

  // Tombstone purge queue: rows deleted by committed transactions become
  // physically removable once globally visible (the row-level analogue of
  // TIT recycling; without it deleted rows would pin page space forever).
  struct PurgeCandidate {
    SpaceId space;
    int64_t key;
    Csn delete_cts;
  };
  std::vector<PurgeCandidate> purge_queue_ GUARDED_BY(mu_);
  obs::Counter purged_rows_{"txn.purged_rows"};

  obs::Counter lock_waits_{"txn.lock_waits"};
  obs::Counter deadlock_aborts_{"txn.deadlock_aborts"};
  obs::Counter commits_{"txn_fusion.commits"};
  // All committed transactions INCLUDING read-only ones (which skip the
  // commit pipeline above). Benches derive fabric_ops_per_txn from this.
  obs::Counter all_commits_{"trx.commits"};

  // Commit-path segments: enqueue (CTS fetch + provisional publish + record
  // append), log (record appended to force landed), finalize (post-force
  // CTS fetch + TIT publish + backfill + waiter wakeup), and the whole
  // path. The TSO fetch keeps its own sub-segment.
  obs::LatencyHistogram commit_ns_{"txn_fusion.commit_ns"};
  obs::LatencyHistogram commit_tso_ns_{"txn_fusion.commit_tso_ns"};
  obs::LatencyHistogram commit_enqueue_ns_{"txn_fusion.commit_enqueue_ns"};
  obs::LatencyHistogram commit_log_ns_{"txn_fusion.commit_log_ns"};
  obs::LatencyHistogram commit_finalize_ns_{"txn_fusion.commit_finalize_ns"};
};

}  // namespace polarmp

#endif  // POLARMP_TXN_TRANSACTION_H_
