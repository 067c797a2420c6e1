#ifndef POLARMP_CLUSTER_STANDBY_H_
#define POLARMP_CLUSTER_STANDBY_H_

#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>

#include "common/lock_rank.h"
#include "engine/row.h"
#include "storage/log_store.h"
#include "wal/redo_applier.h"

namespace polarmp {

// Cross-region standby (§3: "PolarDB-MP also incorporates a standby node to
// ensure high availability across regions. Changes occurring in the primary
// cluster are synchronized to the standby cluster using the write-ahead
// log").
//
// The replicator tails every primary node's redo stream through the redo
// applier of crash recovery (wal/redo_applier.h), with streams that have no
// end and a zero-filled page map: the standby is, in effect, a
// perpetually-recovering cluster. A record that fails to apply stays
// pending, so replication stops there and LagBytes/WaitForCatchUp show it.
// Reads (`ScanTable`) see a transactionally-unsplit prefix only after
// `WaitForCatchUp` on a quiesced primary, as the failover runbook uses it.
class StandbyReplicator : private RedoPageSource {
 public:
  struct Options {
    uint64_t poll_interval_ms = 20;
    uint32_t page_size = 8192;
  };

  // Tails `primary_log` (the primary region's log store); applied pages
  // live in the standby's own memory (its region's storage stand-in).
  StandbyReplicator(LogStore* primary_log, const Options& options);
  ~StandbyReplicator();

  StandbyReplicator(const StandbyReplicator&) = delete;
  StandbyReplicator& operator=(const StandbyReplicator&) = delete;

  void Start();
  void Stop();

  // Blocks until every known primary stream has been applied up to its
  // durable end at call time. Returns false on timeout.
  bool WaitForCatchUp(uint64_t timeout_ms);

  // Bytes of redo not yet applied, summed over streams.
  uint64_t LagBytes() const;
  uint64_t records_applied() const;

  // Read a table directly from the standby's pages (failover / verify
  // path). Walks the tree from `space`'s root, emitting the latest row
  // versions; rows whose transactions were uncommitted at the applied
  // horizon surface with their in-flight values, as on a physical replica
  // promoted without undo processing — callers quiesce the primary first.
  Status ScanTable(SpaceId space,
                   const std::function<bool(const RowView&)>& fn) const;

 private:
  void ReplicationLoop();
  // Applies whatever is durable beyond the merge's cursors, stopping at
  // the first record that fails to apply.
  Status ApplyAvailable() EXCLUDES(mu_);
  // The standby's pages are zero-filled on first touch, written by redo.
  StatusOr<char*> PageForRedo(PageId page_id) override REQUIRES(mu_);
  // nullptr if no record has touched the page.
  const char* FindPage(PageId page_id) const REQUIRES(mu_);

  LogStore* const primary_log_;
  const Options options_;

  mutable RankedMutex mu_{LockRank::kStandby, "standby.apply"};
  CondVar cv_;
  RedoMerge merge_ GUARDED_BY(mu_);
  std::unordered_map<uint64_t, std::unique_ptr<char[]>> pages_
      GUARDED_BY(mu_);
  uint64_t records_applied_ GUARDED_BY(mu_) = 0;

  // Set in Start under stop_mu_; joined in Stop after the stop_ handshake,
  // necessarily outside the lock.
  // polarlint: unguarded(lifecycle thread; Start/Stop are serialized)
  std::thread replicator_;
  RankedMutex stop_mu_{LockRank::kStandbyStop, "standby.stop"};
  CondVar stop_cv_;
  bool stop_ GUARDED_BY(stop_mu_) = false;
  bool started_ GUARDED_BY(stop_mu_) = false;
};

}  // namespace polarmp

#endif  // POLARMP_CLUSTER_STANDBY_H_
