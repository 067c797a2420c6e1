#ifndef POLARMP_PMFS_LOCK_FUSION_H_
#define POLARMP_PMFS_LOCK_FUSION_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/lock_rank.h"
#include "common/status.h"
#include "common/types.h"
#include "obs/metrics.h"
#include "rdma/fabric.h"
#include "rdma/retry_policy.h"

namespace polarmp {

// Lock Fusion (§4.3): the PMFS service implementing the two cross-node
// locking protocols.
//
//  * PLock (§4.3.1, Fig. 5) — node-granularity page locks guaranteeing
//    physical consistency. Lock Fusion tracks each lock's holders and a
//    FIFO waiter queue. Nodes retain released locks locally ("lazy
//    releasing"); when another node's request conflicts, Lock Fusion sends
//    the holder a *negotiation message* asking it to hand the lock back
//    once its local reference count drains. A retained hold changes mode
//    in place: an idle S converts to X in one round trip (UpgradePLock),
//    and an X holder asked only for S drops to S (DowngradePLock) instead
//    of giving the page up.
//
//  * RLock (§4.3.2, Fig. 6) — row-lock metadata is embedded in the rows
//    themselves; Lock Fusion only keeps the wait-for relation. A blocked
//    transaction registers (waiter → holder), the holder's commit sends a
//    notification, and Lock Fusion wakes the waiters. The wait-for graph
//    also gives cross-node deadlock detection for free.
//
// All entry points charge one RPC on the fabric (callers are remote nodes).
class LockFusion {
 public:
  // Delivered to the holding node when another node wants a conflicting
  // PLock; the node must answer once its reference count reaches zero.
  // `wanted` is the mode the blocked front waiter asks for: kShared lets an
  // X holder answer with DowngradePLock and keep reading locally, kExclusive
  // asks for the whole hold back (ReleasePLock). Invoked WITHOUT
  // LockFusion's internal mutex held; the handler may call back into
  // ReleasePLock or DowngradePLock.
  using NegotiateHandler = std::function<void(PageId page, LockMode wanted)>;

  explicit LockFusion(Fabric* fabric) : fabric_(fabric) {}

  LockFusion(const LockFusion&) = delete;
  LockFusion& operator=(const LockFusion&) = delete;

  // ---- node lifecycle -----------------------------------------------------
  void AddNode(NodeId node, NegotiateHandler handler);
  // Crash path: fails the node's waiters, clears its row-lock waits and
  // releases its SHARED holds. Exclusive holds are retained as "ghost"
  // holds: the crashed node may have logged changes to those pages that are
  // not yet in the DBP/storage, so other nodes must not touch them until
  // recovery has replayed the node's log and called ReleaseAllHolds.
  void RemoveNode(NodeId node);
  // Recovery-complete path: drops every remaining hold of `node` and grants
  // waiters.
  void ReleaseAllHolds(NodeId node);

  // ---- PLock ---------------------------------------------------------------
  // Blocks until granted. If the node already holds the page, the call is an
  // upgrade request (granted when no other node holds the page). Returns
  // Busy on timeout, Unavailable if the node was removed while waiting.
  //
  // Acquire/Release are NOT idempotent, so the client stub mints a request
  // id per logical call and retries injected transients with it; the
  // service keeps a per-client outcome window (RpcDedupCache) and replays
  // the recorded result for a retransmit whose original execution finished
  // (the lost-reply case) instead of granting twice.
  Status AcquirePLock(NodeId node, PageId page, LockMode mode,
                      uint64_t timeout_ms);
  // S→X conversion of the node's idle S hold in one round trip: the S is
  // dropped and the X queued in the same critical section, so two nodes
  // upgrading the same page serialize through the FIFO instead of each
  // waiting on the other's S. Blocks like AcquirePLock and dedups
  // retransmits the same way; on any failure the node holds nothing.
  // (AcquirePLock on a held page is the upgrade that KEEPS the S, for a
  // node whose S still has local references.)
  Status UpgradePLock(NodeId node, PageId page, uint64_t timeout_ms);
  // Gives the node's hold back entirely (called when the local reference
  // count is zero and a negotiation asked for the page, or on eviction).
  Status ReleasePLock(NodeId node, PageId page);
  // X→S conversion in place: the answer to a negotiation that asked only
  // for S, after the node pushed its dirty image. The node keeps a plain S
  // hold (RemoveNode frees it at once) and S waiters are granted. A node
  // holding S or nothing is left as is, so a retransmit is harmless and
  // carries no request id.
  Status DowngradePLock(NodeId node, PageId page);

  // True if fusion records `node` as holding `page` at ≥ `mode`.
  bool HoldsPLock(NodeId node, PageId page, LockMode mode) const;

  // ---- RLock wait-for table -------------------------------------------------
  // Registers waiter→holder. Returns Aborted if the edge closes a cycle in
  // the wait-for graph (the requester is chosen as the deadlock victim).
  Status RegisterWait(GTrxId waiter, GTrxId holder);
  // Blocks until the holder finishes or timeout (Busy). Deregisters the
  // wait before returning. Must follow a successful RegisterWait.
  Status AwaitHolder(GTrxId waiter, uint64_t timeout_ms);
  // Deregisters without waiting (the waiter noticed the holder finished).
  void CancelWait(GTrxId waiter);
  // From a committing/rolling-back transaction whose TIT ref flag was set.
  void NotifyTrxFinished(GTrxId holder);

  // Human-readable dump of every held/contended PLock and wait edge
  // (deadlock forensics).
  std::string DebugDump() const;

  Fabric* fabric() const { return fabric_; }

  // ---- telemetry -------------------------------------------------------------
  // Thin shims over this instance's registry handles ("lock_fusion.*"
  // families). Safe to read lock-free from any thread; wait-time
  // distributions live in "lock_fusion.{plock,rlock}_wait_ns".
  uint64_t plock_acquire_rpcs() const { return plock_acquire_rpcs_.Value(); }
  uint64_t plock_release_rpcs() const { return plock_release_rpcs_.Value(); }
  uint64_t plock_downgrade_rpcs() const {
    return plock_downgrade_rpcs_.Value();
  }
  uint64_t negotiations_sent() const { return negotiations_sent_.Value(); }
  uint64_t rlock_waits() const { return rlock_waits_.Value(); }
  uint64_t deadlocks_detected() const { return deadlocks_detected_.Value(); }
  void ResetCounters();

 private:
  struct PLockWaiter {
    NodeId node;
    LockMode mode;
    bool granted = false;
    bool failed = false;  // node removed while waiting
  };

  // A negotiation message owed to `holder`: the front waiter on `page` is
  // blocked by its hold and wants `wanted`.
  struct Negotiation {
    PageId page;
    NodeId holder;
    LockMode wanted;
  };

  struct PLockEntry {
    std::map<NodeId, LockMode> holders;
    std::deque<std::shared_ptr<PLockWaiter>> queue;
    // Holders already sent a negotiation for the current conflict.
    std::map<NodeId, bool> negotiated;
  };

  struct TrxWait {
    GTrxId waiter;
    GTrxId holder;
    bool done = false;
  };

  // RPC wire layer: request-leg fault injection, dedup lookup, execution,
  // outcome recording, reply-leg fault injection. The public stubs retry
  // injected transients around these with the SAME request id.
  // `convert` selects UpgradePLock: the node's own S is dropped as the X
  // is queued.
  Status AcquirePLockRpc(NodeId node, PageId page, LockMode mode,
                         bool convert, uint64_t timeout_ms,
                         uint64_t request_id);
  Status ReleasePLockRpc(NodeId node, PageId page, uint64_t request_id);
  // Service bodies (the pre-fault-injection semantics, verbatim).
  Status AcquirePLockImpl(NodeId node, PageId page, LockMode mode,
                          bool convert, uint64_t timeout_ms);
  Status ReleasePLockImpl(NodeId node, PageId page);
  Status DowngradePLockImpl(NodeId node, PageId page);
  Status RegisterWaitImpl(GTrxId waiter, GTrxId holder);

  // Grants as many FIFO waiters as compatibility allows. Appends the
  // negotiation messages owed to holders that block the new front waiter.
  void TryGrant(PageId page, PLockEntry* entry,
                std::vector<Negotiation>* negotiations) REQUIRES(mu_);
  static bool CanGrant(const PLockEntry& entry, const PLockWaiter& w);
  // Delivers the negotiation messages TryGrant asked for. TryGrant has
  // already marked these holders negotiated, so a dropped message strands
  // the hold: every later TryGrant skips it.
  void SendNegotiations(const std::vector<Negotiation>& negotiations)
      EXCLUDES(mu_);

  // True if starting from `from` the wait-for chain reaches `target`.
  bool WaitChainReaches(GTrxId from, GTrxId target) const REQUIRES(mu_);
  // Removes the waiter's edge from both indexes.
  void RemoveWaitLocked(GTrxId waiter) REQUIRES(mu_);

  Fabric* const fabric_;

  // Client-side request-id mint for the dedup-capable RPCs. Monotonic and
  // process-wide unique; never read back, so no ordering is needed.
  // polarlint: allow(raw-atomic) lock-free id mint, no associated state
  // polarlint: unguarded(atomic mint, independent of lock-fusion state)
  std::atomic<uint64_t> next_request_id_{1};
  // Service-side request-id -> outcome window (keyed by client node).
  // polarlint: unguarded(internally synchronized: own RankedMutex at kRpc)
  RpcDedupCache dedup_{"lock_fusion.dedup"};

  mutable RankedMutex mu_{LockRank::kPmfsService, "lock_fusion.state"};
  CondVar cv_;
  // key: PageId::Pack()
  std::unordered_map<uint64_t, PLockEntry> plocks_ GUARDED_BY(mu_);
  std::map<NodeId, NegotiateHandler> nodes_ GUARDED_BY(mu_);

  std::unordered_map<GTrxId, std::shared_ptr<TrxWait>> waits_by_waiter_
      GUARDED_BY(mu_);
  std::unordered_map<GTrxId, std::vector<std::shared_ptr<TrxWait>>>
      waits_by_holder_ GUARDED_BY(mu_);

  obs::Counter plock_acquire_rpcs_{"lock_fusion.plock_acquire_rpcs"};
  obs::Counter plock_release_rpcs_{"lock_fusion.plock_release_rpcs"};
  obs::Counter plock_downgrade_rpcs_{"lock_fusion.plock_downgrade_rpcs"};
  obs::Counter negotiations_sent_{"lock_fusion.negotiations_sent"};
  obs::Counter rlock_waits_{"lock_fusion.rlock_waits"};
  obs::Counter deadlocks_detected_{"lock_fusion.deadlocks_detected"};
  obs::LatencyHistogram plock_wait_ns_{"lock_fusion.plock_wait_ns"};
  obs::LatencyHistogram rlock_wait_ns_{"lock_fusion.rlock_wait_ns"};
};

}  // namespace polarmp

#endif  // POLARMP_PMFS_LOCK_FUSION_H_
