#ifndef POLARMP_ENGINE_PLOCK_MANAGER_H_
#define POLARMP_ENGINE_PLOCK_MANAGER_H_

#include <atomic>
#include <functional>
#include <unordered_map>

#include "common/lock_rank.h"
#include "obs/metrics.h"
#include "pmfs/lock_fusion.h"

namespace polarmp {

// Node-side PLock cache implementing the paper's lazy releasing (§4.3.1,
// Fig. 5): "Instead of releasing its PLock back to Lock Fusion immediately
// after use, a node decreases the reference count ... If the same node
// needs to acquire the PLock again, and the requested lock type is not
// stronger than the currently held type, the PLock can be granted locally."
//
// When Lock Fusion sends a negotiation message (another node wants a
// conflicting mode), new local grants are refused — "it must communicate
// with Lock Fusion, which manages the granting of locks in FIFO order" —
// and the hold is answered once the reference count drains, after the
// dirty page (if any) has been pushed to the DBP by the before-release
// hook. An X hold asked only for S downgrades to S and keeps its frame, so
// the node's next read is a local grant; any other request gives the hold
// back.
class PLockManager {
 public:
  // `lazy_release` enables the paper's lazy releasing (§4.3.1); disabling
  // it releases every PLock back to Lock Fusion as soon as its reference
  // count drains (the ablation baseline).
  PLockManager(NodeId node, LockFusion* fusion, bool lazy_release = true)
      : node_(node), fusion_(fusion), lazy_release_(lazy_release) {}

  PLockManager(const PLockManager&) = delete;
  PLockManager& operator=(const PLockManager&) = delete;

  // Pushes the page to the DBP if dirty; runs before the PLock goes back to
  // Lock Fusion.
  void SetBeforeRelease(std::function<Status(PageId)> hook) {
    before_release_ = std::move(hook);
  }

  // Acquires (or locally re-grants) the PLock and takes a reference. X on
  // an idle retained S is one conversion RPC (LockFusion::UpgradePLock);
  // while other threads still reference the S, the X is queued beside it.
  // CALLER RULE: do not hold a reference on `page` while requesting a
  // stronger mode for it (pick the final mode before pinning).
  Status Pin(PageId page, LockMode mode, uint64_t timeout_ms);

  // Takes a reference only if the lock is already held locally at a
  // sufficient mode with no pending negotiation; never contacts Lock
  // Fusion. Used by best-effort paths like commit-time CTS backfill.
  bool TryPinLocal(PageId page, LockMode mode);

  // Drops a reference; triggers the negotiated release when it drains.
  void Unpin(PageId page);

  // Lock Fusion negotiation callback (registered via LockFusion::AddNode);
  // `wanted` is the mode the remote waiter asks for.
  void OnNegotiate(PageId page, LockMode wanted);

  // Eviction support: releases the node's hold entirely. Returns Busy if
  // the page has references or an acquire in flight (pick another victim).
  Status ForceRelease(PageId page);

  // Eviction support for pages the index cache still holds: instead of
  // releasing the hold back to Lock Fusion, keeps it as a LEASE — the
  // fusion-side grant stays with this node (refs == 0), so the next Pin on
  // the page is a pure local regrant that never leaves the node. Lock
  // Fusion revokes leases through the normal negotiation path (a lease is
  // just an idle retained hold, so OnNegotiate releases it immediately).
  // Same Busy conditions as ForceRelease; with lazy releasing disabled
  // (the ablation baseline retains no idle holds) it degrades to a full
  // ForceRelease.
  Status DemoteToLease(PageId page);

  // Hands a lease back to Lock Fusion (the index cache evicted the page,
  // so nothing local justifies the hold anymore). No-op unless the page's
  // hold is an idle lease.
  void ReleaseLease(PageId page);

  bool HeldLocally(PageId page, LockMode mode) const;

  // Crash simulation: forget all local state (Lock Fusion's RemoveNode
  // drops the server side).
  void DropAll();

  // Human-readable dump of all local entries (deadlock forensics).
  std::string DebugDump() const;

  // Telemetry shims over this instance's registry handles ("plock.*").
  uint64_t local_grants() const { return local_grants_.Value(); }
  uint64_t fusion_acquires() const { return fusion_acquires_.Value(); }
  uint64_t negotiated_releases() const {
    return negotiated_releases_.Value();
  }
  // S→X conversions of an idle retained S (read-then-write on one page),
  // each one fusion RPC; counted in fusion_acquires() too.
  uint64_t upgrades() const { return upgrades_.Value(); }
  // X→S conversions answering a negotiation that asked only for S.
  uint64_t downgrades() const { return downgrades_.Value(); }
  uint64_t lease_demotes() const { return lease_demotes_.Value(); }
  uint64_t lease_regrants() const { return lease_regrants_.Value(); }

 private:
  struct Entry {
    bool held = false;
    LockMode mode = LockMode::kShared;
    uint32_t refs = 0;
    bool release_requested = false;
    // Every negotiation pending since the last answer asked only for S: an
    // X hold may answer by downgrading. Meaningless without
    // release_requested.
    bool downgrade_ok = false;
    bool acquiring = false;
    bool releasing = false;
    // Idle hold kept because the index cache holds the page (see
    // DemoteToLease). Cleared by the Pin that re-uses it.
    bool leased = false;
  };

  static bool Sufficient(LockMode held, LockMode wanted) {
    return held == LockMode::kExclusive || held == wanted;
  }

  // Runs the release protocol for `page`. The entry must be held with
  // refs==0 and releasing already set to true. Drops mu_ around the hook
  // and the fusion RPC, reacquiring it before returning (invisible to the
  // static analysis; the contract is held-on-entry, held-on-exit). With
  // `run_hook` the dirty page is pushed first (negotiated releases);
  // eviction already flushed and must skip it (the frame is mid-eviction
  // and the hook would deadlock waiting on it).
  void ReleaseLocked(PageId page, bool run_hook) REQUIRES(mu_);

  // Runs the before-release hook with mu_ dropped; a failed push is logged
  // and the release or downgrade goes ahead.
  void PushBeforeRelease(PageId page);

  // Answers the pending negotiation (or, with lazy releasing off, the
  // drained reference count) on an idle hold: held, refs==0, no acquire or
  // release in flight. Downgrades an X asked only for S, else releases.
  void AnswerNegotiationLocked(PageId page) REQUIRES(mu_);

  // Pushes the dirty page and converts the X hold to S at Lock Fusion,
  // keeping the hold and the LBP frame. Same drop-and-reacquire shape as
  // ReleaseLocked, with releasing already set. A request that arrives
  // during the RPC (a remote X behind the S just granted) is answered
  // before returning.
  void DowngradeLocked(PageId page) REQUIRES(mu_);

  // Gives the held mode back to Lock Fusion while an acquire for a
  // stronger mode is still queued there: the entry survives (held=false)
  // so the acquiring thread keeps its bookkeeping. Without this, a
  // negotiated release requested while refs==0 and acquiring==true would
  // never run — the lazily-retained weak hold then deadlocks the fusion
  // FIFO (our own queued upgrade waits behind the waiter our hold blocks).
  // Same drop-and-reacquire shape as ReleaseLocked. A negotiation for the
  // stronger hold that lands during the RPC is kept, and answered before
  // returning if that hold is already idle.
  void PartialReleaseLocked(PageId page) REQUIRES(mu_);

  const NodeId node_;
  LockFusion* const fusion_;
  const bool lazy_release_;
  // polarlint: unguarded(installed once by DbNode before traffic)
  std::function<Status(PageId)> before_release_;

  mutable RankedMutex mu_{LockRank::kPlock, "plock.entries"};
  CondVar cv_;
  std::unordered_map<uint64_t, Entry> entries_ GUARDED_BY(mu_);

  obs::Counter local_grants_{"plock.local_grants"};
  obs::Counter fusion_acquires_{"plock.fusion_acquires"};
  obs::Counter negotiated_releases_{"plock.negotiated_releases"};
  obs::Counter upgrades_{"plock.upgrades"};
  obs::Counter downgrades_{"plock.downgrades"};
  obs::Counter lease_demotes_{"plock.lease_demotes"};
  obs::Counter lease_regrants_{"plock.lease_regrants"};
};

}  // namespace polarmp

#endif  // POLARMP_ENGINE_PLOCK_MANAGER_H_
