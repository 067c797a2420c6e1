#include "engine/plock_manager.h"

#include "rdma/rpc.h"

namespace polarmp {

Status PLockManager::Pin(PageId page, LockMode mode, uint64_t timeout_ms) {
  const uint64_t key = page.Pack();
  UniqueLock lock(mu_);
  for (;;) {
    Entry& e = entries_[key];
    if (e.releasing) {
      cv_.wait(lock);
      continue;
    }
    if (e.held && Sufficient(e.mode, mode)) {
      if (e.release_requested) {
        // Fusion fairness: a negotiated hold cannot grant locally; wait for
        // the answer (a release, or a downgrade that keeps S), then retry.
        if (e.refs == 0 && !e.acquiring) {
          // Nothing will trigger the answer (the last Unpin predated the
          // negotiation); run it from here.
          AnswerNegotiationLocked(page);
        } else {
          cv_.wait(lock);
        }
        continue;
      }
      ++e.refs;
      local_grants_.Inc();
      if (e.leased) {
        // The lease paid off: a repeat acquisition on a cache-resident
        // page granted without leaving the node.
        e.leased = false;
        lease_regrants_.Inc();
      }
      return Status::OK();
    }
    if (e.acquiring) {
      cv_.wait(lock);
      continue;
    }
    // Fresh acquire, or X on a held S. An idle S converts in one RPC: Lock
    // Fusion drops it in the critical section that queues the X, so two
    // nodes upgrading symmetrically serialize instead of each waiting on
    // the other's S, and a negotiation pending on the S is answered by the
    // drop. An S that peers still reference stays while the X queues
    // beside it (PartialReleaseLocked covers a negotiation meanwhile).
    const bool convert = e.held && e.refs == 0;
    if (convert) {
      upgrades_.Inc();
      e.held = false;
      e.release_requested = false;
      e.downgrade_ok = false;
      e.leased = false;
    }
    e.acquiring = true;
    lock.unlock();
    const Status st =
        convert ? fusion_->UpgradePLock(node_, page, timeout_ms)
                : fusion_->AcquirePLock(node_, page, mode, timeout_ms);
    fusion_acquires_.Inc();
    lock.lock();
    Entry& e2 = entries_[key];  // may have rehashed
    e2.acquiring = false;
    cv_.notify_all();
    if (!st.ok()) {
      if (!e2.held && e2.refs == 0 && !e2.releasing &&
          !e2.release_requested) {
        entries_.erase(key);
      }
      return st;
    }
    e2.held = true;
    e2.mode = std::max(e2.mode, mode);
    ++e2.refs;
    return Status::OK();
  }
}

bool PLockManager::TryPinLocal(PageId page, LockMode mode) {
  MutexLock lock(mu_);
  auto it = entries_.find(page.Pack());
  if (it == entries_.end()) return false;
  Entry& e = it->second;
  if (!e.held || e.releasing || e.release_requested ||
      !Sufficient(e.mode, mode)) {
    return false;
  }
  ++e.refs;
  local_grants_.Inc();
  if (e.leased) {
    e.leased = false;
    lease_regrants_.Inc();
  }
  return true;
}

void PLockManager::Unpin(PageId page) {
  const uint64_t key = page.Pack();
  MutexLock lock(mu_);
  auto it = entries_.find(key);
  POLARMP_CHECK(it != entries_.end());
  Entry& e = it->second;
  POLARMP_CHECK_GT(e.refs, 0u);
  --e.refs;
  if (e.refs == 0 && (e.release_requested || !lazy_release_) &&
      !e.releasing) {
    if (!e.acquiring) {
      AnswerNegotiationLocked(page);
    } else if (e.held && !e.downgrade_ok) {
      // An S-only request is for the X about to land: the weak hold blocks
      // no S waiter, and releasing it could release that X too.
      PartialReleaseLocked(page);
    }
  }
  cv_.notify_all();
}

void PLockManager::OnNegotiate(PageId page, LockMode wanted) {
  const uint64_t key = page.Pack();
  MutexLock lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return;  // already released
  Entry& e = it->second;
  const bool shared_only = wanted == LockMode::kShared;
  if (shared_only && e.held && e.mode == LockMode::kShared && !e.acquiring) {
    // Only an X hold blocks an S waiter. This one is S already: the message
    // predates a downgrade or a fresh S grant, and either made Lock Fusion
    // re-check its queue.
    return;
  }
  e.downgrade_ok = shared_only && (e.downgrade_ok || !e.release_requested);
  e.release_requested = true;
  if (e.held && e.refs == 0 && !e.releasing) {
    if (!e.acquiring) {
      AnswerNegotiationLocked(page);
    } else if (!e.downgrade_ok) {
      PartialReleaseLocked(page);
    }
  }
}

Status PLockManager::ForceRelease(PageId page) {
  const uint64_t key = page.Pack();
  MutexLock lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return Status::OK();
  Entry& e = it->second;
  if (!e.held) {
    if (e.acquiring || e.releasing) {
      return Status::Busy("PLock entry busy");
    }
    entries_.erase(it);
    return Status::OK();
  }
  if (e.refs > 0 || e.acquiring || e.releasing) {
    return Status::Busy("PLock in use");
  }
  e.releasing = true;
  // The evicting caller already flushed the frame; running the hook here
  // would deadlock on the frame's mid-eviction state.
  ReleaseLocked(page, /*run_hook=*/false);
  return Status::OK();
}

Status PLockManager::DemoteToLease(PageId page) {
  const uint64_t key = page.Pack();
  MutexLock lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return Status::OK();
  Entry& e = it->second;
  if (!e.held) {
    if (e.acquiring || e.releasing) {
      return Status::Busy("PLock entry busy");
    }
    entries_.erase(it);
    return Status::OK();
  }
  if (e.refs > 0 || e.acquiring || e.releasing) {
    return Status::Busy("PLock in use");
  }
  if (!lazy_release_) {
    // The ablation baseline retains no idle holds; give it back like a
    // plain eviction (the caller already flushed the frame).
    e.releasing = true;
    ReleaseLocked(page, /*run_hook=*/false);
    return Status::OK();
  }
  e.leased = true;
  lease_demotes_.Inc();
  return Status::OK();
}

void PLockManager::ReleaseLease(PageId page) {
  const uint64_t key = page.Pack();
  MutexLock lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  Entry& e = it->second;
  if (!e.leased) return;
  if (e.held && e.refs == 0 && !e.acquiring && !e.releasing) {
    e.releasing = true;
    // The page is long gone from the LBP; the hook is a harmless no-op
    // there, and running it keeps the release path uniform.
    ReleaseLocked(page, /*run_hook=*/true);
    return;
  }
  // The hold became active again (or is mid-transition); it is no longer
  // a lease, just a normal retained hold.
  e.leased = false;
}

void PLockManager::ReleaseLocked(PageId page, bool run_hook) {
  negotiated_releases_.Inc();
  mu_.unlock();
  {
    // Doorbell batch: the hook's dirty-push NotifyPush and the release RPC
    // ride one fabric operation.
    RpcBatch batch(fusion_->fabric(), node_, kPmfsEndpoint);
    if (run_hook) PushBeforeRelease(page);
    const Status s = fusion_->ReleasePLock(node_, page);
    if (!s.ok() && !s.IsNotFound()) {
      POLARMP_LOG(Warn) << "PLock release failed: " << s.ToString();
    }
  }
  mu_.lock();
  entries_.erase(page.Pack());
  cv_.notify_all();
}

void PLockManager::PushBeforeRelease(PageId page) {
  if (!before_release_) return;
  const Status s = before_release_(page);
  if (!s.ok()) {
    POLARMP_LOG(Warn) << "before-release hook failed for page "
                      << page.ToString() << ": " << s.ToString();
  }
}

void PLockManager::AnswerNegotiationLocked(PageId page) {
  Entry& e = entries_[page.Pack()];
  e.releasing = true;
  if (lazy_release_ && e.downgrade_ok && e.mode == LockMode::kExclusive) {
    DowngradeLocked(page);
  } else {
    ReleaseLocked(page, /*run_hook=*/true);
  }
}

void PLockManager::DowngradeLocked(PageId page) {
  downgrades_.Inc();
  Entry& e = entries_[page.Pack()];
  // This answers every request so far; one that arrives during the RPC is
  // a new one.
  e.release_requested = false;
  e.downgrade_ok = false;
  mu_.unlock();
  Status s;
  {
    // Doorbell batch, as in ReleaseLocked: the push and the downgrade ride
    // one fabric operation.
    RpcBatch batch(fusion_->fabric(), node_, kPmfsEndpoint);
    PushBeforeRelease(page);
    s = fusion_->DowngradePLock(node_, page);
  }
  mu_.lock();
  Entry& e2 = entries_[page.Pack()];
  e2.releasing = false;
  if (s.ok()) {
    e2.mode = LockMode::kShared;
  } else {
    // Lock Fusion may still record X: give the whole hold back instead.
    POLARMP_LOG(Warn) << "PLock downgrade failed: " << s.ToString();
    e2.release_requested = true;
    e2.downgrade_ok = false;
  }
  // Pins waited on `releasing`, so the hold is still idle.
  if (e2.release_requested) AnswerNegotiationLocked(page);
  cv_.notify_all();
}

void PLockManager::PartialReleaseLocked(PageId page) {
  Entry& e = entries_[page.Pack()];
  e.releasing = true;
  // This answers the request; one that arrives during the RPC is for the
  // acquire landing meanwhile and must survive it.
  e.release_requested = false;
  e.downgrade_ok = false;
  mu_.unlock();
  {
    RpcBatch batch(fusion_->fabric(), node_, kPmfsEndpoint);
    PushBeforeRelease(page);
    const Status s = fusion_->ReleasePLock(node_, page);
    if (!s.ok() && !s.IsNotFound()) {
      POLARMP_LOG(Warn) << "partial PLock release failed: " << s.ToString();
    }
  }
  mu_.lock();
  Entry& e2 = entries_[page.Pack()];
  e2.releasing = false;
  if (e2.acquiring) {
    // The queued acquire has not landed yet; we no longer hold anything.
    e2.held = false;
    e2.mode = LockMode::kShared;
  } else if (e2.refs == 0 && (e2.release_requested || !lazy_release_)) {
    // The queued acquire landed and its last Unpin came while we released,
    // so that Unpin (or a negotiation for the fresh hold) left the answer
    // to us.
    AnswerNegotiationLocked(page);
  }
  cv_.notify_all();
}

bool PLockManager::HeldLocally(PageId page, LockMode mode) const {
  MutexLock lock(mu_);
  auto it = entries_.find(page.Pack());
  if (it == entries_.end()) return false;
  return it->second.held && Sufficient(it->second.mode, mode);
}

std::string PLockManager::DebugDump() const {
  MutexLock lock(mu_);
  std::string out = "PLockManager node " + std::to_string(node_) + ":\n";
  for (const auto& [key, e] : entries_) {
    out += "  page " + PageId::Unpack(key).ToString() +
           " held=" + std::to_string(e.held) +
           " mode=" + (e.mode == LockMode::kExclusive ? "X" : "S") +
           " refs=" + std::to_string(e.refs) +
           " rel_req=" + std::to_string(e.release_requested) +
           " down_ok=" + std::to_string(e.downgrade_ok) +
           " acq=" + std::to_string(e.acquiring) +
           " rel=" + std::to_string(e.releasing) +
           " leased=" + std::to_string(e.leased) + "\n";
  }
  return out;
}

void PLockManager::DropAll() {
  MutexLock lock(mu_);
  entries_.clear();
  cv_.notify_all();
}

}  // namespace polarmp
