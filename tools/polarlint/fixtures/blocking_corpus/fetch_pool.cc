// polarlint-fixture-path: src/cache/fetch_pool.cc
//
// Fixture for the blocking-under-lock pass: round-trip fusion RPCs and
// sleeps under a held RankedMutex report — directly and through one level
// of inlining — while the cv-wait idiom (which releases its own mutex for
// the wait's duration), RPCs issued after the guard is dropped, helpers
// that drop-and-reacquire around their RPC, and documented sites stay
// silent.

#include "engine/fetch_pool.h"

namespace polarmp {

// A page-fusion round trip with the pool mutex held stalls every waiter
// for a fabric RTT.
Status FetchPool::WarmUnderLock(BufferFusion* fusion, PageId page) {
  MutexLock lock(mu_);
  ++staged_;
  Status st = fusion->FetchPage(1, page, nullptr);  // polarlint-fixture-expect: blocking-under-lock
  if (st.ok()) ++ready_;
  return st;
}

Status FetchPool::NapUnderLock() {
  MutexLock lock(mu_);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));  // polarlint-fixture-expect: blocking-under-lock
  ++ready_;
  return Status::OK();
}

// The documented escape silences the audited-legit shape.
Status FetchPool::AuditedWarm(BufferFusion* fusion, PageId page) {
  MutexLock lock(mu_);
  // polarlint: allow(blocking-under-lock) fixture: the lock is private to
  // this warm path and nothing else queues on it during startup
  Status st = fusion->FetchPage(1, page, nullptr);
  if (st.ok()) ++ready_;
  return st;
}

// A log force parks on the group force (or performs it) with the pool
// mutex held.
Status FetchPool::ForceUnderLock(LogWriter* log, Lsn lsn) {
  MutexLock lock(mu_);
  ++staged_;
  return log->Force(lsn);  // polarlint-fixture-expect: blocking-under-lock
}

// A PLock conversion is a Lock Fusion round trip like any other.
Status FetchPool::DowngradeUnderLock(LockFusion* fusion, PageId page) {
  MutexLock lock(mu_);
  ++staged_;
  return fusion->DowngradePLock(1, page);  // polarlint-fixture-expect: blocking-under-lock
}

// ... unless a `Locked` helper drops mu_ around it.
Status FetchPool::AnswerReader(LockFusion* fusion, PageId page) {
  MutexLock lock(mu_);
  ++staged_;
  return DowngradeLocked(fusion, page);
}

// The cv idiom: the wait releases mu_ (its own mutex) while parked, so no
// foreign lock is held across the block.
long FetchPool::WaitForSlot() {
  UniqueLock lock(mu_);
  cv_.wait(lock, [&]() REQUIRES(mu_) { return ready_ > 0; });
  return --ready_;
}

// Snapshot under the guard, block after it drops: the frugal shape.
Status FetchPool::WarmOutside(BufferFusion* fusion, PageId page) {
  {
    MutexLock lock(mu_);
    ++staged_;
  }
  Status st = fusion->FetchPage(1, page, nullptr);
  if (!st.ok()) return st;
  MutexLock lock(mu_);
  ++ready_;
  return Status::OK();
}

// One level of inlining: the helper itself blocks, the caller holds mu_.
Status FetchPool::WarmViaHelper(BufferFusion* fusion, PageId page) {
  MutexLock lock(mu_);
  ++staged_;
  return FetchInto(fusion, page);  // polarlint-fixture-expect: blocking-under-lock
}

// The helper a `Locked` caller may use: drops mu_ around the RPC and
// re-takes it, so the caller's hold never spans the block.
Status FetchPool::EvictVictim(BufferFusion* fusion, PageId page) {
  MutexLock lock(mu_);
  ++staged_;
  return DropAndFetch(fusion, page);
}

Status FetchPool::FetchInto(BufferFusion* fusion, PageId page) {
  return fusion->FetchPage(1, page, nullptr);
}

Status FetchPool::DropAndFetch(BufferFusion* fusion, PageId page) {
  mu_.unlock();
  Status st = fusion->FetchPage(1, page, nullptr);
  mu_.lock();
  if (st.ok()) ++ready_;
  return st;
}

Status FetchPool::DowngradeLocked(LockFusion* fusion, PageId page) {
  mu_.unlock();
  Status st = fusion->DowngradePLock(1, page);
  mu_.lock();
  if (st.ok()) ++ready_;
  return st;
}

}  // namespace polarmp
