#ifndef POLARMP_WAL_LOG_WRITER_H_
#define POLARMP_WAL_LOG_WRITER_H_

#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/lock_rank.h"
#include "common/status_future.h"
#include "obs/metrics.h"
#include "storage/log_store.h"
#include "wal/log_record.h"

namespace polarmp {

// Per-node redo log front end: buffers encoded records in LSN order and
// forces them to the LogStore with leader/follower group commit.
//
// Any thread that must wait for durability calls Force(lsn). If no force is
// in flight it becomes the LEADER: it claims the whole buffer and performs
// ONE storage append for every waiter queued behind it. Otherwise it parks
// as a FOLLOWER on the in-flight group and checks again when that group
// lands; the first still-waiting thread is then woken to lead the next
// group, which holds everything buffered while the previous append was on
// the wire. Consecutive forces pipeline back-to-back, so commit throughput
// is bounded by force latency per *group*, not per committer.
//
// The flusher thread has exactly two jobs: it forces for the waiters no
// thread leads (the callback/handle forms below), and it is the one place
// completions of those forms run, in LSN order, only after it has given up
// leadership. A leader therefore never runs foreign callbacks, so a thread
// that holds a page latch while it forces (the WAL rule during eviction)
// leads its own force and cannot wait on a callback that wants its latch.
//
// API contract:
//  * Force(lsn): blocks until everything up to `lsn` is durable (OK) or the
//    force that covered it failed. Runs no callbacks.
//  * ForceAsync(lsn) -> ForceHandle, ForceAsync(lsn, cb): returns at once;
//    the flusher forces and completes the handle/callback with NO
//    LogWriter locks held (the callback may take engine locks and may
//    itself call Force). A target already durable completes inline on the
//    caller when no earlier completion is still pending.
//  * Handles and callbacks complete in LSN order of their targets, so a
//    handle's Wait() also means every callback queued before it has run.
//  * ForceTo/ForceAll are blocking shims over ForceAsync kept for the edges
//    (tests, tools); src/engine, src/txn and src/node must use Force or the
//    async forms (enforced by polarlint's blocking-force rule).
class LogWriter {
 public:
  using ForceHandle = StatusFuture;
  using ForceCallback = std::function<void(Status)>;

  LogWriter(NodeId node, LogStore* store);
  ~LogWriter();

  LogWriter(const LogWriter&) = delete;
  LogWriter& operator=(const LogWriter&) = delete;

  NodeId node() const { return node_; }

  // Buffers `records`; returns the end LSN after them (force target).
  Lsn Add(const std::vector<LogRecord>& records);
  Lsn AddEncoded(const std::string& encoded);

  // Leads or follows the group force that makes `lsn` durable.
  Status Force(Lsn lsn);

  // Queues a durability request up to `lsn` for the flusher and returns.
  ForceHandle ForceAsync(Lsn lsn);
  void ForceAsync(Lsn lsn, ForceCallback cb);
  ForceHandle ForceAllAsync();
  void ForceAllAsync(ForceCallback cb);

  // Blocking shims over the async API — test/edge use only (see polarlint
  // rule "blocking-force"); equivalent to ForceAsync(lsn).Wait().
  Status ForceTo(Lsn lsn);
  Status ForceAll();

  Lsn durable_lsn() const;
  Lsn buffered_lsn() const;

  // ---- test / crash-simulation hooks ---------------------------------------

  // Holds every would-be leader, the flusher and Force callers alike: no
  // NEW force starts until Resume (an in-flight one lands first). Lets
  // tests form deterministic groups: pause, queue N committers, resume,
  // observe one force.
  void PauseFlusher();
  void ResumeFlusher();

  // Crash support: drops the volatile buffer and fails every pending and
  // future force with Aborted. Blocks until the flusher has quiesced, so on
  // return no completion callback is running or will run — callers tear
  // down the engine safely after this. An append already on the wire is
  // allowed to land (as it could in a real crash) and its waiters complete
  // normally before the drain.
  void Abandon();

  // Force requests not yet landed, parked threads included (test
  // introspection; also exported as the "log_writer.force_queue_depth"
  // gauge).
  size_t pending_forces() const;

  // ---- telemetry ------------------------------------------------------------
  // Shims over this instance's registry handles ("log_writer.*"):
  //  * force_ns      — device time of one storage append (the actual force)
  //  * commit_wait_ns— a waiter's request-to-completion wait on its group
  //  * group_size    — waiters amortized by one force
  uint64_t appends() const { return appends_.Value(); }
  uint64_t forces() const { return forces_.Value(); }
  void ResetCounters();

 private:
  // A thread blocked in Force(): the landing that covers it fills in the
  // status and wakes it; a landing that does not may wake it to lead.
  struct Parked {
    CondVar cv;
    Status status;
    bool done = false;
  };

  struct Waiter {
    Lsn target = 0;
    uint64_t seq = 0;          // request order, tie-break within one target
    uint64_t enqueue_ns = 0;   // commit_wait_ns start
    Parked* parked = nullptr;  // thread form, or else one of cb / promise
    ForceCallback cb;
    std::unique_ptr<StatusPromise> promise;
    Status status;             // set when moved to completions_
  };

  // Admission shared by every form: OK means `lsn` is already durable,
  // Internal that it lies beyond the buffer, Aborted that the writer is
  // abandoned or stopping; `*queue` asks the caller to enqueue a waiter.
  Status AdmitLocked(Lsn lsn, bool* queue) REQUIRES(group_mu_);
  void EnqueueLocked(Waiter w) REQUIRES(group_mu_);
  // Admits a callback/handle waiter: queues it for the flusher, or
  // completes it on the caller when nothing is ahead of it.
  void Submit(Waiter w) EXCLUDES(group_mu_);
  // Claims the whole buffer and appends it to storage with group_mu_
  // dropped, then lands the group. Held on entry and on exit.
  void LeadLocked() REQUIRES(group_mu_);
  // Retires the waiters the landing covers (all of them on an error): wakes
  // parked threads, queues the rest for the flusher in LSN order, and wakes
  // the next leader.
  void LandLocked(Lsn durable, const Status& status) REQUIRES(group_mu_);
  // Runs flusher-form completions with no LogWriter locks held.
  void Complete(std::vector<Waiter> done);
  void FlusherLoop();

  const NodeId node_;
  LogStore* const store_;

  mutable RankedMutex mu_{LockRank::kLogWriter, "log_writer.buffer"};
  std::string buffer_ GUARDED_BY(mu_);       // encoded bytes not yet durable
  Lsn buffer_start_ GUARDED_BY(mu_) = 0;     // LSN of buffer_[0]
  Lsn durable_ GUARDED_BY(mu_) = 0;

  // Group state. group_mu_ ranks ABOVE mu_: admission reads the buffer
  // bounds while holding it.
  mutable RankedMutex group_mu_{LockRank::kLogFlusher, "log_writer.group"};
  std::vector<Waiter> waiters_ GUARDED_BY(group_mu_);
  // Landed flusher-form waiters, in LSN order, not yet completed.
  std::vector<Waiter> completions_ GUARDED_BY(group_mu_);
  size_t flusher_waiters_ GUARDED_BY(group_mu_) = 0;  // unlanded cb/promise
  uint64_t next_seq_ GUARDED_BY(group_mu_) = 0;
  bool leading_ GUARDED_BY(group_mu_) = false;        // a force is in flight
  bool flusher_busy_ GUARDED_BY(group_mu_) = false;   // running completions
  bool stop_ GUARDED_BY(group_mu_) = false;
  bool paused_ GUARDED_BY(group_mu_) = false;
  bool abandoned_ GUARDED_BY(group_mu_) = false;
  CondVar flusher_cv_;  // the flusher: work for it
  CondVar idle_cv_;     // Pause/Abandon: a force landed or completions ran

  // polarlint: unguarded(joined in the destructor after the stop_ handshake)
  std::thread flusher_;

  obs::Counter appends_{"log_writer.appends"};
  obs::Counter forces_{"log_writer.forces"};
  obs::LatencyHistogram force_ns_{"log_writer.force_ns"};
  obs::LatencyHistogram commit_wait_ns_{"log_writer.commit_wait_ns"};
  obs::LatencyHistogram group_size_{"log_writer.group_size"};
  obs::Gauge force_queue_depth_{"log_writer.force_queue_depth"};
};

}  // namespace polarmp

#endif  // POLARMP_WAL_LOG_WRITER_H_
