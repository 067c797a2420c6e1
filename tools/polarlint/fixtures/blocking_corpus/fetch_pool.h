// polarlint-fixture-path: src/cache/fetch_pool.h
//
// Declarations for the blocking-under-lock corpus; REQUIRES on the
// drop-and-reacquire helper transfers to its definition in fetch_pool.cc.

#include "common/lock_rank.h"
#include "common/status.h"
#include "pmfs/buffer_fusion.h"
#include "pmfs/lock_fusion.h"
#include "wal/log_writer.h"

namespace polarmp {

class FetchPool {
 public:
  Status WarmUnderLock(BufferFusion* fusion, PageId page);
  Status NapUnderLock();
  Status AuditedWarm(BufferFusion* fusion, PageId page);
  long WaitForSlot();
  Status WarmOutside(BufferFusion* fusion, PageId page);
  Status WarmViaHelper(BufferFusion* fusion, PageId page);
  Status EvictVictim(BufferFusion* fusion, PageId page);
  Status ForceUnderLock(LogWriter* log, Lsn lsn);
  Status DowngradeUnderLock(LockFusion* fusion, PageId page);
  Status AnswerReader(LockFusion* fusion, PageId page);

 private:
  Status FetchInto(BufferFusion* fusion, PageId page);
  Status DropAndFetch(BufferFusion* fusion, PageId page) REQUIRES(mu_);
  Status DowngradeLocked(LockFusion* fusion, PageId page) REQUIRES(mu_);

  mutable RankedMutex mu_{LockRank::kTestLow, "fixture.fetch_pool"};
  CondVar cv_;
  long ready_ GUARDED_BY(mu_) = 0;
  long staged_ GUARDED_BY(mu_) = 0;
};

}  // namespace polarmp
