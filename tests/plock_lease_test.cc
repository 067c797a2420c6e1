#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <string>
#include <thread>

#include "engine/plock_manager.h"
#include "watchdog.h"

namespace polarmp {
namespace {

// PLockManager lease + eviction-race tests against a real LockFusion over a
// zero-latency fabric. Negotiation callbacks are wired straight into the
// managers, exactly as DbNode does it.
class PLockLeaseTest : public ::testing::Test {
 protected:
  PLockLeaseTest()
      : fabric_(ZeroLatencyProfile()),
        fusion_(&fabric_),
        a_(1, &fusion_),
        b_(2, &fusion_) {
    fusion_.AddNode(1, [this](PageId p, LockMode m) { a_.OnNegotiate(p, m); });
    fusion_.AddNode(2, [this](PageId p, LockMode m) { b_.OnNegotiate(p, m); });
  }

  Fabric fabric_;
  LockFusion fusion_;
  PLockManager a_;
  PLockManager b_;
};

// The eviction race from the issue: ForceRelease must refuse (Busy) while a
// Pin for the same page is queued at Lock Fusion (acquiring in flight) and
// while references are held, and succeed only on an idle hold.
TEST_F(PLockLeaseTest, ForceReleaseVsConcurrentPinRace) {
  const PageId page{1, 7};
  // b holds X with a live reference, so a's Pin(S) queues in the fusion
  // FIFO (the negotiation request parks behind b's refs).
  ASSERT_TRUE(b_.Pin(page, LockMode::kExclusive, 1000).ok());

  std::atomic<bool> granted{false};
  std::thread pinner([&] {
    ASSERT_TRUE(a_.Pin(page, LockMode::kShared, 10'000).ok());
    granted = true;
  });

  // While the acquire is in flight, eviction must step aside: poll until
  // the entry exists in the acquiring state and reports Busy.
  for (;;) {
    const Status st = a_.ForceRelease(page);
    if (st.IsBusy()) break;
    ASSERT_TRUE(st.ok()) << st.ToString();
    std::this_thread::yield();
  }
  EXPECT_FALSE(granted.load());
  EXPECT_FALSE(a_.HeldLocally(page, LockMode::kShared));

  // b drains its reference; the negotiated release runs and a is granted.
  b_.Unpin(page);
  pinner.join();
  ASSERT_TRUE(granted.load());
  EXPECT_TRUE(a_.HeldLocally(page, LockMode::kShared));

  // Still referenced: eviction keeps refusing.
  EXPECT_TRUE(a_.ForceRelease(page).IsBusy());
  a_.Unpin(page);
  // Idle now (lazily retained): eviction releases for real.
  EXPECT_TRUE(a_.ForceRelease(page).ok());
  EXPECT_FALSE(a_.HeldLocally(page, LockMode::kShared));
  EXPECT_FALSE(fusion_.HoldsPLock(1, page, LockMode::kShared));
}

TEST_F(PLockLeaseTest, DemoteToLeaseKeepsFusionGrantForLocalRegrant) {
  const PageId page{1, 3};
  ASSERT_TRUE(a_.Pin(page, LockMode::kExclusive, 1000).ok());
  a_.Unpin(page);  // lazily retained, refs == 0
  const uint64_t fusion_before = a_.fusion_acquires();

  ASSERT_TRUE(a_.DemoteToLease(page).ok());
  EXPECT_EQ(a_.lease_demotes(), 1u);
  // The fusion-side grant stays with the node.
  EXPECT_TRUE(a_.HeldLocally(page, LockMode::kExclusive));
  EXPECT_TRUE(fusion_.HoldsPLock(1, page, LockMode::kExclusive));

  // Repeat acquisition on the leased page never leaves the node.
  ASSERT_TRUE(a_.Pin(page, LockMode::kExclusive, 1000).ok());
  EXPECT_EQ(a_.lease_regrants(), 1u);
  EXPECT_EQ(a_.fusion_acquires(), fusion_before);
  a_.Unpin(page);
}

TEST_F(PLockLeaseTest, DemoteToLeaseBusyWhileReferenced) {
  const PageId page{1, 4};
  ASSERT_TRUE(a_.Pin(page, LockMode::kShared, 1000).ok());
  EXPECT_TRUE(a_.DemoteToLease(page).IsBusy());
  a_.Unpin(page);
  EXPECT_TRUE(a_.DemoteToLease(page).ok());
  EXPECT_TRUE(a_.HeldLocally(page, LockMode::kShared));
}

// A lease is just an idle retained hold: a conflicting remote acquisition
// revokes it through the normal negotiation path, immediately.
TEST_F(PLockLeaseTest, LeaseRevokedByRemoteConflict) {
  const PageId page{1, 5};
  ASSERT_TRUE(a_.Pin(page, LockMode::kExclusive, 1000).ok());
  a_.Unpin(page);
  ASSERT_TRUE(a_.DemoteToLease(page).ok());

  // b's conflicting acquire negotiates a's lease away without waiting.
  ASSERT_TRUE(b_.Pin(page, LockMode::kExclusive, 5000).ok());
  EXPECT_FALSE(a_.HeldLocally(page, LockMode::kShared));
  EXPECT_TRUE(fusion_.HoldsPLock(2, page, LockMode::kExclusive));
  b_.Unpin(page);
}

// Reading a page and then writing it converts the idle S hold to X in one
// fusion RPC: nothing is released first, and the peer's S is negotiated
// away behind the conversion.
TEST_F(PLockLeaseTest, ReadThenWriteIsOneConversionRpc) {
  const PageId page{1, 11};
  ASSERT_TRUE(b_.Pin(page, LockMode::kShared, 1000).ok());
  b_.Unpin(page);
  ASSERT_TRUE(a_.Pin(page, LockMode::kShared, 1000).ok());
  a_.Unpin(page);
  const uint64_t acquires = fusion_.plock_acquire_rpcs();
  const uint64_t releases = fusion_.plock_release_rpcs();

  ASSERT_TRUE(a_.Pin(page, LockMode::kExclusive, 5000).ok());
  a_.Unpin(page);
  EXPECT_EQ(a_.upgrades(), 1u);
  EXPECT_EQ(a_.negotiated_releases(), 0u);
  EXPECT_EQ(b_.upgrades(), 0u);
  EXPECT_EQ(b_.negotiated_releases(), 1u);
  // a's one conversion, plus b's release answering the negotiation.
  EXPECT_EQ(fusion_.plock_acquire_rpcs() - acquires, 1u);
  EXPECT_EQ(fusion_.plock_release_rpcs() - releases, 1u);
  EXPECT_TRUE(fusion_.HoldsPLock(1, page, LockMode::kExclusive));
  EXPECT_FALSE(fusion_.HoldsPLock(2, page, LockMode::kShared));
}

// Uncontended read-then-write: the X costs the one conversion RPC.
TEST_F(PLockLeaseTest, UncontendedReadThenWriteCostsOneRpc) {
  const PageId page{1, 12};
  ASSERT_TRUE(a_.Pin(page, LockMode::kShared, 1000).ok());
  a_.Unpin(page);
  const uint64_t rpcs = fabric_.rpcs();
  ASSERT_TRUE(a_.Pin(page, LockMode::kExclusive, 1000).ok());
  a_.Unpin(page);
  EXPECT_EQ(fabric_.rpcs() - rpcs, 1u);
  EXPECT_EQ(a_.upgrades(), 1u);
  EXPECT_TRUE(a_.HeldLocally(page, LockMode::kExclusive));
}

// Both nodes retain S and both write: the conversions serialize through
// the FIFO (each drops its S as it queues) and every pin is granted.
TEST_F(PLockLeaseTest, SymmetricReadThenWriteDoesNotDeadlock) {
  const PageId page{1, 13};
  Watchdog watchdog(std::chrono::seconds(60), [this] {
    return fusion_.DebugDump() + a_.DebugDump() + b_.DebugDump();
  });
  auto read_then_write = [&](PLockManager* m) {
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(m->Pin(page, LockMode::kShared, 10'000).ok());
      m->Unpin(page);
      ASSERT_TRUE(m->Pin(page, LockMode::kExclusive, 10'000).ok());
      m->Unpin(page);
    }
  };
  std::thread ta([&] { read_then_write(&a_); });
  std::thread tb([&] { read_then_write(&b_); });
  ta.join();
  tb.join();
  EXPECT_GT(a_.upgrades() + b_.upgrades(), 0u);
  EXPECT_NE(fusion_.HoldsPLock(1, page, LockMode::kExclusive),
            fusion_.HoldsPLock(2, page, LockMode::kExclusive));
}

// An X holder negotiated by an S waiter pushes its page and keeps S: its
// next S pin is a local grant, and a later remote X revokes the S.
TEST_F(PLockLeaseTest, SharedWaiterDowngradesExclusiveHolder) {
  const PageId page{1, 14};
  int pushes = 0;
  a_.SetBeforeRelease([&](PageId) {
    ++pushes;
    return Status::OK();
  });
  ASSERT_TRUE(a_.Pin(page, LockMode::kExclusive, 1000).ok());
  a_.Unpin(page);

  ASSERT_TRUE(b_.Pin(page, LockMode::kShared, 5000).ok());
  EXPECT_EQ(a_.downgrades(), 1u);
  EXPECT_EQ(a_.negotiated_releases(), 0u);
  EXPECT_EQ(pushes, 1);
  EXPECT_TRUE(a_.HeldLocally(page, LockMode::kShared));
  EXPECT_FALSE(a_.HeldLocally(page, LockMode::kExclusive));
  EXPECT_TRUE(fusion_.HoldsPLock(1, page, LockMode::kShared));
  EXPECT_FALSE(fusion_.HoldsPLock(1, page, LockMode::kExclusive));

  const uint64_t local = a_.local_grants();
  const uint64_t acquires = a_.fusion_acquires();
  ASSERT_TRUE(a_.Pin(page, LockMode::kShared, 1000).ok());
  EXPECT_EQ(a_.local_grants(), local + 1);
  EXPECT_EQ(a_.fusion_acquires(), acquires);
  a_.Unpin(page);
  b_.Unpin(page);

  // b converts its S to X; a's downgraded S is negotiated away.
  ASSERT_TRUE(b_.Pin(page, LockMode::kExclusive, 5000).ok());
  EXPECT_EQ(a_.negotiated_releases(), 1u);
  EXPECT_FALSE(a_.HeldLocally(page, LockMode::kShared));
  EXPECT_FALSE(fusion_.HoldsPLock(1, page, LockMode::kShared));
  EXPECT_TRUE(fusion_.HoldsPLock(2, page, LockMode::kExclusive));
  b_.Unpin(page);
}

// With lazy releasing off there are no retained holds to convert: an X
// holder asked for S gives the page back, as before.
TEST_F(PLockLeaseTest, EagerReleaseNeverDowngrades) {
  const PageId page{1, 15};
  PLockManager eager(3, &fusion_, /*lazy_release=*/false);
  fusion_.AddNode(3, [&](PageId p, LockMode m) { eager.OnNegotiate(p, m); });
  ASSERT_TRUE(eager.Pin(page, LockMode::kExclusive, 1000).ok());
  std::thread reader([&] {
    EXPECT_TRUE(a_.Pin(page, LockMode::kShared, 5000).ok());
  });
  while (fusion_.negotiations_sent() == 0) std::this_thread::yield();
  eager.Unpin(page);
  reader.join();
  EXPECT_EQ(eager.downgrades(), 0u);
  EXPECT_FALSE(fusion_.HoldsPLock(3, page, LockMode::kShared));
  a_.Unpin(page);
  fusion_.RemoveNode(3);
}

// A negotiation can reach a node while it partially releases its S for an
// upgrade that keeps the S: the X lands during that release RPC, is used and
// unpinned, and a peer asks for it. The request belongs to the new X and
// must be answered; dropping it left the X stranded until the peer's PLock
// timeout.
TEST_F(PLockLeaseTest, NegotiationDuringPartialReleaseIsAnswered) {
  const PageId page{1, 16};
  Watchdog watchdog(std::chrono::seconds(60), [this] {
    return fusion_.DebugDump() + a_.DebugDump() + b_.DebugDump();
  });
  ASSERT_TRUE(a_.Pin(page, LockMode::kShared, 1000).ok());
  a_.Unpin(page);
  ASSERT_TRUE(b_.Pin(page, LockMode::kShared, 1000).ok());  // ref held below

  auto wait_for = [](const std::function<bool()>& done) {
    while (!done()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  auto b_requested = [&] {
    return b_.DebugDump().find("rel_req=1") != std::string::npos;
  };
  // a converts: its X queues behind b's S, which is asked for X.
  std::thread a_writer([&] {
    ASSERT_TRUE(a_.Pin(page, LockMode::kExclusive, 10'000).ok());
    a_.Unpin(page);
  });
  wait_for(b_requested);
  // b upgrades while its S is referenced: the X queues beside the S.
  std::atomic<bool> b_landed{false};
  std::atomic<bool> b_unpin{false};
  std::thread b_writer([&] {
    ASSERT_TRUE(b_.Pin(page, LockMode::kExclusive, 10'000).ok());
    b_landed = true;
    wait_for([&] { return b_unpin.load(); });
    b_.Unpin(page);
  });
  wait_for([&] {
    return fusion_.DebugDump().find("queue[1X 2X") != std::string::npos;
  });

  // b's last S unpin partially releases. Inside that RPC a is granted X
  // and negotiated; a releases once its writer unpins, b's X lands, is
  // unpinned, and a asks for the page again.
  std::atomic<bool> armed{true};
  Status again;
  std::thread a_again;
  fusion_.AddNode(1, [&](PageId p, LockMode m) {
    a_.OnNegotiate(p, m);
    if (!armed.exchange(false)) return;
    a_writer.join();
    wait_for([&] { return b_landed.load(); });
    a_again = std::thread(
        [&] { again = a_.Pin(page, LockMode::kExclusive, 5000); });
    wait_for(b_requested);
    b_unpin = true;
    b_writer.join();
  });
  b_.Unpin(page);
  a_again.join();
  ASSERT_TRUE(again.ok()) << again.ToString();
  EXPECT_TRUE(fusion_.HoldsPLock(1, page, LockMode::kExclusive));
  EXPECT_FALSE(fusion_.HoldsPLock(2, page, LockMode::kShared));
  a_.Unpin(page);
}

TEST_F(PLockLeaseTest, ReleaseLeaseHandsGrantBack) {
  const PageId page{1, 6};
  ASSERT_TRUE(a_.Pin(page, LockMode::kExclusive, 1000).ok());
  a_.Unpin(page);
  ASSERT_TRUE(a_.DemoteToLease(page).ok());

  // The cache evicted the page: nothing local justifies the hold anymore.
  a_.ReleaseLease(page);
  EXPECT_FALSE(a_.HeldLocally(page, LockMode::kShared));
  EXPECT_FALSE(fusion_.HoldsPLock(1, page, LockMode::kExclusive));
}

TEST_F(PLockLeaseTest, ReleaseLeaseIgnoresPlainRetainedHold) {
  const PageId page{1, 8};
  ASSERT_TRUE(a_.Pin(page, LockMode::kExclusive, 1000).ok());
  a_.Unpin(page);
  // Never demoted: ReleaseLease must not touch a normal retained hold.
  a_.ReleaseLease(page);
  EXPECT_TRUE(a_.HeldLocally(page, LockMode::kExclusive));
  EXPECT_TRUE(fusion_.HoldsPLock(1, page, LockMode::kExclusive));
}

// A Pin that lands between the demote and the eviction's ReleaseLease turns
// the lease back into an active hold; the late ReleaseLease must then leave
// the (re-used) hold alone.
TEST_F(PLockLeaseTest, PinBetweenDemoteAndReleaseLeaseWins) {
  const PageId page{1, 9};
  ASSERT_TRUE(a_.Pin(page, LockMode::kExclusive, 1000).ok());
  a_.Unpin(page);
  ASSERT_TRUE(a_.DemoteToLease(page).ok());
  ASSERT_TRUE(a_.Pin(page, LockMode::kExclusive, 1000).ok());
  EXPECT_EQ(a_.lease_regrants(), 1u);
  a_.ReleaseLease(page);  // no longer a lease: must be a no-op
  EXPECT_TRUE(a_.HeldLocally(page, LockMode::kExclusive));
  a_.Unpin(page);
  EXPECT_TRUE(a_.HeldLocally(page, LockMode::kExclusive));
}

// Lease revocation racing eviction: one thread keeps pinning/unpinning,
// one keeps evicting (demote + handback), while a remote node periodically
// grabs the page exclusively. Every outcome must be OK or Busy and the
// page must keep being acquirable; at the end the hold is fully released.
TEST_F(PLockLeaseTest, EvictionVsPinVsRevocationStress) {
  const PageId page{1, 10};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> a_pins{0};

  std::thread pinner([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      if (a_.Pin(page, LockMode::kShared, 2000).ok()) {
        a_pins.fetch_add(1, std::memory_order_relaxed);
        a_.Unpin(page);
      }
    }
  });
  std::thread evictor([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const Status st = a_.DemoteToLease(page);
      ASSERT_TRUE(st.ok() || st.IsBusy()) << st.ToString();
      a_.ReleaseLease(page);
      const Status fr = a_.ForceRelease(page);
      ASSERT_TRUE(fr.ok() || fr.IsBusy()) << fr.ToString();
    }
  });

  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(b_.Pin(page, LockMode::kExclusive, 10'000).ok());
    b_.Unpin(page);
    const Status st = b_.ForceRelease(page);
    ASSERT_TRUE(st.ok() || st.IsBusy()) << st.ToString();
  }
  // With b quiet, a's pinner is guaranteed to get through; don't stop the
  // threads before it has proven so at least once.
  while (a_pins.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  stop.store(true);
  pinner.join();
  evictor.join();
  EXPECT_GT(a_pins.load(), 0u);

  // Quiesce: drain whatever hold is left on a's side.
  for (;;) {
    const Status st = a_.ForceRelease(page);
    if (st.ok()) break;
    std::this_thread::yield();
  }
  EXPECT_FALSE(a_.HeldLocally(page, LockMode::kShared));
}

}  // namespace
}  // namespace polarmp
