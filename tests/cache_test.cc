#include <gtest/gtest.h>

#include <string>

#include "cluster/cluster.h"

namespace polarmp {
namespace {

// Compute-side index cache: version-validated one-sided routing, remote SMO
// invalidation, local SMO refresh, lease interplay, eviction and the
// disabled mode.
class IndexCacheTest : public ::testing::Test {
 protected:
  void StartCluster(int nodes, uint32_t cache_slots, bool cache_enabled,
                    uint32_t lbp_frames = 64) {
    ClusterOptions opts;
    opts.page_size = 1024;
    opts.node.lbp.page_size = 1024;
    opts.node.lbp.frames = lbp_frames;
    opts.node.cache.enabled = cache_enabled;
    opts.node.cache.slots = cache_slots;
    opts.node.trx.lock_wait_timeout_ms = 2000;
    auto cluster = Cluster::Create(opts);
    ASSERT_TRUE(cluster.ok());
    cluster_ = std::move(cluster).value();
    for (int i = 0; i < nodes; ++i) {
      auto node = cluster_->AddNode();
      ASSERT_TRUE(node.ok());
      nodes_.push_back(node.value());
    }
    ASSERT_TRUE(cluster_->CreateTable("t").ok());
    for (DbNode* node : nodes_) {
      auto table = node->OpenTable("t");
      ASSERT_TRUE(table.ok());
      tables_.push_back(table.value());
    }
  }

  Status InsertRange(int node, int64_t begin, int64_t end,
                     const std::string& tag, int value_len = 4) {
    Session s(nodes_[node], IsolationLevel::kReadCommitted);
    POLARMP_RETURN_IF_ERROR(s.Begin());
    for (int64_t k = begin; k < end; ++k) {
      std::string v = tag + std::to_string(k);
      if (static_cast<int>(v.size()) < value_len) {
        v.resize(value_len, '.');
      }
      POLARMP_RETURN_IF_ERROR(s.Insert(tables_[node], k, v));
    }
    return s.Commit();
  }

  StatusOr<std::string> Read1(int node, int64_t key) {
    Session s(nodes_[node], IsolationLevel::kReadCommitted);
    POLARMP_RETURN_IF_ERROR(s.Begin());
    auto v = s.Get(tables_[node], key);
    POLARMP_RETURN_IF_ERROR(s.Commit());
    return v;
  }

  std::string Expected(int64_t key, const std::string& tag,
                       int value_len = 4) {
    std::string v = tag + std::to_string(key);
    if (static_cast<int>(v.size()) < value_len) v.resize(value_len, '.');
    return v;
  }

  std::unique_ptr<Cluster> cluster_;
  std::vector<DbNode*> nodes_;
  std::vector<TableHandle> tables_;
};

TEST_F(IndexCacheTest, WarmRoutesSkipInternalPages) {
  StartCluster(1, 64, /*cache_enabled=*/true);
  ASSERT_TRUE(InsertRange(0, 0, 600, "a").ok());
  IndexCache* cache = nodes_[0]->index_cache();
  // First pass installs the internal image(s); later passes route through
  // them without touching the guarded path for internal levels.
  for (int pass = 0; pass < 3; ++pass) {
    for (int64_t k = 0; k < 600; k += 17) {
      auto v = Read1(0, k);
      ASSERT_TRUE(v.ok()) << "pass " << pass << " key " << k;
      EXPECT_EQ(v.value(), Expected(k, "a"));
    }
  }
  EXPECT_GT(cache->installs(), 0u);
  EXPECT_GT(cache->hits(), 0u);
}

TEST_F(IndexCacheTest, DisabledCacheStaysCold) {
  StartCluster(1, 64, /*cache_enabled=*/false);
  ASSERT_TRUE(InsertRange(0, 0, 300, "a").ok());
  for (int64_t k = 0; k < 300; k += 13) {
    auto v = Read1(0, k);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v.value(), Expected(k, "a"));
  }
  EXPECT_EQ(nodes_[0]->index_cache()->installs(), 0u);
  EXPECT_EQ(nodes_[0]->index_cache()->hits(), 0u);
}

// The acceptance scenario: a remote node runs an SMO (leaf splits update
// the internal level) and pushes the result; the reader's cached internal
// image is one-sided invalidated, the next route REJECTS the stale version
// and refreshes with a one-sided seqlock-validated read — after which every
// key, including ones that moved during the split, is found.
TEST_F(IndexCacheTest, RemoteSplitInvalidatesCachedRouteAfterPush) {
  StartCluster(2, 64, /*cache_enabled=*/true);
  ASSERT_TRUE(InsertRange(0, 0, 600, "a").ok());

  // Warm node 0's cache (installs the root/internal images).
  for (int64_t k = 0; k < 600; k += 17) {
    ASSERT_TRUE(Read1(0, k).ok());
  }
  IndexCache* cache = nodes_[0]->index_cache();
  ASSERT_GT(cache->installs(), 0u);
  const uint64_t stale_before = cache->stale_rejects();
  const uint64_t refresh_before = cache->one_sided_refreshes();

  // Node 1 splits leaves (dense appends) and force-pushes the dirty pages,
  // which one-sided writes node 0's cache invalid flags.
  ASSERT_TRUE(InsertRange(1, 600, 1000, "b").ok());
  ASSERT_TRUE(nodes_[1]->Checkpoint().ok());

  // Node 0 reads across the whole (grown) key space through its cache.
  for (int64_t k = 0; k < 1000; k += 7) {
    auto v = Read1(0, k);
    ASSERT_TRUE(v.ok()) << "key " << k;
    EXPECT_EQ(v.value(), Expected(k, k < 600 ? "a" : "b"));
  }
  // The stale image was rejected by the version check and refreshed with
  // one-sided reads — not via Buffer Fusion RPCs.
  EXPECT_GT(cache->stale_rejects(), stale_before);
  EXPECT_GT(cache->one_sided_refreshes(), refresh_before);
}

// Without a push the reader's image is stale with no flag set: routes land
// at-or-left of the key's home and the B-link right-walk heals them. Pure
// correctness assertion — no counter can (or should) fire here.
TEST_F(IndexCacheTest, StaleRouteHealsByRightWalkWithoutPush) {
  StartCluster(2, 64, /*cache_enabled=*/true);
  ASSERT_TRUE(InsertRange(0, 0, 600, "a").ok());
  for (int64_t k = 0; k < 600; k += 17) {
    ASSERT_TRUE(Read1(0, k).ok());
  }
  // Leaf splits on node 1, dirty pages NOT checkpointed.
  ASSERT_TRUE(InsertRange(1, 600, 900, "b").ok());
  for (int64_t k = 0; k < 900; k += 11) {
    auto v = Read1(0, k);
    ASSERT_TRUE(v.ok()) << "key " << k;
    EXPECT_EQ(v.value(), Expected(k, k < 600 ? "a" : "b"));
  }
}

TEST_F(IndexCacheTest, LocalSplitRefreshesOwnRoute) {
  StartCluster(1, 64, /*cache_enabled=*/true);
  ASSERT_TRUE(InsertRange(0, 0, 400, "a").ok());
  for (int64_t k = 0; k < 400; k += 17) {
    ASSERT_TRUE(Read1(0, k).ok());
  }
  // Local SMOs copy the rewritten pages into this node's cached images (the
  // LBP copy is ahead of the DBP until the background push).
  ASSERT_TRUE(InsertRange(0, 400, 800, "b").ok());
  for (int64_t k = 0; k < 800; k += 7) {
    auto v = Read1(0, k);
    ASSERT_TRUE(v.ok()) << "key " << k;
    EXPECT_EQ(v.value(), Expected(k, k < 400 ? "a" : "b"));
  }
}

// Writers route through the cache too, and mixed read/write traffic under
// continuous remote splits stays correct.
TEST_F(IndexCacheTest, CachedRoutesServeWritesUnderRemoteChurn) {
  StartCluster(2, 64, /*cache_enabled=*/true);
  ASSERT_TRUE(InsertRange(0, 0, 400, "a").ok());
  for (int64_t k = 0; k < 400; k += 17) {
    ASSERT_TRUE(Read1(0, k).ok());
  }
  for (int round = 0; round < 4; ++round) {
    const int64_t base = 400 + round * 100;
    ASSERT_TRUE(InsertRange(1, base, base + 100, "b").ok());
    if (round % 2 == 0) {
      ASSERT_TRUE(nodes_[1]->Checkpoint().ok());
    }
    // Updates through node 0's (possibly stale) routes.
    Session s(nodes_[0], IsolationLevel::kReadCommitted);
    ASSERT_TRUE(s.Begin().ok());
    for (int64_t k = base; k < base + 100; k += 9) {
      ASSERT_TRUE(s.Put(tables_[0], k, "w" + std::to_string(k)).ok());
    }
    ASSERT_TRUE(s.Commit().ok());
    for (int64_t k = base; k < base + 100; k += 9) {
      auto v = Read1(1, k);
      ASSERT_TRUE(v.ok()) << "key " << k;
      EXPECT_EQ(v.value(), "w" + std::to_string(k));
    }
  }
}

// A deep tree with a tiny cache churns slots; every eviction hands a
// possible PLock lease back through the on-evict hook and routing stays
// correct throughout.
TEST_F(IndexCacheTest, TinyCacheEvictsAndStaysCorrect) {
  StartCluster(1, 2, /*cache_enabled=*/true);
  // 40-byte values force ~3 levels at 1 KiB pages: multiple internal pages
  // compete for the 2 slots.
  ASSERT_TRUE(InsertRange(0, 0, 1400, "a", 40).ok());
  for (int pass = 0; pass < 2; ++pass) {
    for (int64_t k = 0; k < 1400; k += 13) {
      auto v = Read1(0, k);
      ASSERT_TRUE(v.ok()) << "key " << k;
      EXPECT_EQ(v.value(), Expected(k, "a", 40));
    }
  }
  EXPECT_GT(nodes_[0]->index_cache()->evictions(), 0u);
}

// LBP eviction of a cache-resident internal page demotes its PLock to a
// lease instead of releasing it; the next guarded descent (a split) re-pins
// it locally without a fusion round trip.
TEST_F(IndexCacheTest, LbpEvictionLeavesLeaseForCachedPages) {
  StartCluster(1, 64, /*cache_enabled=*/true, /*lbp_frames=*/8);
  ASSERT_TRUE(InsertRange(0, 0, 400, "a").ok());
  PLockManager* plock = nodes_[0]->plock_manager();
  // Routed reads skip pinning internal pages, so the root's LBP frame goes
  // LRU-cold and gets evicted while the cache still holds its image.
  for (int pass = 0; pass < 3; ++pass) {
    for (int64_t k = 0; k < 400; k += 5) {
      ASSERT_TRUE(Read1(0, k).ok());
    }
  }
  EXPECT_GT(plock->lease_demotes(), 0u);
  // Splits descend the guarded path and re-pin the leased internals.
  ASSERT_TRUE(InsertRange(0, 400, 800, "b").ok());
  EXPECT_GT(plock->lease_regrants(), 0u);
  for (int64_t k = 0; k < 800; k += 23) {
    auto v = Read1(0, k);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v.value(), Expected(k, k < 400 ? "a" : "b"));
  }
}

// A split copies the pages it rewrote into this node's cache before it
// releases them, so an ascending load keeps routing straight to the right
// leaf while the DBP copy of the parent lags the LBP. (Had the split only
// flagged its cached parent, the refresh would reload the lagging DBP copy
// and every insert would walk the leaf chain from a stale route.)
TEST(SplitRefreshTest, AscendingLoadRoutesStraightToTheLeaf) {
  ClusterOptions opts;  // zero latency
  // No background push or checkpoint: the DBP only changes at the one
  // explicit checkpoint below.
  opts.node.lbp_flush_interval_ms = 3'600'000;
  opts.node.checkpoint_interval_ms = 3'600'000;
  auto cluster = Cluster::Create(opts);
  ASSERT_TRUE(cluster.ok());
  DbNode* node = cluster.value()->AddNode().value();
  ASSERT_TRUE(cluster.value()->CreateTable("t").ok());
  const TableHandle table = node->OpenTable("t").value();
  PLockManager* plock = node->plock_manager();
  const auto acquisitions = [&] {
    return plock->local_grants() + plock->fusion_acquires();
  };

  // 12 000 rows: the root grows to level 2 about two thirds through.
  constexpr int kBatches = 24;
  constexpr int kRowsPerBatch = 500;
  const std::string value(64, 'v');
  int64_t key = 1;
  for (int batch = 0; batch < kBatches; ++batch) {
    const uint64_t before = acquisitions();
    Session s(node, IsolationLevel::kReadCommitted);
    ASSERT_TRUE(s.Begin().ok());
    for (int i = 0; i < kRowsPerBatch; ++i, ++key) {
      ASSERT_TRUE(s.Insert(table, key, value).ok()) << key;
    }
    ASSERT_TRUE(s.Commit().ok());
    if (batch == 0) {
      // One push of every page, as the background flush would do: from
      // here on the DBP holds an internal parent image that lags the LBP.
      ASSERT_TRUE(node->Checkpoint().ok());
      continue;
    }
    const double per_insert =
        static_cast<double>(acquisitions() - before) / kRowsPerBatch;
    ASSERT_LE(per_insert, 3.0) << "batch " << batch;
  }
  EXPECT_GT(node->index_cache()->hits(), 0u);
  Session r(node, IsolationLevel::kReadCommitted);
  ASSERT_TRUE(r.Begin().ok());
  for (int64_t k = 1; k < key; k += 97) {
    EXPECT_EQ(r.Get(table, k).value(), value) << k;
  }
  ASSERT_TRUE(r.Commit().ok());
}

// Crash + recovery drops the cache; post-recovery traffic rebuilds it and
// reads stay correct (restart re-registers the flag region).
TEST_F(IndexCacheTest, SurvivesCrashRecovery) {
  StartCluster(2, 64, /*cache_enabled=*/true);
  ASSERT_TRUE(InsertRange(0, 0, 500, "a").ok());
  for (int64_t k = 0; k < 500; k += 17) {
    ASSERT_TRUE(Read1(0, k).ok());
  }
  ASSERT_GT(nodes_[0]->index_cache()->installs(), 0u);

  const NodeId crashed = nodes_[0]->id();
  ASSERT_TRUE(cluster_->CrashNode(crashed).ok());
  auto restarted = cluster_->RestartNode(crashed);
  ASSERT_TRUE(restarted.ok());
  nodes_[0] = restarted.value();
  tables_[0] = nodes_[0]->OpenTable("t").value();

  for (int64_t k = 0; k < 500; k += 17) {
    auto v = Read1(0, k);
    ASSERT_TRUE(v.ok()) << "key " << k;
    EXPECT_EQ(v.value(), Expected(k, "a"));
  }
  EXPECT_GT(nodes_[0]->index_cache()->installs(), 0u);
}

}  // namespace
}  // namespace polarmp
