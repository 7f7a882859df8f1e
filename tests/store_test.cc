// Tests for the KV store substrates: scalar LWW store, multi-version store
// with predicate visibility, key routing, and client sessions.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "src/common/random.h"
#include "tests/client_session.h"
#include "src/store/hash_ring.h"
#include "src/store/versioned_store.h"

namespace eunomia::store {
namespace {

TEST(ScalarStoreTest, PutGetRoundTrip) {
  ScalarStore store;
  EXPECT_EQ(store.Get(1), nullptr);
  EXPECT_TRUE(store.Put(1, "a", 10, 0));
  const ScalarVersion* v = store.Get(1);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->value, "a");
  EXPECT_EQ(v->ts, 10u);
}

TEST(ScalarStoreTest, LastWriterWins) {
  ScalarStore store;
  store.Put(1, "old", 10, 0);
  EXPECT_TRUE(store.Put(1, "new", 20, 1));
  EXPECT_EQ(store.Get(1)->value, "new");
  // A stale write must not clobber.
  EXPECT_FALSE(store.Put(1, "stale", 15, 2));
  EXPECT_EQ(store.Get(1)->value, "new");
}

TEST(ScalarStoreTest, TieBrokenByOrigin) {
  ScalarStore store;
  store.Put(1, "dc0", 10, 0);
  EXPECT_TRUE(store.Put(1, "dc1", 10, 1));   // same ts, higher origin wins
  EXPECT_FALSE(store.Put(1, "dc0b", 10, 0));  // lower origin loses
  EXPECT_EQ(store.Get(1)->value, "dc1");
}

TEST(ScalarStoreTest, ConvergenceUnderPermutedApplication) {
  // Applying the same set of writes in any order yields the same state —
  // the property the eventual baseline relies on.
  struct Write {
    Key key;
    Value value;
    Timestamp ts;
    DatacenterId origin;
  };
  std::vector<Write> writes;
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    writes.push_back({rng.NextBounded(20), std::to_string(i),
                      rng.NextBounded(50), static_cast<DatacenterId>(
                                               rng.NextBounded(3))});
  }
  ScalarStore a;
  for (const auto& w : writes) {
    a.Put(w.key, w.value, w.ts, w.origin);
  }
  // Shuffle and re-apply to a second store.
  for (int i = static_cast<int>(writes.size()) - 1; i > 0; --i) {
    std::swap(writes[static_cast<std::size_t>(i)],
              writes[rng.NextBounded(static_cast<std::uint64_t>(i + 1))]);
  }
  ScalarStore b;
  for (const auto& w : writes) {
    b.Put(w.key, w.value, w.ts, w.origin);
  }
  ASSERT_EQ(a.size(), b.size());
  a.ForEach([&b](Key key, const ScalarVersion& va) {
    const ScalarVersion* vb = b.Get(key);
    ASSERT_NE(vb, nullptr);
    EXPECT_EQ(va.value, vb->value);
    EXPECT_EQ(va.ts, vb->ts);
    EXPECT_EQ(va.origin, vb->origin);
  });
}

struct TestStamp {
  Timestamp ts = 0;
  Timestamp TotalOrderKey() const { return ts; }
};

TEST(MultiVersionStoreTest, VisibilityPredicateGates) {
  MultiVersionStore<TestStamp> store;
  store.Put(1, "v10", TestStamp{10}, 1, /*local=*/false);
  store.Put(1, "v20", TestStamp{20}, 1, /*local=*/false);
  // GST = 15: only v10 visible.
  const auto* v = store.Get(1, [](const TestStamp& s) { return s.ts <= 15; });
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->value, "v10");
  // GST = 25: newest visible wins.
  v = store.Get(1, [](const TestStamp& s) { return s.ts <= 25; });
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->value, "v20");
  // GST = 5: nothing visible.
  EXPECT_EQ(store.Get(1, [](const TestStamp& s) { return s.ts <= 5; }), nullptr);
}

TEST(MultiVersionStoreTest, LocalVersionsAlwaysVisible) {
  MultiVersionStore<TestStamp> store;
  store.Put(1, "local", TestStamp{100}, 0, /*local=*/true);
  const auto* v = store.Get(1, [](const TestStamp&) { return false; });
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->value, "local");
}

TEST(MultiVersionStoreTest, TrimKeepsNewestVisibleAndNewer) {
  MultiVersionStore<TestStamp> store;
  for (Timestamp t = 10; t <= 50; t += 10) {
    store.Put(7, "v" + std::to_string(t), TestStamp{t}, 1, false);
  }
  EXPECT_EQ(store.ChainLength(7), 5u);
  // GST = 30: versions 10 and 20 are dominated by visible 30 — removable.
  store.Trim(7, [](const TestStamp& s) { return s.ts <= 30; });
  EXPECT_EQ(store.ChainLength(7), 3u);
  // Reads still correct before and after the frontier.
  const auto* v = store.Get(7, [](const TestStamp& s) { return s.ts <= 30; });
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->value, "v30");
  v = store.Get(7, [](const TestStamp& s) { return s.ts <= 50; });
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->value, "v50");
}

TEST(ModRouterTest, StableAndInRange) {
  ModRouter router(8);
  for (Key k = 0; k < 1000; ++k) {
    const PartitionId p = router.Responsible(k);
    EXPECT_LT(p, 8u);
    EXPECT_EQ(p, router.Responsible(k));  // deterministic
  }
}

TEST(ConsistentHashRingTest, CoversAllPartitionsRoughlyEvenly) {
  ConsistentHashRing ring(8, 64);
  std::vector<int> counts(8, 0);
  for (Key k = 0; k < 80000; ++k) {
    ++counts[ring.Responsible(k)];
  }
  for (const int c : counts) {
    EXPECT_GT(c, 80000 / 8 / 2) << "partition starved";
    EXPECT_LT(c, 80000 / 8 * 2) << "partition overloaded";
  }
}

TEST(ConsistentHashRingTest, SiblingsAgree) {
  // Two rings with the same parameters (one per datacenter) must route every
  // key identically — sibling partitions own the same key ranges.
  ConsistentHashRing dc0(8);
  ConsistentHashRing dc1(8);
  for (Key k = 0; k < 10000; ++k) {
    EXPECT_EQ(dc0.Responsible(k), dc1.Responsible(k));
  }
}

TEST(ConsistentHashRingTest, AddingPartitionMovesFewKeys) {
  ConsistentHashRing before(8);
  ConsistentHashRing after(9);
  int moved = 0;
  constexpr int kKeys = 50000;
  for (Key k = 0; k < kKeys; ++k) {
    if (before.Responsible(k) != after.Responsible(k)) {
      ++moved;
    }
  }
  // Consistent hashing: ~1/9 of keys move, far from the ~8/9 a mod router
  // would move. Allow a loose band.
  EXPECT_LT(moved, kKeys / 4);
  EXPECT_GT(moved, kKeys / 30);
}

TEST(ServerOfPartitionTest, RoundRobin) {
  EXPECT_EQ(ServerOfPartition(0, 3), 0u);
  EXPECT_EQ(ServerOfPartition(1, 3), 1u);
  EXPECT_EQ(ServerOfPartition(2, 3), 2u);
  EXPECT_EQ(ServerOfPartition(3, 3), 0u);
  EXPECT_EQ(ServerOfPartition(5, 0), 0u);  // degenerate: no servers
}

TEST(ClientSessionTest, ReadMergesUpdateReplaces) {
  ClientSession session(7);
  EXPECT_EQ(session.clock(), 0u);
  session.OnRead(100);
  EXPECT_EQ(session.clock(), 100u);
  session.OnRead(50);  // older read must not regress the clock
  EXPECT_EQ(session.clock(), 100u);
  session.OnUpdate(200);
  EXPECT_EQ(session.clock(), 200u);
}

}  // namespace
}  // namespace eunomia::store
