// Unit tests for the geo-replication building blocks: vector timestamps,
// the Algorithm 5 receiver, the vector-LWW store, and the visibility
// tracker.
#include <gtest/gtest.h>

#include <vector>

#include "src/georep/geo_store.h"
#include "src/georep/receiver.h"
#include "src/georep/vclock.h"
#include "src/georep/visibility.h"

namespace eunomia::geo {
namespace {

TEST(VectorTimestampTest, MergeMaxIsEntrywise) {
  VectorTimestamp a{1, 5, 3};
  const VectorTimestamp b{2, 4, 9};
  a.MergeMax(b);
  EXPECT_EQ(a, (VectorTimestamp{2, 5, 9}));
}

TEST(VectorTimestampTest, DominationAndConcurrency) {
  const VectorTimestamp a{1, 2, 3};
  const VectorTimestamp b{2, 2, 3};
  const VectorTimestamp c{0, 5, 0};
  EXPECT_TRUE(b.Dominates(a));
  EXPECT_FALSE(a.Dominates(b));
  EXPECT_TRUE(a.StrictlyBefore(b));
  EXPECT_FALSE(b.StrictlyBefore(a));
  EXPECT_TRUE(a.Concurrent(c));
  EXPECT_TRUE(c.Concurrent(b));
  EXPECT_TRUE(a.Dominates(a));
  EXPECT_FALSE(a.StrictlyBefore(a));
}

TEST(VectorTimestampTest, SumAndToString) {
  const VectorTimestamp v{10, 20, 30};
  EXPECT_EQ(v.Sum(), 60u);
  EXPECT_EQ(v.ToString(), "[10,20,30]");
}

TEST(GeoStoreTest, CausallyNewerWins) {
  GeoStore store;
  store.Put(1, "old", VectorTimestamp{1, 0, 0}, 0);
  EXPECT_TRUE(store.Put(1, "new", VectorTimestamp{2, 1, 0}, 1));
  EXPECT_EQ(store.Get(1)->value, "new");
  EXPECT_FALSE(store.Put(1, "stale", VectorTimestamp{1, 0, 0}, 0));
}

TEST(GeoStoreTest, ConcurrentWritesArbitrateDeterministically) {
  const VectorTimestamp va{5, 0, 0};
  const VectorTimestamp vb{0, 4, 0};
  GeoStore ab;
  ab.Put(1, "a", va, 0);
  ab.Put(1, "b", vb, 1);
  GeoStore ba;
  ba.Put(1, "b", vb, 1);
  ba.Put(1, "a", va, 0);
  ASSERT_NE(ab.Get(1), nullptr);
  ASSERT_NE(ba.Get(1), nullptr);
  EXPECT_EQ(ab.Get(1)->value, ba.Get(1)->value) << "order dependence";
}

RemoteUpdate MakeUpdate(std::uint64_t uid, DatacenterId origin,
                        VectorTimestamp vts, PartitionId p = 0) {
  return RemoteUpdate{uid, /*key=*/uid, std::move(vts), origin, p};
}

struct SyncApplier {
  std::vector<std::uint64_t> applied;
  Receiver::ApplyFn fn() {
    return [this](const RemoteUpdate& u, std::function<void()> done) {
      applied.push_back(u.uid);
      done();
    };
  }
};

TEST(ReceiverTest, FifoPerOrigin) {
  SyncApplier applier;
  Receiver receiver(/*self=*/0, /*num_dcs=*/3, applier.fn());
  receiver.OnRemoteUpdate(MakeUpdate(1, 1, VectorTimestamp{0, 1, 0}));
  receiver.OnRemoteUpdate(MakeUpdate(2, 1, VectorTimestamp{0, 2, 0}));
  EXPECT_EQ(applier.applied, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(receiver.site_time()[1], 2u);
}

TEST(ReceiverTest, CrossDcDependencyBlocksUntilSatisfied) {
  SyncApplier applier;
  Receiver receiver(0, 3, applier.fn());
  // Update from dc1 depending on dc2's update 5 — must wait.
  receiver.OnRemoteUpdate(MakeUpdate(10, 1, VectorTimestamp{0, 1, 5}));
  EXPECT_TRUE(applier.applied.empty());
  EXPECT_EQ(receiver.PendingCount(), 1u);
  // dc2's update 5 arrives: both flush, dependency first.
  receiver.OnRemoteUpdate(MakeUpdate(11, 2, VectorTimestamp{0, 0, 5}));
  EXPECT_EQ(applier.applied, (std::vector<std::uint64_t>{11, 10}));
  EXPECT_EQ(receiver.PendingCount(), 0u);
}

TEST(ReceiverTest, DependencyOnSelfIsIgnored) {
  // An update from dc1 depending on dc0's own update (we are dc0): local
  // updates exist locally by construction — no gating.
  SyncApplier applier;
  Receiver receiver(0, 3, applier.fn());
  receiver.OnRemoteUpdate(MakeUpdate(1, 1, VectorTimestamp{999, 1, 0}));
  EXPECT_EQ(applier.applied.size(), 1u);
}

TEST(ReceiverTest, DuplicateSuppressionAfterFailoverReship) {
  SyncApplier applier;
  Receiver receiver(0, 2, applier.fn());
  receiver.OnRemoteUpdate(MakeUpdate(1, 1, VectorTimestamp{0, 1}));
  receiver.OnRemoteUpdate(MakeUpdate(2, 1, VectorTimestamp{0, 2}));
  // New leader re-ships a suffix including an already applied update.
  receiver.OnRemoteUpdate(MakeUpdate(2, 1, VectorTimestamp{0, 2}));
  receiver.OnRemoteUpdate(MakeUpdate(3, 1, VectorTimestamp{0, 3}));
  EXPECT_EQ(applier.applied, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(receiver.duplicate_count(), 1u);
}

TEST(ReceiverTest, AsyncApplyKeepsSingleInFlightPerOrigin) {
  // Applies complete asynchronously: the receiver must not dispatch the next
  // update from the same origin until the previous one acked.
  std::vector<std::pair<RemoteUpdate, std::function<void()>>> inflight;
  Receiver receiver(0, 2, [&](const RemoteUpdate& u, std::function<void()> done) {
    inflight.emplace_back(u, std::move(done));
  });
  receiver.OnRemoteUpdate(MakeUpdate(1, 1, VectorTimestamp{0, 1}));
  receiver.OnRemoteUpdate(MakeUpdate(2, 1, VectorTimestamp{0, 2}));
  ASSERT_EQ(inflight.size(), 1u);  // second waits for the first
  inflight[0].second();            // complete apply of uid 1
  ASSERT_EQ(inflight.size(), 2u);
  EXPECT_EQ(inflight[1].first.uid, 2u);
  inflight[1].second();
  EXPECT_EQ(receiver.site_time()[1], 2u);
}

TEST(ReceiverTest, InterleavedOriginsRespectCausalOrder) {
  // dc1 writes u1; dc2 reads it and writes u2 (depends on u1). Whatever the
  // arrival order, u1 must apply before u2.
  for (const bool u2_first : {false, true}) {
    SyncApplier applier;
    Receiver receiver(0, 3, applier.fn());
    const auto u1 = MakeUpdate(1, 1, VectorTimestamp{0, 7, 0});
    const auto u2 = MakeUpdate(2, 2, VectorTimestamp{0, 7, 4});
    if (u2_first) {
      receiver.OnRemoteUpdate(u2);
      receiver.OnRemoteUpdate(u1);
    } else {
      receiver.OnRemoteUpdate(u1);
      receiver.OnRemoteUpdate(u2);
    }
    ASSERT_EQ(applier.applied.size(), 2u) << "u2_first=" << u2_first;
    EXPECT_EQ(applier.applied[0], 1u);
    EXPECT_EQ(applier.applied[1], 2u);
  }
}

TEST(ReceiverTest, SynchronousApplyDrainsLongRunIteratively) {
  // An apply that completes inside the apply call (the real node's inline
  // hops) re-enters FLUSH from the completion. One dependency releasing a
  // long queued run must drain in a loop: one stack frame per applied
  // update would overflow the stack long before 100k.
  constexpr std::uint64_t kQueued = 100'000;
  SyncApplier applier;
  Receiver receiver(/*self=*/0, /*num_dcs=*/3, applier.fn());
  for (std::uint64_t i = 1; i <= kQueued; ++i) {
    receiver.OnRemoteUpdate(MakeUpdate(i, 1, VectorTimestamp{0, i, 1}));
  }
  ASSERT_TRUE(applier.applied.empty());
  ASSERT_EQ(receiver.PendingCount(), kQueued);
  // dc2's update 1 is every queued update's dependency.
  receiver.OnRemoteUpdate(MakeUpdate(kQueued + 1, 2, VectorTimestamp{0, 0, 1}));
  ASSERT_EQ(applier.applied.size(), kQueued + 1);
  EXPECT_EQ(applier.applied[0], kQueued + 1);
  for (std::uint64_t i = 1; i <= kQueued; ++i) {
    ASSERT_EQ(applier.applied[i], i) << "FIFO order broken at " << i;
  }
  EXPECT_EQ(receiver.PendingCount(), 0u);
  EXPECT_EQ(receiver.applied_count(), kQueued + 1);
  EXPECT_EQ(receiver.site_time()[1], kQueued);
}

TEST(VisibilityTrackerTest, ArtificialDelayComputedFromArrival) {
  VisibilityTracker tracker;
  const std::uint64_t uid = tracker.OnInstalled(0, 1000);
  tracker.OnRemoteArrival(uid, 1, 41'000);
  tracker.OnRemoteVisible(uid, 1, 56'000);
  const metrics::Histogram* vis = tracker.VisibilityHistogram(0, 1);
  ASSERT_NE(vis, nullptr);
  EXPECT_EQ(vis->count(), 1u);
  const auto snap = vis->Snap();
  EXPECT_EQ(snap.sum, 15'000u);  // 56ms - 41ms, exact
  // The quantile is the bucket's upper bound: within 1/32 above the sample.
  EXPECT_EQ(snap.Quantile(0.5), 15'103u);
}

TEST(VisibilityTrackerTest, ThroughputWindowing) {
  VisibilityTracker tracker(1'000'000);
  for (std::uint64_t t = 0; t < 5'000'000; t += 1000) {
    tracker.OnOpComplete(/*is_update=*/false, t);
  }
  // 1000 ops per 1-second window.
  EXPECT_NEAR(tracker.Throughput(1'000'000, 4'000'000), 1000.0, 1.0);
  EXPECT_EQ(tracker.ops_completed(), 5000u);
}

TEST(VisibilityTrackerTest, PerPairSeparation) {
  VisibilityTracker tracker;
  const auto u1 = tracker.OnInstalled(0, 0);
  const auto u2 = tracker.OnInstalled(1, 0);
  tracker.OnRemoteArrival(u1, 1, 10);
  tracker.OnRemoteVisible(u1, 1, 30);
  tracker.OnRemoteArrival(u2, 2, 10);
  tracker.OnRemoteVisible(u2, 2, 110);
  ASSERT_NE(tracker.VisibilityHistogram(0, 1), nullptr);
  ASSERT_NE(tracker.VisibilityHistogram(1, 2), nullptr);
  EXPECT_EQ(tracker.VisibilityHistogram(0, 2), nullptr);
  EXPECT_EQ(tracker.VisibilityHistogram(0, 1)->count(), 1u);
  EXPECT_EQ(tracker.VisibilityHistogram(0, 1)->Snap().sum, 20u);
  EXPECT_EQ(tracker.VisibilityHistogram(1, 2)->count(), 1u);
  EXPECT_EQ(tracker.VisibilityHistogram(1, 2)->Snap().sum, 100u);
}

TEST(VisibilityTrackerTest, HighDatacenterIdsDoNotAliasAcrossUids) {
  // Regression: the old key packing (uid * 64 + dc) aliased (uid, dc >= 64)
  // onto (uid + 1, dc - 64), corrupting per-update bookkeeping.
  VisibilityTracker tracker;
  tracker.EnableDetailedLog();
  const auto u0 = tracker.OnInstalled(0, 0);
  const auto u1 = tracker.OnInstalled(0, 0);
  tracker.OnRemoteArrival(u0, 64, 100);
  tracker.OnRemoteVisible(u0, 64, 130);
  // With the aliasing bug, u0's records landed on (u1, dc 0).
  EXPECT_EQ(tracker.VisibleAt(u0, 64), std::optional<std::uint64_t>(130));
  EXPECT_FALSE(tracker.VisibleAt(u1, 0).has_value());
  ASSERT_NE(tracker.VisibilityHistogram(0, 64), nullptr);
  EXPECT_EQ(tracker.VisibilityHistogram(0, 64)->count(), 1u);
  EXPECT_EQ(tracker.VisibilityHistogram(0, 64)->Snap().sum, 30u);
  EXPECT_EQ(tracker.PendingArrivals(), 0u);
}

TEST(VisibilityTrackerTest, InstallRetentionDisabledForPerNodeTrackers) {
  // A real GeoNode's tracker never hears back about its own updates (remote
  // visibility lands on the destinations' trackers), so origin records must
  // not accumulate — while destination-side EnsureInstalled stubs still
  // work and reclaim after the node's single visibility report.
  VisibilityTracker tracker(1'000'000, /*num_datacenters=*/2);
  tracker.DisableInstallRetention();
  tracker.RecordInstalled(/*uid=*/7, /*origin=*/0, /*t_us=*/100);
  EXPECT_EQ(tracker.TrackedInstalls(), 0u);

  tracker.EnsureInstalled(/*uid=*/42, /*origin=*/1, /*t_us=*/200);
  EXPECT_EQ(tracker.TrackedInstalls(), 1u);
  tracker.OnRemoteArrival(42, 0, 250);
  tracker.OnRemoteVisible(42, 0, 300);
  EXPECT_EQ(tracker.TrackedInstalls(), 0u);
  ASSERT_NE(tracker.VisibilityHistogram(1, 0), nullptr);
  EXPECT_EQ(tracker.VisibilityHistogram(1, 0)->count(), 1u);
  EXPECT_EQ(tracker.VisibilityHistogram(1, 0)->Snap().sum, 50u);
}

TEST(VisibilityTrackerTest, InstalledRecordsReclaimedOnceFullyVisible) {
  // Regression: installed_ grew one entry per update for the whole run.
  // With the datacenter count known, the origin record is dropped once all
  // num_dcs - 1 destinations reported visible.
  VisibilityTracker tracker(1'000'000, /*num_datacenters=*/3);
  const auto uid = tracker.OnInstalled(0, 0);
  EXPECT_EQ(tracker.TrackedInstalls(), 1u);
  tracker.OnRemoteArrival(uid, 1, 10);
  tracker.OnRemoteVisible(uid, 1, 25);
  EXPECT_EQ(tracker.TrackedInstalls(), 1u);  // datacenter 2 still pending
  tracker.OnRemoteArrival(uid, 2, 12);
  tracker.OnRemoteVisible(uid, 2, 40);
  EXPECT_EQ(tracker.TrackedInstalls(), 0u);
  // Both visibility samples were still recorded before reclamation.
  ASSERT_NE(tracker.VisibilityHistogram(0, 1), nullptr);
  ASSERT_NE(tracker.VisibilityHistogram(0, 2), nullptr);
  EXPECT_EQ(tracker.VisibilityHistogram(0, 1)->count(), 1u);
  EXPECT_EQ(tracker.VisibilityHistogram(0, 1)->Snap().sum, 15u);
  EXPECT_EQ(tracker.VisibilityHistogram(0, 2)->count(), 1u);
  EXPECT_EQ(tracker.VisibilityHistogram(0, 2)->Snap().sum, 28u);
}

}  // namespace
}  // namespace eunomia::geo
