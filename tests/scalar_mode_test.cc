// Tests for the scalar-metadata variant of EunomiaKV (§4's "we could easily
// adapt our protocols to use a single scalar") and the receiver's
// frontier-beacon machinery that makes it live.
#include <gtest/gtest.h>

#include <vector>

#include "src/georep/eunomiakv.h"
#include "src/georep/receiver.h"
#include "src/workload/workload.h"

namespace eunomia::geo {
namespace {

RemoteUpdate ScalarUpdate(std::uint64_t uid, DatacenterId origin, Timestamp ts,
                          std::uint32_t num_dcs) {
  VectorTimestamp vts(num_dcs);
  for (DatacenterId d = 0; d < num_dcs; ++d) {
    vts[d] = ts;  // scalar mode: every entry is the update's own timestamp
  }
  return RemoteUpdate{uid, uid, vts, origin, 0};
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

TEST(ScalarReceiverTest, BlocksUntilFrontierCoversTimestamp) {
  SyncApplier applier;
  Receiver receiver(/*self=*/0, /*num_dcs=*/3, applier.fn(), /*scalar=*/true);
  // Update from dc1 at ts=100: needs dc2's frontier >= 100.
  receiver.OnRemoteUpdate(ScalarUpdate(1, 1, 100, 3));
  EXPECT_TRUE(applier.applied.empty());
  receiver.OnFrontier(2, 99);
  EXPECT_TRUE(applier.applied.empty());
  receiver.OnFrontier(2, 100);
  EXPECT_EQ(applier.applied, (std::vector<std::uint64_t>{1}));
}

TEST(ScalarReceiverTest, QueuedOlderUpdateFromThirdDcBlocks) {
  // dc2's frontier covers ts=100, but an unapplied dc2 update with ts=90 is
  // still queued: the dc1 update must wait for it.
  SyncApplier applier;
  Receiver receiver(0, 3, applier.fn(), true);
  receiver.OnFrontier(1, 1000);
  receiver.OnFrontier(2, 1000);
  // Hold dc2's ts=90 update hostage: it depends on dc1's frontier... which
  // is already 1000, so to keep it queued we use an async applier instead.
  std::vector<std::pair<RemoteUpdate, std::function<void()>>> inflight;
  Receiver async_receiver(0, 3,
                          [&](const RemoteUpdate& u, std::function<void()> done) {
                            inflight.emplace_back(u, std::move(done));
                          },
                          true);
  async_receiver.OnFrontier(1, 1000);
  async_receiver.OnFrontier(2, 1000);
  async_receiver.OnRemoteUpdate(ScalarUpdate(7, 2, 90, 3));   // in flight
  async_receiver.OnRemoteUpdate(ScalarUpdate(8, 1, 100, 3));  // must wait
  ASSERT_EQ(inflight.size(), 1u);
  EXPECT_EQ(inflight[0].first.uid, 7u);
  inflight[0].second();  // dc2's 90 applies
  ASSERT_EQ(inflight.size(), 2u);
  EXPECT_EQ(inflight[1].first.uid, 8u);
}

TEST(ScalarReceiverTest, FrontierAloneNeverAppliesWithoutQueueDrain) {
  // A "covered" frontier with the matching update still queued behind an
  // in-flight one must not leapfrog.
  std::vector<std::pair<RemoteUpdate, std::function<void()>>> inflight;
  Receiver receiver(0, 2,
                    [&](const RemoteUpdate& u, std::function<void()> done) {
                      inflight.emplace_back(u, std::move(done));
                    },
                    true);
  receiver.OnRemoteUpdate(ScalarUpdate(1, 1, 10, 2));
  receiver.OnRemoteUpdate(ScalarUpdate(2, 1, 20, 2));
  ASSERT_EQ(inflight.size(), 1u);  // FIFO: one in flight per origin
  receiver.OnFrontier(1, 100);
  EXPECT_EQ(inflight.size(), 1u);
  inflight[0].second();
  ASSERT_EQ(inflight.size(), 2u);
  inflight[1].second();
  EXPECT_EQ(receiver.site_time()[1], 20u);
}

// End-to-end: the scalar variant still provides causal consistency and
// liveness — it is just slower on near legs.
TEST(ScalarEunomiaKvTest, UpdatesBecomeVisibleAndInOrder) {
  geo::GeoConfig config;
  config.num_dcs = 3;
  config.partitions_per_dc = 4;
  config.servers_per_dc = 2;
  config.scalar_metadata = true;
  sim::Simulator sim(21);
  EunomiaKvSystem system(&sim, config);
  system.tracker().EnableDetailedLog();

  // A causal chain from one client.
  int completed = 0;
  std::function<void(int)> issue = [&](int i) {
    if (i >= 15) {
      return;
    }
    system.ClientUpdate(1, 0, static_cast<Key>(i), "v", [&, i] {
      ++completed;
      issue(i + 1);
    });
  };
  // Background traffic from the other DCs so frontiers advance... not even
  // needed: the stabilizer broadcasts beacons when idle.
  issue(0);
  sim.RunUntil(10 * sim::kSecond);
  ASSERT_EQ(completed, 15);

  for (DatacenterId d = 1; d < 3; ++d) {
    std::optional<std::uint64_t> prev;
    for (std::uint64_t uid = 0; uid < 15; ++uid) {
      const auto t = system.tracker().VisibleAt(uid, d);
      ASSERT_TRUE(t.has_value()) << "uid " << uid << " stuck at dc" << d;
      if (prev) {
        EXPECT_GE(*t, *prev) << "causal chain reordered";
      }
      prev = t;
    }
  }
}

TEST(ScalarEunomiaKvTest, NearLegPaysFarthestLegDelay) {
  geo::GeoConfig config;
  auto measure = [&](bool scalar) {
    config.scalar_metadata = scalar;
    sim::Simulator sim(22);
    EunomiaKvSystem system(&sim, config);
    wl::WorkloadConfig workload;
    workload.update_fraction = 0.2;
    workload.clients_per_dc = 6;
    workload.duration_us = 6 * sim::kSecond;
    wl::WorkloadDriver driver(&sim, &system, workload, config.num_dcs);
    driver.Start();
    sim.RunUntil(workload.duration_us);
    driver.Stop();
    sim.RunUntil(workload.duration_us + 2 * sim::kSecond);
    const metrics::Histogram* vis =
        system.tracker().VisibilityHistogram(0, 1);  // 40 ms leg
    return vis != nullptr ? static_cast<double>(vis->Snap().Quantile(0.5))
                          : -1.0;
  };
  const double vector_ms = measure(false) / 1000.0;
  const double scalar_ms = measure(true) / 1000.0;
  ASSERT_GT(vector_ms, 0.0);
  ASSERT_GT(scalar_ms, 0.0);
  // Vector: a few ms of added delay. Scalar: dragged to the farthest leg
  // (80 - 40 = ~40 ms extra).
  EXPECT_LT(vector_ms, 15.0);
  EXPECT_GT(scalar_ms, 30.0);
}

}  // namespace
}  // namespace eunomia::geo
