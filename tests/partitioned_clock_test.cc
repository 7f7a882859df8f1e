// Tests for PartitionedHybridClock: the tie-free hybrid clock whose
// timestamps are congruent to the partition id modulo the stride, plus the
// two-lane server model the protocols run on.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "src/clock/hybrid_clock.h"
#include "src/common/random.h"
#include "src/sim/server.h"
#include "src/sim/simulator.h"

namespace eunomia {
namespace {

TEST(PartitionedHybridClockTest, ResidueAlwaysMatchesPartition) {
  Rng rng(3);
  for (std::uint32_t p = 0; p < 8; ++p) {
    PartitionedHybridClock clock(p, 8);
    Timestamp dep = 0;
    for (int i = 0; i < 1000; ++i) {
      const Timestamp ts = clock.TimestampUpdate(rng.NextBounded(1'000'000), dep);
      EXPECT_EQ(ts % 8, p);
      if (rng.NextBool(0.5)) {
        dep = ts;  // own update
      } else {
        dep = rng.NextBounded(8'000'000);  // foreign dependency
      }
    }
  }
}

TEST(PartitionedHybridClockTest, StrictlyGreaterThanInputs) {
  PartitionedHybridClock clock(3, 8);
  const Timestamp dep = 123456;
  const Timestamp phys = 777;
  const Timestamp ts = clock.TimestampUpdate(phys, dep);
  EXPECT_GT(ts, dep);
  EXPECT_GT(ts, phys * 8);
  const Timestamp ts2 = clock.TimestampUpdate(phys, 0);
  EXPECT_GT(ts2, ts) << "monotonicity under frozen physical clock";
}

TEST(PartitionedHybridClockTest, NoCollisionsAcrossPartitionsEver) {
  // The whole point: partitions of one datacenter can never issue equal
  // timestamps, no matter how clocks and dependencies interleave.
  Rng rng(17);
  constexpr std::uint32_t kParts = 8;
  std::vector<PartitionedHybridClock> clocks;
  for (std::uint32_t p = 0; p < kParts; ++p) {
    clocks.emplace_back(p, kParts);
  }
  std::set<Timestamp> all;
  Timestamp client = 0;
  std::uint64_t phys = 0;
  for (int i = 0; i < 20000; ++i) {
    phys += rng.NextBounded(3);  // nearly frozen clock: maximal tie pressure
    const auto p = static_cast<std::uint32_t>(rng.NextBounded(kParts));
    const Timestamp ts = clocks[p].TimestampUpdate(phys, client);
    ASSERT_TRUE(all.insert(ts).second) << "timestamp collision at " << ts;
    if (rng.NextBool(0.7)) {
      client = ts;
    }
  }
}

// Every flush reports HeartbeatValue(now) with its batch: the frontier must
// sit above the batch's last op and below the partition's next update, even
// when the flush lands in the microsecond of the last update or the next.
TEST(PartitionedHybridClockTest, FlushFrontierSitsBetweenBatchAndNextUpdate) {
  PartitionedHybridClock clock(2, 8);
  clock.TimestampUpdate(1000, 0);
  const Timestamp last = clock.TimestampUpdate(1000, 0);
  // A flush in the same microsecond as the batch's last op.
  const Timestamp same_us = clock.HeartbeatValue(1000);
  EXPECT_GT(same_us, last);
  EXPECT_EQ(same_us % 8, 2u);
  // Back-to-back flushes with no update between them stay monotone.
  EXPECT_GT(clock.HeartbeatValue(1000), same_us);
  const Timestamp hb = clock.HeartbeatValue(1100);
  EXPECT_GT(hb, same_us);
  EXPECT_EQ(hb % 8, 2u);
  // An update in the same microsecond still exceeds the frontier.
  const Timestamp next = clock.TimestampUpdate(1100, 0);
  EXPECT_GT(next, hb);
  // A physical clock behind a client-bumped MaxTs: the frontier moves past
  // the logical value instead of reporting the stale reading.
  const Timestamp bumped = clock.TimestampUpdate(1100, 50'000);
  const Timestamp behind = clock.HeartbeatValue(1100);
  EXPECT_GT(behind, bumped);
  EXPECT_GT(clock.TimestampUpdate(1100, 0), behind);
}

TEST(PartitionedHybridClockTest, SkewedClientNeverBlocks) {
  PartitionedHybridClock clock(1, 8);
  // Client clock far ahead of physical time: the logical part absorbs it.
  const Timestamp ts = clock.TimestampUpdate(10, 9'999'999);
  EXPECT_GT(ts, 9'999'999u);
  EXPECT_EQ(ts % 8, 1u);
}

TEST(ServerPriorityLaneTest, PriorityCompletesInOwnServiceTime) {
  sim::Simulator sim;
  sim::Server server(&sim);
  std::vector<std::pair<int, sim::SimTime>> done;
  server.Submit(1000, [&] { done.emplace_back(1, sim.now()); });
  server.Submit(1000, [&] { done.emplace_back(2, sim.now()); });
  // Background task arrives while the first client op is in service: it
  // completes after its own cost, not after the client queue.
  sim.ScheduleAt(100, [&] {
    server.SubmitPriority(50, [&] { done.emplace_back(3, sim.now()); });
  });
  sim.RunUntilIdle();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0], std::make_pair(3, sim::SimTime{150}));
  EXPECT_EQ(done[1].first, 1);
  // The stolen 50 us are charged to the client lane: the second op finishes
  // at 1000 + (1000 + 50) = 2050.
  EXPECT_EQ(done[2], std::make_pair(2, sim::SimTime{2050}));
}

TEST(ServerPriorityLaneTest, StolenCyclesAreConserved) {
  // Total busy time equals total submitted work regardless of lane mix.
  sim::Simulator sim;
  sim::Server server(&sim);
  server.Submit(300, [] {});
  server.SubmitPriority(100, [] {});
  server.SubmitPriority(50, [] {});
  server.Submit(200, [] {});
  sim.RunUntilIdle();
  EXPECT_EQ(server.busy_accum(), 650u);
  EXPECT_EQ(server.tasks(), 4u);
}

TEST(ServerPriorityLaneTest, BackgroundThroughputThrottlesClientLane) {
  // A steady 50% background load must roughly halve the client lane's
  // throughput — the capacity-theft mechanism behind the Fig. 5 gaps.
  sim::Simulator sim;
  sim::Server server(&sim);
  // Background: 500 us of work every 1 ms.
  std::function<void()> background = [&] {
    server.SubmitPriority(500, [] {});
    sim.ScheduleAfter(1000, background);
  };
  sim.ScheduleAfter(0, background);
  // Client lane: closed loop of 100 us ops.
  std::uint64_t completed = 0;
  std::function<void()> client = [&] {
    server.Submit(100, [&] {
      ++completed;
      client();
    });
  };
  client();
  sim.RunUntil(1'000'000);  // 1 s
  // Unloaded: 10000 ops/s. With 50% theft: ~5000.
  EXPECT_GT(completed, 4000u);
  EXPECT_LT(completed, 6000u);
}

}  // namespace
}  // namespace eunomia
