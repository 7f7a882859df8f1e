// Tests for the clock substrate: physical clock model, the paper's hybrid
// MaxTs logic (Algorithm 2), and the reference HLC.
#include <gtest/gtest.h>

#include <vector>

#include "tests/hlc.h"
#include "src/clock/hybrid_clock.h"
#include "src/clock/physical_clock.h"
#include "src/common/random.h"

namespace eunomia {
namespace {

TEST(PhysicalClockTest, PerfectClockTracksTrueTime) {
  PhysicalClock clock(0, 0.0);
  EXPECT_EQ(clock.Read(0), 0u);
  EXPECT_EQ(clock.Read(1'000'000), 1'000'000u);
}

TEST(PhysicalClockTest, OffsetApplies) {
  PhysicalClock fast(500, 0.0);
  PhysicalClock slow(-500, 0.0);
  EXPECT_EQ(fast.Read(1000), 1500u);
  EXPECT_EQ(slow.Read(1000), 500u);
}

TEST(PhysicalClockTest, NegativeReadingsClampToZero) {
  PhysicalClock slow(-1000, 0.0);
  EXPECT_EQ(slow.Read(10), 0u);
}

TEST(PhysicalClockTest, DriftAccumulates) {
  PhysicalClock fast(0, 100.0);  // +100 ppm
  // After 10 simulated seconds the clock should be ~1 ms ahead.
  EXPECT_NEAR(static_cast<double>(fast.Read(10'000'000)), 10'001'000.0, 2.0);
}

TEST(PhysicalClockTest, DisciplineResetsError) {
  PhysicalClock clock(700, 50.0);
  clock.Discipline(5'000'000);
  EXPECT_NEAR(static_cast<double>(clock.Read(5'000'000)), 5'000'000.0, 1.0);
}

TEST(PhysicalClockTest, MonotoneInTrueTime) {
  PhysicalClock clock(-200, -80.0);
  Timestamp prev = 0;
  for (std::uint64_t t = 0; t < 1'000'000; t += 997) {
    const Timestamp now = clock.Read(t);
    EXPECT_GE(now, prev);
    prev = now;
  }
}

TEST(HybridClockTest, StrictlyGreaterThanClientClock) {
  HybridClock hc;
  EXPECT_GT(hc.TimestampUpdate(/*physical_now=*/100, /*client_clock=*/500), 500u);
}

TEST(HybridClockTest, UsesPhysicalTimeWhenAhead) {
  HybridClock hc;
  EXPECT_EQ(hc.TimestampUpdate(1000, 0), 1000u);
}

TEST(HybridClockTest, StrictMonotonicityUnderRepeatedCalls) {
  HybridClock hc;
  Timestamp prev = 0;
  for (int i = 0; i < 1000; ++i) {
    // Physical clock frozen: the logical part must still move forward.
    const Timestamp ts = hc.TimestampUpdate(123, 0);
    EXPECT_GT(ts, prev);
    prev = ts;
  }
}

// The §3.2 scenario: a client arrives with a clock far ahead of the
// partition's physical time (clock skew). The hybrid clock must NOT wait —
// it advances the logical part instead — yet remain monotonic.
TEST(HybridClockTest, NoBlockingUnderClockSkew) {
  HybridClock hc;
  const Timestamp skewed_client = 1'000'000;
  const Timestamp t1 = hc.TimestampUpdate(/*physical_now=*/100, skewed_client);
  EXPECT_EQ(t1, skewed_client + 1);
  // Next local update with a lagging physical clock continues past it.
  const Timestamp t2 = hc.TimestampUpdate(/*physical_now=*/101, 0);
  EXPECT_EQ(t2, t1 + 1);
}

TEST(HybridClockTest, HeartbeatGate) {
  HybridClock hc;
  hc.TimestampUpdate(1000, 0);  // MaxTs = 1000
  const Timestamp delta = 50;
  EXPECT_FALSE(hc.HeartbeatDue(1049, delta));
  EXPECT_TRUE(hc.HeartbeatDue(1050, delta));
  // After observing the heartbeat value, later updates must exceed it.
  hc.Observe(1050);
  EXPECT_GT(hc.TimestampUpdate(1050, 0), 1050u);
}

TEST(HybridClockTest, ObserveNeverMovesBackwards) {
  HybridClock hc;
  hc.TimestampUpdate(500, 0);
  hc.Observe(100);
  EXPECT_EQ(hc.max_ts(), 500u);
}

// Property: interleaved update streams through hybrid clocks produce
// timestamps consistent with the client-observed order (Property 1) and
// strictly monotone per partition (Property 2), under arbitrary skew.
TEST(HybridClockTest, PropertyCausalityAndMonotonicityUnderSkew) {
  Rng rng(77);
  constexpr int kPartitions = 4;
  std::vector<HybridClock> clocks(kPartitions);
  std::vector<PhysicalClock> phys;
  phys.reserve(kPartitions);
  for (int p = 0; p < kPartitions; ++p) {
    phys.emplace_back(rng.NextInRange(-100000, 100000),
                      static_cast<double>(rng.NextInRange(-200, 200)));
  }
  std::vector<Timestamp> last_per_partition(kPartitions, 0);
  Timestamp client_clock = 0;  // one client hopping across partitions
  std::uint64_t true_time = 0;
  for (int i = 0; i < 5000; ++i) {
    true_time += rng.NextBounded(100);
    const int p = static_cast<int>(rng.NextBounded(kPartitions));
    const Timestamp ts =
        clocks[p].TimestampUpdate(phys[p].Read(true_time), client_clock);
    EXPECT_GT(ts, client_clock) << "Property 1 violated";
    EXPECT_GT(ts, last_per_partition[p]) << "Property 2 violated";
    last_per_partition[p] = ts;
    client_clock = ts;  // Alg. 1 line 9
  }
}

TEST(HlcTest, TickAdvancesLogicalWhenPhysicalStalls) {
  Hlc hlc;
  const HlcTimestamp a = hlc.Tick(100);
  const HlcTimestamp b = hlc.Tick(100);
  EXPECT_LT(a, b);
  EXPECT_EQ(b.l, 100u);
  EXPECT_EQ(b.c, a.c + 1);
}

TEST(HlcTest, TickResetsLogicalWhenPhysicalAdvances) {
  Hlc hlc;
  hlc.Tick(100);
  hlc.Tick(100);
  const HlcTimestamp t = hlc.Tick(200);
  EXPECT_EQ(t.l, 200u);
  EXPECT_EQ(t.c, 0u);
}

TEST(HlcTest, MergeDominatesRemote) {
  Hlc a;
  Hlc b;
  const HlcTimestamp sent = a.Tick(1000);
  const HlcTimestamp received = b.Merge(10, sent);  // b's clock far behind
  EXPECT_LT(sent, received);
}

TEST(HlcTest, BoundedDivergenceWithSynchronizedClocks) {
  // With perfectly synchronized physical clocks, l never exceeds the
  // largest physical time seen — HLC's key bound.
  Hlc a;
  Hlc b;
  HlcTimestamp last{};
  for (std::uint64_t t = 0; t < 1000; t += 10) {
    last = a.Tick(t);
    last = b.Merge(t, last);
    EXPECT_LE(last.l, t);
  }
}

}  // namespace
}  // namespace eunomia
