// Tests for the harness utilities (table rendering, experiment runner) and
// the sequencer geo-system specifics (in-order shipping, straggler hook).
#include <gtest/gtest.h>

#include "bench/harness/geo_experiment.h"
#include "bench/harness/table.h"
#include "src/sequencer/seq_system.h"
#include "src/workload/workload.h"

namespace eunomia {
namespace {

TEST(TableTest, NumAndPctFormatting) {
  EXPECT_EQ(harness::Table::Num(3.14159, 2), "3.14");
  EXPECT_EQ(harness::Table::Num(1000, 0), "1000");
  EXPECT_EQ(harness::Table::Pct(-4.7), "-4.7%");
  EXPECT_EQ(harness::Table::Pct(12.34, 2), "+12.34%");
}

TEST(TableTest, RowsPadToHeaderWidth) {
  harness::Table table({"a", "b", "c"});
  table.AddRow({"1"});  // short row must not crash printing
  table.AddRow({"1", "2", "3"});
  table.Print();     // smoke: alignment handles missing cells
  table.PrintCsv();  // and CSV mode
}

TEST(SystemNameTest, AllKindsNamed) {
  using harness::SystemKind;
  EXPECT_EQ(harness::SystemName(SystemKind::kEventual), "Eventual");
  EXPECT_EQ(harness::SystemName(SystemKind::kEunomiaKv), "EunomiaKV");
  EXPECT_EQ(harness::SystemName(SystemKind::kGentleRain), "GentleRain");
  EXPECT_EQ(harness::SystemName(SystemKind::kCure), "Cure");
  EXPECT_EQ(harness::SystemName(SystemKind::kSSeq), "S-Seq");
  EXPECT_EQ(harness::SystemName(SystemKind::kASeq), "A-Seq");
}

TEST(GeoExperimentTest, RunProducesConsistentResult) {
  geo::GeoConfig config;
  config.num_dcs = 3;
  config.partitions_per_dc = 4;
  config.servers_per_dc = 2;
  wl::WorkloadConfig workload;
  workload.num_keys = 500;
  workload.update_fraction = 0.2;
  workload.clients_per_dc = 4;
  workload.duration_us = 3 * sim::kSecond;
  workload.warmup_us = 500 * sim::kMillisecond;
  workload.cooldown_us = 500 * sim::kMillisecond;

  const auto result =
      harness::RunGeoExperiment(harness::SystemKind::kEunomiaKv, config, workload);
  EXPECT_EQ(result.system, "EunomiaKV");
  EXPECT_GT(result.throughput_ops_s, 100.0);
  EXPECT_GT(result.reads, result.updates);  // 80:20 mix
  EXPECT_GE(result.vis_p90_ms, 0.0);
  EXPECT_GE(result.vis_p95_ms, result.vis_p90_ms);
  EXPECT_GE(result.vis_p99_ms, result.vis_p95_ms);
}

TEST(GeoExperimentTest, DeterministicAcrossRuns) {
  geo::GeoConfig config;
  config.partitions_per_dc = 4;
  config.servers_per_dc = 2;
  wl::WorkloadConfig workload;
  workload.clients_per_dc = 4;
  workload.duration_us = 2 * sim::kSecond;
  workload.warmup_us = 200'000;
  workload.cooldown_us = 200'000;
  const auto a =
      harness::RunGeoExperiment(harness::SystemKind::kEunomiaKv, config, workload);
  const auto b =
      harness::RunGeoExperiment(harness::SystemKind::kEunomiaKv, config, workload);
  EXPECT_DOUBLE_EQ(a.throughput_ops_s, b.throughput_ops_s);
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_DOUBLE_EQ(a.vis_p95_ms, b.vis_p95_ms);
}

// S-Seq ships updates through the sequencer in grant order, so visibility at
// a remote receiver is FIFO in sequence numbers even when partitions finish
// storing out of order.
TEST(SeqSystemTest, RemoteVisibilityFollowsSequenceOrder) {
  geo::GeoConfig config;
  config.partitions_per_dc = 4;
  config.servers_per_dc = 2;
  sim::Simulator sim(33);
  geo::SeqSystem system(&sim, config, geo::SeqSystem::Mode::kSynchronous);
  system.tracker().EnableDetailedLog();

  // Two independent clients race updates to different partitions.
  int completed = 0;
  for (int i = 0; i < 12; ++i) {
    system.ClientUpdate(static_cast<ClientId>(i + 1), 0,
                        static_cast<Key>(i * 7 + 1), "v", [&] { ++completed; });
  }
  sim.RunUntil(4 * sim::kSecond);
  ASSERT_EQ(completed, 12);
  // All visible at dc1 (uids assigned in sequencer-grant order).
  std::optional<std::uint64_t> prev;
  for (std::uint64_t uid = 0; uid < 12; ++uid) {
    const auto t = system.tracker().VisibleAt(uid, 1);
    ASSERT_TRUE(t.has_value()) << "uid " << uid;
    if (prev) {
      EXPECT_GE(*t, *prev) << "sequencer shipping order violated";
    }
    prev = t;
  }
}

TEST(SeqSystemTest, StragglerHookDelaysOnlyThatPartitionsUpdates) {
  geo::GeoConfig config;
  config.partitions_per_dc = 4;
  config.servers_per_dc = 2;
  sim::Simulator sim(34);
  geo::SeqSystem system(&sim, config, geo::SeqSystem::Mode::kSynchronous);
  system.SetPartitionSequencerDelay(0, 0, 50 * sim::kMillisecond);

  // Find keys owned by partition 0 and by some other partition.
  store::ConsistentHashRing router(config.partitions_per_dc);
  Key slow_key = 0;
  Key fast_key = 0;
  for (Key k = 1; k < 1000 && (slow_key == 0 || fast_key == 0); ++k) {
    if (router.Responsible(k) == 0 && slow_key == 0) {
      slow_key = k;
    } else if (router.Responsible(k) != 0 && fast_key == 0) {
      fast_key = k;
    }
  }
  std::uint64_t slow_latency = 0;
  std::uint64_t fast_latency = 0;
  const std::uint64_t start = sim.now();
  system.ClientUpdate(1, 0, slow_key, "v", [&] { slow_latency = sim.now() - start; });
  system.ClientUpdate(2, 0, fast_key, "v", [&] { fast_latency = sim.now() - start; });
  sim.RunUntil(sim::kSecond);
  EXPECT_GT(slow_latency, 50 * sim::kMillisecond)
      << "the straggling partition's clients pay the interval";
  EXPECT_LT(fast_latency, 20 * sim::kMillisecond)
      << "healthy partitions' clients are unaffected";
}

}  // namespace
}  // namespace eunomia
