// End-to-end integration tests: every simulated geo-replicated system is
// driven with real workloads over the paper's 3-DC topology, and the key
// protocol invariants (DESIGN.md §5) are checked — causal visibility
// ordering, convergence, eventual visibility, session guarantees.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <vector>

#include "src/georep/eunomiakv.h"
#include "bench/harness/geo_experiment.h"
#include "src/sequencer/seq_system.h"
#include "src/workload/workload.h"

namespace eunomia {
namespace {

using harness::MakeSystem;
using harness::SystemKind;

geo::GeoConfig SmallConfig() {
  geo::GeoConfig config;
  config.num_dcs = 3;
  config.partitions_per_dc = 4;
  config.servers_per_dc = 2;
  return config;
}

wl::WorkloadConfig SmallWorkload() {
  wl::WorkloadConfig workload;
  workload.num_keys = 200;
  workload.update_fraction = 0.3;
  workload.clients_per_dc = 4;
  workload.duration_us = 4 * sim::kSecond;
  workload.warmup_us = 500 * sim::kMillisecond;
  workload.cooldown_us = 500 * sim::kMillisecond;
  return workload;
}

class GeoSystemSmokeTest : public ::testing::TestWithParam<SystemKind> {};

// Every system completes operations and makes every installed update visible
// at every remote datacenter once load stops (liveness / eventual
// visibility).
TEST_P(GeoSystemSmokeTest, OpsCompleteAndUpdatesBecomeVisible) {
  const SystemKind kind = GetParam();
  auto sut = MakeSystem(kind, SmallConfig(), /*seed=*/7);
  sut.system->tracker().EnableDetailedLog();
  wl::WorkloadDriver driver(sut.sim.get(), sut.system.get(), SmallWorkload(), 3);
  driver.Start();
  sut.sim->RunUntil(SmallWorkload().duration_us);
  driver.Stop();
  // Generous drain so replication and stabilization finish everywhere.
  sut.sim->RunUntil(SmallWorkload().duration_us + 5 * sim::kSecond);

  const auto& tracker = sut.system->tracker();
  EXPECT_GT(tracker.reads_completed(), 100u) << harness::SystemName(kind);
  EXPECT_GT(tracker.updates_completed(), 20u);
  // Every update visible at both remote DCs: visibility histogram sample
  // counts add up to updates * (num_dcs - 1).
  std::uint64_t visible = 0;
  for (DatacenterId o = 0; o < 3; ++o) {
    for (DatacenterId d = 0; d < 3; ++d) {
      if (const auto* hist = tracker.VisibilityHistogram(o, d)) {
        visible += hist->count();
      }
    }
  }
  EXPECT_EQ(visible, tracker.updates_completed() * 2u)
      << harness::SystemName(kind) << ": some updates never became visible";
}

INSTANTIATE_TEST_SUITE_P(
    AllSystems, GeoSystemSmokeTest,
    ::testing::Values(SystemKind::kEventual, SystemKind::kEunomiaKv,
                      SystemKind::kGentleRain, SystemKind::kCure,
                      SystemKind::kSSeq, SystemKind::kASeq),
    [](const ::testing::TestParamInfo<SystemKind>& param_info) {
      std::string name = harness::SystemName(param_info.param);
      for (char& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name;
    });

// Convergence: after quiescence all EunomiaKV datacenters hold identical
// key -> (value, vts) maps.
TEST(EunomiaKvIntegrationTest, DatacentersConverge) {
  const auto config = SmallConfig();
  sim::Simulator sim(3);
  geo::EunomiaKvSystem system(&sim, config);
  auto workload = SmallWorkload();
  workload.update_fraction = 0.5;
  wl::WorkloadDriver driver(&sim, &system, workload, config.num_dcs);
  driver.Start();
  sim.RunUntil(workload.duration_us);
  driver.Stop();
  sim.RunUntil(workload.duration_us + 5 * sim::kSecond);

  // Collect each DC's full contents (union over partitions).
  auto snapshot = [&](DatacenterId dc) {
    std::map<Key, std::pair<Value, std::vector<Timestamp>>> contents;
    for (PartitionId p = 0; p < config.partitions_per_dc; ++p) {
      system.StoreAt(dc, p).ForEach([&](Key key, const geo::GeoVersion& v) {
        contents[key] = {v.value, v.vts.entries()};
      });
    }
    return contents;
  };
  const auto dc0 = snapshot(0);
  EXPECT_GT(dc0.size(), 10u);
  for (DatacenterId d = 1; d < 3; ++d) {
    const auto other = snapshot(d);
    EXPECT_EQ(dc0.size(), other.size()) << "dc" << d;
    EXPECT_TRUE(dc0 == other) << "dc" << d << " diverged from dc0";
  }
  // No receiver left anything stuck.
  for (DatacenterId d = 0; d < 3; ++d) {
    EXPECT_EQ(system.ReceiverAt(d).PendingCount(), 0u);
  }
}

// Causal visibility ordering — same session: a client's consecutive updates
// must become visible at every remote datacenter in issue order (this is
// the heart of causal consistency; eventual consistency does NOT give it).
//
// `tolerance_us`: EunomiaKV and S-Seq deliver in causal order through the
// receiver, so the ordering is exact. GentleRain and Cure enforce causality
// on the *read path* (reads gate on GST/GSS), not on per-partition
// visibility instants — GST broadcasts reach sibling partitions a few
// milliseconds apart, so visibility times may invert by up to roughly one
// stabilization round; we allow that bounded skew.
void CheckSameSessionOrder(SystemKind kind, std::uint64_t tolerance_us) {
  auto sut = MakeSystem(kind, SmallConfig(), /*seed=*/11);
  auto& tracker = sut.system->tracker();
  tracker.EnableDetailedLog();

  // One client at dc0 issues a causal chain of updates to different keys
  // (different partitions), back to back.
  std::vector<std::uint64_t> done_times;
  int completed = 0;
  std::function<void(int)> issue = [&](int i) {
    if (i >= 20) {
      return;
    }
    sut.system->ClientUpdate(1, 0, static_cast<Key>(i), "v",
                             [&, i] {
                               ++completed;
                               issue(i + 1);
                             });
  };
  issue(0);
  sut.sim->RunUntil(10 * sim::kSecond);
  ASSERT_EQ(completed, 20);

  // uids are assigned in installation order 0..19 (single client, chain).
  for (DatacenterId d = 1; d < 3; ++d) {
    std::optional<std::uint64_t> prev;
    for (std::uint64_t uid = 0; uid < 20; ++uid) {
      const auto t = tracker.VisibleAt(uid, d);
      ASSERT_TRUE(t.has_value()) << "uid " << uid << " never visible at dc" << d;
      if (prev.has_value()) {
        EXPECT_GE(*t + tolerance_us, *prev)
            << harness::SystemName(kind)
            << ": causal chain visible out of order at dc" << d << ", uid " << uid;
      }
      prev = t;
    }
  }
}

TEST(CausalOrderTest, EunomiaKvPreservesSessionOrder) {
  CheckSameSessionOrder(SystemKind::kEunomiaKv, 0);
}
TEST(CausalOrderTest, SSeqPreservesSessionOrder) {
  CheckSameSessionOrder(SystemKind::kSSeq, 0);
}
TEST(CausalOrderTest, GentleRainPreservesSessionOrder) {
  CheckSameSessionOrder(SystemKind::kGentleRain, 25 * sim::kMillisecond);
}
TEST(CausalOrderTest, CurePreservesSessionOrder) {
  CheckSameSessionOrder(SystemKind::kCure, 25 * sim::kMillisecond);
}

// Cross-session causality: c1@dc0 writes k1; c2@dc1 reads k1 (acquiring the
// dependency) and then writes k2. At dc2, k1 must be visible before k2.
TEST(CausalOrderTest, EunomiaKvCrossSessionDependency) {
  const auto config = SmallConfig();
  sim::Simulator sim(13);
  geo::EunomiaKvSystem system(&sim, config);
  system.tracker().EnableDetailedLog();

  bool w1_done = false;
  system.ClientUpdate(1, 0, /*key=*/100, "x", [&] { w1_done = true; });
  sim.RunUntil(2 * sim::kSecond);  // replicate k1 everywhere
  ASSERT_TRUE(w1_done);

  bool chain_done = false;
  system.ClientRead(2, 1, 100, [&] {
    system.ClientUpdate(2, 1, /*key=*/200, "y", [&] { chain_done = true; });
  });
  sim.RunUntil(6 * sim::kSecond);
  ASSERT_TRUE(chain_done);

  // The read of k1 at dc1 must have pulled dc0's entry into c2's session.
  const geo::VectorTimestamp* session = system.SessionOf(2);
  ASSERT_NE(session, nullptr);
  EXPECT_GT((*session)[0], 0u) << "read did not capture the k1 dependency";

  // uid 0 = k1 (from dc0), uid 1 = k2 (from dc1). Both visible at dc2, in
  // causal order.
  const auto t_k1 = system.tracker().VisibleAt(0, 2);
  const auto t_k2 = system.tracker().VisibleAt(1, 2);
  ASSERT_TRUE(t_k1.has_value());
  ASSERT_TRUE(t_k2.has_value());
  EXPECT_LE(*t_k1, *t_k2) << "k2 visible at dc2 before its dependency k1";
}

// The straggler hook must not break liveness: a partition that contacts
// Eunomia every 100 ms still stabilizes everything after healing.
TEST(EunomiaKvIntegrationTest, StragglerDelaysButDoesNotBlock) {
  const auto config = SmallConfig();
  sim::Simulator sim(17);
  geo::EunomiaKvSystem system(&sim, config);
  system.tracker().EnableDetailedLog();
  system.SetPartitionCommInterval(0, 0, 100 * sim::kMillisecond);

  int completed = 0;
  for (int i = 0; i < 40; ++i) {
    system.ClientUpdate(static_cast<ClientId>(i + 1), 0,
                        static_cast<Key>(i * 17), "v", [&] { ++completed; });
  }
  sim.RunUntil(8 * sim::kSecond);
  EXPECT_EQ(completed, 40);
  std::uint64_t visible = 0;
  for (std::uint64_t uid = 0; uid < 40; ++uid) {
    for (DatacenterId d = 1; d < 3; ++d) {
      visible += system.tracker().VisibleAt(uid, d).has_value() ? 1 : 0;
    }
  }
  EXPECT_EQ(visible, 80u) << "straggler blocked stabilization";
}

// Eunomia-internal sanity after a run: no Property 2 violations ever reach
// the core, and the ordering service drained.
TEST(EunomiaKvIntegrationTest, CoreSeesCleanStreams) {
  const auto config = SmallConfig();
  sim::Simulator sim(23);
  geo::EunomiaKvSystem system(&sim, config);
  auto workload = SmallWorkload();
  wl::WorkloadDriver driver(&sim, &system, workload, config.num_dcs);
  driver.Start();
  sim.RunUntil(workload.duration_us);
  driver.Stop();
  sim.RunUntil(workload.duration_us + 5 * sim::kSecond);
  for (DatacenterId d = 0; d < 3; ++d) {
    EXPECT_EQ(system.EunomiaAt(d).monotonicity_violations(), 0u);
    EXPECT_EQ(system.EunomiaAt(d).pending_ops(), 0u) << "dc" << d;
  }
}

// A-Seq must track Eventual's latency profile (the sequencer is off the
// critical path), while S-Seq's update latency includes the sequencer RTT.
// The effect is a *latency* difference, so it shows in the client-limited
// regime (closed loop below server saturation), exactly as in the paper's
// Fig. 1 motivation experiment where "sequencers are not overloaded".
TEST(SeqSystemTest, ASeqFasterThanSSeqOnUpdates) {
  const auto config = SmallConfig();
  auto workload = SmallWorkload();
  workload.update_fraction = 1.0;  // updates only, isolate the effect
  workload.clients_per_dc = 2;     // stay below server saturation
  const auto sseq = harness::RunGeoExperiment(SystemKind::kSSeq, config, workload);
  const auto aseq = harness::RunGeoExperiment(SystemKind::kASeq, config, workload);
  EXPECT_GT(aseq.throughput_ops_s, sseq.throughput_ops_s * 1.05)
      << "removing the sequencer from the critical path must help";
}

}  // namespace
}  // namespace eunomia
