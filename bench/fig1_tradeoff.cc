// Figure 1 — the motivation experiment: "Update visibility latency vs
// throughput tradeoff."
//
// Reproduces the paper's §2 study. Four systems over the 3-DC topology,
// normalized against the eventually consistent baseline:
//   - S-Seq: synchronous sequencer per DC (vector clocks);
//   - A-Seq: the bogus asynchronous variant (same work, sequencer off the
//     critical path);
//   - GentleRain and Cure: global stabilization, sweeping the clock
//     computation interval over {1, 10, 20, 50, 100} ms (both the cross-DC
//     heartbeat and the local stable-time computation run at this period).
//
// Left plot of the paper: 90th-percentile visibility latency at dc1 for
// updates originating at dc0 (GentleRain / Cure, growing with the
// interval). Right plot: throughput penalty vs eventual (S-Seq pays the
// synchronous sequencer round-trip ~-15%; A-Seq ~0%; GentleRain / Cure pay
// the stabilization overhead, worst at 1 ms).
//
// Load is moderate (client-limited, servers not saturated), matching the
// paper's note that "sequencers are not overloaded; the throughput penalty
// is exclusively caused by the synchronous communication with the sequencer
// at every client update operation".
#include <cstdio>
#include <vector>

#include "bench/flags.h"
#include "bench/harness/geo_experiment.h"
#include "bench/harness/table.h"
#include "src/workload/workload.h"

namespace eunomia {
namespace {

using harness::RunGeoExperiment;
using harness::SystemKind;
using harness::Table;

wl::WorkloadConfig Fig1Workload() {
  wl::WorkloadConfig workload;
  workload.num_keys = 100'000;
  workload.update_fraction = 0.10;  // the paper's read-dominant 90:10
  workload.clients_per_dc = 3;      // client-limited: servers not saturated,
                                    // so the sequencer round-trip dominates
  workload.duration_us = 15 * sim::kSecond;
  workload.warmup_us = 3 * sim::kSecond;
  workload.cooldown_us = 2 * sim::kSecond;
  return workload;
}

void Run() {
  harness::PrintBanner(
      "Figure 1: update visibility latency vs throughput tradeoff",
      "90:10 uniform; visibility measured dc0->dc1 (90th pct, added delay); "
      "throughput normalized vs Eventual");

  const auto workload = Fig1Workload();
  geo::GeoConfig base_config;

  const auto eventual =
      RunGeoExperiment(SystemKind::kEventual, base_config, workload);
  const auto sseq = RunGeoExperiment(SystemKind::kSSeq, base_config, workload);
  const auto aseq = RunGeoExperiment(SystemKind::kASeq, base_config, workload);

  auto pct = [&](double tput) {
    return (tput - eventual.throughput_ops_s) / eventual.throughput_ops_s * 100.0;
  };

  Table table({"system", "stabilization interval", "visibility p90 (ms)",
               "throughput (ops/s)", "vs Eventual"});
  table.AddRow({"Eventual", "-", "-",
                Table::Num(eventual.throughput_ops_s, 0), Table::Pct(0.0)});
  table.AddRow({"S-Seq", "- (no interval)", Table::Num(sseq.vis_p90_ms, 1),
                Table::Num(sseq.throughput_ops_s, 0),
                Table::Pct(pct(sseq.throughput_ops_s))});
  table.AddRow({"A-Seq", "- (no interval)", Table::Num(aseq.vis_p90_ms, 1),
                Table::Num(aseq.throughput_ops_s, 0),
                Table::Pct(pct(aseq.throughput_ops_s))});

  for (const SystemKind kind : {SystemKind::kGentleRain, SystemKind::kCure}) {
    for (const std::uint64_t interval_ms : {1, 10, 20, 50, 100}) {
      geo::GeoConfig config = base_config;
      // The paper sweeps the interval between global stabilization
      // computations; cross-DC heartbeats stay at their default 10 ms.
      config.gst_interval_us = interval_ms * 1000;
      const auto result = RunGeoExperiment(kind, config, workload);
      table.AddRow({harness::SystemName(kind),
                    Table::Num(static_cast<double>(interval_ms), 0) + " ms",
                    Table::Num(result.vis_p90_ms, 1),
                    Table::Num(result.throughput_ops_s, 0),
                    Table::Pct(pct(result.throughput_ops_s))});
    }
  }
  table.Print();
  std::printf(
      "\npaper reference: S-Seq ~-14.8%% throughput (sync sequencer on the "
      "critical path), A-Seq ~0%%;\nCure still -11.6%% at a 100 ms interval; "
      "GentleRain/Cure visibility grows with the interval, Cure < GentleRain.\n");
}

}  // namespace
}  // namespace eunomia

int main(int argc, char** argv) {
  // No flags yet; the shared parser still rejects typos loudly.
  eunomia::bench::Flags flags(argc, argv, {});
  if (!flags.ok()) {
    return flags.FailUsage();
  }
  eunomia::Run();
  return 0;
}
