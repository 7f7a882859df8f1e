// Ablation A2 — the §5 batching optimization.
//
// "Batch operations at partitions, and propagate them to Eunomia only
// periodically. [This reduces] the number of messages received by Eunomia
// per unit of time at the cost of a slight increase in the stabilization
// time." And §7.1: "Eunomia's throughput can be further stretched by
// increasing the batching time (while slightly increasing the remote update
// visibility latency). Such stretching cannot be easily achieved with
// sequencers, as any attempt to batch requests at the sequencer blocks
// clients."
//
// We sweep the partition -> Eunomia communication interval in EunomiaKV and
// measure client throughput (expected: flat — batching is off the critical
// path) and remote visibility (expected: grows roughly with the interval).
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

void Run() {
  harness::PrintBanner(
      "Ablation A2: partition->Eunomia batching interval (§5)",
      "EunomiaKV, 90:10 uniform; batching is off the client critical path");

  wl::WorkloadConfig workload;
  workload.update_fraction = 0.10;
  workload.clients_per_dc = 24;
  workload.duration_us = 10 * sim::kSecond;
  workload.warmup_us = 2 * sim::kSecond;
  workload.cooldown_us = 1 * sim::kSecond;

  Table table({"batch interval", "throughput (ops/s)", "visibility p50 (ms)",
               "visibility p95 (ms)"});
  for (const std::uint64_t interval_us : {500u, 1000u, 2000u, 5000u, 10000u,
                                          20000u}) {
    geo::GeoConfig config;
    config.batch_interval_us = interval_us;
    // Every flush carries the partition's clock, so the batch interval is
    // also the only heartbeat period: an idle partition reports as often as
    // a busy one talks to Eunomia.
    const auto result =
        RunGeoExperiment(SystemKind::kEunomiaKv, config, workload, 0, 1);
    table.AddRow({Table::Num(static_cast<double>(interval_us) / 1000.0, 1) + " ms",
                  Table::Num(result.throughput_ops_s, 0),
                  Table::Num(result.vis_p50_ms, 1),
                  Table::Num(result.vis_p95_ms, 1)});
  }
  table.Print();
  std::printf(
      "\nexpected: throughput stays flat (batching happens in the "
      "background), while the added visibility\ndelay grows roughly with "
      "the batching interval — the §5 / §7.1 tradeoff.\n");
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
