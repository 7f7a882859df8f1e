// Ablation A3 — vector vs scalar metadata in EunomiaKV (§4).
//
// "Vector clocks make a more efficient tracking of causal dependencies
// introducing no false dependencies across datacenters ... the lower-bound
// update visibility latency for a system relying on vector clocks is the
// latency between the originator of the update and the remote datacenter,
// while with a single scalar it is the latency to the farthest datacenter
// regardless of the originator."
//
// We run EunomiaKV twice — vectors vs the scalar-compressed variant — and
// measure the *absolute* visibility latency (installation at the origin to
// visibility at the destination, network included) on the asymmetric
// topology: dc0 -> dc1 is a 40 ms leg, but the farthest inter-DC leg is
// 80 ms. With vectors, dc0's updates appear at dc1 after ~40 ms; with the
// scalar, they cannot appear before the 80 ms frontier has been dragged
// along.
#include <cstdio>
#include <vector>

#include "bench/flags.h"
#include "src/georep/eunomiakv.h"
#include "bench/harness/geo_experiment.h"
#include "bench/harness/table.h"
#include "src/workload/workload.h"

namespace eunomia {
namespace {

using harness::Table;

struct VisStats {
  double p50_ms = 0;
  double p95_ms = 0;
};

// End-to-end (install -> visible) latency needs the install timestamps; the
// tracker's CDFs are arrival-based, so we recompute from the detailed log.
VisStats Measure(bool scalar_metadata, DatacenterId origin, DatacenterId dest) {
  geo::GeoConfig config;
  config.scalar_metadata = scalar_metadata;
  sim::Simulator sim(31);
  geo::EunomiaKvSystem system(&sim, config);
  system.tracker().EnableDetailedLog();

  wl::WorkloadConfig workload;
  workload.update_fraction = 0.10;
  workload.clients_per_dc = 12;
  workload.duration_us = 15 * sim::kSecond;
  wl::WorkloadDriver driver(&sim, &system, workload, config.num_dcs);

  // Track installation times per uid via a shadow: uids are assigned in
  // installation order, so replay them from the per-pair visibility CDF is
  // not enough — use artificial delay + the known one-way latency instead.
  driver.Start();
  sim.RunUntil(workload.duration_us);
  driver.Stop();
  sim.RunUntil(workload.duration_us + 3 * sim::kSecond);

  const auto* vis = system.tracker().VisibilityHistogram(origin, dest);
  VisStats stats;
  if (vis != nullptr) {
    // Artificial delay + the (origin,dest) one-way network latency gives the
    // end-to-end visibility latency the paper's §4 discussion refers to.
    const double leg_ms =
        static_cast<double>(config.network.wan_one_way_us[origin][dest]) / 1000.0;
    const auto snap = vis->Snap();
    stats.p50_ms = static_cast<double>(snap.Quantile(0.50)) / 1000.0 + leg_ms;
    stats.p95_ms = static_cast<double>(snap.Quantile(0.95)) / 1000.0 + leg_ms;
  }
  return stats;
}

void Run() {
  harness::PrintBanner(
      "Ablation A3: vector vs scalar metadata in EunomiaKV",
      "end-to-end visibility latency (install -> visible, ms); farthest "
      "inter-DC leg is 80 ms one-way");

  Table table({"path (one-way)", "vector p50", "vector p95", "scalar p50",
               "scalar p95"});
  const struct {
    DatacenterId origin;
    DatacenterId dest;
    const char* label;
  } kPaths[] = {
      {0, 1, "dc0->dc1 (40 ms)"},
      {0, 2, "dc0->dc2 (40 ms)"},
      {1, 2, "dc1->dc2 (80 ms)"},
  };
  for (const auto& path : kPaths) {
    const auto vec = Measure(false, path.origin, path.dest);
    const auto sca = Measure(true, path.origin, path.dest);
    table.AddRow({path.label, Table::Num(vec.p50_ms, 1),
                  Table::Num(vec.p95_ms, 1), Table::Num(sca.p50_ms, 1),
                  Table::Num(sca.p95_ms, 1)});
  }
  table.Print();
  std::printf(
      "\nexpected: on 40 ms legs, vectors give ~40-45 ms visibility while "
      "the scalar variant is dragged to the\n~80 ms farthest-leg frontier; "
      "on the 80 ms leg the two are comparable (the leg is already the "
      "farthest).\n");
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
