// Figure 6 — CDFs of remote update visibility latency.
//
// "Left: from dc1 to dc2 (40ms trip-time). Right: from dc2 to dc3 (80ms
// trip-time)." All values factor out the network latency (identical for all
// protocols): they are the *artificial* delays added by each metadata
// management scheme, measured from the arrival of the update at the remote
// datacenter to the moment it is allowed to become visible.
//
// Expected shape (paper §7.2.2):
//   - dc0 -> dc1 (left): EunomiaKV by far the best (95% of updates within
//     ~15 ms added delay, some with ~0); Cure next (~45 ms at 95%);
//     GentleRain worst (~80 ms at 95%) and structurally unable to go below
//     ~40 ms — the single scalar ties visibility to the *farthest*
//     datacenter (160 ms RTT / 2 - 40 ms travel = 40 ms floor).
//   - dc1 -> dc2 (right): the 80 ms leg is already the farthest, so
//     GentleRain's floor disappears and it beats Cure (whose vector
//     machinery costs more), but EunomiaKV still wins.
#include <cstdio>
#include <vector>

#include "bench/bench_json.h"
#include "bench/flags.h"
#include "bench/harness/geo_experiment.h"
#include "bench/harness/table.h"
#include "src/metrics/histogram.h"
#include "src/workload/workload.h"

namespace eunomia {
namespace {

using harness::MakeSystem;
using harness::SystemKind;
using harness::Table;

// The CDFs come from the tracker's exported visibility histograms — the
// same series a live node scrapes as eunomia_georep_visibility_latency_
// microseconds — so the figure and a production dashboard read one stream.
// A quantile is its bucket's upper bound, at most 1/32 (~3%) above the
// exact sample — invisible at the figure's millisecond scale.
struct SystemCdfs {
  std::string name;
  metrics::Histogram::Snapshot left;   // dc0 -> dc1
  metrics::Histogram::Snapshot right;  // dc1 -> dc2
};

metrics::Histogram::Snapshot SnapPair(const geo::VisibilityTracker& tracker,
                                      DatacenterId origin, DatacenterId dest) {
  const metrics::Histogram* hist = tracker.VisibilityHistogram(origin, dest);
  return hist != nullptr ? hist->Snap() : metrics::Histogram::Snapshot{};
}

// Machine-readable companion of the printed tables: per system x WAN leg,
// the visibility percentiles CI archives to track the trajectory.
void WriteBenchJson(bool smoke, const std::vector<SystemCdfs>& cdfs) {
  bench::BenchJson json("fig6_visibility_cdf", smoke);
  for (const auto& entry : cdfs) {
    for (const bool right : {false, true}) {
      const metrics::Histogram::Snapshot& cdf = right ? entry.right : entry.left;
      if (cdf.count == 0) {
        continue;
      }
      json.AddRow()
          .Str("system", entry.name)
          .Str("pair", right ? "dc1->dc2" : "dc0->dc1")
          .Num("p50_ms", static_cast<double>(cdf.Quantile(0.50)) / 1000.0, 2)
          .Num("p95_ms", static_cast<double>(cdf.Quantile(0.95)) / 1000.0, 2)
          .Num("p99_ms", static_cast<double>(cdf.Quantile(0.99)) / 1000.0, 2);
    }
  }
  json.Write("BENCH_fig6.json");
}

void Run(bool smoke) {
  harness::PrintBanner(
      "Figure 6: CDF of remote update visibility latency (added delay, ms)",
      "left: dc0->dc1 (40ms one-way) / right: dc1->dc2 (80ms one-way); "
      "network latency factored out");

  wl::WorkloadConfig workload;
  workload.num_keys = smoke ? 5'000 : 100'000;
  workload.update_fraction = 0.10;  // 90:10, the paper's default mix
  workload.clients_per_dc = smoke ? 8 : 24;
  workload.duration_us = (smoke ? 4 : 20) * sim::kSecond;
  workload.warmup_us = (smoke ? 1 : 4) * sim::kSecond;
  workload.cooldown_us = (smoke ? 1 : 2) * sim::kSecond;

  geo::GeoConfig config;
  const std::vector<SystemKind> systems = {
      SystemKind::kEunomiaKv, SystemKind::kGentleRain, SystemKind::kCure};

  std::vector<SystemCdfs> cdfs;
  for (const SystemKind kind : systems) {
    auto sut = MakeSystem(kind, config, workload.seed);
    wl::WorkloadDriver driver(sut.sim.get(), sut.system.get(), workload,
                              config.num_dcs);
    driver.Start();
    sut.sim->RunUntil(workload.duration_us);
    driver.Stop();
    sut.sim->RunUntil(workload.duration_us + 2 * sim::kSecond);
    SystemCdfs entry;
    entry.name = harness::SystemName(kind);
    // Snapshots are self-contained merges — the system can die here.
    entry.left = SnapPair(sut.system->tracker(), 0, 1);
    entry.right = SnapPair(sut.system->tracker(), 1, 2);
    cdfs.push_back(std::move(entry));
  }

  for (const bool right : {false, true}) {
    std::printf("\n--- %s ---\n",
                right ? "dc1 -> dc2 (80 ms one-way; farthest leg)"
                      : "dc0 -> dc1 (40 ms one-way)");
    Table table({"percentile", cdfs[0].name, cdfs[1].name, cdfs[2].name});
    for (const double q :
         {0.05, 0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.90, 0.95, 0.99}) {
      std::vector<std::string> row = {Table::Num(q * 100, 0) + "%"};
      for (const auto& entry : cdfs) {
        const metrics::Histogram::Snapshot& cdf =
            right ? entry.right : entry.left;
        row.push_back(
            cdf.count != 0
                ? Table::Num(static_cast<double>(cdf.Quantile(q)) / 1000.0, 1)
                : "-");
      }
      table.AddRow(std::move(row));
    }
    table.Print();
  }

  // Headline numbers from the paper's discussion.
  const auto at = [](const metrics::Histogram::Snapshot& cdf, double q) {
    return cdf.count != 0 ? static_cast<double>(cdf.Quantile(q)) / 1000.0
                          : -1.0;
  };
  std::printf(
      "\npaper reference points (dc0->dc1): EunomiaKV ~15 ms @95%%, Cure ~45 "
      "ms @95%%, GentleRain ~80 ms @95%% with a ~40 ms floor\n");
  std::printf("measured  @95%%: EunomiaKV %.1f ms, Cure %.1f ms, GentleRain %.1f ms\n",
              at(cdfs[0].left, 0.95), at(cdfs[2].left, 0.95), at(cdfs[1].left, 0.95));
  std::printf("measured  @5%% (floor): EunomiaKV %.1f ms, Cure %.1f ms, GentleRain %.1f ms\n",
              at(cdfs[0].left, 0.05), at(cdfs[2].left, 0.05), at(cdfs[1].left, 0.05));
  WriteBenchJson(smoke, cdfs);
}

}  // namespace
}  // namespace eunomia

int main(int argc, char** argv) {
  eunomia::bench::Flags flags(argc, argv, {"smoke"});
  if (!flags.ok()) {
    return flags.FailUsage();
  }
  eunomia::Run(flags.smoke());
  return 0;
}
