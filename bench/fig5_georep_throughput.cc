// Figure 5 — "Throughput comparison between EunomiaKV and state-of-the-art
// sequencer-free solutions."
//
// Reproduces the paper's saturation-throughput comparison on the
// deterministic simulator: Eventual, EunomiaKV, GentleRain and Cure over
// the 3-DC topology (8 partitions / 3 servers per DC), across read:write
// ratios {50:50, 75:25, 90:10, 99:1} and both uniform ("U") and power-law
// ("P") key distributions, 100k keys, 100-byte values.
//
// Expected shape (paper §7.2.1): throughput decreases with the update
// percentage for every system; EunomiaKV stays within a few percent of
// Eventual (the paper reports 4.7% average, ~1% read-heavy); GentleRain and
// Cure sit clearly below both, with Cure lowest (vector metadata
// enrichment on top of the global stabilization cost).
//
// The rows land in machine-readable BENCH_fig5.json so CI can archive the
// trajectory. `--smoke` shrinks the scan for CI. The live EunomiaKV runtime
// (geo::rt::GeoNode over epoll TCP) is measured open loop by perfbench's
// geo_read and geo_write workloads (perfbench/), not here.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "bench/flags.h"
#include "bench/harness/geo_experiment.h"
#include "bench/harness/table.h"
#include "src/workload/workload.h"

namespace eunomia {
namespace {

using harness::RunGeoExperiment;
using harness::SystemKind;
using harness::Table;

bool RunFigure(bool smoke, bench::BenchJson* json) {
  geo::GeoConfig config;  // paper deployment: 3 DCs x 8 partitions / 3 servers

  const std::vector<double> update_fractions =
      smoke ? std::vector<double>{0.10}
            : std::vector<double>{0.50, 0.25, 0.10, 0.01};
  const std::vector<wl::KeyDistribution> distributions =
      smoke ? std::vector<wl::KeyDistribution>{wl::KeyDistribution::kUniform}
            : std::vector<wl::KeyDistribution>{wl::KeyDistribution::kUniform,
                                               wl::KeyDistribution::kZipf};
  const std::vector<SystemKind> systems =
      smoke ? std::vector<SystemKind>{SystemKind::kEventual,
                                      SystemKind::kEunomiaKv}
            : std::vector<SystemKind>{SystemKind::kEventual,
                                      SystemKind::kEunomiaKv,
                                      SystemKind::kGentleRain,
                                      SystemKind::kCure};

  harness::PrintBanner(
      "Figure 5: geo-replicated throughput (ops/sec, aggregate over 3 DCs)",
      "workloads: read:write x {uniform U, power-law P}; saturation load");

  std::vector<std::string> header = {"workload"};
  for (const SystemKind kind : systems) {
    header.push_back(harness::SystemName(kind));
  }
  header.push_back("EunomiaKV vs Eventual");
  Table table(std::move(header));
  double eunomia_drop_sum = 0.0;
  int eunomia_drop_count = 0;
  bool sane = true;

  for (const auto distribution : distributions) {
    for (const double update_fraction : update_fractions) {
      wl::WorkloadConfig workload;
      workload.num_keys = smoke ? 5'000 : 100'000;
      workload.value_size = 100;
      workload.update_fraction = update_fraction;
      workload.distribution = distribution;
      workload.clients_per_dc = smoke ? 12 : 48;
      workload.duration_us = (smoke ? 2 : 8) * sim::kSecond;
      workload.warmup_us =
          smoke ? 500 * sim::kMillisecond : 2 * sim::kSecond;
      workload.cooldown_us =
          smoke ? 500 * sim::kMillisecond : 1 * sim::kSecond;

      std::vector<std::string> row = {wl::MixLabel(workload)};
      double eventual_tput = 0.0;
      double eunomia_tput = 0.0;
      for (const SystemKind kind : systems) {
        const auto result = RunGeoExperiment(kind, config, workload);
        row.push_back(Table::Num(result.throughput_ops_s, 0));
        bench::JsonFields& json_row =
            json->AddRow()
                .Str("system", harness::SystemName(kind))
                .Str("workload", wl::MixLabel(workload))
                .Str("transport", "sim")
                .Num("ops_per_s", result.throughput_ops_s, 1);
        if (result.vis_p95_ms >= 0.0) {
          json_row.Num("vis_p95_ms", result.vis_p95_ms, 2);
        }
        if (result.throughput_ops_s <= 0.0) {
          sane = false;
        }
        if (kind == SystemKind::kEventual) {
          eventual_tput = result.throughput_ops_s;
        } else if (kind == SystemKind::kEunomiaKv) {
          eunomia_tput = result.throughput_ops_s;
        }
      }
      const double drop =
          (eunomia_tput - eventual_tput) / eventual_tput * 100.0;
      eunomia_drop_sum += drop;
      ++eunomia_drop_count;
      row.push_back(Table::Pct(drop));
      table.AddRow(std::move(row));
    }
  }
  table.Print();
  std::printf(
      "\nEunomiaKV overhead vs eventual consistency, averaged over all "
      "workloads: %+.1f%% (paper: -4.7%% average, ~-1%% read-heavy)\n",
      eunomia_drop_sum / eunomia_drop_count);
  return sane;
}

int Run(bool smoke) {
  bench::BenchJson json("fig5_georep_throughput", smoke);
  const bool ok = RunFigure(smoke, &json);
  json.Write("BENCH_fig5.json");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace eunomia

int main(int argc, char** argv) {
  eunomia::bench::Flags flags(argc, argv, {"smoke"});
  if (!flags.ok()) {
    return flags.FailUsage();
  }
  return eunomia::Run(flags.smoke());
}
