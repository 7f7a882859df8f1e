// Metrics overhead — what always-on observability costs the ordering
// service.
//
// Drives the fig2 fixed-load race (producers x batched ops through the
// native EunomiaService, measuring stabilized ops/sec) three ways:
//
//   off        Options::metrics = nullptr — zero instrumentation, the fig2
//              baseline
//   on         a Registry attached; per-shard counters, partition frontier
//              lag, ordbuf occupancy and merge depth mirrored once per tick
//   on+scrape  same, plus a thread rendering the text exposition every 5 ms
//              (a scraper far more aggressive than any real Prometheus)
//
// The acceptance bar is the `on` configuration at one shard: the per-tick
// delta-mirroring design is supposed to make metrics free enough to leave
// enabled everywhere, which this gate pins at <=2% CPU-normalized overhead.
// Reps are interleaved and order-rotated as in bench/wal_overhead (see the
// long comment there for why wall clock alone cannot be trusted on a
// shared host), and the suite carries a null configuration — `off2`, a
// second identical baseline — whose apparent overhead is pure measurement
// noise. The gate only fails when the instrumented overhead exceeds the
// budget by more than that measured noise floor: on a single shared core
// the benchmark's own jitter was observed swinging past 2% in both
// directions, and a gate that cannot pass its own null experiment is a
// coin flip, not a gate. `on+scrape` is reported for calibration, not
// gated.
//
// Emits BENCH_metrics.json in the working directory so CI can archive the
// observability-cost trajectory. `--smoke` shrinks the load for CI; full
// mode is the committed artifact.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_json.h"
#include "bench/flags.h"
#include "bench/service_driver.h"
#include "src/eunomia/service.h"
#include "src/harness/table.h"
#include "src/metrics/registry.h"

namespace eunomia {
namespace {

using harness::Table;

struct MetricsPoint {
  const char* config;
  std::uint32_t shards = 1;
  double ops_per_sec = 0.0;      // wall clock, hostage to neighbors
  double ops_per_cpu_sec = 0.0;  // process CPU time: the real cost
  std::uint64_t series = 0;      // registered series after the run
};

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

bench::FixedLoad MakeLoad(bool smoke) {
  bench::FixedLoad load;
  load.num_partitions = smoke ? 8 : 16;
  // 3x the fig2 load: a 2% budget needs each measured window long enough
  // that scheduler luck (this host shares its cores) averages out within a
  // single run, not just across reps.
  load.ops_per_partition = smoke ? 5'000 : 300'000;
  return load;
}

enum class Mode { kOff, kOn, kOnScrape };

struct RunResult {
  double ops_per_sec = 0.0;  // 0.0: failed to converge
  double ops_per_cpu_sec = 0.0;
  std::uint64_t series = 0;
};

RunResult MeasureRun(Mode mode, std::uint32_t shards,
                     const bench::FixedLoad& load) {
  RunResult result;
  // A fresh registry per run so registration cost is inside the measured
  // window, exactly as it is for a freshly started eunomiad.
  metrics::Registry registry;
  EunomiaService::Options options;
  options.num_partitions = load.num_partitions;
  options.num_shards = shards;
  options.stable_period_us = 200;
  if (mode != Mode::kOff) {
    options.metrics = &registry;
  }
  std::atomic<bool> stop_scraper{false};
  std::thread scraper;
  {
    EunomiaService service(options);
    if (mode == Mode::kOnScrape) {
      scraper = std::thread([&registry, &stop_scraper] {
        while (!stop_scraper.load(std::memory_order_relaxed)) {
          const std::string exposition = registry.TextExposition();
          (void)exposition;
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
      });
    }
    const double cpu_before = ProcessCpuSeconds();
    result.ops_per_sec = bench::MeasureStabilizedThroughput(service, load);
    const double cpu_spent = ProcessCpuSeconds() - cpu_before;
    if (result.ops_per_sec > 0.0 && cpu_spent > 0.0) {
      const double total_ops = static_cast<double>(load.num_partitions) *
                               static_cast<double>(load.ops_per_partition);
      result.ops_per_cpu_sec = total_ops / cpu_spent;
    }
  }
  if (scraper.joinable()) {
    stop_scraper.store(true, std::memory_order_relaxed);
    scraper.join();
  }
  result.series = registry.size();
  return result;
}

int Run(bool smoke) {
  harness::PrintBanner(
      "Metrics overhead: instrumented vs bare service throughput",
      "fig2 fixed-load race, single shard; the <=2% gate is what lets "
      "metrics stay on in production");
  const bench::FixedLoad load = MakeLoad(smoke);
  const std::vector<std::uint32_t> shard_counts =
      smoke ? std::vector<std::uint32_t>{1u}
            : std::vector<std::uint32_t>{1u, 4u};

  struct Config {
    const char* name;
    Mode mode;
  };
  // `off2` is a second, identical copy of the baseline: its measured
  // "overhead" vs `off` is pure measurement noise, and the gate treats it
  // as the noise floor — on a shared single-core host, a 2% budget is
  // smaller than the run-to-run jitter of the benchmark itself, so a
  // breach only counts when it exceeds budget + floor.
  const Config configs[] = {
      {"off", Mode::kOff},
      {"on", Mode::kOn},
      {"on+scrape", Mode::kOnScrape},
      {"off2", Mode::kOff},
  };

  std::printf("\n%u producer partitions race %llu ops each per configuration\n",
              load.num_partitions,
              static_cast<unsigned long long>(load.ops_per_partition));
  Table table({"metrics", "num_shards", "stabilized (kops/s)", "vs off",
               "kops/cpu-s", "cpu vs off", "series"});
  std::vector<MetricsPoint> points;
  bool all_converged = true;
  double on_overhead_1shard = 0.0;
  double noise_floor_1shard = 0.0;
  constexpr int kReps = 9;
  constexpr std::size_t kNumConfigs = std::size(configs);
  for (const std::uint32_t shards : shard_counts) {
    // Interleaved reps + per-rep ratios + median, for the reasons spelled
    // out in bench/wal_overhead.cc: both sides of each ratio must see the
    // same neighbor interference, and the median drops the reps where they
    // didn't. A 2% budget needs two extra precautions that a 15% one does
    // not: a discarded warm-up (the first service of the process pays for
    // page faults and frequency ramp, and that bill must not land on any
    // measured config) and a rotated within-rep order (whichever config
    // runs first after an idle wait sees a different cache/frequency state;
    // rotation spreads that position bias across all configs instead of
    // crediting it to the baseline every rep).
    RunResult runs[kNumConfigs][kReps] = {};
    (void)MeasureRun(Mode::kOff, shards, load);
    for (int rep = 0; rep < kReps; ++rep) {
      for (std::size_t i = 0; i < kNumConfigs; ++i) {
        const std::size_t c = (i + static_cast<std::size_t>(rep)) % kNumConfigs;
        runs[c][rep] = MeasureRun(configs[c].mode, shards, load);
        if (runs[c][rep].ops_per_sec <= 0.0) {
          all_converged = false;
        }
      }
    }
    const auto median = [](std::vector<double>& v) {
      if (v.empty()) {
        return 0.0;
      }
      std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
      return v[v.size() / 2];
    };
    for (std::size_t c = 0; c < kNumConfigs; ++c) {
      RunResult best;
      std::vector<double> ratios;
      std::vector<double> cpu_ratios;
      for (int rep = 0; rep < kReps; ++rep) {
        const RunResult& run = runs[c][rep];
        const RunResult& base = runs[0][rep];  // configs[0] is metrics=off
        if (run.ops_per_sec > best.ops_per_sec) {
          best.ops_per_sec = run.ops_per_sec;
          best.series = run.series;
        }
        if (run.ops_per_cpu_sec > best.ops_per_cpu_sec) {
          best.ops_per_cpu_sec = run.ops_per_cpu_sec;
        }
        if (base.ops_per_sec > 0 && run.ops_per_sec > 0) {
          ratios.push_back(run.ops_per_sec / base.ops_per_sec);
        }
        if (base.ops_per_cpu_sec > 0 && run.ops_per_cpu_sec > 0) {
          cpu_ratios.push_back(run.ops_per_cpu_sec / base.ops_per_cpu_sec);
        }
      }
      const double relative = median(ratios);
      const double cpu_relative = median(cpu_ratios);
      if (shards == 1) {
        if (configs[c].mode == Mode::kOn && c == 1) {
          on_overhead_1shard = 1.0 - cpu_relative;
        } else if (c == kNumConfigs - 1) {  // off2, the null measurement
          noise_floor_1shard = std::abs(1.0 - cpu_relative);
        }
      }
      points.push_back({configs[c].name, shards, best.ops_per_sec,
                        best.ops_per_cpu_sec, best.series});
      table.AddRow(
          {configs[c].name, Table::Num(shards, 0),
           Table::Num(best.ops_per_sec / 1000.0, 0),
           c != 0 ? Table::Num(relative * 100.0, 1) + "%" : "100%",
           Table::Num(best.ops_per_cpu_sec / 1000.0, 0),
           c != 0 ? Table::Num(cpu_relative * 100.0, 1) + "%" : "100%",
           Table::Num(best.series, 0)});
    }
  }
  table.Print();
  const bool over_budget =
      on_overhead_1shard > 0.02 + noise_floor_1shard;
  std::printf(
      "\nsingle-shard metrics-on CPU overhead vs bare: %.1f%% "
      "(measurement noise floor %.1f%%) %s\n",
      on_overhead_1shard * 100.0, noise_floor_1shard * 100.0,
      over_budget ? "(OVER the 2% budget)" : "(within the 2% budget)");

  bench::BenchJson json("metrics_overhead", smoke);
  json.scalars()
      .Int("num_partitions", load.num_partitions)
      .Int("ops_per_partition", load.ops_per_partition)
      .Num("on_overhead_1shard", on_overhead_1shard, 4)
      .Num("noise_floor_1shard", noise_floor_1shard, 4)
      .Str("overhead_metric", "cpu_time");
  for (const MetricsPoint& point : points) {
    json.AddRow()
        .Str("metrics", point.config)
        .Int("shards", point.shards)
        .Num("mops_per_s", point.ops_per_sec / 1e6, 3)
        .Num("cpu_mops_per_s", point.ops_per_cpu_sec / 1e6, 3)
        .Int("registered_series", point.series);
  }
  json.Write("BENCH_metrics.json");
  if (!all_converged) {
    std::printf("ERROR: a configuration did not stabilize its load\n");
    return 1;
  }
  if (over_budget) {
    if (smoke) {
      // The smoke load is far too small for the budget to be resolvable;
      // the number above is advisory and only non-convergence fails CI.
      // The committed full-mode BENCH_metrics.json is the actual gate.
      std::printf("WARNING: over budget on a smoke load (advisory only)\n");
    } else {
      std::printf("ERROR: metrics-on overhead breaches the 2%% budget\n");
      return 1;
    }
  }
  return 0;
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
