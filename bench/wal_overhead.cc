// WAL overhead — what durability costs the ordering service.
//
// Drives the fig2 fixed-load race (producers x batched ops through the
// native EunomiaService, measuring stabilized ops/sec) four times:
//
//   wal=off          the in-memory baseline (fig2's single-shard number)
//   fsync=off        WAL appends, durability left to the page cache
//   fsync=interval   inline appends, synced every 64 KiB or 5 ms
//   fsync=commit     every ack waits for its batch to be on disk
//
// against a wal::PosixDisk on a fresh temp directory per configuration.
// The interesting number is the interval-fsync overhead: the inline append
// path is designed to keep it within ~15% of the in-memory baseline
// (the acceptance bar BENCH_wal.json is checked against), while
// fsync=commit pays the full synchronous-disk price and is reported for
// calibration, not expected to be close.
//
// Emits BENCH_wal.json in the working directory (same shape as
// BENCH_fig2.json) so CI can archive the durability-cost trajectory.
// `--smoke` shrinks the load for CI; full mode is the committed artifact.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "bench/flags.h"
#include "bench/service_driver.h"
#include "src/eunomia/service.h"
#include "src/harness/table.h"
#include "src/wal/disk.h"
#include "src/wal/log_writer.h"

namespace eunomia {
namespace {

using harness::Table;

struct WalPoint {
  const char* config;  // "off" or the fsync policy name
  bool wal = false;
  std::uint32_t shards = 1;
  double ops_per_sec = 0.0;      // wall clock, hostage to neighbors
  double ops_per_cpu_sec = 0.0;  // process CPU time: the WAL's real cost
  std::uint64_t snapshots = 0;
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
  load.ops_per_partition = smoke ? 5'000 : 100'000;
  return load;
}

struct RunResult {
  double ops_per_sec = 0.0;      // 0.0: failed to converge
  double ops_per_cpu_sec = 0.0;
  std::uint64_t snapshots = 0;
};

// One measured run. `policy` is ignored when wal is false.
RunResult MeasureRun(bool wal, wal::FsyncPolicy policy, std::uint32_t shards,
                     const bench::FixedLoad& load) {
  RunResult result;
  EunomiaService::Options options;
  options.num_partitions = load.num_partitions;
  options.num_shards = shards;
  options.stable_period_us = 200;
  std::unique_ptr<wal::PosixDisk> disk;
  std::string dir;
  if (wal) {
    char dir_template[] = "/tmp/eunomia-wal-bench-XXXXXX";
    if (mkdtemp(dir_template) == nullptr) {
      return result;
    }
    dir = dir_template;
    disk = std::make_unique<wal::PosixDisk>(dir);
    if (!disk->ok()) {
      return result;
    }
    options.durability.disk = disk.get();
    options.durability.fsync = policy;
  }
  {
    EunomiaService service(options);
    const double cpu_before = ProcessCpuSeconds();
    result.ops_per_sec = bench::MeasureStabilizedThroughput(service, load);
    const double cpu_spent = ProcessCpuSeconds() - cpu_before;
    result.snapshots = service.wal_snapshots();
    if (result.ops_per_sec > 0.0 && cpu_spent > 0.0) {
      const double total_ops = static_cast<double>(load.num_partitions) *
                               static_cast<double>(load.ops_per_partition);
      result.ops_per_cpu_sec = total_ops / cpu_spent;
    }
  }
  if (!dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
  return result;
}

int Run(bool smoke) {
  harness::PrintBanner(
      "WAL overhead: durable vs in-memory service throughput",
      "fig2 fixed-load race, single shard; fsync=interval is inline "
      "appends, synced every 64 KiB or 5 ms");
  const bench::FixedLoad load = MakeLoad(smoke);
  const std::vector<std::uint32_t> shard_counts =
      smoke ? std::vector<std::uint32_t>{1u} : std::vector<std::uint32_t>{1u, 4u};

  struct Config {
    const char* name;
    bool wal;
    wal::FsyncPolicy policy;
  };
  const Config configs[] = {
      {"off", false, wal::FsyncPolicy::kOff},
      {"fsync=off", true, wal::FsyncPolicy::kOff},
      {"fsync=interval", true, wal::FsyncPolicy::kInterval},
      {"fsync=commit", true, wal::FsyncPolicy::kPerCommit},
  };

  std::printf("\n%u producer partitions race %llu ops each per configuration\n",
              load.num_partitions,
              static_cast<unsigned long long>(load.ops_per_partition));
  Table table({"wal", "num_shards", "stabilized (kops/s)", "vs in-memory",
               "kops/cpu-s", "cpu vs in-memory", "snapshots"});
  std::vector<WalPoint> points;
  bool all_converged = true;
  double interval_overhead_1shard = 0.0;
  constexpr int kReps = 5;
  constexpr std::size_t kNumConfigs = std::size(configs);
  for (const std::uint32_t shards : shard_counts) {
    // Repetitions are interleaved round-robin across the configurations:
    // the host shares one core with whatever else runs, and back-to-back
    // reps of a single configuration would charge an entire busy window to
    // that one configuration. Overheads are then judged on *per-rep*
    // ratios — each WAL configuration against the baseline measured
    // seconds away in the same rep, so both sides of every comparison saw
    // roughly the same neighbor interference — and the median ratio across
    // reps drops the windows where interference still hit the two sides
    // unequally (in either direction: max-of-ratios would happily report
    // the WAL as faster than memory off a rep whose baseline got unlucky).
    // (Best-of on the raw rates alone cannot do this: a quiet minute for
    // the baseline and a busy one for the WAL configs reads as overhead.)
    RunResult runs[kNumConfigs][kReps] = {};
    for (int rep = 0; rep < kReps; ++rep) {
      for (std::size_t c = 0; c < kNumConfigs; ++c) {
        runs[c][rep] =
            MeasureRun(configs[c].wal, configs[c].policy, shards, load);
        if (runs[c][rep].ops_per_sec <= 0.0) {
          all_converged = false;  // non-convergence is a failure, not noise
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
      RunResult best;  // best raw rates, for the absolute columns
      std::vector<double> ratios;
      std::vector<double> cpu_ratios;
      for (int rep = 0; rep < kReps; ++rep) {
        const RunResult& run = runs[c][rep];
        const RunResult& base = runs[0][rep];  // configs[0] is wal=off
        if (run.ops_per_sec > best.ops_per_sec) {
          best.ops_per_sec = run.ops_per_sec;
          best.snapshots = run.snapshots;
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
      // The budget is judged on the CPU-normalized per-rep ratio: wall
      // clock measures the neighbors as much as the WAL, while CPU time
      // charges the cycles the durability pipeline itself adds.
      if (configs[c].wal && configs[c].policy == wal::FsyncPolicy::kInterval &&
          shards == 1) {
        interval_overhead_1shard = 1.0 - cpu_relative;
      }
      points.push_back({configs[c].name, configs[c].wal, shards,
                        best.ops_per_sec, best.ops_per_cpu_sec,
                        best.snapshots});
      table.AddRow(
          {configs[c].name, Table::Num(shards, 0),
           Table::Num(best.ops_per_sec / 1000.0, 0),
           configs[c].wal ? Table::Num(relative * 100.0, 1) + "%" : "100%",
           Table::Num(best.ops_per_cpu_sec / 1000.0, 0),
           configs[c].wal ? Table::Num(cpu_relative * 100.0, 1) + "%" : "100%",
           Table::Num(best.snapshots, 0)});
    }
  }
  table.Print();
  std::printf(
      "\nsingle-shard fsync=interval CPU overhead vs "
      "in-memory: %.1f%% %s\n",
      interval_overhead_1shard * 100.0,
      interval_overhead_1shard <= 0.15 ? "(within the 15% budget)"
                                       : "(OVER the 15% budget)");

  // interval_overhead_1shard is CPU-normalized — the budget metric. Wall
  // clock is reported per-point for context but is hostage to neighbor
  // load on shared single-core hosts.
  bench::BenchJson json("wal_overhead", smoke);
  json.scalars()
      .Int("num_partitions", load.num_partitions)
      .Int("ops_per_partition", load.ops_per_partition)
      .Num("interval_overhead_1shard", interval_overhead_1shard, 4)
      .Str("overhead_metric", "cpu_time");
  for (const WalPoint& point : points) {
    json.AddRow()
        .Str("wal", point.config)
        .Int("shards", point.shards)
        .Num("mops_per_s", point.ops_per_sec / 1e6, 3)
        .Num("cpu_mops_per_s", point.ops_per_cpu_sec / 1e6, 3)
        .Int("snapshots", point.snapshots);
  }
  json.Write("BENCH_wal.json");
  if (!all_converged) {
    std::printf("ERROR: a configuration did not stabilize its load\n");
    return 1;
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
