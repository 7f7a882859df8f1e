// perfbench: runs one workload of the repository benchmark and prints, as
// its last line, {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// perfbench/run.py builds this binary and is the command to run; see
// perfbench/README.md for the workloads and metric definitions.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "perfbench/src/workloads.h"
#include "src/common/sync.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The names and units BENCHMARK.json lists, in its order.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"peak_rss_mb", "MB"},      {"max_rate_ops_s", "ops/s"},
    {"op_p50_us", "us"},       {"visible_p50_us", "us"},   {"visible_p90_us", "us"},
};

constexpr MetricDef kPerLayer[] = {
    {"bench.gen_lag_p50_us", "us"},
    {"bench.gen_lag_p99_us", "us"},
    {"bench.offered_ops_s", "ops/s"},
    {"bench.achieved_ops_s", "ops/s"},
    {"bench.stage_sum_over_p50", "ratio"},
    {"bench.read_p50_us", "us"},
    {"bench.update_p50_us", "us"},
    {"bench.op_p99_us", "us"},
    {"bench.visible_p99_us", "us"},
    {"net.submit_call_p50_us", "us"},
    {"net.submit_call_p99_us", "us"},
    {"net.ack_rtt_p50_us", "us"},
    {"net.ack_rtt_p99_us", "us"},
    {"net.server_ack_p50_us", "us"},
    {"net.frames_per_op", "frames/op"},
    {"net.bytes_per_op", "B/op"},
    {"net.writev_frames_p50", "frames"},
    {"net.frames_per_wakeup", "frames"},
    {"net.io_iter_p99_us", "us"},
    {"net.outbox_stalls", "count"},
    {"wire.encode_ns_per_op", "ns"},
    {"wire.decode_ns_per_op", "ns"},
    {"eunomia.ack_to_stable_p50_us", "us"},
    {"eunomia.ack_to_stable_p99_us", "us"},
    {"eunomia.stable_batch_ops_p50", "ops"},
    {"eunomia.ordbuf_occupancy_p99", "ops"},
    {"eunomia.merge_queue_depth_p99", "ops"},
    {"eunomia.frontier_lag_max_us", "us"},
    {"core.add_ns_per_op", "ns"},
    {"core.extract_ns_per_op", "ns"},
    {"wal.appended_bytes_per_update", "B/update"},
    {"wal.fsyncs_per_s", "1/s"},
    {"wal.fsync_p99_us", "us"},
    {"georep.loop_delay_p99_us", "us"},
    {"georep.stable_lag_p50_us", "us"},
    {"georep.receiver_lag_p50_us", "us"},
    {"georep.buffered_payloads_p99", "count"},
    {"georep.pending_applies_p99", "count"},
    {"georep.meta_bytes_per_update", "B/update"},
    {"georep.payload_bytes_per_update", "B/update"},
    {"georep.payload_dups", "count"},
    {"trace_overhead", "ratio"},
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload order_tcp|geo_read|geo_write --seed N --seconds S "
               "--trace 0|1 --out-dir DIR [--source ID]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunArgs args;
  std::string source = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--source") {
      source = value;
    } else {
      return Usage();
    }
  }
  if (args.workload.empty() || args.out_dir.empty() ||
      !(args.seconds > 0)) {
    return Usage();
  }
  std::filesystem::create_directories(args.out_dir);

  // Provenance travels with every result. A build with the lock-rank
  // detector armed measures the detector, not the system: refuse it.
  const unsigned nproc = std::thread::hardware_concurrency();
  std::string provenance = "{\"source\":" + JsonString(source) +
                           ",\"build_type\":" + JsonString(PERFBENCH_BUILD_TYPE) +
                           ",\"lock_rank_checks\":" + std::to_string(EUNOMIA_LOCK_RANK_CHECKS) +
                           ",\"compiler\":" + JsonString(__VERSION__) +
                           ",\"nproc\":" + std::to_string(nproc) +
                           ",\"workload\":" + JsonString(args.workload) +
                           ",\"seed\":" + std::to_string(args.seed) +
                           ",\"seconds\":" + Number(args.seconds) +
                           ",\"trace\":" + (args.trace ? "1" : "0") +
                           ",\"wal_disk\":" +
                           JsonString(args.workload == "geo_write" ? "wal::MemDisk" : "none") + "}";
  std::printf("provenance %s\n", provenance.c_str());
  if (EUNOMIA_LOCK_RANK_CHECKS != 0 || std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "refusing to measure: not a Release build or lock-rank checks armed\n");
    return 3;
  }

  Report report;
  SpanLog spans;
  int rc = 2;
  if (args.workload == "order_tcp") {
    rc = RunOrderTcp(args, &report, &spans);
  } else if (args.workload == "geo_read") {
    rc = RunGeo(args, /*write_heavy=*/false, &report, &spans);
  } else if (args.workload == "geo_write") {
    rc = RunGeo(args, /*write_heavy=*/true, &report, &spans);
  } else {
    return Usage();
  }
  if (rc != 0) {
    return rc;
  }

  // The metrics object carries exactly the set BENCHMARK.json names for
  // this mode. A per-layer metric of a layer the workload bypasses reads 0.
  std::string metrics;
  std::string table;
  const auto emit = [&](const MetricDef& def, double value) {
    metrics += std::string(metrics.empty() ? "" : ", ") + JsonString(def.name) +
               ": {\"value\": " + Number(value) + ", \"unit\": " + JsonString(def.unit) + "}";
    char line[160];
    std::snprintf(line, sizeof line, "  %-34s %16.4f %s\n", def.name, value, def.unit);
    table += line;
  };
  const auto& got = report.metrics();
  if (!args.trace) {
    for (const MetricDef& def : kEndToEnd) {
      const auto it = got.find(def.name);
      if (it == got.end()) {
        std::fprintf(stderr, "workload did not produce %s\n", def.name);
        return 1;
      }
      emit(def, it->second.first);
    }
  } else {
    for (const MetricDef& def : kPerLayer) {
      const auto it = got.find(def.name);
      emit(def, it == got.end() ? 0.0 : it->second.first);
    }
  }
  const double failed_frac = Ratio(static_cast<double>(report.failed()),
                                   static_cast<double>(report.attempted()));
  std::string notes;
  for (const auto& [k, v] : report.notes()) {
    notes += ", " + JsonString(k) + ": " + JsonString(v);
  }
  const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" + (args.trace ? "1" : "0");
  const std::string result = "{\"correct\": " + std::string(report.correct() ? "true" : "false") +
                             ", \"attempted\": " + std::to_string(report.attempted()) +
                             ", \"failed\": " + std::to_string(report.failed()) +
                             ", \"metrics\": {" + metrics + "}}";
  if (std::FILE* f = std::fopen((stem + ".json").c_str(), "w")) {
    std::fprintf(f, "{\"provenance\": %s, \"failed_frac\": %s, \"violation\": %s%s, \"result\": %s}\n",
                 provenance.c_str(), Number(failed_frac).c_str(),
                 JsonString(report.violation()).c_str(), notes.c_str(), result.c_str());
    std::fclose(f);
  }
  if (args.trace && !spans.Write(stem + ".spans.jsonl")) {
    std::fprintf(stderr, "could not write the span file\n");
  }
  std::printf("%s seed=%llu trace=%d  attempted=%llu failed=%llu failed_frac=%.6f%s%s\n%s",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? 1 : 0, static_cast<unsigned long long>(report.attempted()),
              static_cast<unsigned long long>(report.failed()), failed_frac,
              report.correct() ? "" : "  VIOLATION: ", report.violation().c_str(), table.c_str());
  std::printf("%s\n", result.c_str());
  // A correctness violation fails the command, after the result is shown.
  return report.correct() ? 0 : 4;
}
