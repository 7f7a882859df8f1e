// Figure 5 — "Throughput comparison between EunomiaKV and state-of-the-art
// sequencer-free solutions."
//
// Part 1 reproduces the paper's saturation-throughput comparison on the
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
// Part 2 (`--transport=tcp` or `--transport=loopback`) drives the SAME
// EunomiaKV protocol through its real binding: a multi-DC deployment of
// geo::rt::GeoNode over real sockets (or the in-process loopback
// transport), closed-loop clients at every datacenter, wall-clock
// throughput and remote-visibility latency measured from the per-node
// trackers — the deployable runtime next to its simulated reproduction.
//
// Both parts land in machine-readable BENCH_fig5.json (same shape as
// BENCH_fig2.json) so CI can archive the trajectory. `--smoke` shrinks
// the scan for CI.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/flags.h"
#include "src/georep/runtime/geo_node.h"
#include "src/harness/geo_experiment.h"
#include "src/harness/table.h"
#include "src/net/loopback_transport.h"
#include "src/net/epoll_transport.h"
#include "src/workload/workload.h"

namespace eunomia {
namespace {

using harness::RunGeoExperiment;
using harness::SystemKind;
using harness::Table;

struct SeriesPoint {
  std::string system;
  std::string workload;
  std::string transport;  // "sim", "tcp" or "loopback"
  double ops_per_s = 0.0;
  double vis_p95_ms = -1.0;  // remote visibility (artificial/applied delay)
};

void WriteBenchJson(const char* path, bool smoke,
                    const std::vector<SeriesPoint>& points) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::printf("WARNING: could not write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"figure\": \"fig5_georep_throughput\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
  std::fprintf(f, "  \"series\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    std::fprintf(f,
                 "    {\"system\": \"%s\", \"workload\": \"%s\", "
                 "\"transport\": \"%s\", \"ops_per_s\": %.1f",
                 points[i].system.c_str(), points[i].workload.c_str(),
                 points[i].transport.c_str(), points[i].ops_per_s);
    if (points[i].vis_p95_ms >= 0.0) {
      std::fprintf(f, ", \"vis_p95_ms\": %.2f", points[i].vis_p95_ms);
    }
    std::fprintf(f, "}%s\n", i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s (%zu series points)\n", path, points.size());
}

// --- part 1: the simulated figure --------------------------------------------

bool RunSimPart(bool smoke, std::vector<SeriesPoint>* points) {
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
        points->push_back({harness::SystemName(kind), wl::MixLabel(workload),
                           "sim", result.throughput_ops_s,
                           result.vis_p95_ms});
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

// --- part 2: the real geo-replication runtime over a transport ---------------

struct TransportRunResult {
  double ops_per_s = 0.0;
  std::uint64_t remote_applied = 0;
  std::uint64_t wire_errors = 0;
  double vis_p50_ms = -1.0;
  double vis_p95_ms = -1.0;
};

// Closed-loop clients against a live multi-DC GeoNode deployment: each
// client chains op -> done -> next op (one update every 1/update_ratio
// ops), for a wall-clock measurement window.
TransportRunResult RunGeoNodes(const std::string& kind, bool smoke) {
  geo::GeoConfig config;
  config.num_dcs = 3;
  config.partitions_per_dc = smoke ? 4 : 8;
  config.servers_per_dc = 1;
  config.batch_interval_us = 1000;
  config.theta_us = 1000;
  config.rho_us = 1000;
  const std::uint32_t clients_per_dc = smoke ? 8 : 16;
  const int update_every = 10;  // 90:10, the paper's default mix
  const auto duration =
      std::chrono::milliseconds(smoke ? 1'500 : 5'000);

  TransportRunResult result;
  // TCP: one transport per node (real sockets, one listener each).
  // Loopback: one shared in-process transport, named listeners. Declared
  // before the nodes so unwinding (including the early error returns)
  // destroys every GeoNode — whose Stop() touches its transport — first.
  std::shared_ptr<net::LoopbackTransport> shared_loopback;
  if (kind == "loopback") {
    shared_loopback = std::make_shared<net::LoopbackTransport>();
  }
  std::vector<std::unique_ptr<net::EpollTransport>> transports;
  std::vector<std::unique_ptr<geo::rt::GeoNode>> nodes;
  std::vector<std::string> addresses;
  for (DatacenterId m = 0; m < config.num_dcs; ++m) {
    net::Transport* transport = nullptr;
    if (shared_loopback != nullptr) {
      transport = shared_loopback.get();
    } else {
      transports.push_back(std::make_unique<net::EpollTransport>());
      transport = transports.back().get();
    }
    nodes.push_back(std::make_unique<geo::rt::GeoNode>(
        transport, geo::rt::GeoNode::Options{m, config, false}));
    addresses.push_back(nodes.back()->Listen(
        shared_loopback != nullptr ? "fig5-node" + std::to_string(m)
                                   : "127.0.0.1:0"));
    if (addresses.back().empty()) {
      std::printf("ERROR: dc%u could not listen\n", m);
      return result;
    }
  }
  for (DatacenterId m = 0; m < config.num_dcs; ++m) {
    for (DatacenterId k = 0; k < config.num_dcs; ++k) {
      if (k != m && !nodes[m]->ConnectPeer(k, addresses[k])) {
        std::printf("ERROR: dc%u could not dial dc%u\n", m, k);
        return result;
      }
    }
  }
  for (auto& node : nodes) {
    node->Start();
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> completed{0};
  std::vector<std::shared_ptr<std::function<void(int)>>> issues;
  for (DatacenterId m = 0; m < config.num_dcs; ++m) {
    for (std::uint32_t c = 0; c < clients_per_dc; ++c) {
      const ClientId client = m * 1000 + c;
      geo::rt::GeoNode* node = nodes[m].get();
      auto issue = std::make_shared<std::function<void(int)>>();
      issues.push_back(issue);
      *issue = [node, client, m, c, issue, update_every, &stop,
                &completed](int i) {
        if (stop.load(std::memory_order_relaxed)) {
          return;
        }
        completed.fetch_add(1, std::memory_order_relaxed);
        // Disjoint per-client key ranges keep the final contents exact.
        const Key key = (static_cast<Key>(m) * 1000 + c) * 100'000 +
                        static_cast<Key>(i % 4096);
        if (i % update_every == 0) {
          node->ClientUpdate(client, key, "fig5-value-100-bytes",
                             [issue, i] { (*issue)(i + 1); });
        } else {
          node->ClientRead(client, key, [issue, i] { (*issue)(i + 1); });
        }
      };
      (*issue)(0);
    }
  }

  const auto start = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(duration);
  stop.store(true);
  const double elapsed_s =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          std::chrono::steady_clock::now() - start)
          .count();
  result.ops_per_s = static_cast<double>(completed.load()) / elapsed_s;

  // Drain in-flight replication, then read the per-node trackers.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  for (auto& node : nodes) {
    std::uint64_t applied = 0;
    node->RunBlocking(
        [&] { applied = node->runtime().receiver().applied_count(); });
    result.remote_applied += applied;
    result.wire_errors += node->wire_errors() + node->send_failures();
  }
  // Visibility of dc0's updates observed at dc1, from dc1's tracker.
  nodes[1]->RunBlocking([&] {
    if (const Cdf* vis = nodes[1]->tracker().Visibility(0, 1);
        vis != nullptr && vis->count() > 0) {
      result.vis_p50_ms = vis->Quantile(0.50) / 1000.0;
      result.vis_p95_ms = vis->Quantile(0.95) / 1000.0;
    }
  });
  for (auto& node : nodes) {
    node->Stop();
  }
  // The client chains are self-referential (each function captures the
  // shared_ptr that owns it); with every event loop joined, break the
  // cycles so their captures can be reclaimed.
  for (auto& issue : issues) {
    *issue = nullptr;
  }
  return result;
}

bool RunTransportPart(const std::string& kind, bool smoke,
                      std::vector<SeriesPoint>* points) {
  std::printf(
      "\nreal geo-replication runtime (%s transport): 3 GeoNodes, "
      "closed-loop 90:10 clients at every DC\n",
      kind.c_str());
  const TransportRunResult result = RunGeoNodes(kind, smoke);
  Table table({"transport", "ops/s (aggregate)", "remote applies",
               "vis p50 (ms)", "vis p95 (ms)"});
  table.AddRow({kind, Table::Num(result.ops_per_s, 0),
                Table::Num(static_cast<double>(result.remote_applied), 0),
                Table::Num(result.vis_p50_ms, 2),
                Table::Num(result.vis_p95_ms, 2)});
  table.Print();
  points->push_back({"EunomiaKV", "90:10 U", kind, result.ops_per_s,
                     result.vis_p95_ms});
  if (result.ops_per_s <= 0.0 || result.remote_applied == 0 ||
      result.wire_errors != 0) {
    std::printf(
        "ERROR: the %s deployment did not replicate cleanly "
        "(ops/s=%.0f, remote applies=%llu, wire errors=%llu)\n",
        kind.c_str(), result.ops_per_s,
        static_cast<unsigned long long>(result.remote_applied),
        static_cast<unsigned long long>(result.wire_errors));
    return false;
  }
  return true;
}

int Run(bool smoke, const std::string& transport) {
  std::vector<SeriesPoint> points;
  bool ok = RunSimPart(smoke, &points);
  if (transport != "sim") {
    ok = RunTransportPart(transport, smoke, &points) && ok;
  }
  WriteBenchJson("BENCH_fig5.json", smoke, points);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace eunomia

int main(int argc, char** argv) {
  eunomia::bench::Flags flags(argc, argv, {"smoke", "transport"});
  if (!flags.ok()) {
    return flags.FailUsage();
  }
  const std::string transport = flags.Get("transport", "sim");
  if (transport != "sim" && transport != "tcp" && transport != "loopback") {
    std::fprintf(stderr,
                 "--transport must be sim, tcp or loopback (got '%s')\n",
                 transport.c_str());
    return 2;
  }
  return eunomia::Run(flags.smoke(), transport);
}
