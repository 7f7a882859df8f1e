// nemesis_sweep — the chaos harness driver (ROADMAP item 3).
//
// Part 1 (simulated): runs hundreds of randomized nemesis schedules —
// each seed derives a deployment, a fault profile, timed fault windows and
// a closed-loop workload (src/georep/runtime/chaos/) — and checks the four
// invariants after every schedule: store convergence, causal delivery
// order, read-your-writes, bounded stable-frontier staleness. On any
// violation the exact seed is reprinted: `nemesis_sweep --seed=N` replays
// the identical schedule bit-for-bit.
//
// `--plant=drop-payload|reorder-metadata|drop-metadata` injects a
// deliberate protocol-breaking bug; with `--expect-violation` the sweep
// asserts the bug IS caught and that the first catching seed reproduces
// the violation deterministically (identical digests across two re-runs) —
// proof the harness has teeth.
//
// Part 2 (real TCP, skip with --no-tcp): the highest-value scenario on the
// real GeoNode binding — peer death with total state loss, background
// reconnect with capped backoff, history-replay catch-up — while an
// availability probe at the surviving datacenter measures unavailability
// windows (completion gaps), emitted fig4-style into BENCH_nemesis.json.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>
#include "src/common/sync.h"

#include "bench/flags.h"
#include "src/georep/geo_store.h"
#include "src/georep/runtime/chaos/nemesis.h"
#include "src/georep/runtime/geo_node.h"
#include "src/metrics/metrics_server.h"
#include "src/metrics/registry.h"
#include "src/net/epoll_transport.h"

namespace eunomia {
namespace {

namespace chaos = geo::rt::chaos;

bool ParsePlant(const std::string& name, chaos::Plant* plant) {
  if (name == "none") {
    *plant = chaos::Plant::kNone;
  } else if (name == "drop-payload") {
    *plant = chaos::Plant::kDropPayload;
  } else if (name == "reorder-metadata") {
    *plant = chaos::Plant::kReorderMetadata;
  } else if (name == "drop-metadata") {
    *plant = chaos::Plant::kDropMetadata;
  } else {
    return false;
  }
  return true;
}

// --- part 1: the randomized sweep --------------------------------------------

struct SweepResult {
  std::uint64_t seeds_run = 0;
  std::uint64_t updates_acked = 0;
  std::uint64_t reads_done = 0;
  std::uint64_t crashes = 0;
  std::uint64_t payloads_dropped = 0;
  std::uint64_t plants_fired = 0;
  // Schedules that ran in durable mode (WAL+snapshot recovery with disk
  // faults instead of environment replay), and the disk faults that fired.
  std::uint64_t durable_seeds = 0;
  std::uint64_t wal_torn_tails = 0;
  std::uint64_t wal_bit_flips = 0;
  std::uint64_t snapshots_taken = 0;
  std::vector<std::uint64_t> violating_seeds;
};

SweepResult RunSweep(std::uint64_t base_seed, std::uint64_t count,
                     const chaos::NemesisOptions& proto,
                     const std::string& log_path) {
  SweepResult result;
  std::FILE* log = nullptr;
  for (std::uint64_t s = base_seed; s < base_seed + count; ++s) {
    chaos::NemesisOptions options = proto;
    options.seed = s;
    const chaos::NemesisReport report = chaos::RunNemesisSchedule(options);
    ++result.seeds_run;
    result.updates_acked += report.updates_acked;
    result.reads_done += report.reads_done;
    result.crashes += report.faults.crashes;
    result.payloads_dropped += report.faults.payloads_dropped;
    result.plants_fired += report.faults.plants_fired;
    if (report.durable) {
      ++result.durable_seeds;
      result.wal_torn_tails += report.wal_torn_tails;
      result.wal_bit_flips += report.wal_bit_flips;
      result.snapshots_taken += report.snapshots_taken;
    }
    if (!report.ok()) {
      result.violating_seeds.push_back(s);
      std::printf(
          "VIOLATION at seed %llu (%zu violations) — repro: "
          "nemesis_sweep --seed=%llu%s%s\n",
          static_cast<unsigned long long>(s), report.violations.size(),
          static_cast<unsigned long long>(s), proto.smoke ? " --smoke" : "",
          proto.plant == chaos::Plant::kNone ? "" : " --plant=...");
      std::size_t shown = 0;
      for (const chaos::Violation& v : report.violations) {
        if (shown++ == 10) {
          std::printf("  ... (%zu more; see %s)\n",
                      report.violations.size() - 10, log_path.c_str());
          break;
        }
        std::printf("  [%s] %s\n", v.invariant.c_str(), v.detail.c_str());
      }
      if (log == nullptr) {
        log = std::fopen(log_path.c_str(), "w");
      }
      if (log != nullptr) {
        for (const chaos::Violation& v : report.violations) {
          std::fprintf(log, "seed=%llu invariant=%s detail=%s\n",
                       static_cast<unsigned long long>(s),
                       v.invariant.c_str(), v.detail.c_str());
        }
      }
    }
    if ((s - base_seed + 1) % 50 == 0) {
      std::printf("... %llu/%llu seeds done, %zu violating\n",
                  static_cast<unsigned long long>(s - base_seed + 1),
                  static_cast<unsigned long long>(count),
                  result.violating_seeds.size());
    }
  }
  if (log != nullptr) {
    std::fclose(log);
    std::printf("violation log written to %s\n", log_path.c_str());
  }
  return result;
}

// The planted-bug contract: the printed seed must reproduce by itself,
// byte-for-byte — two fresh runs of the same seed yield identical digests
// (event counts, fault counters, violation list).
bool VerifyDeterministicRepro(std::uint64_t seed,
                              const chaos::NemesisOptions& proto) {
  chaos::NemesisOptions options = proto;
  options.seed = seed;
  const chaos::NemesisReport a = chaos::RunNemesisSchedule(options);
  const chaos::NemesisReport b = chaos::RunNemesisSchedule(options);
  if (a.ok()) {
    std::printf(
        "ERROR: seed %llu no longer violates when replayed alone — the "
        "repro is not deterministic\n",
        static_cast<unsigned long long>(seed));
    return false;
  }
  if (a.Digest() != b.Digest()) {
    std::printf("ERROR: seed %llu diverged across two replays:\n  %s\n  %s\n",
                static_cast<unsigned long long>(seed), a.Digest().c_str(),
                b.Digest().c_str());
    return false;
  }
  std::printf("deterministic repro confirmed for seed %llu:\n  %s\n",
              static_cast<unsigned long long>(seed), a.Digest().c_str());
  return true;
}

// --- part 2: peer death -> reconnect -> catch-up on real TCP -----------------

struct UnavailabilityWindow {
  double start_s = 0.0;
  double gap_ms = 0.0;
};

struct TcpScenarioResult {
  bool ran = false;
  bool ok = false;
  double ops_per_s = 0.0;
  std::uint64_t reconnects = 0;
  bool converged = false;
  double converge_ms = -1.0;
  std::vector<UnavailabilityWindow> windows;
};

using StoreSnapshot = std::map<Key, geo::GeoVersion>;

StoreSnapshot SnapshotStores(geo::rt::GeoNode* node,
                             std::uint32_t partitions) {
  StoreSnapshot snapshot;
  node->RunBlocking([&] {
    for (PartitionId p = 0; p < partitions; ++p) {
      node->runtime().StoreAt(p).ForEach(
          [&snapshot](Key key, const geo::GeoVersion& v) {
            snapshot[key] = v;
          });
    }
  });
  return snapshot;
}

bool SameSnapshot(const StoreSnapshot& a, const StoreSnapshot& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (const auto& [key, va] : a) {
    const auto it = b.find(key);
    if (it == b.end() || it->second.value != va.value ||
        !(it->second.vts == va.vts) || it->second.origin != va.origin) {
      return false;
    }
  }
  return true;
}

TcpScenarioResult RunTcpReconnectScenario(bool smoke) {
  using geo::rt::GeoNode;
  using Clock = std::chrono::steady_clock;
  TcpScenarioResult result;
  result.ran = true;

  geo::GeoConfig config;
  config.num_dcs = 2;
  config.partitions_per_dc = 2;
  config.servers_per_dc = 1;

  // Writers live at dc0 only: dc1 is the datacenter that dies and returns
  // with nothing, so all state it must recover flows one way and the
  // catch-up is exactly dc0's retained history.
  GeoNode::Options options0;
  options0.dc = 0;
  options0.config = config;
  options0.retain_peer_history = true;
  options0.reconnect_backoff_ms = 25;
  options0.reconnect_backoff_max_ms = 200;
  // Both nodes instrumented: the post-scenario scrape (written to
  // nemesis_tcp_scrape.prom, archived by the nightly job) must show the
  // peer death in the counters — reconnects and history replay at dc0.
  options0.metrics = &metrics::Registry::Default();
  options0.metrics_interval_us = 50'000;
  GeoNode::Options options1 = options0;
  options1.dc = 1;

  const auto kill_after = std::chrono::milliseconds(smoke ? 400 : 800);
  const auto dead_for = std::chrono::milliseconds(smoke ? 500 : 1000);
  const auto tail = std::chrono::milliseconds(smoke ? 700 : 1400);
  constexpr double kGapThresholdMs = 100.0;

  std::printf(
      "\nTCP reconnect scenario: 2 GeoNodes, writers+probe at dc0; kill "
      "dc1 at t=%lldms, reboot it state-less at t=%lldms\n",
      static_cast<long long>(kill_after.count()),
      static_cast<long long>((kill_after + dead_for).count()));

  // Declared before the nodes: a GeoNode's Stop touches its transport.
  auto transport0 = std::make_unique<net::EpollTransport>();
  auto transport1 = std::make_unique<net::EpollTransport>();
  auto node0 = std::make_unique<GeoNode>(transport0.get(), options0);
  auto node1 = std::make_unique<GeoNode>(transport1.get(), options1);
  const std::string addr0 = node0->Listen("127.0.0.1:0");
  const std::string addr1 = node1->Listen("127.0.0.1:0");
  if (addr0.empty() || addr1.empty()) {
    std::printf("ERROR: could not listen\n");
    return result;
  }
  if (!node0->ConnectPeer(1, addr1) || !node1->ConnectPeer(0, addr0)) {
    std::printf("ERROR: initial peer dial failed\n");
    return result;
  }
  node0->Start();
  node1->Start();

  const auto t0 = Clock::now();
  auto now_s = [t0] {
    return std::chrono::duration_cast<std::chrono::duration<double>>(
               Clock::now() - t0)
        .count();
  };

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> writer_ops{0};
  constexpr std::uint32_t kWriters = 4;
  std::vector<std::shared_ptr<std::function<void(int)>>> issues;
  for (std::uint32_t c = 0; c < kWriters; ++c) {
    GeoNode* node = node0.get();
    auto issue = std::make_shared<std::function<void(int)>>();
    issues.push_back(issue);
    *issue = [node, c, issue, &stop, &writer_ops](int i) {
      if (stop.load(std::memory_order_relaxed)) {
        return;
      }
      writer_ops.fetch_add(1, std::memory_order_relaxed);
      const Key key = static_cast<Key>(c) * 1000 + static_cast<Key>(i % 64);
      node->ClientUpdate(100 + c, key, "v" + std::to_string(i),
                         [issue, i] { (*issue)(i + 1); });
    };
    (*issue)(0);
  }

  // The availability probe: a closed-loop reader whose completion
  // timestamps expose any window where dc0 stopped serving — EunomiaKV's
  // claim is that a remote datacenter dying leaves local availability
  // untouched.
  eunomia::sync::Mutex probe_mu{"nemesis_sweep::probe_mu", eunomia::sync::kRankLeaf};
  std::vector<double> probe_times_s;
  auto probe = std::make_shared<std::function<void()>>();
  {
    GeoNode* node = node0.get();
    *probe = [node, probe, &stop, &probe_mu, &probe_times_s, now_s] {
      if (stop.load(std::memory_order_relaxed)) {
        return;
      }
      node->ClientRead(999, 0, [probe, &probe_mu, &probe_times_s, now_s] {
        {
          eunomia::sync::MutexLock lock(probe_mu);
          probe_times_s.push_back(now_s());
        }
        (*probe)();
      });
    };
    (*probe)();
  }

  // The writer and probe chains are self-referential (each function
  // captures the shared_ptr that owns it) and terminate only by observing
  // `stop`, so the cycles must be broken by hand — and only once the
  // nodes' threads are joined, or an in-flight completion would invoke a
  // cleared std::function.
  auto teardown = [&] {
    node1.reset();
    node0.reset();
    transport1.reset();
    transport0.reset();
    for (auto& issue : issues) {
      *issue = nullptr;
    }
    *probe = nullptr;
  };

  std::this_thread::sleep_for(kill_after);
  // Peer death with total state loss: everything dc1 held is gone.
  node1.reset();
  transport1.reset();

  std::this_thread::sleep_for(dead_for);
  // Reboot dc1 on the same address (fresh transport, fresh empty runtime).
  // dc0's background re-dial loop finds it and replays its full history.
  transport1 = std::make_unique<net::EpollTransport>();
  node1 = std::make_unique<GeoNode>(transport1.get(), options1);
  if (node1->Listen(addr1).empty()) {
    std::printf("ERROR: dc1 could not rebind %s after restart\n",
                addr1.c_str());
    stop.store(true);
    return result;
  }
  if (!node1->ConnectPeer(0, addr0)) {
    std::printf("ERROR: rebooted dc1 could not dial dc0\n");
    stop.store(true);
    teardown();
    return result;
  }
  node1->Start();

  std::this_thread::sleep_for(tail);
  stop.store(true);
  const double elapsed_s = now_s();
  result.ops_per_s =
      static_cast<double>(writer_ops.load()) / std::max(elapsed_s, 1e-9);
  result.reconnects = node0->reconnects();

  // Catch-up: poll until dc1's merged store equals dc0's (only dc0 writes,
  // so dc0's own store is the oracle). The oracle is re-snapshotted each
  // poll — writer ops still in flight at stop time drain through dc0's
  // event loop after this point, so freezing it once would race them.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  StoreSnapshot expected;
  const double converge_start_s = now_s();
  const auto deadline = Clock::now() + std::chrono::seconds(8);
  while (Clock::now() < deadline) {
    expected = SnapshotStores(node0.get(), config.partitions_per_dc);
    if (!expected.empty() &&
        SameSnapshot(expected,
                     SnapshotStores(node1.get(), config.partitions_per_dc))) {
      result.converged = true;
      result.converge_ms = (now_s() - converge_start_s) * 1000.0;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  {
    eunomia::sync::MutexLock lock(probe_mu);
    double prev = 0.0;
    for (const double t : probe_times_s) {
      const double gap_ms = (t - prev) * 1000.0;
      if (gap_ms > kGapThresholdMs) {
        result.windows.push_back({prev, gap_ms});
      }
      prev = t;
    }
  }

  // Scrape the still-live nodes before teardown: the nightly job archives
  // this exposition, which shows the peer death in counter form (dc0's
  // reconnect + history replay, dc1's reinstalled updates).
  {
    metrics::MetricsServer metrics_server;
    const std::string metrics_address = metrics_server.Start("127.0.0.1:0");
    std::string scrape;
    if (!metrics_address.empty() &&
        metrics::HttpGet(metrics_address, "/metrics", &scrape)) {
      if (std::FILE* f = std::fopen("nemesis_tcp_scrape.prom", "w")) {
        std::fwrite(scrape.data(), 1, scrape.size(), f);
        std::fclose(f);
        std::printf(
            "wrote nemesis_tcp_scrape.prom (%zu bytes; georep "
            "reconnects=%.0f, replayed frames=%.0f)\n",
            scrape.size(),
            metrics::SeriesSum(scrape, "eunomia_georep_reconnects_total"),
            metrics::SeriesSum(scrape,
                               "eunomia_georep_replayed_frames_total"));
      }
    }
  }

  result.ok = result.converged && result.reconnects >= 1;
  std::printf(
      "dc0: %.0f writer ops/s, %llu reconnect(s); dc1 %s after reboot "
      "(%zu keys%s); %zu unavailability window(s) > %.0fms at dc0\n",
      result.ops_per_s, static_cast<unsigned long long>(result.reconnects),
      result.converged ? "converged" : "DID NOT CONVERGE", expected.size(),
      result.converged
          ? (", " + std::to_string(static_cast<long long>(result.converge_ms)) +
             "ms after writers stopped")
                .c_str()
          : "",
      result.windows.size(), kGapThresholdMs);
  for (const UnavailabilityWindow& w : result.windows) {
    std::printf("  unavailable %.0fms starting at t=%.2fs\n", w.gap_ms,
                w.start_s);
  }
  if (!result.ok) {
    std::printf("ERROR: TCP reconnect scenario failed (reconnects=%llu, "
                "converged=%d)\n",
                static_cast<unsigned long long>(result.reconnects),
                result.converged ? 1 : 0);
  }
  teardown();
  return result;
}

// --- JSON --------------------------------------------------------------------

void WriteBenchJson(const char* path, bool smoke, const SweepResult& sweep,
                    double sweep_wall_s, const TcpScenarioResult& tcp) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::printf("WARNING: could not write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"figure\": \"nemesis_sweep\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
  std::fprintf(f, "  \"series\": [\n");
  const double sweep_rate =
      static_cast<double>(sweep.updates_acked + sweep.reads_done) /
      std::max(sweep_wall_s, 1e-9);
  std::fprintf(f,
               "    {\"system\": \"EunomiaKV\", \"workload\": "
               "\"nemesis-sweep\", \"transport\": \"sim\", \"ops_per_s\": "
               "%.1f, \"seeds\": %llu, \"violating_seeds\": %zu, "
               "\"updates_acked\": %llu, \"crashes\": %llu, "
               "\"payloads_dropped\": %llu, \"durable_seeds\": %llu, "
               "\"wal_torn_tails\": %llu, \"wal_bit_flips\": %llu, "
               "\"snapshots\": %llu}%s\n",
               sweep_rate, static_cast<unsigned long long>(sweep.seeds_run),
               sweep.violating_seeds.size(),
               static_cast<unsigned long long>(sweep.updates_acked),
               static_cast<unsigned long long>(sweep.crashes),
               static_cast<unsigned long long>(sweep.payloads_dropped),
               static_cast<unsigned long long>(sweep.durable_seeds),
               static_cast<unsigned long long>(sweep.wal_torn_tails),
               static_cast<unsigned long long>(sweep.wal_bit_flips),
               static_cast<unsigned long long>(sweep.snapshots_taken),
               tcp.ran ? "," : "");
  if (tcp.ran) {
    double max_gap_ms = 0.0;
    for (const UnavailabilityWindow& w : tcp.windows) {
      max_gap_ms = std::max(max_gap_ms, w.gap_ms);
    }
    std::fprintf(f,
                 "    {\"system\": \"EunomiaKV\", \"workload\": "
                 "\"peer-death-reconnect\", \"transport\": \"tcp\", "
                 "\"ops_per_s\": %.1f, \"reconnects\": %llu, \"converged\": "
                 "%d, \"converge_ms\": %.0f, \"unavail_windows\": %zu, "
                 "\"max_gap_ms\": %.1f}%s\n",
                 tcp.ops_per_s,
                 static_cast<unsigned long long>(tcp.reconnects),
                 tcp.converged ? 1 : 0, tcp.converge_ms, tcp.windows.size(),
                 max_gap_ms, tcp.windows.empty() ? "" : ",");
    for (std::size_t i = 0; i < tcp.windows.size(); ++i) {
      std::fprintf(f,
                   "    {\"system\": \"EunomiaKV\", \"workload\": "
                   "\"unavail t=%.2fs\", \"transport\": \"tcp\", "
                   "\"ops_per_s\": 0.0, \"gap_ms\": %.1f}%s\n",
                   tcp.windows[i].start_s, tcp.windows[i].gap_ms,
                   i + 1 < tcp.windows.size() ? "," : "");
    }
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

int Run(const bench::Flags& flags) {
  const bool smoke = flags.smoke();
  chaos::Plant plant = chaos::Plant::kNone;
  if (!ParsePlant(flags.Get("plant", "none"), &plant)) {
    std::fprintf(stderr,
                 "bad --plant (use none, drop-payload, reorder-metadata or "
                 "drop-metadata)\n");
    return 2;
  }
  const std::uint64_t base_seed = flags.GetUint("seed", 1);
  const std::uint64_t count =
      flags.GetUint("seeds", flags.Has("seed") ? 1 : 200);
  const bool expect_violation = flags.Has("expect-violation");
  const bool no_tcp = flags.Has("no-tcp");
  const std::string log_path = flags.Get("log", "nemesis_violations.log");

  chaos::NemesisOptions proto;
  proto.smoke = smoke;
  proto.plant = plant;
  const std::string durability = flags.Get("durability", "draw");
  if (durability == "draw") {
    proto.durability = -1;
  } else if (durability == "off") {
    proto.durability = 0;
  } else if (durability == "on") {
    proto.durability = 1;
  } else {
    std::fprintf(stderr, "bad --durability (use draw, off or on)\n");
    return 2;
  }

  std::printf(
      "nemesis sweep: %llu schedule(s) from seed %llu (%s mode, plant=%s)\n"
      "invariants per schedule: convergence, causal order, read-your-writes, "
      "bounded staleness\n",
      static_cast<unsigned long long>(count),
      static_cast<unsigned long long>(base_seed), smoke ? "smoke" : "full",
      flags.Get("plant", "none").c_str());

  const auto sweep_start = std::chrono::steady_clock::now();
  const SweepResult sweep = RunSweep(base_seed, count, proto, log_path);
  const double sweep_wall_s =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          std::chrono::steady_clock::now() - sweep_start)
          .count();
  std::printf(
      "\n%llu seed(s) in %.1fs: %llu updates acked, %llu reads, %llu "
      "crashes, %llu payloads dropped+reshipped, %llu plants fired, "
      "%zu violating seed(s)\n"
      "%llu durable seed(s): %llu snapshot(s), %llu torn tail(s), %llu "
      "bit flip(s) injected on recovery disks\n",
      static_cast<unsigned long long>(sweep.seeds_run), sweep_wall_s,
      static_cast<unsigned long long>(sweep.updates_acked),
      static_cast<unsigned long long>(sweep.reads_done),
      static_cast<unsigned long long>(sweep.crashes),
      static_cast<unsigned long long>(sweep.payloads_dropped),
      static_cast<unsigned long long>(sweep.plants_fired),
      sweep.violating_seeds.size(),
      static_cast<unsigned long long>(sweep.durable_seeds),
      static_cast<unsigned long long>(sweep.snapshots_taken),
      static_cast<unsigned long long>(sweep.wal_torn_tails),
      static_cast<unsigned long long>(sweep.wal_bit_flips));

  bool ok = true;
  if (expect_violation) {
    if (sweep.violating_seeds.empty()) {
      std::printf(
          "ERROR: a bug was planted but no seed caught it — the harness "
          "has no teeth\n");
      ok = false;
    } else {
      ok = VerifyDeterministicRepro(sweep.violating_seeds.front(), proto);
    }
  } else if (!sweep.violating_seeds.empty()) {
    ok = false;
  }

  TcpScenarioResult tcp;
  if (!no_tcp) {
    tcp = RunTcpReconnectScenario(smoke);
    ok = ok && tcp.ok;
  }
  WriteBenchJson("BENCH_nemesis.json", smoke, sweep, sweep_wall_s, tcp);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace eunomia

int main(int argc, char** argv) {
  eunomia::bench::Flags flags(
      argc, argv,
      {"seeds", "seed", "smoke", "plant", "expect-violation", "no-tcp", "log",
       "durability"});
  if (!flags.ok()) {
    return flags.FailUsage();
  }
  return eunomia::Run(flags);
}
