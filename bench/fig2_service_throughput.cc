// Figure 2 — "Maximum throughput achieved by Eunomia and an implementation
// of a sequencer. We vary the number of partitions that propagate
// operations to Eunomia."
//
// Two parts:
//
//  (1) A native single-threaded microbenchmark of the real EunomiaCore
//      (ordered-buffer ingest + periodic stable extraction): this measures
//      the C++ data path and confirms the paper's observation that "the
//      bottleneck of our Eunomia implementation is the propagation to other
//      geo-locations rather than the handling of operations". The §6
//      red-black-vs-AVL-vs-run-queue buffer comparison lives in
//      ablation_ordered_buffer (BM_OrdBuf{RbTree,Avl,PartitionRun}).
//
//  (2) The §7.1 experiment itself, run on the deterministic simulator:
//      clients connect directly to the services, bypassing the data store
//      (each client simulates a partition). Eunomia producers batch for
//      1 ms and push asynchronously; sequencer clients issue synchronous
//      round-trips. Service costs are calibrated to the paper's measured
//      capacities (sequencer ~48 kops/s => ~18 us/grant; Eunomia
//      ~370 kops/s => ~2.7 us/op including message handling — two orders of
//      magnitude above the raw tree cost measured in part 1, i.e. the
//      propagation/messaging path dominates, as the paper states).
//
// Expected shape: the sequencer saturates at its low ceiling regardless of
// client count; Eunomia scales with offered load and plateaus near an order
// of magnitude higher (the paper reports 7.7x), with no degradation from 60
// to 75 partitions.
// A third part measures the *native multithreaded service* (the sharded
// stabilizer pipeline): producers race a fixed op count into EunomiaService
// across num_shards and we report stabilized ops/sec — the scaling curve
// the sharding buys. The scan is also emitted as
// machine-readable BENCH_fig2.json (in the working directory) so CI can
// archive the perf trajectory PR-over-PR. `--smoke` runs only that part
// with a tiny op count (CI exercises the pipeline on every push).
// The live service over epoll TCP is measured open loop by perfbench's
// order_tcp workload (perfbench/), not here.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "bench/flags.h"
#include "bench/service_driver.h"
#include "src/eunomia/core.h"
#include "bench/harness/table.h"
#include "src/sim/network.h"
#include "src/sim/server.h"
#include "src/sim/simulator.h"

namespace eunomia {
namespace {

using harness::Table;

// --- part 1: native EunomiaCore microbenchmark -------------------------------

double MeasureCoreIngest() {
  constexpr std::uint32_t kParts = 60;
  constexpr std::uint64_t kOps = 2'000'000;
  EunomiaCore core(kParts);
  std::vector<Timestamp> next(kParts, 1);
  std::vector<OpRecord> out;
  out.reserve(1 << 16);
  std::uint64_t produced = 0;
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t x = 88172645463325252ULL;  // xorshift for partition pick
  while (produced < kOps) {
    for (int i = 0; i < 512; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      const auto p = static_cast<PartitionId>(x % kParts);
      core.AddOp(OpRecord{next[p] += 1 + (x >> 60), p, 0, 0});
      ++produced;
    }
    out.clear();
    core.ProcessStable(&out);
  }
  // Drain.
  for (PartitionId p = 0; p < kParts; ++p) {
    core.Heartbeat(p, next[p] + 1000);
  }
  out.clear();
  core.ProcessStable(&out);
  const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  return static_cast<double>(produced) /
         (static_cast<double>(elapsed) / 1e6);
}

// --- part 2: simulated direct-connection experiment ---------------------------

// Calibrated service costs (see file comment).
constexpr sim::SimTime kEunomiaIngestCost = 2;  // us per op ingested
constexpr sim::SimTime kEunomiaEmitCost = 1;    // us per op emitted/propagated
constexpr sim::SimTime kSeqGrantCost = 18;      // us per sequencer grant
constexpr sim::SimTime kIntraHop = 150;         // one-way client <-> service
constexpr std::uint64_t kClientGenIntervalUs = 156;  // ~6.4 kops/s per client
constexpr std::uint64_t kBatchIntervalUs = 1000;     // the paper's 1 ms batches
constexpr std::uint64_t kRunUs = 10 * sim::kSecond;

double SimulateEunomia(std::uint32_t partitions) {
  sim::Simulator sim(7);
  sim::NetworkConfig net_config;
  net_config.intra_dc_one_way_us = kIntraHop;
  net_config.wan_one_way_us = {{0}};
  sim::Network net(&sim, net_config);
  sim::Server service_node(&sim);
  EunomiaCore core(partitions);
  std::uint64_t stabilized = 0;

  const sim::EndpointId service_ep = net.Register(0);
  struct Producer {
    sim::EndpointId ep;
    Timestamp next_ts = 1;
    std::vector<OpRecord> batch;
  };
  std::vector<Producer> producers(partitions);
  // Each driver's function captures the shared_ptr that owns it (so the
  // copies the scheduler takes keep it alive); the cycles are broken by
  // hand after the run.
  std::vector<std::shared_ptr<std::function<void()>>> drivers;
  for (std::uint32_t p = 0; p < partitions; ++p) {
    producers[p].ep = net.Register(0);
    // Eager generation: one op every kClientGenIntervalUs.
    auto generate = std::make_shared<std::function<void()>>();
    drivers.push_back(generate);
    *generate = [&, p, generate]() {
      Producer& prod = producers[p];
      prod.batch.push_back(
          OpRecord{prod.next_ts, static_cast<PartitionId>(p), 0, 0});
      prod.next_ts += kClientGenIntervalUs;  // microsecond-domain hybrid time
      sim.ScheduleAfter(kClientGenIntervalUs, *generate);
    };
    sim.ScheduleAfter(p % kClientGenIntervalUs, *generate);
    // 1 ms batch flush toward the service.
    auto flush = std::make_shared<std::function<void()>>();
    drivers.push_back(flush);
    *flush = [&, p, flush]() {
      Producer& prod = producers[p];
      if (!prod.batch.empty()) {
        auto batch = std::move(prod.batch);
        prod.batch.clear();
        net.Send(prod.ep, service_ep, [&, batch = std::move(batch)] {
          service_node.Submit(
              kEunomiaIngestCost * static_cast<sim::SimTime>(batch.size()),
              [&, batch] {
                for (const OpRecord& op : batch) {
                  core.AddOp(op);
                }
              });
        });
      } else {
        const Timestamp hb = producers[p].next_ts;
        net.Send(prod.ep, service_ep, [&, p, hb] {
          service_node.Submit(1, [&, p, hb] {
            core.Heartbeat(static_cast<PartitionId>(p), hb);
          });
        });
      }
      sim.ScheduleAfter(kBatchIntervalUs, *flush);
    };
    sim.ScheduleAfter(kBatchIntervalUs, *flush);
  }
  // Stabilizer: every 0.5 ms extract the stable prefix.
  std::vector<OpRecord> out;
  auto stabilize = std::make_shared<std::function<void()>>();
  drivers.push_back(stabilize);
  *stabilize = [&, stabilize]() {
    out.clear();
    const std::size_t emitted = core.ProcessStable(&out);
    if (emitted > 0) {
      service_node.Submit(kEunomiaEmitCost * static_cast<sim::SimTime>(emitted),
                          [] {});
      stabilized += emitted;
    }
    sim.ScheduleAfter(500, *stabilize);
  };
  sim.ScheduleAfter(500, *stabilize);

  sim.RunUntil(kRunUs);
  for (auto& driver : drivers) {
    *driver = nullptr;
  }
  return static_cast<double>(stabilized) / (static_cast<double>(kRunUs) / 1e6);
}

double SimulateSequencer(std::uint32_t clients) {
  sim::Simulator sim(7);
  sim::NetworkConfig net_config;
  net_config.intra_dc_one_way_us = kIntraHop;
  net_config.wan_one_way_us = {{0}};
  sim::Network net(&sim, net_config);
  sim::Server sequencer(&sim);
  const sim::EndpointId seq_ep = net.Register(0);
  std::uint64_t granted = 0;

  std::vector<std::shared_ptr<std::function<void()>>> issues;
  for (std::uint32_t c = 0; c < clients; ++c) {
    const sim::EndpointId client_ep = net.Register(0);
    // Closed loop: request -> grant -> immediately request again. The
    // synchronous round-trip is the whole point of the comparison.
    auto issue = std::make_shared<std::function<void()>>();
    issues.push_back(issue);
    *issue = [&, client_ep, issue]() {
      net.Send(client_ep, seq_ep, [&, client_ep, issue] {
        sequencer.Submit(kSeqGrantCost, [&, client_ep, issue] {
          net.Send(seq_ep, client_ep, [&, issue] {
            ++granted;
            (*issue)();
          });
        });
      });
    };
    sim.ScheduleAfter(c, *issue);
  }
  sim.RunUntil(kRunUs);
  // Break the closed loops' self-reference cycles.
  for (auto& issue : issues) {
    *issue = nullptr;
  }
  return static_cast<double>(granted) / (static_cast<double>(kRunUs) / 1e6);
}

// --- part 3: native sharded-service scaling ----------------------------------

bench::FixedLoad MakeScanLoad(bool smoke) {
  bench::FixedLoad load;
  if (smoke) {
    load.num_partitions = 8;
    load.ops_per_partition = 5'000;
  }
  return load;
}

// Returns false if any configuration failed to stabilize its load (the CI
// smoke step must go red on a stalled pipeline, not print a zero row).
// Each configuration becomes one BENCH_fig2.json series row.
bool RunShardScan(const bench::FixedLoad& load, bool smoke,
                  bench::BenchJson* json) {
  const std::vector<std::uint32_t> shard_counts =
      smoke ? std::vector<std::uint32_t>{1u, 4u}
            : std::vector<std::uint32_t>{1u, 2u, 4u, 8u};
  std::printf(
      "\nnative sharded stabilizer pipeline: %u producer partitions race "
      "%llu ops each\n(speedups vs the 1-shard baseline)\n",
      load.num_partitions,
      static_cast<unsigned long long>(load.ops_per_partition));
  Table table({"num_shards", "stabilized (kops/s)", "speedup"});
  double one_shard = 0.0;
  bool all_converged = true;
  for (const std::uint32_t shards : shard_counts) {
    const double rate = bench::MeasureShardedThroughput(shards, load);
    if (rate <= 0.0) {
      all_converged = false;
    }
    if (shards == 1) {
      one_shard = rate;
    }
    json->AddRow()
        .Int("shards", shards)
        .Str("transport", "inproc")
        .Num("mops_per_s", rate / 1e6, 3);
    table.AddRow({Table::Num(shards, 0), Table::Num(rate / 1000.0, 0),
                  one_shard > 0 ? Table::Num(rate / one_shard, 2) + "x"
                                : "n/a"});
  }
  table.Print();
  if (!all_converged) {
    std::printf("ERROR: a shard configuration did not stabilize its load\n");
  }
  return all_converged;
}

// Parts 1 and 2 print the figure; --smoke runs part 3 alone.
void RunFigure() {
  std::printf(
      "\nnative EunomiaCore ingest+stabilize rate: %.1f Mops/s\n"
      "=> the ordering core is ~2 orders of magnitude faster than "
      "the end-to-end service;\n   the bottleneck is message handling and "
      "propagation, as §7.1 observes.\n   (the §6 ordered-buffer comparison: "
      "ablation_ordered_buffer)\n",
      MeasureCoreIngest() / 1e6);

  Table table({"partitions/clients", "Eunomia (kops/s)", "Sequencer (kops/s)",
               "ratio"});
  double peak_ratio = 0.0;
  for (const std::uint32_t n : {15u, 30u, 45u, 60u, 75u}) {
    const double eunomia = SimulateEunomia(n);
    const double sequencer = SimulateSequencer(n);
    const double ratio = sequencer > 0 ? eunomia / sequencer : 0.0;
    peak_ratio = std::max(peak_ratio, ratio);
    table.AddRow({Table::Num(n, 0), Table::Num(eunomia / 1000.0, 0),
                  Table::Num(sequencer / 1000.0, 0),
                  Table::Num(ratio, 1) + "x"});
  }
  table.Print();
  std::printf(
      "\npaper reference: Eunomia peaks ~370 kops/s at 60 partitions and "
      "stays flat at 75; the sequencer\nsaturates ~48 kops/s regardless of "
      "clients (7.7x). peak measured ratio: %.1fx\n",
      peak_ratio);
}

int Run(bool smoke) {
  harness::PrintBanner(
      "Figure 2: maximum throughput, Eunomia vs a synchronous sequencer",
      "clients connect directly to the services (each client = one "
      "partition); Eunomia batches 1 ms off the critical path");
  if (!smoke) {
    RunFigure();
  }
  const bench::FixedLoad load = MakeScanLoad(smoke);
  bench::BenchJson json("fig2_service_throughput", smoke);
  json.scalars()
      .Int("num_partitions", load.num_partitions)
      .Int("ops_per_partition", load.ops_per_partition);
  const bool ok = RunShardScan(load, smoke, &json);
  json.Write("BENCH_fig2.json");
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
