// Figure 3 — "Maximum throughput achieved by a fault-tolerant version of
// Eunomia and sequencers", normalized against the non-fault-tolerant
// versions.
//
// Simulated with the same direct-connection setup as Fig. 2 (60 partitions
// / clients). The fault-tolerance mechanics follow §3.3 and §7.1:
//
//   - FT Eunomia: partitions fan each batch out to every replica; each
//     replica deduplicates (Alg. 4 NEW_BATCH) and acknowledges; only the
//     leader stabilizes and additionally broadcasts StableTime to the
//     followers. Replicas never coordinate — "their results are independent
//     of relative order of inputs" — so the leader's extra work is just the
//     per-batch ack/dedup bookkeeping: a small constant penalty, nearly
//     independent of the replica count (~9% in the paper).
//
//   - Chain-replicated sequencer: every grant traverses the chain before
//     the client unblocks; the head must forward each request, so the
//     per-grant service cost rises and the ceiling drops (~33% in the
//     paper).
// A native section at the end drives the real multithreaded services
// (bench/service_driver.h): the sharded non-FT EunomiaService at
// num_shards = 1 and 4 against the 3-replica FtEunomiaService, so the FT
// overhead and the shard-scaling headroom are measured on the same workload.
#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "bench/flags.h"
#include "bench/service_driver.h"
#include "src/eunomia/replica.h"
#include "src/eunomia/service.h"
#include "bench/harness/table.h"
#include "src/sim/network.h"
#include "src/sim/server.h"
#include "src/sim/simulator.h"

namespace eunomia {
namespace {

using harness::Table;

constexpr std::uint32_t kPartitions = 60;
constexpr sim::SimTime kIngestCost = 2;      // us per op ingested
constexpr sim::SimTime kEmitCost = 1;        // us per op emitted
constexpr sim::SimTime kAckCost = 2;         // us per batch: dedup + ack (FT)
constexpr sim::SimTime kSeqGrantCost = 18;   // us per sequencer grant
constexpr sim::SimTime kChainStageCost = 27; // grant + forward at each stage
constexpr sim::SimTime kIntraHop = 150;
constexpr std::uint64_t kClientGenIntervalUs = 156;
constexpr std::uint64_t kBatchIntervalUs = 1000;
constexpr std::uint64_t kRunUs = 10 * sim::kSecond;

// FT Eunomia with R replicas; replicas == 0 selects the non-FT code path
// (single instance, no acks).
double SimulateEunomiaFt(std::uint32_t num_replicas) {
  const bool ft = num_replicas > 0;
  const std::uint32_t instances = ft ? num_replicas : 1;
  sim::Simulator sim(11);
  sim::NetworkConfig net_config;
  net_config.intra_dc_one_way_us = kIntraHop;
  net_config.wan_one_way_us = {{0}};
  sim::Network net(&sim, net_config);

  struct ReplicaNode {
    std::unique_ptr<sim::Server> server;
    std::unique_ptr<EunomiaReplica> logic;
    sim::EndpointId ep = 0;
  };
  std::vector<ReplicaNode> replicas(instances);
  for (std::uint32_t r = 0; r < instances; ++r) {
    replicas[r].server = std::make_unique<sim::Server>(&sim);
    replicas[r].logic = std::make_unique<EunomiaReplica>(r, kPartitions);
    replicas[r].ep = net.Register(0);
  }
  std::uint64_t stabilized = 0;

  struct Producer {
    sim::EndpointId ep;
    Timestamp next_ts = 1;
    std::vector<OpRecord> batch;
  };
  std::vector<Producer> producers(kPartitions);
  // Each driver's function captures the shared_ptr that owns it; the
  // cycles are broken by hand after the run.
  std::vector<std::shared_ptr<std::function<void()>>> drivers;
  for (std::uint32_t p = 0; p < kPartitions; ++p) {
    producers[p].ep = net.Register(0);
    auto generate = std::make_shared<std::function<void()>>();
    drivers.push_back(generate);
    *generate = [&, p, generate]() {
      Producer& prod = producers[p];
      prod.batch.push_back(
          OpRecord{prod.next_ts, static_cast<PartitionId>(p), 0, 0});
      prod.next_ts += kClientGenIntervalUs;
      sim.ScheduleAfter(kClientGenIntervalUs, *generate);
    };
    sim.ScheduleAfter(p % kClientGenIntervalUs, *generate);

    auto flush = std::make_shared<std::function<void()>>();
    drivers.push_back(flush);
    *flush = [&, p, flush]() {
      Producer& prod = producers[p];
      if (!prod.batch.empty()) {
        auto batch = std::make_shared<std::vector<OpRecord>>(std::move(prod.batch));
        prod.batch.clear();
        // Fan out to every replica (one copy per replica).
        for (std::uint32_t r = 0; r < instances; ++r) {
          net.Send(prod.ep, replicas[r].ep, [&, r, p, batch] {
            ReplicaNode& node = replicas[r];
            const auto cost =
                kIngestCost * static_cast<sim::SimTime>(batch->size()) +
                (ft ? kAckCost : 0);
            node.server->Submit(cost, [&, r, p, batch] {
              // NEW_BATCH: dedup + cumulative ack (ack message modeled by
              // the kAckCost charge; in-process channels do not lose it).
              replicas[r].logic->NewBatch(*batch, static_cast<PartitionId>(p));
            });
          });
        }
      }
      sim.ScheduleAfter(kBatchIntervalUs, *flush);
    };
    sim.ScheduleAfter(kBatchIntervalUs, *flush);
  }

  // Leader (replica 0) stabilizes every 0.5 ms and notifies followers.
  std::vector<OpRecord> out;
  auto stabilize = std::make_shared<std::function<void()>>();
  drivers.push_back(stabilize);
  *stabilize = [&, stabilize]() {
    out.clear();
    const auto result = replicas[0].logic->ProcessStable(&out);
    if (result.emitted > 0) {
      stabilized += result.emitted;
      sim::SimTime cost =
          kEmitCost * static_cast<sim::SimTime>(result.emitted);
      if (ft && instances > 1) {
        cost += static_cast<sim::SimTime>(instances - 1);  // STABLE broadcast
        for (std::uint32_t r = 1; r < instances; ++r) {
          net.Send(replicas[0].ep, replicas[r].ep,
                   [&, r, st = result.stable_time] {
                     replicas[r].server->Submit(1, [&, r, st] {
                       replicas[r].logic->OnStableNotice(st);
                     });
                   });
        }
      }
      replicas[0].server->Submit(cost, [] {});
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

// Sequencer with a chain of `stages` replicas (1 == non-FT).
double SimulateChainSequencer(std::uint32_t stages) {
  sim::Simulator sim(11);
  sim::NetworkConfig net_config;
  net_config.intra_dc_one_way_us = kIntraHop;
  net_config.wan_one_way_us = {{0}};
  sim::Network net(&sim, net_config);
  std::vector<std::unique_ptr<sim::Server>> chain;
  std::vector<sim::EndpointId> eps;
  for (std::uint32_t s = 0; s < stages; ++s) {
    chain.push_back(std::make_unique<sim::Server>(&sim));
    eps.push_back(net.Register(0));
  }
  const sim::SimTime stage_cost = stages == 1 ? kSeqGrantCost : kChainStageCost;
  std::uint64_t granted = 0;

  std::vector<std::shared_ptr<std::function<void()>>> issues;
  std::vector<std::shared_ptr<std::function<void(std::uint32_t)>>> hops;
  for (std::uint32_t c = 0; c < kPartitions; ++c) {
    const sim::EndpointId client_ep = net.Register(0);
    auto issue = std::make_shared<std::function<void()>>();
    issues.push_back(issue);
    // Forward through the chain stage by stage, reply from the tail.
    auto hop = std::make_shared<std::function<void(std::uint32_t)>>();
    hops.push_back(hop);
    *hop = [&, client_ep, issue, hop](std::uint32_t stage) {
      chain[stage]->Submit(stage_cost, [&, client_ep, stage, issue, hop] {
        if (stage + 1 < chain.size()) {
          net.Send(eps[stage], eps[stage + 1],
                   [hop, stage] { (*hop)(stage + 1); });
        } else {
          net.Send(eps[stage], client_ep, [&, issue] {
            ++granted;
            (*issue)();
          });
        }
      });
    };
    *issue = [&, client_ep, hop]() {
      net.Send(client_ep, eps[0], [hop] { (*hop)(0); });
    };
    sim.ScheduleAfter(c, *issue);
  }
  sim.RunUntil(kRunUs);
  // issue and hop reference each other as well as themselves; clear both.
  for (auto& issue : issues) {
    *issue = nullptr;
  }
  for (auto& hop : hops) {
    *hop = nullptr;
  }
  return static_cast<double>(granted) / (static_cast<double>(kRunUs) / 1e6);
}

// Native multithreaded services under the same fixed load: non-FT with the
// num_shards knob, FT with 3 replicas. Returns false if any service failed
// to stabilize its load, so the binary can go red instead of printing zeros.
bool RunNativeServices() {
  bench::FixedLoad load;
  load.num_partitions = 12;
  load.ops_per_partition = 100'000;
  std::printf(
      "\nnative services, same fixed load (%u partitions x %llu ops):\n",
      load.num_partitions,
      static_cast<unsigned long long>(load.ops_per_partition));
  const double non_ft_1 = bench::MeasureShardedThroughput(1, load);
  const double non_ft_4 = bench::MeasureShardedThroughput(4, load);
  double ft3 = 0.0;
  {
    FtEunomiaService::Options options;
    options.num_partitions = load.num_partitions;
    options.num_replicas = 3;
    options.stable_period_us = 200;
    FtEunomiaService service(options);
    ft3 = bench::MeasureStabilizedThroughput(service, load);
  }
  Table table({"service", "stabilized (kops/s)", "vs non-FT 1-shard"});
  table.AddRow({"EunomiaService num_shards=1", Table::Num(non_ft_1 / 1000.0, 0),
                "1.00"});
  table.AddRow({"EunomiaService num_shards=4", Table::Num(non_ft_4 / 1000.0, 0),
                non_ft_1 > 0 ? Table::Num(non_ft_4 / non_ft_1, 2) : "n/a"});
  table.AddRow({"FtEunomiaService 3 replicas", Table::Num(ft3 / 1000.0, 0),
                non_ft_1 > 0 ? Table::Num(ft3 / non_ft_1, 2) : "n/a"});
  table.Print();
  const bool converged = non_ft_1 > 0.0 && non_ft_4 > 0.0 && ft3 > 0.0;
  if (!converged) {
    std::printf("ERROR: a native service did not stabilize its load\n");
  }
  return converged;
}

int Run() {
  harness::PrintBanner(
      "Figure 3: fault-tolerance overhead (normalized per family)",
      "60 partitions/clients; Eunomia replicas never coordinate, chain "
      "sequencer replicas process every grant in order");

  const double eunomia_base = SimulateEunomiaFt(0);
  const double seq_base = SimulateChainSequencer(1);

  Table table({"service", "throughput (kops/s)", "normalized vs own non-FT"});
  table.AddRow({"Eunomia Non-FT", Table::Num(eunomia_base / 1000.0, 0), "1.00"});
  double ft3 = 0.0;
  for (const std::uint32_t replicas : {1u, 2u, 3u}) {
    const double tput = SimulateEunomiaFt(replicas);
    if (replicas == 3) {
      ft3 = tput;
    }
    table.AddRow({"Eunomia " + std::to_string(replicas) + "-FT",
                  Table::Num(tput / 1000.0, 0),
                  Table::Num(tput / eunomia_base, 2)});
  }
  table.AddRow({"Sequencer Non-FT", Table::Num(seq_base / 1000.0, 0), "1.00"});
  const double chain = SimulateChainSequencer(3);
  table.AddRow({"Sequencer 3-FT (chain)", Table::Num(chain / 1000.0, 0),
                Table::Num(chain / seq_base, 2)});
  table.Print();
  std::printf(
      "\npaper reference: FT Eunomia loses ~9%% (roughly independent of the "
      "replica count); the 3-replica chain\nsequencer loses ~33%%. measured: "
      "Eunomia 3-FT %.2f, chain %.2f of their non-FT baselines\n",
      ft3 / eunomia_base, chain / seq_base);

  return RunNativeServices() ? 0 : 1;
}

}  // namespace
}  // namespace eunomia

int main(int argc, char** argv) {
  // No flags yet; the shared parser still rejects typos loudly.
  eunomia::bench::Flags flags(argc, argv, {});
  if (!flags.ok()) {
    return flags.FailUsage();
  }
  return eunomia::Run();
}
