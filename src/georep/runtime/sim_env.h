// Simulator binding of the geo-runtime Environment.
//
// Reproduces the pre-extraction EunomiaKvSystem event structure exactly —
// the same endpoints in the same order on one sim::Network, the same
// network hop + FCFS server submission and cost charges per send, timers
// 1:1 on the simulator's queue — so a fixed seed reproduces the monolithic
// implementation bit for bit (pinned by GeoRuntimeSimEquivalence).
#pragma once

#include <cassert>
#include <functional>
#include <memory>
#include <vector>

#include "src/georep/config.h"
#include "src/georep/runtime/datacenter_runtime.h"
#include "src/georep/runtime/environment.h"
#include "src/sim/network.h"
#include "src/sim/server.h"
#include "src/sim/simulator.h"

namespace eunomia::geo::rt {

// Subclassable (not final) so the chaos binding can gate closures and
// route the WAN sends through its fault-injecting links; see
// runtime/chaos/.
class SimGeoEnvironment : public Environment {
 public:
  // Builds the simulated substrate (FCFS servers + endpoints per
  // datacenter); runtimes, which reference it, are registered afterwards.
  SimGeoEnvironment(sim::Simulator* sim, const GeoConfig& config);
  ~SimGeoEnvironment() override = default;

  // Attaches (nullptr: the chaos binding detaches) a datacenter's runtime.
  void RegisterRuntime(DatacenterId dc, DatacenterRuntime* runtime) {
    assert(dc < runtimes_.size());
    runtimes_[dc] = runtime;
  }

  std::uint64_t Now() const override { return sim_->now(); }
  void ScheduleAfter(DatacenterId dc, std::uint64_t delay_us,
                     std::function<void()> fn) override;
  void ClientHop(DatacenterId dc, std::function<void()> fn) override;
  void RunOnPartition(DatacenterId dc, PartitionId partition,
                      std::uint64_t cost_us, bool priority,
                      std::function<void()> fn) override;
  void SendMetadataBatch(DatacenterId dc, PartitionId partition,
                         std::vector<OpRecord> batch,
                         Timestamp frontier) override;
  void ChargeEunomia(DatacenterId dc, std::uint64_t cost_us) override;
  void SendRemoteMetadata(DatacenterId from, DatacenterId to,
                          std::vector<RemoteUpdate> batch) override;
  void SendFrontier(DatacenterId from, DatacenterId to,
                    Timestamp frontier) override;
  void SendPayload(DatacenterId from, DatacenterId to, PartitionId partition,
                   RemotePayload payload) override;
  void SendApply(DatacenterId dc, PartitionId partition,
                 std::function<void()> fn) override;

 protected:
  struct DcSubstrate {
    std::vector<std::unique_ptr<sim::Server>> servers;
    std::vector<sim::EndpointId> partition_endpoints;
    std::unique_ptr<sim::Server> eunomia_server;
    sim::EndpointId eunomia_endpoint = 0;
    std::unique_ptr<sim::Server> receiver_server;
    sim::EndpointId receiver_endpoint = 0;
  };

  // Every closure run in datacenter `dc`'s context (timers, hops, server
  // tasks, intra-DC deliveries) passes through here. The chaos binding
  // fences a crashed datacenter's closures.
  virtual std::function<void()> Gate(DatacenterId, std::function<void()> fn) {
    return fn;
  }

  sim::Simulator* const sim_;
  const GeoConfig config_;
  sim::Network network_;
  std::vector<DcSubstrate> dcs_;
  std::vector<DatacenterRuntime*> runtimes_;
};

}  // namespace eunomia::geo::rt
