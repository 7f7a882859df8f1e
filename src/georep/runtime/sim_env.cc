#include "src/georep/runtime/sim_env.h"

#include <utility>

namespace eunomia::geo::rt {

SimGeoEnvironment::SimGeoEnvironment(sim::Simulator* sim,
                                     const GeoConfig& config)
    : sim_(sim),
      config_(config),
      network_(sim, config.network),
      runtimes_(config.num_dcs, nullptr) {
  dcs_.resize(config_.num_dcs);
  // Endpoint registration order is load-bearing: channel identities (and so
  // the FIFO clamping and jitter draws of sim::Network) must match the
  // pre-extraction layout — partitions first, then the Eunomia node, then
  // the receiver, datacenter-major.
  for (DatacenterId m = 0; m < config_.num_dcs; ++m) {
    DcSubstrate& dc = dcs_[m];
    for (std::uint32_t s = 0; s < config_.servers_per_dc; ++s) {
      dc.servers.push_back(std::make_unique<sim::Server>(sim_));
    }
    dc.partition_endpoints.reserve(config_.partitions_per_dc);
    for (PartitionId p = 0; p < config_.partitions_per_dc; ++p) {
      dc.partition_endpoints.push_back(network_.Register(m));
    }
    dc.eunomia_server = std::make_unique<sim::Server>(sim_);
    dc.eunomia_endpoint = network_.Register(m);
    dc.receiver_server = std::make_unique<sim::Server>(sim_);
    dc.receiver_endpoint = network_.Register(m);
  }
}

void SimGeoEnvironment::ScheduleAfter(DatacenterId dc, std::uint64_t delay_us,
                                      std::function<void()> fn) {
  sim_->ScheduleAfter(delay_us, Gate(dc, std::move(fn)));
}

void SimGeoEnvironment::ClientHop(DatacenterId dc, std::function<void()> fn) {
  sim_->ScheduleAfter(config_.network.intra_dc_one_way_us,
                      Gate(dc, std::move(fn)));
}

void SimGeoEnvironment::RunOnPartition(DatacenterId dc, PartitionId partition,
                                       std::uint64_t cost_us, bool priority,
                                       std::function<void()> fn) {
  sim::Server* server =
      dcs_[dc]
          .servers[store::ServerOfPartition(partition, config_.servers_per_dc)]
          .get();
  if (priority) {
    server->SubmitPriority(cost_us, Gate(dc, std::move(fn)));
  } else {
    server->Submit(cost_us, Gate(dc, std::move(fn)));
  }
}

void SimGeoEnvironment::SendMetadataBatch(DatacenterId dc,
                                          PartitionId partition,
                                          std::vector<OpRecord> batch,
                                          Timestamp frontier) {
  network_.Send(dcs_[dc].partition_endpoints[partition],
                dcs_[dc].eunomia_endpoint,
                Gate(dc, [this, dc, partition, frontier,
                          batch = std::move(batch)] {
                  const std::uint64_t cost =
                      config_.costs.eunomia_op_us * batch.size() + 1;
                  dcs_[dc].eunomia_server->Submit(
                      cost, Gate(dc, [this, dc, partition, frontier, batch] {
                        runtimes_[dc]->OnMetadataBatch(partition, batch,
                                                       frontier);
                      }));
                }));
}

void SimGeoEnvironment::ChargeEunomia(DatacenterId dc, std::uint64_t cost_us) {
  dcs_[dc].eunomia_server->Submit(cost_us, [] {});
}

void SimGeoEnvironment::SendRemoteMetadata(DatacenterId from, DatacenterId to,
                                           std::vector<RemoteUpdate> batch) {
  network_.Send(dcs_[from].eunomia_endpoint, dcs_[to].receiver_endpoint,
                [this, to, batch = std::move(batch)] {
                  dcs_[to].receiver_server->Submit(
                      config_.costs.receiver_op_us * batch.size() + 1,
                      [this, to, batch] {
                        runtimes_[to]->OnRemoteMetadata(batch);
                      });
                });
}

void SimGeoEnvironment::SendFrontier(DatacenterId from, DatacenterId to,
                                     Timestamp frontier) {
  network_.Send(dcs_[from].eunomia_endpoint, dcs_[to].receiver_endpoint,
                [this, from, to, frontier] {
                  // Through the receiver node's FCFS queue, so the beacon
                  // takes effect only after the batch preceding it on the
                  // FIFO link is enqueued.
                  dcs_[to].receiver_server->Submit(1, [this, from, to,
                                                       frontier] {
                    runtimes_[to]->OnFrontier(from, frontier);
                  });
                });
}

void SimGeoEnvironment::SendPayload(DatacenterId from, DatacenterId to,
                                    PartitionId partition,
                                    RemotePayload payload) {
  network_.Send(dcs_[from].partition_endpoints[partition],
                dcs_[to].partition_endpoints[partition],
                [this, to, partition, payload = std::move(payload)]() mutable {
                  runtimes_[to]->OnPayload(partition, std::move(payload));
                });
}

void SimGeoEnvironment::SendApply(DatacenterId dc, PartitionId partition,
                                  std::function<void()> fn) {
  network_.Send(dcs_[dc].receiver_endpoint,
                dcs_[dc].partition_endpoints[partition],
                Gate(dc, std::move(fn)));
}

}  // namespace eunomia::geo::rt
