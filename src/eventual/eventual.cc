#include "src/eventual/eventual.h"

#include <cassert>
#include <utility>

namespace eunomia::geo {

EventualSystem::EventualSystem(sim::Simulator* sim, GeoConfig config)
    : sim_(sim),
      config_(std::move(config)),
      network_(sim, config_.network),
      router_(config_.partitions_per_dc),
      tracker_(config_.timeline_window_us, config_.num_dcs) {
  dcs_.resize(config_.num_dcs);
  Rng clock_rng = sim_->rng().Fork(0xC10C);
  for (DatacenterId m = 0; m < config_.num_dcs; ++m) {
    Datacenter& dc = dcs_[m];
    for (std::uint32_t s = 0; s < config_.servers_per_dc; ++s) {
      dc.servers.push_back(std::make_unique<sim::Server>(sim_));
    }
    dc.partitions.resize(config_.partitions_per_dc);
    for (PartitionId p = 0; p < config_.partitions_per_dc; ++p) {
      Partition& part = dc.partitions[p];
      part.id = p;
      part.dc = m;
      part.server =
          dc.servers[store::ServerOfPartition(p, config_.servers_per_dc)].get();
      part.endpoint = network_.Register(m);
      const std::int64_t off = clock_rng.NextInRange(-config_.clocks.max_offset_us,
                                                     config_.clocks.max_offset_us);
      const double drift = (2.0 * clock_rng.NextDouble() - 1.0) *
                           config_.clocks.max_drift_ppm;
      part.clock = PhysicalClock(off, drift);
    }
  }
}

void EventualSystem::ClientRead(ClientId client, DatacenterId dc, Key key,
                                std::function<void()> done) {
  (void)client;  // no session state: eventual consistency tracks nothing
  assert(dc < dcs_.size());
  Partition& part = dcs_[dc].partitions[router_.Responsible(key)];
  const sim::SimTime hop = config_.network.intra_dc_one_way_us;
  sim_->ScheduleAfter(hop, [this, &part, done = std::move(done), hop] {
    part.server->Submit(config_.costs.read_us, [this, done, hop] {
      sim_->ScheduleAfter(hop, [this, done] {
        tracker_.OnOpComplete(/*is_update=*/false, sim_->now());
        done();
      });
    });
  });
}

void EventualSystem::ClientUpdate(ClientId client, DatacenterId dc, Key key,
                                  Value value, std::function<void()> done) {
  (void)client;
  assert(dc < dcs_.size());
  Partition& part = dcs_[dc].partitions[router_.Responsible(key)];
  const sim::SimTime hop = config_.network.intra_dc_one_way_us;
  sim_->ScheduleAfter(hop, [this, &part, key, value = std::move(value),
                            done = std::move(done), hop]() mutable {
    part.server->Submit(config_.costs.update_us, [this, &part, key,
                                                  value = std::move(value), done,
                                                  hop]() mutable {
      const DatacenterId m = part.dc;
      const Timestamp ts =
          part.hybrid.TimestampUpdate(part.clock.Read(sim_->now()), 0);
      VectorTimestamp vts(config_.num_dcs);
      vts[m] = ts;
      part.store.Put(key, value, vts, m);
      const std::uint64_t uid = tracker_.OnInstalled(m, sim_->now());

      // Ship directly to siblings; applied on receipt, no gating.
      RemotePayload payload{uid, key, value, vts, m};
      for (DatacenterId k = 0; k < config_.num_dcs; ++k) {
        if (k == m) {
          continue;
        }
        network_.Send(part.endpoint, dcs_[k].partitions[part.id].endpoint,
                      [this, k, pid = part.id, payload] {
                        Partition& sibling = dcs_[k].partitions[pid];
                        tracker_.OnRemoteArrival(payload.uid, k, sim_->now());
                        sibling.server->SubmitPriority(
                            config_.costs.apply_remote_us,
                            [this, &sibling, k, payload]() mutable {
                              sibling.store.Put(payload.key,
                                                std::move(payload.value),
                                                payload.vts, payload.origin);
                              tracker_.OnRemoteVisible(payload.uid, k, sim_->now());
                            });
                      });
      }

      sim_->ScheduleAfter(hop, [this, done] {
        tracker_.OnOpComplete(/*is_update=*/true, sim_->now());
        done();
      });
    });
  });
}

}  // namespace eunomia::geo
