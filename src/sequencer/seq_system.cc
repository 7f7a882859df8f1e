#include "src/sequencer/seq_system.h"

#include <cassert>
#include <utility>

namespace eunomia::geo {

SeqSystem::SeqSystem(sim::Simulator* sim, GeoConfig config, Mode mode)
    : sim_(sim),
      config_(std::move(config)),
      mode_(mode),
      network_(sim, config_.network),
      router_(config_.partitions_per_dc),
      tracker_(config_.timeline_window_us, config_.num_dcs) {
  dcs_.resize(config_.num_dcs);
  for (DatacenterId m = 0; m < config_.num_dcs; ++m) {
    Datacenter& dc = dcs_[m];
    dc.id = m;
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
    }
    dc.seq_server = std::make_unique<sim::Server>(sim_);
    dc.seq_endpoint = network_.Register(m);
    dc.receiver_server = std::make_unique<sim::Server>(sim_);
    dc.receiver_endpoint = network_.Register(m);
    dc.receiver = std::make_unique<Receiver>(
        m, config_.num_dcs,
        [this, m](const RemoteUpdate& update, std::function<void()> done) {
          ApplyRemote(m, update, std::move(done));
        });
    ScheduleReceiverCheck(m);
  }
}

void SeqSystem::SetPartitionSequencerDelay(DatacenterId dc, PartitionId partition,
                                           std::uint64_t extra_us) {
  assert(dc < dcs_.size() && partition < config_.partitions_per_dc);
  Datacenter& d = dcs_[dc];
  network_.SetExtraDelay(d.partitions[partition].endpoint, d.seq_endpoint,
                         extra_us);
}

void SeqSystem::ScheduleReceiverCheck(DatacenterId dc) {
  sim_->ScheduleAfter(config_.rho_us, [this, dc] {
    dcs_[dc].receiver->CheckPending();
    ScheduleReceiverCheck(dc);
  });
}

void SeqSystem::ClientRead(ClientId client, DatacenterId dc, Key key,
                           std::function<void()> done) {
  assert(dc < dcs_.size());
  Partition& part = dcs_[dc].partitions[router_.Responsible(key)];
  const sim::SimTime hop = config_.network.intra_dc_one_way_us;
  sim_->ScheduleAfter(hop, [this, &part, client, key, done = std::move(done),
                            hop] {
    const std::uint64_t cost =
        config_.costs.read_us + config_.costs.eunomia_metadata_us;
    part.server->Submit(cost, [this, &part, client, key, done, hop] {
      const GeoVersion* version = part.store.Get(key);
      VectorTimestamp vts = version != nullptr ? version->vts
                                               : VectorTimestamp(config_.num_dcs);
      sim_->ScheduleAfter(hop, [this, client, vts = std::move(vts), done] {
        auto [it, inserted] =
            sessions_.try_emplace(client, VectorTimestamp(config_.num_dcs));
        it->second.MergeMax(vts);
        tracker_.OnOpComplete(/*is_update=*/false, sim_->now());
        done();
      });
    });
  });
}

void SeqSystem::RequestSequenceNumber(DatacenterId dc, PartitionId p,
                                      std::function<void(std::uint64_t)> granted) {
  Datacenter& d = dcs_[dc];
  Partition& part = d.partitions[p];
  network_.Send(part.endpoint, d.seq_endpoint,
                [this, dc, p, granted = std::move(granted)] {
                  Datacenter& dd = dcs_[dc];
                  dd.seq_server->Submit(
                      config_.costs.seq_request_us, [this, dc, p, granted] {
                        Datacenter& ddd = dcs_[dc];
                        const std::uint64_t n = ++ddd.counter;
                        // RPC stack overhead (Erlang messaging/scheduling in
                        // the paper's testbed) — latency only, no capacity.
                        sim_->ScheduleAfter(
                            config_.costs.seq_rpc_overhead_us, [this, dc, p,
                                                                granted, n] {
                              Datacenter& d4 = dcs_[dc];
                              network_.Send(d4.seq_endpoint,
                                            d4.partitions[p].endpoint,
                                            [granted, n] { granted(n); });
                            });
                      });
                });
}

void SeqSystem::ClientUpdate(ClientId client, DatacenterId dc, Key key,
                             Value value, std::function<void()> done) {
  assert(dc < dcs_.size());
  const PartitionId p = router_.Responsible(key);
  Partition& part = dcs_[dc].partitions[p];
  const sim::SimTime hop = config_.network.intra_dc_one_way_us;

  sim_->ScheduleAfter(hop, [this, &part, client, key, value = std::move(value),
                            done = std::move(done), dc, p, hop]() mutable {
    const std::uint64_t cost =
        config_.costs.update_us + config_.costs.eunomia_metadata_us;
    part.server->Submit(cost, [this, &part, client, key,
                               value = std::move(value), done, dc, p,
                               hop]() mutable {
      auto reply_client = [this, client, done, hop](
                              const VectorTimestamp* vts) {
        sim_->ScheduleAfter(hop, [this, client, done,
                                  vts_copy = vts != nullptr
                                                 ? *vts
                                                 : VectorTimestamp()] {
          if (vts_copy.size() > 0) {
            auto it = sessions_.find(client);
            if (it != sessions_.end()) {
              it->second = vts_copy;
            }
          }
          tracker_.OnOpComplete(/*is_update=*/true, sim_->now());
          done();
        });
      };

      if (mode_ == Mode::kSynchronous) {
        // S-Seq: block until the sequencer grants the number (critical path).
        RequestSequenceNumber(dc, p, [this, &part, client, key,
                                      value = std::move(value), reply_client,
                                      dc](std::uint64_t n) mutable {
          const std::uint64_t uid = tracker_.OnInstalled(dc, sim_->now());
          FinishUpdate(part, client, key, std::move(value), n, uid);
          const auto it = sessions_.find(client);
          reply_client(it != sessions_.end() ? &it->second : nullptr);
        });
      } else {
        // A-Seq: reply immediately; the sequencer exchange happens in
        // parallel (same work, causality not captured).
        reply_client(nullptr);
        RequestSequenceNumber(dc, p, [this, &part, client, key,
                                      value = std::move(value),
                                      dc](std::uint64_t n) mutable {
          const std::uint64_t uid = tracker_.OnInstalled(dc, sim_->now());
          FinishUpdate(part, client, key, std::move(value), n, uid);
        });
      }
    });
  });
}

void SeqSystem::FinishUpdate(Partition& part, ClientId client, Key key,
                             Value value, std::uint64_t seq_number,
                             std::uint64_t uid) {
  const DatacenterId m = part.dc;
  auto [sit, inserted] =
      sessions_.try_emplace(client, VectorTimestamp(config_.num_dcs));
  VectorTimestamp vts = sit->second;
  vts[m] = seq_number;
  part.store.Put(key, value, vts, m);
  if (mode_ == Mode::kSynchronous) {
    sit->second = vts;
  }
  // Hand the update to the sequencer node for in-order shipping.
  RemoteUpdate meta{uid, key, vts, m, part.id};
  network_.Send(part.endpoint, dcs_[m].seq_endpoint,
                [this, m, meta, value = std::move(value), seq_number]() mutable {
                  Datacenter& d = dcs_[m];
                  d.ship_buffer.emplace(seq_number,
                                        PendingShip{meta, std::move(value)});
                  ShipReady(m);
                });
}

void SeqSystem::ShipReady(DatacenterId dc) {
  Datacenter& d = dcs_[dc];
  while (true) {
    const auto it = d.ship_buffer.find(d.next_to_ship);
    if (it == d.ship_buffer.end()) {
      return;
    }
    PendingShip ship = std::move(it->second);
    d.ship_buffer.erase(it);
    ++d.next_to_ship;
    d.seq_server->Submit(2, [] {});  // shipping bookkeeping at the sequencer
    for (DatacenterId k = 0; k < config_.num_dcs; ++k) {
      if (k == dc) {
        continue;
      }
      network_.Send(d.seq_endpoint, dcs_[k].receiver_endpoint,
                    [this, k, meta = ship.meta, value = ship.value] {
                      Datacenter& rd = dcs_[k];
                      tracker_.OnRemoteArrival(meta.uid, k, sim_->now());
                      rd.payloads[meta.uid] = value;
                      rd.receiver_server->Submit(
                          config_.costs.receiver_op_us, [this, k, meta] {
                            dcs_[k].receiver->OnRemoteUpdate(meta);
                          });
                    });
    }
  }
}

void SeqSystem::ApplyRemote(DatacenterId dc, const RemoteUpdate& meta,
                            std::function<void()> done) {
  Datacenter& d = dcs_[dc];
  Partition& part = d.partitions[meta.partition];
  network_.Send(d.receiver_endpoint, part.endpoint,
                [this, dc, meta, done = std::move(done)] {
                  Datacenter& dd = dcs_[dc];
                  Partition& pp = dd.partitions[meta.partition];
                  pp.server->SubmitPriority(
                      config_.costs.apply_remote_us, [this, dc, meta, done] {
                        Datacenter& ddd = dcs_[dc];
                        Partition& ppp = ddd.partitions[meta.partition];
                        const auto pit = ddd.payloads.find(meta.uid);
                        Value value =
                            pit != ddd.payloads.end() ? std::move(pit->second)
                                                      : Value();
                        if (pit != ddd.payloads.end()) {
                          ddd.payloads.erase(pit);
                        }
                        ppp.store.Put(meta.key, std::move(value), meta.vts,
                                      meta.origin);
                        tracker_.OnRemoteVisible(meta.uid, dc, sim_->now());
                        done();
                      });
                });
}

}  // namespace eunomia::geo
