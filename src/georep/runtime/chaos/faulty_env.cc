#include "src/georep/runtime/chaos/faulty_env.h"

#include <utility>

namespace eunomia::geo::rt::chaos {

namespace nw = ::eunomia::net::wire;

FaultyGeoEnvironment::FaultyGeoEnvironment(sim::Simulator* sim,
                                           const GeoConfig& config,
                                           const FaultProfile& profile,
                                           std::uint64_t seed)
    : SimGeoEnvironment(sim, config),
      profile_(profile),
      rng_(seed),
      epoch_(config.num_dcs, 0),
      install_log_(config.num_dcs),
      payload_history_(static_cast<std::size_t>(config.num_dcs) *
                       config.num_dcs),
      meta_history_(static_cast<std::size_t>(config.num_dcs) *
                    config.num_dcs),
      links_(static_cast<std::size_t>(config.num_dcs) * config.num_dcs),
      peer_links_(config.num_dcs, nullptr) {}

std::function<void()> FaultyGeoEnvironment::Gate(DatacenterId dc,
                                                 std::function<void()> fn) {
  return [this, dc, snapshot = epoch_[dc], fn = std::move(fn)] {
    if (epoch_[dc] == snapshot && runtimes_[dc] != nullptr) {
      fn();
    }
  };
}

void FaultyGeoEnvironment::AttachDatacenter(DatacenterId dc,
                                            DatacenterRuntime* runtime,
                                            PeerLinks* links) {
  RegisterRuntime(dc, runtime);
  peer_links_[dc] = links;
}

void FaultyGeoEnvironment::CrashDatacenter(DatacenterId dc) {
  ++epoch_[dc];
  AttachDatacenter(dc, nullptr, nullptr);
  ++stats_.crashes;
}

void FaultyGeoEnvironment::RestartDatacenter(DatacenterId dc,
                                             DatacenterRuntime* runtime,
                                             PeerLinks* links, bool replay) {
  AttachDatacenter(dc, runtime, links);
  ++stats_.restarts;
  if (!replay) {
    return;
  }
  // (1) Own installs, in per-partition timestamp order as
  // RestoreLocalUpdate requires (peers dedup what gets re-shipped).
  for (const InstallRecord& rec : install_log_[dc]) {
    runtime->RestoreLocalUpdate(rec.partition, rec.payload);
  }
  // (2) Inbound payloads, then (3) inbound ordered metadata, per origin in
  // FIFO order. Messages still in flight here are deliberately NOT
  // cancelled: their late arrival is a duplicate suffix for the dedup paths.
  for (DatacenterId origin = 0; origin < config_.num_dcs; ++origin) {
    if (origin == dc) {
      continue;
    }
    for (const InstallRecord& rec : payload_history_[Idx(origin, dc)]) {
      runtime->OnPayload(rec.partition, rec.payload);
    }
  }
  for (DatacenterId origin = 0; origin < config_.num_dcs; ++origin) {
    if (origin == dc) {
      continue;
    }
    for (const std::vector<RemoteUpdate>& batch :
         meta_history_[Idx(origin, dc)]) {
      runtime->OnRemoteMetadata(batch);
    }
  }
}

void FaultyGeoEnvironment::DropLink(DatacenterId from, DatacenterId to) {
  stats_.links_dropped += links_[Idx(from, to)].up ? 1 : 0;
  Close(from, to);
  if (peer_links_[from] != nullptr) {
    peer_links_[from]->OnLinkDown(to);
  }
}

bool FaultyGeoEnvironment::Dial(DatacenterId from, DatacenterId to,
                                wire::GeoHelloMsg hello) {
  PeerLinks* acceptor = peer_links_[to];
  if (acceptor == nullptr) {
    return false;  // nobody listening
  }
  // The handshake completes inside the dial: the acceptor validates both
  // hellos before any frame of the new links can arrive.
  SimLink& link = links_[Idx(from, to)];
  link.metadata = link.payloads = PeerLinks::Inbound{};
  hello.link_kind = wire::kMetadataLink;
  const std::string metadata_hello = wire::EncodeGeoHello(hello);
  hello.link_kind = wire::kPayloadLink;
  link.up = acceptor->OnFrame(&link.metadata, nw::MsgType::kGeoHello,
                              metadata_hello) &&
            acceptor->OnFrame(&link.payloads, nw::MsgType::kGeoHello,
                              wire::EncodeGeoHello(hello));
  return link.up;
}

void FaultyGeoEnvironment::Close(DatacenterId from, DatacenterId to) {
  SimLink& link = links_[Idx(from, to)];
  link.up = false;
  ++link.epoch;
}

std::function<void()> FaultyGeoEnvironment::Delivery(DatacenterId from,
                                                     DatacenterId to,
                                                     nw::MsgType type,
                                                     std::string frame) {
  return [this, from, to, epoch = links_[Idx(from, to)].epoch, type,
          frame = std::move(frame)] {
    SimLink& link = links_[Idx(from, to)];
    PeerLinks* receiver = peer_links_[to];
    // Lost if the link was closed or the receiver is down meanwhile; a
    // protocol violation closes the connection.
    if (link.epoch == epoch && receiver != nullptr &&
        !receiver->OnFrame(
            type == nw::MsgType::kGeoPayload ? &link.payloads : &link.metadata,
            type, frame)) {
      DropLink(from, to);
    }
  };
}

bool FaultyGeoEnvironment::SendOnMetadataLink(DatacenterId from,
                                              DatacenterId to,
                                              nw::MsgType type,
                                              std::string frame) {
  if (!links_[Idx(from, to)].up) {
    return false;
  }
  // Through the receiver node's FCFS queue, charged per update, so a frame
  // takes effect only after the one preceding it on the FIFO link.
  const std::uint64_t cost =
      config_.costs.receiver_op_us *
          (frame.size() / wire::RemoteUpdateWireBytes(config_.num_dcs)) +
      1;
  const auto send = [this, from, to, cost,
                     deliver = Delivery(from, to, type, std::move(frame))] {
    network_.Send(dcs_[from].eunomia_endpoint, dcs_[to].receiver_endpoint,
                  [this, to, cost, deliver] {
                    dcs_[to].receiver_server->Submit(cost, deliver);
                  });
  };
  send();
  if (type == nw::MsgType::kGeoMetaBatch &&
      rng_.NextBool(profile_.metadata_dup)) {
    send();  // adjacent duplicate: order preserved, receivers dedup it
  }
  return true;
}

bool FaultyGeoEnvironment::SendOnPayloadLink(DatacenterId from,
                                             DatacenterId to,
                                             PartitionId partition,
                                             std::string frame) {
  if (!links_[Idx(from, to)].up) {
    return false;
  }
  const auto send = [this, from, to, partition,
                     deliver = Delivery(from, to, nw::MsgType::kGeoPayload,
                                        std::move(frame))] {
    network_.Send(dcs_[from].partition_endpoints[partition],
                  dcs_[to].partition_endpoints[partition], deliver);
  };
  if (rng_.NextBool(profile_.payload_drop)) {
    // Benign loss on the unordered link: at-least-once re-ship later.
    ++stats_.payloads_dropped;
    sim_->ScheduleAfter(profile_.reship_delay_us +
                            rng_.NextBounded(profile_.reship_delay_us + 1),
                        send);
    return true;
  }
  if (rng_.NextBool(profile_.payload_delay)) {
    sim_->ScheduleAfter(1 + rng_.NextBounded(profile_.payload_delay_max_us),
                        send);
  } else {
    send();
  }
  if (rng_.NextBool(profile_.payload_dup)) {
    sim_->ScheduleAfter(1 + rng_.NextBounded(profile_.payload_delay_max_us),
                        send);
  }
  return true;
}

void FaultyGeoEnvironment::SetWanDelay(DatacenterId from, DatacenterId to,
                                       std::uint64_t extra_us) {
  network_.SetExtraDelay(dcs_[from].eunomia_endpoint,
                         dcs_[to].receiver_endpoint, extra_us);
  for (PartitionId p = 0; p < config_.partitions_per_dc; ++p) {
    network_.SetExtraDelay(dcs_[from].partition_endpoints[p],
                           dcs_[to].partition_endpoints[p], extra_us);
  }
}

void FaultyGeoEnvironment::SendRemoteMetadata(DatacenterId from,
                                              DatacenterId to,
                                              std::vector<RemoteUpdate> batch) {
  if (profile_.plant == Plant::kDropMetadata &&
      rng_.NextBool(profile_.plant_probability)) {
    // Bug: the batch vanishes. Not recorded in the history either — a lost
    // send is lost from every future replay too.
    ++stats_.plants_fired;
    return;
  }
  meta_history_[Idx(from, to)].push_back(batch);
  if (profile_.plant == Plant::kReorderMetadata &&
      rng_.NextBool(profile_.plant_probability)) {
    // Bug: bypass the FIFO link with a direct low-latency delivery, so this
    // batch can overtake earlier ones still in flight.
    ++stats_.plants_fired;
    const std::uint64_t delay = 1 + rng_.NextBounded(5'000);
    sim_->ScheduleAfter(delay, [this, to, batch = std::move(batch)] {
      if (runtimes_[to] != nullptr) {
        runtimes_[to]->OnRemoteMetadata(batch);
      }
    });
    return;
  }
  peer_links_[from]->SendRemoteMetadata(to, batch);
}

void FaultyGeoEnvironment::SendFrontier(DatacenterId from, DatacenterId to,
                                        Timestamp frontier) {
  peer_links_[from]->SendFrontier(to, frontier);
}

void FaultyGeoEnvironment::SendPayload(DatacenterId from, DatacenterId to,
                                       PartitionId partition,
                                       RemotePayload payload) {
  // First sight of a uid = the origin's durable install record (the fan-out
  // in ExecuteUpdate is synchronous with the store write, so this log is
  // complete and in per-partition timestamp order).
  if (logged_uids_.insert(payload.uid).second) {
    install_log_[from].push_back({partition, payload});
  }
  if (profile_.plant == Plant::kDropPayload &&
      rng_.NextBool(profile_.plant_probability)) {
    // Bug: payload never shipped and never re-shipped (kept out of the
    // channel history so a restart replay cannot resurrect it).
    ++stats_.plants_fired;
    return;
  }
  payload_history_[Idx(from, to)].push_back({partition, payload});
  peer_links_[from]->SendPayload(to, partition, std::move(payload));
}

}  // namespace eunomia::geo::rt::chaos
