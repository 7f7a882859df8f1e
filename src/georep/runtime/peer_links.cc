#include "src/georep/runtime/peer_links.h"

#include <algorithm>
#include <utility>

namespace eunomia::geo::rt {

namespace gw = ::eunomia::geo::rt::wire;
namespace nw = ::eunomia::net::wire;

namespace {

// How often a durable node checks whether a snapshot is due.
constexpr std::uint64_t kSnapshotCheckIntervalUs = 250'000;
// Period of the durably-applied-frontier acks.
constexpr std::uint64_t kAckIntervalUs = 100'000;
// Installs one catch-up chunk replays: at most this many payload frames
// plus one metadata frame per turn, so a queued client op waits for one
// chunk, never for the whole replay.
constexpr std::size_t kCatchUpInstallsPerTurn = 64;

}  // namespace

PeerLinks::PeerLinks(const Options& options, DatacenterRuntime* runtime,
                     Environment* env, LinkSeam* seam,
                     GeoDurability* durability,
                     metrics::Counter* replayed_frames)
    : options_(options),
      dc_(runtime->id()),
      num_dcs_(runtime->config().num_dcs),
      partitions_(runtime->config().partitions_per_dc),
      runtime_(runtime),
      env_(env),
      seam_(seam),
      durability_(durability),
      replayed_frames_(replayed_frames),
      peers_(num_dcs_) {}

bool PeerLinks::Dial(DatacenterId peer) {
  peers_[peer].dialed = true;
  gw::GeoHelloMsg hello;
  hello.dc = dc_;
  hello.num_dcs = num_dcs_;
  hello.partitions = partitions_;
  if (durability_ != nullptr) {
    // What a crash would recover of the peer's updates; a WAL-less node
    // sends 0.
    hello.resume_from = durability_->synced_site_time()[peer];
  }
  return seam_->Dial(dc_, peer, hello);
}

void PeerLinks::Start() {
  // The first links get the same catch-up as every later one: a recovered
  // node re-ships the payloads its pre-crash fan-out may have lost (their
  // metadata re-ships itself through re-stabilization).
  for (DatacenterId peer = 0; peer < num_dcs_; ++peer) {
    if (peers_[peer].dialed) {
      StartCatchUp(peer);
    }
  }
  if (durability_ == nullptr) {
    return;
  }
  // The time bound of an interval fsync, so a quiet node cannot hold an
  // install un-synced indefinitely; each flush also advances what the acks
  // may promise. A no-op when nothing is un-synced.
  Every(wal::kFsyncIntervalUs, [this] { durability_->Flush(); });
  Every(kAckIntervalUs, [this] {
    const VectorTimestamp& synced = durability_->synced_site_time();
    for (DatacenterId peer = 0; peer < num_dcs_; ++peer) {
      if (peers_[peer].dialed && !peers_[peer].down) {
        SendToPeer(peer, nw::MsgType::kGeoAck,
                   gw::EncodeGeoAck({dc_, synced[peer]}));
      }
    }
  });
  Every(kSnapshotCheckIntervalUs, [this] {
    if (durability_->SnapshotDue()) {
      durability_->Snapshot(InstallTruncateMark());
    }
  });
}

void PeerLinks::Every(std::uint64_t period_us, std::function<void()> duty) {
  if (stopped_.load()) {
    return;
  }
  duty();
  Later(period_us, [this, period_us, duty = std::move(duty)]() mutable {
    Every(period_us, std::move(duty));
  });
}

void PeerLinks::OnLinkDown(DatacenterId peer) {
  Peer& entry = peers_[peer];
  if (stopped_.load() || entry.down || !entry.dialed) {
    return;
  }
  entry.down = true;
  seam_->Close(dc_, peer);
  // Whatever the replay had not sent is still in the WAL; the next link-up
  // starts over from the peer's acked frontier.
  entry.catch_up.reset();
  entry.backoff_ms = std::max<std::uint32_t>(1, options_.reconnect_backoff_ms);
  Later(entry.backoff_ms * 1000ULL, [this, peer] { TryReconnect(peer); });
}

void PeerLinks::TryReconnect(DatacenterId peer) {
  Peer& entry = peers_[peer];
  if (stopped_.load() || !entry.down) {
    return;
  }
  if (Dial(peer)) {
    entry.down = false;
    reconnects_.fetch_add(1, std::memory_order_relaxed);
    StartCatchUp(peer);
    return;
  }
  entry.backoff_ms =
      std::min(entry.backoff_ms * 2, options_.reconnect_backoff_max_ms);
  Later(entry.backoff_ms * 1000ULL, [this, peer] { TryReconnect(peer); });
}

void PeerLinks::StartCatchUp(DatacenterId peer) {
  if (durability_ == nullptr) {
    return;
  }
  Peer& entry = peers_[peer];
  entry.catch_up = std::make_unique<CatchUp>(
      CatchUp{durability_->ReadInstalls(entry.applied),
              runtime_->eunomia().StableTime(), {}});
  ++entry.replays.started;
  entry.replays.last_from = entry.applied;
  CatchUpStep(peer, ++entry.catch_up_epoch);
}

void PeerLinks::CatchUpStep(DatacenterId peer, std::uint64_t epoch) {
  Peer& entry = peers_[peer];
  if (entry.catch_up == nullptr || entry.catch_up_epoch != epoch) {
    return;  // the links dropped since this chunk was scheduled
  }
  // A failed send marks the links down, destroying the catch-up: every
  // failure path returns without touching it again.
  CatchUp& catch_up = *entry.catch_up;
  const auto send = [&](nw::MsgType type, std::string frame,
                        PartitionId partition) {
    if (!SendToPeer(peer, type, std::move(frame), partition,
                    /*from_catch_up=*/true)) {
      return false;
    }
    ++entry.replays.frames;
    if (replayed_frames_ != nullptr) {
      replayed_frames_->Add(1);
    }
    return true;
  };
  const std::size_t limit = std::min(kCatchUpInstallsPerTurn,
                                     gw::MaxGeoUpdatesPerFrame(num_dcs_));
  std::vector<RemoteUpdate> metadata;
  for (std::size_t n = 0; n < limit; ++n) {
    LoggedInstall install;
    if (!catch_up.installs.Next(&install)) {
      break;
    }
    const PartitionId partition = install.update.partition;
    if (install.update.vts[dc_] <= catch_up.horizon) {
      metadata.push_back(std::move(install.update));
    }
    // The logged record is the kGeoPayload body: it ships as it lies.
    if (!send(nw::MsgType::kGeoPayload, std::move(install.body), partition)) {
      return;
    }
  }
  if (!metadata.empty() &&
      !send(nw::MsgType::kGeoMetaBatch,
            gw::EncodeGeoMetaBatch(dc_, metadata.data(), metadata.size()),
            0)) {
    return;
  }
  if (!catch_up.installs.done()) {
    Later(0, [this, peer, epoch] { CatchUpStep(peer, epoch); });
    return;
  }
  std::vector<std::pair<nw::MsgType, std::string>> held =
      std::move(catch_up.held);
  entry.catch_up.reset();
  for (auto& [type, frame] : held) {
    if (!SendToPeer(peer, type, std::move(frame), 0, /*from_catch_up=*/true)) {
      return;
    }
  }
}

Timestamp PeerLinks::InstallTruncateMark() const {
  // Every peer must durably hold an install before its record may go, so a
  // peer that never acks (WAL-less) pins the log by design; a running
  // catch-up reads the logs by byte offset, so it pins them too.
  Timestamp mark = runtime_->eunomia().StableTime();
  for (DatacenterId peer = 0; peer < num_dcs_; ++peer) {
    if (peer == dc_) {
      continue;
    }
    if (peers_[peer].catch_up != nullptr) {
      return 0;
    }
    mark = std::min(mark, peers_[peer].applied);
  }
  return mark;
}

void PeerLinks::RaiseApplied(DatacenterId peer, Timestamp applied) {
  Later(0, [this, peer, applied] {
    peers_[peer].applied = std::max(peers_[peer].applied, applied);
  });
}

// --- outbound ----------------------------------------------------------------

bool PeerLinks::SendToPeer(DatacenterId to, nw::MsgType type, std::string frame,
                           PartitionId partition, bool from_catch_up) {
  Peer& entry = peers_[to];
  if (!from_catch_up && entry.catch_up != nullptr &&
      (type == nw::MsgType::kGeoMetaBatch ||
       type == nw::MsgType::kGeoFrontier)) {
    // Above the replay's horizon: it must follow the replay on the FIFO
    // link. Payloads (unordered) and acks (link control) need not wait.
    entry.catch_up->held.emplace_back(type, std::move(frame));
    return true;
  }
  // While down the frame is lost: a durable node's next catch-up re-ships
  // it from the WAL; a WAL-less one loses it as a dead TCP send would.
  if (!entry.down &&
      (type == nw::MsgType::kGeoPayload
           ? seam_->SendOnPayloadLink(dc_, to, partition, std::move(frame))
           : seam_->SendOnMetadataLink(dc_, to, type, std::move(frame)))) {
    return true;
  }
  send_failures_.fetch_add(1, std::memory_order_relaxed);
  // A local send failure is as authoritative as a reader-side close (the
  // usual death signal): fail the pair over to the re-dial loop.
  OnLinkDown(to);
  return false;
}

void PeerLinks::SendRemoteMetadata(DatacenterId to,
                                   const std::vector<RemoteUpdate>& batch) {
  // Chunked onto one FIFO link: the shipping order — which the remote
  // receiver's Algorithm 5 queues rely on — is preserved.
  const std::size_t max_per_frame = gw::MaxGeoUpdatesPerFrame(num_dcs_);
  for (std::size_t i = 0; i < batch.size(); i += max_per_frame) {
    const std::size_t n = std::min(max_per_frame, batch.size() - i);
    SendToPeer(to, nw::MsgType::kGeoMetaBatch,
               gw::EncodeGeoMetaBatch(dc_, batch.data() + i, n));
  }
}

void PeerLinks::SendFrontier(DatacenterId to, Timestamp frontier) {
  SendToPeer(to, nw::MsgType::kGeoFrontier,
             gw::EncodeGeoFrontier({dc_, frontier}));
}

void PeerLinks::SendPayload(DatacenterId to, PartitionId partition,
                            const RemotePayload& payload) {
  SendToPeer(to, nw::MsgType::kGeoPayload,
             gw::EncodeGeoPayload(partition, payload), partition);
}

// --- inbound -----------------------------------------------------------------

bool PeerLinks::OnFrame(Inbound* link, nw::MsgType type,
                        std::string_view payload) {
  if (!link->hello_done) {
    gw::GeoHelloMsg hello;
    if (type != nw::MsgType::kGeoHello ||
        !gw::DecodeGeoHello(payload, &hello) ||
        hello.protocol_version != nw::kProtocolVersion ||
        hello.num_dcs != num_dcs_ || hello.partitions != partitions_ ||
        hello.dc >= num_dcs_ || hello.dc == dc_ ||
        (hello.link_kind != gw::kMetadataLink &&
         hello.link_kind != gw::kPayloadLink)) {
      return false;
    }
    link->hello_done = true;
    link->peer = hello.dc;
    link->link_kind = hello.link_kind;
    if (hello.link_kind == gw::kMetadataLink && hello.resume_from > 0) {
      // What the dialer durably holds of OUR updates.
      RaiseApplied(hello.dc, hello.resume_from);
    }
    return true;
  }
  // kGeoPayload rides the payload link, everything else the metadata link.
  if ((type == nw::MsgType::kGeoPayload) !=
      (link->link_kind == gw::kPayloadLink)) {
    return false;
  }
  switch (type) {
    case nw::MsgType::kGeoMetaBatch: {
      gw::GeoMetaBatchMsg msg;
      if (!gw::DecodeGeoMetaBatch(payload, &msg) || msg.origin != link->peer ||
          !gw::FitsDeployment(msg, num_dcs_, partitions_)) {
        return false;
      }
      Later(0, [this, updates = std::move(msg.updates)] {
        runtime_->OnRemoteMetadata(updates);
      });
      return true;
    }
    case nw::MsgType::kGeoFrontier: {
      gw::GeoFrontierMsg msg;
      if (!gw::DecodeGeoFrontier(payload, &msg) || msg.origin != link->peer) {
        return false;
      }
      Later(0, [this, msg] { runtime_->OnFrontier(msg.origin, msg.frontier); });
      return true;
    }
    case nw::MsgType::kGeoPayload: {
      gw::GeoPayloadMsg msg;
      if (!gw::DecodeGeoPayload(payload, &msg) ||
          msg.payload.origin != link->peer ||
          !gw::FitsDeployment(msg, num_dcs_, partitions_)) {
        return false;
      }
      Later(0, [this, partition = msg.partition,
                payload = std::move(msg.payload)]() mutable {
        runtime_->OnPayload(partition, std::move(payload));
      });
      return true;
    }
    case nw::MsgType::kGeoAck: {
      gw::GeoAckMsg msg;
      if (!gw::DecodeGeoAck(payload, &msg) || msg.dc != link->peer) {
        return false;
      }
      RaiseApplied(msg.dc, msg.applied);
      return true;
    }
    default:
      return false;
  }
}

}  // namespace eunomia::geo::rt
