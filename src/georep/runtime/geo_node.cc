#include "src/georep/runtime/geo_node.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "src/clock/physical_clock.h"
#include "src/georep/runtime/geo_wire.h"
#include "src/metrics/registry.h"

namespace eunomia::geo::rt {

namespace gw = ::eunomia::geo::rt::wire;
namespace nw = ::eunomia::net::wire;

GeoNode::GeoNode(net::Transport* transport, Options options)
    : transport_(transport),
      options_(std::move(options)),
      // num_datacenters=2: a per-node tracker sees exactly one visibility
      // report per remote update (its own), so the destination-side stub
      // records reclaim after that single report.
      tracker_(options_.config.timeline_window_us, /*num_datacenters=*/2),
      // Coordination-free uid streams: uid ≡ dc (mod num_dcs).
      uids_(options_.dc, options_.config.num_dcs),
      peer_applied_(options_.config.num_dcs, 0),
      peers_(options_.config.num_dcs) {
  if (options_.detailed_visibility) {
    tracker_.EnableDetailedLog();
  }
  // Remote nodes report visibility of this node's updates to their own
  // trackers, never to ours: retaining origin records here would leak one
  // entry per local update for the daemon's lifetime.
  tracker_.DisableInstallRetention();
  if (options_.metrics != nullptr) {
    tracker_.AttachMetrics(options_.metrics);
    metrics::Registry& reg = *options_.metrics;
    const metrics::Labels dc_label = {{"dc", std::to_string(options_.dc)}};
    telemetry_ = std::make_unique<Telemetry>();
    telemetry_->buffered_payloads = reg.AddGauge(
        "eunomia_georep_buffered_payloads",
        "Remote payloads parked in the receiver awaiting their metadata "
        "go-ahead (Algorithm 5 queue depth)",
        dc_label);
    telemetry_->pending_applies = reg.AddGauge(
        "eunomia_georep_pending_applies",
        "Remote updates whose metadata cleared stabilization but whose "
        "apply has not yet run",
        dc_label);
    telemetry_->updates_installed = reg.AddCounter(
        "eunomia_georep_updates_installed_total",
        "Updates installed locally (origin-side client writes)", dc_label);
    telemetry_->payload_duplicates = reg.AddCounter(
        "eunomia_georep_payload_duplicates_total",
        "Inbound payloads dropped by uid/timestamp dedup (reconnect replays "
        "and recovery re-fan-outs land here)",
        dc_label);
    telemetry_->reconnects = reg.AddCounter(
        "eunomia_georep_reconnects_total",
        "Peer links re-established after a mid-run drop", dc_label);
    telemetry_->replayed_frames = reg.AddCounter(
        "eunomia_georep_replayed_frames_total",
        "Retained frames re-shipped to a reconnected peer", dc_label);
    telemetry_->wire_errors = reg.AddCounter(
        "eunomia_georep_wire_errors_total",
        "Inbound frames rejected as protocol violations", dc_label);
    telemetry_->send_failures = reg.AddCounter(
        "eunomia_georep_send_failures_total",
        "Outbound sends that failed (peer missing or connection down)",
        dc_label);
  }
  if (options_.durability_disk != nullptr) {
    GeoDurabilityOptions dopts;
    dopts.disk = options_.durability_disk;
    dopts.dc = options_.dc;
    dopts.num_dcs = options_.config.num_dcs;
    dopts.partitions = options_.config.partitions_per_dc;
    dopts.fsync = options_.fsync;
    dopts.snapshot_interval_bytes = options_.snapshot_interval_bytes;
    durability_ = std::make_unique<GeoDurability>(std::move(dopts));
  }
  // Real nodes read one shared monotonic clock through Environment::Now();
  // inter-process skew (and the hybrid clock's resilience to it) comes from
  // the deployment, not from an injected model.
  std::vector<PhysicalClock> clocks(options_.config.partitions_per_dc);
  runtime_ = std::make_unique<DatacenterRuntime>(
      options_.dc, options_.config, static_cast<Environment*>(this), &tracker_,
      &uids_, &sessions_, std::move(clocks), durability_.get());
  if (durability_ != nullptr) {
    // Recovery runs pre-Start with nothing else touching the runtime; the
    // environment calls it triggers (SendApply hops, metadata batches)
    // queue on the not-yet-started loop and drain once Start runs them.
    GeoDurability::Recovered recovered =
        durability_->Recover(runtime_.get(), &sessions_);
    recovered_installs_ = std::move(recovered.retained_installs);
  }
}

GeoNode::~GeoNode() { Stop(); }

std::string GeoNode::Listen(const std::string& address) {
  return transport_->Listen(
      address, [this](const std::shared_ptr<net::Connection>&) {
        return MakeInboundHandler();
      });
}

bool GeoNode::ConnectPeer(DatacenterId peer, const std::string& address) {
  if (peer >= peers_.size() || peer == options_.dc || started_.load()) {
    return false;
  }
  peers_[peer].address = address;
  const std::uint32_t attempts = std::max<std::uint32_t>(
      1, options_.connect_attempts);
  std::uint32_t backoff_ms = options_.connect_backoff_ms;
  for (std::uint32_t attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms = std::min(backoff_ms * 2, options_.reconnect_backoff_max_ms);
    }
    if (DialLinks(peer)) {
      return true;
    }
  }
  return false;
}

bool GeoNode::DialLinks(DatacenterId peer) {
  Peer& entry = peers_[peer];
  auto dial = [&](std::uint32_t link_kind) -> std::shared_ptr<net::Connection> {
    auto connection = transport_->Dial(
        entry.address,
        net::ConnectionHandler{
            // Peer links are one-directional: nothing flows back.
            [this](net::Connection& c, nw::Frame&&) {
              wire_errors_.fetch_add(1, std::memory_order_relaxed);
              c.Close();
            },
            // Either link dropping (peer death, partition) fails both over
            // to the re-dial loop; MarkLinkDown dedups the two posts.
            [this, peer](net::Connection&, nw::WireError) {
              loop_.Post([this, peer] { MarkLinkDown(peer); });
            }});
    if (connection == nullptr) {
      return nullptr;
    }
    gw::GeoHelloMsg hello;
    hello.dc = options_.dc;
    hello.num_dcs = options_.config.num_dcs;
    hello.partitions = options_.config.partitions_per_dc;
    hello.link_kind = link_kind;
    if (link_kind == gw::kMetadataLink && durability_ != nullptr &&
        options_.fsync == wal::FsyncPolicy::kPerCommit) {
      // What this node durably holds of the peer's updates: under
      // fsync-per-commit every applied inbound record hit stable storage
      // before processing, so SiteTime is a durable frontier and the peer
      // may skip its replay below it. A WAL-less node (or a lazier fsync
      // policy, which can lose a synced-looking tail) keeps the default 0.
      hello.resume_from = runtime_->receiver().site_time()[peer];
    }
    if (!connection->SendFrame(nw::MsgType::kGeoHello,
                               gw::EncodeGeoHello(hello))) {
      connection->Close();
      return nullptr;
    }
    return connection;
  };
  auto metadata = dial(gw::kMetadataLink);
  if (metadata == nullptr) {
    return false;
  }
  auto payloads = dial(gw::kPayloadLink);
  if (payloads == nullptr) {
    metadata->Close();
    return false;
  }
  entry.metadata = std::move(metadata);
  entry.payloads = std::move(payloads);
  return true;
}

void GeoNode::MarkLinkDown(DatacenterId peer) {
  // Before Start, ConnectPeer owns retries; after Stop, nothing may redial.
  if (!started_.load() || stopped_.load()) {
    return;
  }
  Peer& entry = peers_[peer];
  if (entry.down || entry.address.empty()) {
    return;
  }
  entry.down = true;
  if (entry.metadata != nullptr) {
    entry.metadata->Close();
  }
  if (entry.payloads != nullptr) {
    entry.payloads->Close();
  }
  entry.metadata.reset();
  entry.payloads.reset();
  entry.backoff_ms = std::max<std::uint32_t>(1, options_.reconnect_backoff_ms);
  loop_.ScheduleAfter(static_cast<std::uint64_t>(entry.backoff_ms) * 1000,
                      [this, peer] { TryReconnect(peer); });
}

void GeoNode::TryReconnect(DatacenterId peer) {
  if (stopped_.load()) {
    return;
  }
  Peer& entry = peers_[peer];
  if (!entry.down) {
    return;
  }
  // The dial runs on the loop thread: to a local/refusing endpoint it
  // resolves in microseconds, and serializing it here keeps all link state
  // single-threaded.
  if (!DialLinks(peer)) {
    entry.backoff_ms =
        std::min(entry.backoff_ms * 2, options_.reconnect_backoff_max_ms);
    loop_.ScheduleAfter(static_cast<std::uint64_t>(entry.backoff_ms) * 1000,
                        [this, peer] { TryReconnect(peer); });
    return;
  }
  entry.down = false;
  reconnects_.fetch_add(1, std::memory_order_relaxed);
  if (options_.retain_peer_history) {
    // Catch-up: replay retained frames in order, skipping what the peer
    // durably acked (its hello on the reverse link may have raised
    // peer_applied_ past frames retained before the drop). Whatever the
    // peer kept beyond its acks arrives as duplicates and its
    // uid/timestamp dedup absorbs them.
    const Timestamp applied = peer_applied_[peer];
    std::uint64_t replayed = 0;
    for (const Peer::Sent& sent : entry.history) {
      if (sent.ts != 0 && sent.ts <= applied) {
        continue;
      }
      SendOnLink(sent.type == nw::MsgType::kGeoPayload ? entry.payloads
                                                       : entry.metadata,
                 sent.type, sent.frame);
      ++replayed;
    }
    if (telemetry_ != nullptr && replayed > 0) {
      telemetry_->replayed_frames->Add(replayed);
    }
  }
}

void GeoNode::NotePeerApplied(DatacenterId peer, Timestamp applied) {
  if (applied <= peer_applied_[peer]) {
    return;
  }
  peer_applied_[peer] = applied;
  if (options_.retain_peer_history) {
    // Truncation is what keeps the history bounded against durable peers:
    // a frame the peer holds on stable storage never needs replaying.
    std::vector<Peer::Sent>& history = peers_[peer].history;
    history.erase(std::remove_if(history.begin(), history.end(),
                                 [applied](const Peer::Sent& sent) {
                                   return sent.ts != 0 && sent.ts <= applied;
                                 }),
                  history.end());
  }
}

void GeoNode::Start() {
  if (started_.exchange(true)) {
    return;
  }
  loop_.Start();
  loop_.Post([this] {
    runtime_->StartTimers();
    // Re-fan-out every install the WAL retained: the pre-crash fan-out may
    // not have reached every peer, and peers dedup whatever it did. The
    // metadata re-ships itself — recovery re-enqueued the ops for
    // stabilization.
    for (const auto& [partition, payload] : recovered_installs_) {
      for (DatacenterId k = 0; k < options_.config.num_dcs; ++k) {
        if (k != options_.dc) {
          SendPayload(options_.dc, k, partition, payload);
        }
      }
    }
    recovered_installs_.clear();
    if (durability_ != nullptr) {
      if (options_.fsync == wal::FsyncPolicy::kPerCommit) {
        AckTick();
      }
      if (options_.fsync == wal::FsyncPolicy::kInterval) {
        FsyncTick();
      }
      SnapshotTick();
    }
    if (telemetry_ != nullptr) {
      MetricsTick();
    }
  });
}

void GeoNode::Stop() {
  if (stopped_.exchange(true)) {
    return;
  }
  // Transport first: joins every delivery thread (no more inbound posts,
  // and blocked outbound sends fail fast), then the loop.
  transport_->Shutdown();
  loop_.Stop();
  if (durability_ != nullptr) {
    // Graceful shutdown syncs the tail; only kill -9 loses unsynced bytes.
    durability_->Flush();
  }
}

void GeoNode::AckTick() {
  if (stopped_.load()) {
    return;
  }
  // Acks carry the durable applied frontier per origin — sound to promise
  // only under fsync-per-commit (Start gates on that), and only useful to
  // peers retaining history, but sent to all: the peer decides what to
  // truncate.
  const VectorTimestamp& site_time = runtime_->receiver().site_time();
  for (DatacenterId peer = 0; peer < options_.config.num_dcs; ++peer) {
    if (peer == options_.dc || peers_[peer].address.empty() ||
        peers_[peer].down) {
      continue;
    }
    SendToPeer(peer, nw::MsgType::kGeoAck,
               gw::EncodeGeoAck({options_.dc, site_time[peer]}));
  }
  loop_.ScheduleAfter(options_.ack_interval_us, [this] { AckTick(); });
}

void GeoNode::SnapshotTick() {
  if (stopped_.load()) {
    return;
  }
  if (durability_->SnapshotDue()) {
    durability_->Snapshot(*runtime_, &sessions_, InstallTruncateMark());
  }
  loop_.ScheduleAfter(options_.snapshot_check_interval_us,
                      [this] { SnapshotTick(); });
}

void GeoNode::FsyncTick() {
  if (stopped_.load()) {
    return;
  }
  // Appends only sync by bytes; this is the time half of kInterval, so a
  // quiet node cannot hold an install un-synced indefinitely. A no-op when
  // nothing is un-synced.
  durability_->Flush();
  loop_.ScheduleAfter(wal::kFsyncIntervalUs, [this] { FsyncTick(); });
}

void GeoNode::MetricsTick() {
  if (stopped_.load()) {
    return;
  }
  Telemetry& t = *telemetry_;
  t.buffered_payloads->Set(
      static_cast<std::int64_t>(runtime_->BufferedPayloads()));
  t.pending_applies->Set(
      static_cast<std::int64_t>(runtime_->PendingApplyCount()));
  // Cumulative runtime/node counters mirror as deltas so the registry
  // series stay monotone across this node's lifetime.
  const auto mirror = [](metrics::Counter& counter, std::uint64_t now,
                         std::uint64_t* mark) {
    if (now > *mark) {
      counter.Add(now - *mark);
      *mark = now;
    }
  };
  mirror(*t.updates_installed, runtime_->updates_installed(),
         &t.mirrored_installed);
  mirror(*t.payload_duplicates, runtime_->payload_duplicates(),
         &t.mirrored_duplicates);
  mirror(*t.reconnects, reconnects_.load(std::memory_order_relaxed),
         &t.mirrored_reconnects);
  mirror(*t.wire_errors, wire_errors_.load(std::memory_order_relaxed),
         &t.mirrored_wire_errors);
  mirror(*t.send_failures, send_failures_.load(std::memory_order_relaxed),
         &t.mirrored_send_failures);
  loop_.ScheduleAfter(options_.metrics_interval_us, [this] { MetricsTick(); });
}

Timestamp GeoNode::InstallTruncateMark() const {
  // Every peer must durably hold an install before its WAL record may go.
  // peer_applied_ starts at 0 and WAL-less peers ack 0, so either pins the
  // log — truncation only proceeds in an all-durable deployment.
  Timestamp mark = runtime_->eunomia().StableTime();
  for (DatacenterId peer = 0; peer < options_.config.num_dcs; ++peer) {
    if (peer != options_.dc) {
      mark = std::min(mark, peer_applied_[peer]);
    }
  }
  return mark;
}

void GeoNode::ClientRead(ClientId client, Key key,
                         std::function<void()> done) {
  loop_.Post([this, client, key, done = std::move(done)]() mutable {
    runtime_->ClientRead(client, key, std::move(done));
  });
}

void GeoNode::ClientUpdate(ClientId client, Key key, Value value,
                           std::function<void()> done) {
  loop_.Post([this, client, key, value = std::move(value),
              done = std::move(done)]() mutable {
    runtime_->ClientUpdate(client, key, std::move(value), std::move(done));
  });
}

void GeoNode::PausePayloadsTo(DatacenterId peer, bool paused) {
  loop_.RunBlocking([this, peer, paused] {
    Peer& entry = peers_[peer];
    entry.paused = paused;
    if (!paused) {
      for (const std::string& frame : entry.parked) {
        SendOnLink(entry.payloads, nw::MsgType::kGeoPayload, frame);
      }
      entry.parked.clear();
    }
  });
}

// --- Environment -------------------------------------------------------------

void GeoNode::ScheduleAfter(DatacenterId, std::uint64_t delay_us,
                            std::function<void()> fn) {
  loop_.ScheduleAfter(delay_us, std::move(fn));
}

void GeoNode::ClientHop(DatacenterId, std::function<void()> fn) {
  // No artificial latency: the real network already charged it.
  loop_.Post(std::move(fn));
}

void GeoNode::RunOnPartition(DatacenterId, PartitionId, std::uint64_t, bool,
                             std::function<void()> fn) {
  // No cost model: real work takes real time on the loop.
  loop_.Post(std::move(fn));
}

void GeoNode::SendMetadataBatch(DatacenterId, PartitionId,
                                std::vector<OpRecord> batch) {
  // Partition and Eunomia node live in this process: a local hop.
  loop_.Post([this, batch = std::move(batch)] {
    runtime_->OnMetadataBatch(batch);
  });
}

void GeoNode::SendHeartbeat(DatacenterId, PartitionId partition,
                            Timestamp ts) {
  loop_.Post([this, partition, ts] { runtime_->OnHeartbeat(partition, ts); });
}

void GeoNode::ChargeEunomia(DatacenterId, std::uint64_t) {}

void GeoNode::SendOnLink(const std::shared_ptr<net::Connection>& link,
                         nw::MsgType type, const std::string& payload) {
  if (link == nullptr || !link->SendFrame(type, payload)) {
    send_failures_.fetch_add(1, std::memory_order_relaxed);
  }
}

void GeoNode::SendToPeer(DatacenterId to, nw::MsgType type, std::string frame,
                         Timestamp ts) {
  Peer& entry = peers_[to];
  if (options_.retain_peer_history && type != nw::MsgType::kGeoAck) {
    // Acks are ephemeral link control — replaying a stale one could only
    // mislead the peer about what this node currently holds.
    entry.history.push_back({type, frame, ts});
  }
  if (type == nw::MsgType::kGeoPayload && entry.paused) {
    entry.parked.push_back(std::move(frame));
    return;
  }
  if (entry.down) {
    // Lost for now: with history retention the reconnect replay re-ships
    // it; without, this is the same loss a dead TCP send would be.
    send_failures_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::shared_ptr<net::Connection>& link =
      type == nw::MsgType::kGeoPayload ? entry.payloads : entry.metadata;
  if (link == nullptr || !link->SendFrame(type, frame)) {
    send_failures_.fetch_add(1, std::memory_order_relaxed);
    // A local send failure is as authoritative as a reader-side close (the
    // usual death signal): fail the pair over to the re-dial loop.
    MarkLinkDown(to);
  }
}

void GeoNode::SendRemoteMetadata(DatacenterId, DatacenterId to,
                                 std::vector<RemoteUpdate> batch) {
  // Chunked onto one FIFO connection: the shipping order — which the
  // remote receiver's Algorithm 5 queues rely on — is preserved.
  const std::size_t max_per_frame =
      gw::MaxGeoUpdatesPerFrame(options_.config.num_dcs);
  for (std::size_t i = 0; i < batch.size(); i += max_per_frame) {
    const std::size_t n = std::min(max_per_frame, batch.size() - i);
    // Batches ship in stabilization order, so the chunk's last update
    // carries its highest own-component timestamp — the frontier a peer
    // must have durably passed for this frame to be dead.
    const RemoteUpdate& last = batch[i + n - 1];
    SendToPeer(to, nw::MsgType::kGeoMetaBatch,
               gw::EncodeGeoMetaBatch(options_.dc, batch.data() + i, n),
               last.vts[last.origin]);
  }
}

void GeoNode::SendFrontier(DatacenterId, DatacenterId to, Timestamp frontier) {
  // A beacon is covered by the frontier it announces: once the peer
  // durably applied up to it, the announcement carries no information.
  SendToPeer(to, nw::MsgType::kGeoFrontier,
             gw::EncodeGeoFrontier({options_.dc, frontier}), frontier);
}

void GeoNode::SendPayload(DatacenterId, DatacenterId to, PartitionId partition,
                          RemotePayload payload) {
  gw::GeoPayloadMsg msg;
  msg.partition = partition;
  msg.payload = std::move(payload);
  const Timestamp ts = msg.payload.vts[msg.payload.origin];
  SendToPeer(to, nw::MsgType::kGeoPayload, gw::EncodeGeoPayload(msg), ts);
}

void GeoNode::SendApply(DatacenterId, PartitionId, std::function<void()> fn) {
  loop_.Post(std::move(fn));
}

// --- inbound peer links ------------------------------------------------------

net::ConnectionHandler GeoNode::MakeInboundHandler() {
  // Per-connection state lives in the handler closure; transports invoke a
  // connection's callbacks from a single thread, so no lock is needed.
  struct Inbound {
    bool hello_done = false;
    DatacenterId peer_dc = 0;
    std::uint32_t link_kind = gw::kMetadataLink;
  };
  auto state = std::make_shared<Inbound>();
  net::ConnectionHandler handler;
  handler.on_frame = [this, state](net::Connection& connection,
                                   nw::Frame&& frame) {
    auto reject = [this, &connection] {
      wire_errors_.fetch_add(1, std::memory_order_relaxed);
      connection.Close();
    };
    if (!state->hello_done) {
      gw::GeoHelloMsg hello;
      if (frame.type != nw::MsgType::kGeoHello ||
          !gw::DecodeGeoHello(frame.payload, &hello) ||
          hello.protocol_version != nw::kProtocolVersion ||
          hello.num_dcs != options_.config.num_dcs ||
          hello.partitions != options_.config.partitions_per_dc ||
          hello.dc >= options_.config.num_dcs || hello.dc == options_.dc ||
          (hello.link_kind != gw::kMetadataLink &&
           hello.link_kind != gw::kPayloadLink)) {
        reject();
        return;
      }
      state->hello_done = true;
      state->peer_dc = hello.dc;
      state->link_kind = hello.link_kind;
      if (hello.link_kind == gw::kMetadataLink && hello.resume_from > 0) {
        // The dialer names what it durably holds of OUR updates; raise the
        // mark so our reconnect replay to it skips the covered prefix.
        loop_.Post([this, peer = hello.dc, applied = hello.resume_from] {
          NotePeerApplied(peer, applied);
        });
      }
      return;
    }
    switch (frame.type) {
      case nw::MsgType::kGeoMetaBatch: {
        gw::GeoMetaBatchMsg msg;
        if (state->link_kind != gw::kMetadataLink ||
            !gw::DecodeGeoMetaBatch(frame.payload, &msg) ||
            msg.origin != state->peer_dc) {
          reject();
          return;
        }
        for (const RemoteUpdate& u : msg.updates) {
          if (u.origin != msg.origin ||
              u.partition >= options_.config.partitions_per_dc ||
              u.vts.size() != options_.config.num_dcs) {
            reject();
            return;
          }
        }
        loop_.Post([this, updates = std::move(msg.updates)] {
          runtime_->OnRemoteMetadata(updates);
        });
        return;
      }
      case nw::MsgType::kGeoFrontier: {
        gw::GeoFrontierMsg msg;
        if (state->link_kind != gw::kMetadataLink ||
            !gw::DecodeGeoFrontier(frame.payload, &msg) ||
            msg.origin != state->peer_dc) {
          reject();
          return;
        }
        loop_.Post([this, msg] { runtime_->OnFrontier(msg.origin, msg.frontier); });
        return;
      }
      case nw::MsgType::kGeoPayload: {
        gw::GeoPayloadMsg msg;
        if (state->link_kind != gw::kPayloadLink ||
            !gw::DecodeGeoPayload(frame.payload, &msg) ||
            msg.payload.origin != state->peer_dc ||
            msg.partition >= options_.config.partitions_per_dc ||
            msg.payload.vts.size() != options_.config.num_dcs) {
          reject();
          return;
        }
        loop_.Post([this, partition = msg.partition,
                    payload = std::move(msg.payload)]() mutable {
          runtime_->OnPayload(partition, std::move(payload));
        });
        return;
      }
      case nw::MsgType::kGeoAck: {
        gw::GeoAckMsg msg;
        if (state->link_kind != gw::kMetadataLink ||
            !gw::DecodeGeoAck(frame.payload, &msg) ||
            msg.dc != state->peer_dc) {
          reject();
          return;
        }
        loop_.Post([this, peer = msg.dc, applied = msg.applied] {
          NotePeerApplied(peer, applied);
        });
        return;
      }
      default:
        reject();
        return;
    }
  };
  handler.on_close = [](net::Connection&, nw::WireError) {};
  return handler;
}

}  // namespace eunomia::geo::rt
