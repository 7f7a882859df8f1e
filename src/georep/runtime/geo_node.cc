#include "src/georep/runtime/geo_node.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "src/clock/physical_clock.h"
#include "src/georep/runtime/geo_wire.h"
#include "src/metrics/registry.h"

namespace eunomia::geo::rt {

namespace gw = ::eunomia::geo::rt::wire;
namespace nw = ::eunomia::net::wire;

namespace {

net::IoLoop* SoleLoopOf(net::EpollTransport* transport) {
  net::IoLoop* loop = transport->SingleLoop();
  if (loop == nullptr) {
    throw std::invalid_argument(
        "GeoNode runs on its transport's io loop: the transport needs "
        "exactly one (EpollTransport::Options::num_io_threads = 1)");
  }
  return loop;
}

}  // namespace

GeoNode::GeoNode(net::EpollTransport* transport, Options options)
    : transport_(transport),
      loop_(SoleLoopOf(transport)),
      options_(std::move(options)),
      // num_datacenters=2: a per-node tracker sees exactly one visibility
      // report per remote update (its own), so the destination-side stub
      // records reclaim after that single report.
      tracker_(options_.config.timeline_window_us, /*num_datacenters=*/2),
      // Coordination-free uid streams: uid ≡ dc (mod num_dcs).
      uids_(options_.dc, options_.config.num_dcs),
      peers_(options_.config.num_dcs) {
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
    telemetry_->loop_pending_tasks = reg.AddGauge(
        "eunomia_georep_loop_pending_tasks",
        "Tasks queued on the node's loop and not yet taken by a turn "
        "(posts plus pending timers)",
        dc_label);
    telemetry_->updates_installed = reg.AddCounter(
        "eunomia_georep_updates_installed_total",
        "Updates installed locally (origin-side client writes)", dc_label);
    telemetry_->payload_duplicates = reg.AddCounter(
        "eunomia_georep_payload_duplicates_total",
        "Inbound payloads dropped by uid/timestamp dedup (catch-up replays "
        "land here)",
        dc_label);
    telemetry_->reconnects = reg.AddCounter(
        "eunomia_georep_reconnects_total",
        "Peer links re-established after a mid-run drop", dc_label);
    telemetry_->replayed_frames = reg.AddCounter(
        "eunomia_georep_replayed_frames_total",
        "Frames sent by WAL catch-up to a peer whose links came up",
        dc_label);
    telemetry_->wire_errors = reg.AddCounter(
        "eunomia_georep_wire_errors_total",
        "Inbound frames rejected as protocol violations", dc_label);
    telemetry_->send_failures = reg.AddCounter(
        "eunomia_georep_send_failures_total",
        "Outbound sends that failed (peer missing or connection down)",
        dc_label);
    telemetry_->wal_append_failures = reg.AddCounter(
        "eunomia_georep_wal_append_failures_total",
        "WAL appends and snapshot writes that failed; the node keeps "
        "serving from memory, without durability",
        dc_label);
  }
  if (options_.durability_disk != nullptr) {
    GeoDurabilityOptions dopts;
    dopts.disk = options_.durability_disk;
    dopts.dc = options_.dc;
    dopts.num_dcs = options_.config.num_dcs;
    dopts.partitions = options_.config.partitions_per_dc;
    dopts.fsync = options_.fsync;
    durability_ = std::make_unique<GeoDurability>(std::move(dopts));
  }
  // Real nodes read one shared monotonic clock; skew comes from the
  // deployment, not from an injected model.
  std::vector<PhysicalClock> clocks(options_.config.partitions_per_dc);
  runtime_ = std::make_unique<DatacenterRuntime>(
      options_.dc, options_.config, static_cast<Environment*>(this), &tracker_,
      &uids_, &sessions_, std::move(clocks), durability_.get());
  links_ = std::make_unique<PeerLinks>(
      options_, runtime_.get(), static_cast<Environment*>(this),
      static_cast<LinkSeam*>(this), durability_.get(),
      telemetry_ != nullptr ? telemetry_->replayed_frames.get() : nullptr);
  if (durability_ != nullptr) {
    // Pre-Start, so the remote applies recovery replays run inline on the
    // constructing thread.
    durability_->Recover(runtime_.get(), &sessions_);
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
  // On the caller's thread: until Start the loop leaves node state alone.
  peers_[peer].address = address;
  const std::uint32_t attempts = std::max<std::uint32_t>(
      1, options_.connect_attempts);
  std::uint32_t backoff_ms = options_.reconnect_backoff_ms;
  for (std::uint32_t attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms = std::min(backoff_ms * 2, options_.reconnect_backoff_max_ms);
    }
    if (links_->Dial(peer)) {
      return true;
    }
  }
  return false;
}

bool GeoNode::Dial(DatacenterId, DatacenterId peer, gw::GeoHelloMsg hello) {
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
            // to the re-dial loop; OnLinkDown dedups the two posts. Posted,
            // not inline: it closes the connection reporting the drop.
            [this, peer](net::Connection&, nw::WireError) {
              ScheduleAfter(options_.dc, 0,
                            [this, peer] { links_->OnLinkDown(peer); });
            }});
    if (connection == nullptr) {
      return nullptr;
    }
    hello.link_kind = link_kind;
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

bool GeoNode::SendOnMetadataLink(DatacenterId, DatacenterId peer,
                                 nw::MsgType type, std::string frame) {
  const std::shared_ptr<net::Connection>& link = peers_[peer].metadata;
  return link != nullptr && link->SendFrame(type, frame);
}

bool GeoNode::SendOnPayloadLink(DatacenterId, DatacenterId peer, PartitionId,
                                std::string frame) {
  Peer& entry = peers_[peer];
  if (entry.paused) {
    entry.parked.push_back(std::move(frame));
    return true;
  }
  return entry.payloads != nullptr &&
         entry.payloads->SendFrame(nw::MsgType::kGeoPayload, frame);
}

void GeoNode::Close(DatacenterId, DatacenterId peer) {
  Peer& entry = peers_[peer];
  for (std::shared_ptr<net::Connection>* link :
       {&entry.metadata, &entry.payloads}) {
    if (*link != nullptr) {
      (*link)->Close();
      link->reset();
    }
  }
}

void GeoNode::Start() {
  if (started_.exchange(true)) {
    return;
  }
  loop_->Post([this] {
    // What came in before Start runs first, in arrival order, as it would
    // on a loop that started here.
    running_ = true;
    for (auto& [delay_us, fn] : std::exchange(deferred_, {})) {
      if (delay_us == 0) {
        fn();
      } else {
        loop_->ScheduleAfter(delay_us, std::move(fn));
      }
    }
    runtime_->StartTimers();
    links_->Start();
    if (telemetry_ != nullptr) {
      MetricsTick();
    }
  });
}

void GeoNode::Stop() {
  if (stopped_.exchange(true)) {
    return;
  }
  // Links first (the closes the shutdown reports must not re-dial), then
  // the transport, which closes every connection and stops the loop.
  links_->Stop();
  transport_->Shutdown();
  if (durability_ != nullptr) {
    // Graceful shutdown syncs the tail; only kill -9 loses unsynced bytes.
    durability_->Flush();
  }
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
  t.loop_pending_tasks->Set(static_cast<std::int64_t>(loop_->PendingTasks()));
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
  mirror(*t.reconnects, links_->reconnects(), &t.mirrored_reconnects);
  mirror(*t.wire_errors, wire_errors_.load(std::memory_order_relaxed),
         &t.mirrored_wire_errors);
  mirror(*t.send_failures, links_->send_failures(),
         &t.mirrored_send_failures);
  if (durability_ != nullptr) {
    mirror(*t.wal_append_failures, durability_->append_failures(),
           &t.mirrored_wal_append_failures);
  }
  loop_->ScheduleAfter(options_.metrics_interval_us, [this] { MetricsTick(); });
}

void GeoNode::ClientRead(ClientId client, Key key,
                         std::function<void()> done) {
  loop_->Post([this, client, key, done = std::move(done)]() mutable {
    runtime_->ClientRead(client, key, std::move(done));
  });
}

void GeoNode::ClientUpdate(ClientId client, Key key, Value value,
                           std::function<void()> done) {
  loop_->Post([this, client, key, value = std::move(value),
              done = std::move(done)]() mutable {
    runtime_->ClientUpdate(client, key, std::move(value), std::move(done));
  });
}

void GeoNode::PausePayloadsTo(DatacenterId peer, bool paused) {
  loop_->RunBlocking([this, peer, paused] {
    Peer& entry = peers_[peer];
    entry.paused = paused;
    if (!paused) {
      std::vector<std::string> parked = std::move(entry.parked);
      entry.parked.clear();
      for (std::string& frame : parked) {
        if (!SendOnPayloadLink(options_.dc, peer, 0, std::move(frame))) {
          links_->OnLinkDown(peer);
          break;
        }
      }
    }
  });
}

// --- Environment -------------------------------------------------------------

void GeoNode::ScheduleAfter(DatacenterId, std::uint64_t delay_us,
                            std::function<void()> fn) {
  if (!running_) {
    deferred_.emplace_back(delay_us, std::move(fn));
    return;
  }
  loop_->ScheduleAfter(delay_us, std::move(fn));
}

// The four local hops run inline: partitions, the Eunomia stabilizer and
// the receiver share this node's loop thread, so a hop is a call, not a
// queued task (the contract in environment.h). A flushed batch thus reaches
// EunomiaCore before the stabilizer tick of the same turn.

void GeoNode::ClientHop(DatacenterId, std::function<void()> fn) {
  // No artificial latency: the real network already charged it.
  fn();
}

void GeoNode::RunOnPartition(DatacenterId, PartitionId, std::uint64_t, bool,
                             std::function<void()> fn) {
  // No cost model: real work takes real time on the loop.
  fn();
}

void GeoNode::SendMetadataBatch(DatacenterId, PartitionId partition,
                                std::vector<OpRecord> batch,
                                Timestamp frontier) {
  runtime_->OnMetadataBatch(partition, batch, frontier);
}

void GeoNode::ChargeEunomia(DatacenterId, std::uint64_t) {}

void GeoNode::SendRemoteMetadata(DatacenterId, DatacenterId to,
                                 std::vector<RemoteUpdate> batch) {
  links_->SendRemoteMetadata(to, batch);
}

void GeoNode::SendFrontier(DatacenterId, DatacenterId to, Timestamp frontier) {
  links_->SendFrontier(to, frontier);
}

void GeoNode::SendPayload(DatacenterId, DatacenterId to, PartitionId partition,
                          RemotePayload payload) {
  links_->SendPayload(to, partition, payload);
}

void GeoNode::SendApply(DatacenterId, PartitionId, std::function<void()> fn) {
  fn();
}

// --- inbound peer links ------------------------------------------------------

net::ConnectionHandler GeoNode::MakeInboundHandler() {
  // Per-connection state lives in the handler closure; the transport
  // invokes a connection's callbacks on the node's loop, so no lock is
  // needed, and the frame reaches PeerLinks on the thread that read it.
  auto link = std::make_shared<PeerLinks::Inbound>();
  net::ConnectionHandler handler;
  handler.on_frame = [this, link](net::Connection& connection,
                                  nw::Frame&& frame) {
    if (!links_->OnFrame(link.get(), frame.type, frame.payload)) {
      wire_errors_.fetch_add(1, std::memory_order_relaxed);
      connection.Close();
    }
  };
  handler.on_close = [](net::Connection&, nw::WireError) {};
  return handler;
}

}  // namespace eunomia::geo::rt
