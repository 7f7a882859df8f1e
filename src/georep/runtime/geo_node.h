// GeoNode — the real-world binding of the geo-replication runtime: one
// datacenter of the EunomiaKV deployment behind a net::EpollTransport (epoll
// TCP).
//
// A node hosts the full DatacenterRuntime on its transport's single io
// loop, which provides the serialization the Environment contract requires,
// and its PeerLinks (hellos, catch-up, acks, re-dials), whose two links per
// peer it dials as transport connections — the §5 data/metadata separation
// made literal. A rejected inbound frame closes the connection.
//
// One thread does everything: the io loop that owns every socket of the
// node also runs its timers and protocol. Partitions, stabilizer and
// receiver share it, so the local hops between them run inline: a client
// operation, an inbound frame and a timer tick each run to completion,
// with everything they trigger inside this datacenter (the apply of a
// released remote update, a flushed batch reaching the stabilizer) done
// before they return. An inbound frame reaches PeerLinks on the thread
// that read it; its effect is an on-loop post that runs in the same
// iteration. An outbound frame is queued by the thread that owns its
// socket and flushed with the iteration's other frames in one writev.
// Only client calls from other threads cross threads (and wake the loop).
// A re-dial runs on the loop, so its connect() stalls the node for at most
// net::EpollTransport::kDialTimeoutMs per attempt (an unreachable peer
// host; a refused connect returns at once).
//
// Lifecycle: Listen -> ConnectPeer (for every peer) -> Start -> client
// traffic -> Stop. Stop shuts the (dedicated) transport down, which stops
// the loop; afterwards every accessor is safe from any thread, while live
// only through RunBlocking. Client done callbacks run on the loop once the
// operation completed locally.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/types.h"
#include "src/georep/config.h"
#include "src/georep/runtime/datacenter_runtime.h"
#include "src/georep/runtime/environment.h"
#include "src/georep/runtime/durability.h"
#include "src/georep/runtime/peer_links.h"
#include "src/georep/visibility.h"
#include "src/metrics/counter.h"
#include "src/metrics/gauge.h"
#include "src/net/epoll_transport.h"
#include "src/net/io_loop.h"
#include "src/net/transport.h"
#include "src/wal/disk.h"
#include "src/wal/log_writer.h"

namespace eunomia::geo::rt {

class GeoNode final : private Environment, private LinkSeam {
 public:
  // The link settings (re-dial backoff) are PeerLinks'.
  struct Options : PeerLinks::Options {
    DatacenterId dc = 0;
    // Deployment shape + protocol timers; the simulator-only knobs (costs,
    // clock skew, latencies) are ignored.
    GeoConfig config;
    // ConnectPeer dials up to this many times, pausing with the re-dial
    // backoff — a peer that boots slightly later (or is restarting) is not
    // a permanent failure.
    std::uint32_t connect_attempts = 5;
    // Durability: when durability_disk is set the node write-ahead-logs
    // every local install and inbound frame before processing it, snapshots
    // periodically, and recovers from the disk in the constructor — a
    // kill -9'd node rejoins from its own WAL and needs only incremental
    // catch-up from peers. Only a node with a WAL can catch a peer up (see
    // PeerLinks). The disk must outlive the node.
    wal::Disk* durability_disk = nullptr;
    // kInterval syncs every wal::kFsyncIntervalBytes or kFsyncIntervalUs.
    wal::FsyncPolicy fsync = wal::FsyncPolicy::kPerCommit;
    // Observability: when set, the node registers its per-dc series there
    // and mirrors runtime state into them every metrics_interval_us.
    metrics::Registry* metrics = nullptr;
    std::uint64_t metrics_interval_us = 250'000;
  };

  // The transport becomes dedicated to this node, which runs on its io
  // loop; Stop() shuts it down. Throws std::invalid_argument unless the
  // transport has exactly one io loop (Options::num_io_threads = 1).
  GeoNode(net::EpollTransport* transport, Options options);
  ~GeoNode() override;

  GeoNode(const GeoNode&) = delete;
  GeoNode& operator=(const GeoNode&) = delete;

  // Starts listening for peer links. Returns the bound address ("" on
  // failure).
  std::string Listen(const std::string& address);

  // Dials the metadata + payload links to `peer`, retrying up to
  // Options::connect_attempts times with the doubling backoff. False once
  // every attempt failed. The address is remembered: after Start, the node
  // re-dials it in the background whenever its links are down.
  bool ConnectPeer(DatacenterId peer, const std::string& address);

  // Starts the protocol timers, after ConnectPeer.
  void Start();

  // Idempotent. Afterwards no callback is running or will run.
  void Stop();

  // --- client API ------------------------------------------------------------
  void ClientRead(ClientId client, Key key, std::function<void()> done);
  void ClientUpdate(ClientId client, Key key, Value value,
                    std::function<void()> done);

  // --- introspection ---------------------------------------------------------
  DatacenterId dc() const { return options_.dc; }
  // Runs fn on the node's loop and blocks until done — the safe way to read
  // runtime/tracker state while the node is live.
  void RunBlocking(const std::function<void()>& fn) { loop_->RunBlocking(fn); }
  const DatacenterRuntime& runtime() const { return *runtime_; }
  VisibilityTracker& tracker() { return tracker_; }
  const VisibilityTracker& tracker() const { return tracker_; }

  // Frames rejected on inbound links (protocol violations) and outbound
  // sends that failed (peer missing / connection down). Any thread.
  std::uint64_t wire_errors() const { return wire_errors_.load(); }
  std::uint64_t send_failures() const { return links_->send_failures(); }
  // Peer links successfully re-established after a mid-run drop.
  std::uint64_t reconnects() const { return links_->reconnects(); }

  // Loop thread (or stopped node) only, like runtime(). durability() is
  // null without Options::durability_disk.
  const GeoDurability* durability() const { return durability_.get(); }
  Timestamp peer_applied(DatacenterId peer) const {
    return links_->peer_applied(peer);
  }

  // Test hook for the causality e2e: while paused, payloads to `peer` are
  // parked (metadata keeps flowing, so its go-aheads must wait); resuming
  // sends them in order.
  void PausePayloadsTo(DatacenterId peer, bool paused);

 private:
  // The transport side of one peer's links.
  struct Peer {
    std::string address;  // as dialed; background re-dials re-dial it
    std::shared_ptr<net::Connection> metadata;
    std::shared_ptr<net::Connection> payloads;
    bool paused = false;
    // Encoded kGeoPayload frames parked while paused.
    std::vector<std::string> parked;
  };

  // Environment implementation (all invoked from the loop thread, or from
  // the constructor's recovery before Start). The four local hops run
  // inline. ScheduleAfter defers until Start, so before Start the loop
  // (which runs from the transport's construction) touches no runtime or
  // link state, and ConnectPeer may dial from the caller's thread.
  std::uint64_t Now() const override { return net::IoLoop::Now(); }
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

  // LinkSeam over transport connections (`from` is always this node). Dial
  // runs on the caller's thread (ConnectPeer) or the loop (re-dials); the
  // rest on the loop.
  bool Dial(DatacenterId from, DatacenterId peer,
            wire::GeoHelloMsg hello) override;
  bool SendOnMetadataLink(DatacenterId from, DatacenterId peer,
                          net::wire::MsgType type, std::string frame) override;
  bool SendOnPayloadLink(DatacenterId from, DatacenterId peer,
                         PartitionId partition, std::string frame) override;
  void Close(DatacenterId from, DatacenterId peer) override;

  net::ConnectionHandler MakeInboundHandler();
  // Self-rescheduling loop timer (Options::metrics only): samples the
  // receiver and loop queue gauges and delta-mirrors the cumulative
  // counters into the registry.
  void MetricsTick();

  // Per-dc registry series plus the marks MetricsTick deltas against.
  struct Telemetry {
    std::shared_ptr<metrics::Gauge> buffered_payloads;
    std::shared_ptr<metrics::Gauge> pending_applies;
    std::shared_ptr<metrics::Gauge> loop_pending_tasks;
    std::shared_ptr<metrics::Counter> updates_installed;
    std::shared_ptr<metrics::Counter> payload_duplicates;
    std::shared_ptr<metrics::Counter> reconnects;
    std::shared_ptr<metrics::Counter> replayed_frames;
    std::shared_ptr<metrics::Counter> wire_errors;
    std::shared_ptr<metrics::Counter> send_failures;
    std::shared_ptr<metrics::Counter> wal_append_failures;
    std::uint64_t mirrored_installed = 0;
    std::uint64_t mirrored_duplicates = 0;
    std::uint64_t mirrored_reconnects = 0;
    std::uint64_t mirrored_wire_errors = 0;
    std::uint64_t mirrored_send_failures = 0;
    std::uint64_t mirrored_wal_append_failures = 0;
  };

  net::EpollTransport* const transport_;
  net::IoLoop* const loop_;  // the transport's only io loop
  const Options options_;
  std::unique_ptr<Telemetry> telemetry_;
  VisibilityTracker tracker_;
  UidAllocator uids_;
  SessionMap sessions_;
  std::unique_ptr<GeoDurability> durability_;  // before runtime_: its hooks
  std::unique_ptr<DatacenterRuntime> runtime_;
  std::unique_ptr<PeerLinks> links_;  // after runtime_: it drives it
  std::vector<Peer> peers_;  // indexed by DatacenterId; [dc()] unused
  // Loop-owned (the constructor's recovery aside): true once Start's task
  // ran; until then ScheduleAfter queues (delay, fn) in deferred_.
  bool running_ = false;
  std::vector<std::pair<std::uint64_t, std::function<void()>>> deferred_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<std::uint64_t> wire_errors_{0};
};

}  // namespace eunomia::geo::rt
