// net::EunomiaServer — hosts an EunomiaService (or FtEunomiaService) behind
// a Transport: the piece that turns the in-process stabilizer into a real
// networked service (§6–§7: load generators connect to Eunomia over FIFO
// links; here the link is a transport connection).
//
// Protocol per connection (all frames defined in src/net/wire.h):
//
//   client                         server
//   ------------------------------------------------------------------
//   Hello{version, partitions} ->
//                               <- HelloAck{version, service partitions}
//   SubmitBatch{p, ops}        ->
//                               <- SubmitAck{cumulative ops received}
//   Heartbeat{p, ts}           ->
//   Subscribe                  ->
//                               <- SubscribeAck{next stream seq}
//                               <- StableBatch{seq, ops}   (repeating)
//
// Any protocol violation — a frame before Hello, a version mismatch, an
// out-of-range partition, a malformed payload — closes the connection.
// The per-channel FIFO contract (§3.1) maps onto the session layer: one
// partition's batches must all travel over one connection, which both
// transports deliver in order (and the wire sequence verifies).
//
// The stable stream is fanned out via the service's AddStableListener hook:
// one listener, installed at Start, multiplexes every subscribed connection.
// Stream frames carry a dense per-server sequence so a subscriber can prove
// it observed the exact emission order.
//
// Lifecycle: the server owns its service but not the transport. Stop()
// shuts the transport down (joining every connection thread) before
// stopping the service, so a disconnecting client can never race service
// teardown — and the hardened Stop drops any submission that slips past.
// The transport is therefore dedicated to this server once Start is called.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/sync.h"
#include "src/eunomia/service.h"
#include "src/metrics/histogram.h"
#include "src/net/transport.h"

namespace eunomia::net {

class EunomiaServer {
 public:
  struct Options {
    // Service shape, mirrored into EunomiaService::Options or
    // FtEunomiaService::Options depending on fault_tolerant.
    bool fault_tolerant = false;
    std::uint32_t num_partitions = 1;
    std::uint32_t num_shards = 1;    // non-FT stabilizer workers
    std::uint32_t num_replicas = 3;  // FT replica count
    std::uint64_t stable_period_us = 500;
    // Optional local consumer of the stable stream, independent of network
    // subscribers (eunomiad uses it for --log-stable).
    StableSink sink;
    // Ops per StableBatch frame; bigger emissions are split into several
    // frames with consecutive stream sequence numbers. Clamped to the
    // wire-format cap; only tests normally lower it.
    std::uint32_t max_ops_per_stable_frame = wire::kMaxOpsPerFrame;
    // Durability passthrough (non-FT only; the FT service's durability story
    // is replication). With durability.disk set, the hosted service recovers
    // from it at construction and logs every accepted batch before acking.
    ServiceDurability durability;
    // Observability: forwarded to the hosted service (per-shard/partition
    // series) and used by the server itself for the server-side ack latency
    // histogram (submit-frame decode to ack send). Null: off.
    metrics::Registry* metrics = nullptr;
  };

  EunomiaServer(Transport* transport, Options options);
  ~EunomiaServer();

  EunomiaServer(const EunomiaServer&) = delete;
  EunomiaServer& operator=(const EunomiaServer&) = delete;

  // Starts the service and begins listening on `address` (transport
  // syntax; "127.0.0.1:0" binds an ephemeral TCP port). Returns the bound
  // address, or "" on failure.
  std::string Start(const std::string& address);

  // Shuts the transport down, then the service. Idempotent.
  void Stop();

  std::uint64_t ops_stabilized() const;
  std::uint64_t ops_submitted_remote() const {
    return ops_submitted_remote_.load(std::memory_order_relaxed);
  }
  std::uint64_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }
  std::uint64_t connections_rejected() const {
    return connections_rejected_.load(std::memory_order_relaxed);
  }
  const std::string& address() const { return address_; }

 private:
  struct Peer {
    std::shared_ptr<Connection> connection;
    bool hello_done = false;
    bool subscribed = false;
    std::uint64_t ops_received = 0;
  };

  ConnectionHandler MakeHandler(const std::shared_ptr<Connection>& connection);
  void OnFrame(Connection& connection, wire::Frame&& frame);
  void OnStable(const std::vector<OpRecord>& ops);
  // Drops the peer and closes its connection (protocol violation).
  void Reject(Connection& connection);

  void SubmitToService(PartitionId partition, std::vector<OpRecord> batch);
  // An empty batch vector recycled from the service's shard pipeline (or a
  // fresh one for services without a pool); submit decoding resizes it
  // without allocating, closing the acquire → submit → drain → recycle loop
  // for remote producers too.
  std::vector<OpRecord> AcquireBatchBuffer();
  void HeartbeatToService(PartitionId partition, Timestamp ts);

  Transport* const transport_;
  const Options options_;
  std::unique_ptr<EunomiaService> service_;
  std::unique_ptr<FtEunomiaService> ft_service_;
  // Submit-to-ack service time; null when Options::metrics is unset.
  std::shared_ptr<metrics::Histogram> ack_latency_us_;

  // Guards peers_ and stream_seq_. Emission snapshots subscribers under the
  // lock and sends outside it, so a slow subscriber blocks only the merge
  // thread, never unrelated connections' frame handling.
  sync::Mutex mu_{"net::EunomiaServer::mu_", sync::kRankServerPeers};
  std::unordered_map<std::uint64_t, Peer> peers_ GUARDED_BY(mu_);
  std::uint64_t stream_seq_ GUARDED_BY(mu_) = 0;

  std::atomic<bool> started_{false};
  std::atomic<std::uint64_t> ops_submitted_remote_{0};
  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> connections_rejected_{0};
  std::string address_;
};

}  // namespace eunomia::net
