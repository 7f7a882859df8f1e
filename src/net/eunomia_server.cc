#include "src/net/eunomia_server.h"

#include <algorithm>
#include <chrono>

#include "src/metrics/registry.h"

namespace eunomia::net {

namespace {

std::uint64_t NowMicros() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

EunomiaServer::EunomiaServer(Transport* transport, Options options)
    : transport_(transport), options_(std::move(options)) {
  if (options_.metrics != nullptr) {
    ack_latency_us_ = options_.metrics->AddHistogram(
        "eunomia_server_ack_latency_microseconds",
        "Server-side submit service time: SubmitBatch frame decoded to "
        "SubmitAck handed to the transport, in microseconds");
  }
  if (options_.fault_tolerant) {
    FtEunomiaService::Options service_options;
    service_options.num_partitions = options_.num_partitions;
    service_options.num_replicas = options_.num_replicas;
    service_options.stable_period_us = options_.stable_period_us;
    service_options.sink = options_.sink;
    ft_service_ = std::make_unique<FtEunomiaService>(std::move(service_options));
    ft_service_->AddStableListener(
        [this](const std::vector<OpRecord>& ops) { OnStable(ops); });
  } else {
    EunomiaService::Options service_options;
    service_options.num_partitions = options_.num_partitions;
    service_options.num_shards = options_.num_shards;
    service_options.stable_period_us = options_.stable_period_us;
    service_options.sink = options_.sink;
    service_options.durability = options_.durability;
    service_options.metrics = options_.metrics;
    service_ = std::make_unique<EunomiaService>(std::move(service_options));
    service_->AddStableListener(
        [this](const std::vector<OpRecord>& ops) { OnStable(ops); });
  }
}

EunomiaServer::~EunomiaServer() { Stop(); }

std::string EunomiaServer::Start(const std::string& address) {
  if (started_.exchange(true)) {
    return address_;
  }
  if (service_ != nullptr) {
    service_->Start();
  } else {
    ft_service_->Start();
  }
  address_ = transport_->Listen(
      address, [this](const std::shared_ptr<Connection>& connection) {
        return MakeHandler(connection);
      });
  if (address_.empty()) {
    if (service_ != nullptr) {
      service_->Stop();
    } else {
      ft_service_->Stop();
    }
    started_.store(false);
  }
  return address_;
}

void EunomiaServer::Stop() {
  if (!started_.exchange(false)) {
    return;
  }
  // Transport first: after Shutdown no frame handler is running, so no
  // submission can race the service teardown below. (A handler that already
  // passed the running() check hits the service's own hardened Stop path.)
  transport_->Shutdown();
  if (service_ != nullptr) {
    service_->Stop();
  } else {
    ft_service_->Stop();
  }
  sync::MutexLock lock(mu_);
  peers_.clear();
}

std::uint64_t EunomiaServer::ops_stabilized() const {
  return service_ != nullptr ? service_->ops_stabilized()
                             : ft_service_->ops_stabilized();
}

ConnectionHandler EunomiaServer::MakeHandler(
    const std::shared_ptr<Connection>& connection) {
  connections_accepted_.fetch_add(1, std::memory_order_relaxed);
  {
    sync::MutexLock lock(mu_);
    peers_[connection->id()].connection = connection;
  }
  ConnectionHandler handler;
  handler.on_frame = [this](Connection& c, wire::Frame&& frame) {
    OnFrame(c, std::move(frame));
  };
  handler.on_close = [this](Connection& c, wire::WireError) {
    sync::MutexLock lock(mu_);
    peers_.erase(c.id());
  };
  return handler;
}

void EunomiaServer::Reject(Connection& connection) {
  connections_rejected_.fetch_add(1, std::memory_order_relaxed);
  {
    sync::MutexLock lock(mu_);
    peers_.erase(connection.id());
  }
  connection.Close();
}

void EunomiaServer::SubmitToService(PartitionId partition,
                                    std::vector<OpRecord> batch) {
  if (service_ != nullptr) {
    service_->SubmitBatch(partition, std::move(batch));
  } else {
    ft_service_->SubmitBatch(partition, std::move(batch));
  }
}

std::vector<OpRecord> EunomiaServer::AcquireBatchBuffer() {
  return service_ != nullptr ? service_->AcquireBatchBuffer()
                             : std::vector<OpRecord>{};
}

void EunomiaServer::HeartbeatToService(PartitionId partition, Timestamp ts) {
  if (service_ != nullptr) {
    service_->Heartbeat(partition, ts);
  } else {
    ft_service_->Heartbeat(partition, ts);
  }
}

void EunomiaServer::OnFrame(Connection& connection, wire::Frame&& frame) {
  // Runs on the connection's transport thread; per-connection state needs
  // mu_ only because the stable fanout reads it from the merge thread.
  switch (frame.type) {
    case wire::MsgType::kHello: {
      wire::HelloMsg hello;
      if (!wire::DecodeHello(frame.payload, &hello) ||
          hello.protocol_version != wire::kProtocolVersion) {
        Reject(connection);
        return;
      }
      bool accepted = false;
      {
        sync::MutexLock lock(mu_);
        const auto it = peers_.find(connection.id());
        // A double Hello is a protocol violation.
        if (it != peers_.end() && !it->second.hello_done) {
          it->second.hello_done = true;
          accepted = true;
        }
      }
      if (!accepted) {
        Reject(connection);
        return;
      }
      wire::HelloAckMsg ack;
      ack.num_partitions = options_.num_partitions;
      connection.SendFrame(wire::MsgType::kHelloAck,
                           wire::EncodeHelloAck(ack));
      return;
    }
    case wire::MsgType::kSubmitBatch: {
      const std::uint64_t received_at =
          ack_latency_us_ != nullptr ? NowMicros() : 0;
      wire::SubmitBatchMsg msg;
      msg.ops = AcquireBatchBuffer();
      if (!wire::DecodeSubmitBatch(frame.payload, &msg) ||
          msg.partition >= options_.num_partitions) {
        Reject(connection);
        return;
      }
      std::uint64_t cumulative = 0;
      bool accepted = false;
      {
        sync::MutexLock lock(mu_);
        const auto it = peers_.find(connection.id());
        if (it != peers_.end() && it->second.hello_done) {
          it->second.ops_received += msg.ops.size();
          cumulative = it->second.ops_received;
          accepted = true;
        }
      }
      if (!accepted) {
        Reject(connection);
        return;
      }
      ops_submitted_remote_.fetch_add(msg.ops.size(),
                                      std::memory_order_relaxed);
      SubmitToService(msg.partition, std::move(msg.ops));
      // The ack is sent after the service accepted the batch: cumulative
      // acked ops are exactly the client's safe-to-release window.
      wire::SubmitAckMsg ack;
      ack.ops_received = cumulative;
      connection.SendFrame(wire::MsgType::kSubmitAck,
                           wire::EncodeSubmitAck(ack));
      if (ack_latency_us_ != nullptr) {
        ack_latency_us_->Record(NowMicros() - received_at);
      }
      return;
    }
    case wire::MsgType::kHeartbeat: {
      wire::HeartbeatMsg msg;
      if (!wire::DecodeHeartbeat(frame.payload, &msg) ||
          msg.partition >= options_.num_partitions) {
        Reject(connection);
        return;
      }
      bool hello_done = false;
      {
        sync::MutexLock lock(mu_);
        const auto it = peers_.find(connection.id());
        hello_done = it != peers_.end() && it->second.hello_done;
      }
      if (!hello_done) {
        Reject(connection);
        return;
      }
      HeartbeatToService(msg.partition, msg.ts);
      return;
    }
    case wire::MsgType::kSubscribe: {
      wire::SubscribeAckMsg ack;
      bool accepted = false;
      {
        sync::MutexLock lock(mu_);
        const auto it = peers_.find(connection.id());
        if (it != peers_.end() && it->second.hello_done) {
          it->second.subscribed = true;
          // Read under mu_ so the first StableBatch this subscriber sees
          // carries exactly this sequence number.
          ack.next_stream_seq = stream_seq_;
          accepted = true;
        }
      }
      if (!accepted) {
        Reject(connection);
        return;
      }
      connection.SendFrame(wire::MsgType::kSubscribeAck,
                           wire::EncodeSubscribeAck(ack));
      return;
    }
    default:
      // Server-to-client types (or anything else) from a client.
      Reject(connection);
      return;
  }
}

void EunomiaServer::OnStable(const std::vector<OpRecord>& ops) {
  // Runs inside the service's StableFanout::Emit, which serializes
  // emitters, so stream_seq_ assignment order matches send order. An
  // emission bigger than one frame is split into several StableBatch
  // frames with consecutive stream sequence numbers.
  const std::size_t frame_cap = std::min<std::size_t>(
      std::max<std::uint32_t>(1, options_.max_ops_per_stable_frame),
      wire::kMaxOpsPerFrame);
  const std::size_t chunks = std::max<std::size_t>(
      1, (ops.size() + frame_cap - 1) / frame_cap);
  std::vector<std::shared_ptr<Connection>> subscribers;
  std::uint64_t seq = 0;
  {
    sync::MutexLock lock(mu_);
    seq = stream_seq_;
    stream_seq_ += chunks;
    for (const auto& [id, peer] : peers_) {
      if (peer.subscribed) {
        subscribers.push_back(peer.connection);
      }
    }
  }
  if (subscribers.empty()) {
    return;
  }
  std::size_t offset = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t count =
        std::min<std::size_t>(ops.size() - offset, frame_cap);
    // Each subscriber's frame differs only in the header (its session
    // sequence), so build the body once and copy it per extra subscriber —
    // the single-subscriber case sends with no copy at all.
    std::string frame =
        wire::EncodeStableBatchFrame(seq + c, ops.data() + offset, count);
    for (std::size_t i = 0; i + 1 < subscribers.size(); ++i) {
      subscribers[i]->SendFrameBody(wire::MsgType::kStableBatch,
                                    std::string(frame));
    }
    subscribers.back()->SendFrameBody(wire::MsgType::kStableBatch,
                                      std::move(frame));
    offset += count;
  }
}

}  // namespace eunomia::net
