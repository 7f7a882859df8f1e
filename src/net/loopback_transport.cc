#include "src/net/loopback_transport.h"

#include "src/common/thread_name.h"

namespace eunomia::net {

// One endpoint of an in-process connection pair. The peer's SendBytes lands
// encoded frames in inbox_; DeliveryLoop drains them through the shared
// session receiver. A close tears down both endpoints, like a socket.
class LoopbackTransport::Conn : public Connection,
                                public std::enable_shared_from_this<Conn> {
 public:
  void SetPeer(std::shared_ptr<Conn> peer) { peer_ = std::move(peer); }
  void SetHandler(ConnectionHandler handler) { handler_ = std::move(handler); }

  void StartDelivery() {
    delivery_ = std::thread([this] {
      SetCurrentThreadName("net-loopback");
      DeliveryLoop();
    });
  }

  void Close() override { CloseInternal(wire::WireError::kNone); }

  // Called by the transport only; a connection never joins itself.
  void JoinDelivery() {
    if (delivery_.joinable()) {
      delivery_.join();
    }
  }

 protected:
  bool SendBytes(std::string bytes) override {
    const std::shared_ptr<Conn> peer = peer_.lock();
    return peer != nullptr && peer->Enqueue(std::move(bytes));
  }

 private:
  bool Enqueue(std::string bytes) {
    sync::MutexLock lock(mu_);
    while (inbox_bytes_ >= kInboxCapacityBytes && !closing_) {
      space_cv_.Wait(mu_);
    }
    if (closing_) {
      return false;
    }
    inbox_bytes_ += bytes.size();
    inbox_.push_back(std::move(bytes));
    deliver_cv_.NotifyOne();
    return true;
  }

  void DeliveryLoop() {
    for (;;) {
      std::string bytes;
      {
        sync::MutexLock lock(mu_);
        while (inbox_.empty() && !closing_ && !eof_) {
          deliver_cv_.Wait(mu_);
        }
        if (closing_) {
          break;  // local hard close: drop whatever was still queued
        }
        if (inbox_.empty()) {
          break;  // eof_ and fully drained: the peer's FIN, after its data
        }
        // Peer-initiated close (eof_) still delivers what was already
        // enqueued — the FIN-after-data behavior of a socket, which the
        // clean "submit, heartbeat, close" client shutdown depends on.
        bytes = std::move(inbox_.front());
        inbox_.pop_front();
        inbox_bytes_ -= bytes.size();
        space_cv_.NotifyOne();
      }
      if (!receiver_.Deliver(*this, handler_, bytes.data(), bytes.size())) {
        CloseInternal(receiver_.error());
        break;
      }
    }
    if (handler_.on_close) {
      wire::WireError error;
      {
        sync::MutexLock lock(mu_);
        error = close_error_;
      }
      handler_.on_close(*this, error);
    }
    // No callback can follow on_close; release the handler's captures.
    // Handlers commonly close a cycle (a client session owns this
    // connection, the handler owns the session), and dropping them here is
    // what lets such pairs be reclaimed after teardown.
    handler_ = ConnectionHandler{};
  }

  void CloseInternal(wire::WireError error) {
    {
      sync::MutexLock lock(mu_);
      if (!closing_) {
        closing_ = true;
        close_error_ = error;
      }
    }
    closed_.store(true, std::memory_order_release);
    deliver_cv_.NotifyAll();
    space_cv_.NotifyAll();
    if (const std::shared_ptr<Conn> peer = peer_.lock()) {
      peer->OnPeerClosed();
    }
  }

  // The peer closed: no more input will arrive, but everything it already
  // sent stays deliverable. Sends from this side are pointless now.
  void OnPeerClosed() {
    {
      sync::MutexLock lock(mu_);
      eof_ = true;
    }
    closed_.store(true, std::memory_order_release);
    deliver_cv_.NotifyAll();
  }

  sync::Mutex mu_{"LoopbackTransport::Conn::mu_", sync::kRankConnQueue};
  sync::CondVar deliver_cv_;
  sync::CondVar space_cv_;
  std::deque<std::string> inbox_ GUARDED_BY(mu_);
  std::size_t inbox_bytes_ GUARDED_BY(mu_) = 0;
  bool closing_ GUARDED_BY(mu_) = false;
  bool eof_ GUARDED_BY(mu_) = false;
  wire::WireError close_error_ GUARDED_BY(mu_) = wire::WireError::kNone;

  std::weak_ptr<Conn> peer_;  // weak: the pair must not keep itself alive
  ConnectionHandler handler_;
  internal::FrameReceiver receiver_;
  std::thread delivery_;
};

LoopbackTransport::~LoopbackTransport() { Shutdown(); }

std::string LoopbackTransport::Listen(const std::string& address,
                                      AcceptHandler handler) {
  if (address.empty() || handler == nullptr) {
    return "";
  }
  sync::MutexLock lock(mu_);
  if (shutdown_ || listeners_.count(address) != 0) {
    return "";
  }
  listeners_[address] = std::move(handler);
  return address;
}

std::shared_ptr<Connection> LoopbackTransport::Dial(const std::string& address,
                                                    ConnectionHandler handler) {
  AcceptHandler accept;
  {
    sync::MutexLock lock(mu_);
    if (shutdown_) {
      return nullptr;
    }
    const auto it = listeners_.find(address);
    if (it == listeners_.end()) {
      return nullptr;
    }
    accept = it->second;
  }
  auto client = std::make_shared<Conn>();
  auto server = std::make_shared<Conn>();
  client->SetPeer(server);
  server->SetPeer(client);
  client->SetHandler(std::move(handler));
  // The accept callback runs outside mu_ — it may call back into the
  // transport — and before delivery starts, so no frame races the setup.
  server->SetHandler(accept(server));
  client->StartDelivery();
  server->StartDelivery();
  {
    sync::MutexLock lock(mu_);
    if (!shutdown_) {
      connections_.push_back(client);
      connections_.push_back(server);
      return client;
    }
  }
  // Lost the race with Shutdown: tear the fresh pair down ourselves.
  client->Close();
  client->JoinDelivery();
  server->JoinDelivery();
  return nullptr;
}

void LoopbackTransport::Shutdown() {
  std::vector<std::shared_ptr<Conn>> connections;
  {
    sync::MutexLock lock(mu_);
    shutdown_ = true;
    listeners_.clear();
    connections.swap(connections_);
  }
  for (const auto& connection : connections) {
    connection->Close();
  }
  for (const auto& connection : connections) {
    connection->JoinDelivery();
  }
}

}  // namespace eunomia::net
