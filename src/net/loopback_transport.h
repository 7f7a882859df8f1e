// LoopbackTransport: the in-process Transport backend.
//
// Listeners are names in a per-transport registry; Dial pairs two
// connection endpoints whose outbound frames land in the peer's bounded
// inbox (a queue of encoded frames) and are drained by one delivery thread
// per endpoint. The session contract is the one EpollTransport keeps, so
// code written against loopback behaves identically on sockets, minus the
// kernel. Every frame still round-trips through the wire encoder and the
// session decoder, so framing, checksums and FIFO sequence enforcement are
// exercised even in fully in-process tests.
//
// Backpressure: an inbox holds at most kInboxCapacityBytes of encoded
// frames; Send blocks until the peer's delivery thread drains below the
// cap (or either side closes).
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/sync.h"
#include "src/net/transport.h"

namespace eunomia::net {

class LoopbackTransport : public Transport {
 public:
  LoopbackTransport() = default;
  ~LoopbackTransport() override;

  std::string Listen(const std::string& address, AcceptHandler handler) override;
  std::shared_ptr<Connection> Dial(const std::string& address,
                                   ConnectionHandler handler) override;
  void Shutdown() override;

  static constexpr std::size_t kInboxCapacityBytes = 8u << 20;

 private:
  class Conn;

  sync::Mutex mu_{"LoopbackTransport::mu_", sync::kRankTransport};
  bool shutdown_ GUARDED_BY(mu_) = false;
  std::map<std::string, AcceptHandler> listeners_ GUARDED_BY(mu_);
  std::vector<std::shared_ptr<Conn>> connections_ GUARDED_BY(mu_);
};

}  // namespace eunomia::net
