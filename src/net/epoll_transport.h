// EpollTransport: the Transport backend — real sockets, built on async
// event loops.
//
// A small pool of IoLoop threads owns every socket: the listener accepts on
// loop 0, accepted/dialed connections are assigned round-robin, and all of a
// connection's I/O and callbacks happen on its owning loop thread. Reads are
// edge-triggered and drained to EAGAIN into the loop's pooled scratch
// buffer, with complete frames decoded in place (FrameDecoder's fast path).
// Writes go through a bounded per-connection outbox that the loop drains
// with one sendmsg/writev of up to kMaxIovPerWritev coalesced frames per
// syscall; EPOLLOUT is armed only while the kernel buffer is full.
//
// Backpressure: SendFrame blocks while the outbox is at capacity — except
// on io-loop threads, which must never block on an outbox they drain.
// Instead the connection stops reading (drops EPOLLIN) while its outbox is
// over capacity, so a peer that stops reading our acks eventually stops
// getting its frames processed: boundedness via TCP's own window instead of
// a blocked loop.
//
// The session contract of net::Transport: FIFO frames, on_frame/on_close
// from one thread (the owning loop), on_close exactly once, handler dropped
// after on_close.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/sync.h"
#include "src/net/io_loop.h"
#include "src/net/transport.h"

namespace eunomia::net {

class EpollTransport : public Transport {
 public:
  struct Options {
    // I/O threads in the pool. 0 = auto: scaled to the machine, at least 1.
    unsigned num_io_threads = 0;
  };

  EpollTransport() : EpollTransport(Options{}) {}
  explicit EpollTransport(Options options);
  ~EpollTransport() override;

  std::string Listen(const std::string& address, AcceptHandler handler) override;
  std::shared_ptr<Connection> Dial(const std::string& address,
                                   ConnectionHandler handler) override;
  void Shutdown() override;

  static constexpr std::size_t kOutboxCapacityBytes = 8u << 20;
  static constexpr int kMaxIovPerWritev = 64;

 private:
  class Conn;
  class Listener;

  IoLoop& NextLoop();
  // Accept-path completion: wraps the fd, installs the handler, registers
  // the conn on its loop. Runs on loop 0 (the listener's dispatch).
  void HandleAccepted(int fd, const AcceptHandler& handler);
  // Joins nothing (loop threads are shared): drops finished connections
  // from the registry so their fds/buffers free up before Shutdown.
  void ReapFinished();
  // Runs `fn` on `loop` and blocks until it completed.
  static void PostAndWait(IoLoop& loop, std::function<void()> fn);

  std::vector<std::unique_ptr<IoLoop>> loops_;
  std::atomic<unsigned> next_loop_{0};

  sync::Mutex mu_{"EpollTransport::mu_", sync::kRankTransport};
  bool shutdown_ GUARDED_BY(mu_) = false;
  std::unique_ptr<Listener> listener_ GUARDED_BY(mu_);
  std::vector<std::shared_ptr<Conn>> connections_ GUARDED_BY(mu_);
};

}  // namespace eunomia::net
