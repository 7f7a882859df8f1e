#include "src/net/epoll_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <thread>
#include <utility>

#include "src/net/net_metrics.h"

namespace eunomia::net {

namespace {

// Reads drain to EAGAIN in chunks of the loop's pooled scratch buffer, but
// yield back to the loop after this many chunks (re-posting a continuation)
// so one firehose connection cannot starve its loop-mates. Flushes yield
// likewise after this many sendmsg calls.
constexpr int kMaxChunksPerDispatch = 16;
constexpr int kMaxWritevsPerFlush = 16;

bool ParseAddress(const std::string& address, sockaddr_in* out,
                  std::string* host) {
  const std::size_t colon = address.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= address.size()) {
    return false;
  }
  *host = address.substr(0, colon);
  char* end = nullptr;
  const unsigned long port = std::strtoul(address.c_str() + colon + 1, &end, 10);
  if (*end != '\0' || port > 65535) {
    return false;
  }
  std::memset(out, 0, sizeof(*out));
  out->sin_family = AF_INET;
  out->sin_port = htons(static_cast<std::uint16_t>(port));
  return inet_pton(AF_INET, host->c_str(), &out->sin_addr) == 1;
}

void SetNoDelay(int fd) {
  int one = 1;
  (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

// A nonblocking connect in progress: waits for the handshake, at most
// kDialTimeoutMs. True once the socket is connected.
bool AwaitConnected(int fd) {
  pollfd pfd{fd, POLLOUT, 0};
  int ready;
  do {
    ready = ::poll(&pfd, 1, EpollTransport::kDialTimeoutMs);
  } while (ready < 0 && errno == EINTR);
  int error = 0;
  socklen_t len = sizeof(error);
  return ready == 1 &&
         ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &error, &len) == 0 &&
         error == 0;
}

}  // namespace

// One epoll-owned connection. Loop-thread-only fields (read/write state,
// epoll interest, the frame receiver) carry no locks: every access happens
// on the owning loop's thread. Cross-thread senders touch only the
// out_mu_-guarded outbox and the closing flags.
class EpollTransport::Conn : public Connection,
                             public IoLoop::FdHandler,
                             public std::enable_shared_from_this<Conn> {
 public:
  Conn(IoLoop* loop, int fd) : loop_(loop), fd_(fd) {}

  void SetHandler(ConnectionHandler handler) { handler_ = std::move(handler); }

  // Posts epoll registration to the owning loop. Posted before any other
  // task can reference this conn, so FIFO task order guarantees the fd is
  // registered before any flush kick or close nudge runs.
  void Register() {
    loop_->Post([self = shared_from_this()] { self->RegisterOnLoop(); });
  }

  void Close() override { CloseInternal(wire::WireError::kNone, false); }
  void CloseHard() { CloseInternal(wire::WireError::kNone, true); }

  // True once teardown fully completed on the loop thread: on_close fired,
  // fd removed from epoll and closed. The transport reaps such conns.
  bool finished() const { return finished_.load(std::memory_order_acquire); }

  void OnEvents(std::uint32_t events) override {
    // epoll dispatches through a raw pointer. Once teardown publishes
    // finished_, another thread's ReapFinished may drop the registry's
    // reference, so pin the conn until this dispatch returns.
    const std::shared_ptr<Conn> self = shared_from_this();
    if (events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) {
      HandleReadable();
    }
    if (events & (EPOLLOUT | EPOLLERR)) {
      FlushOutbox();
    }
  }

 protected:
  bool SendBytes(std::string bytes) override {
    // An io-loop thread must never block on an outbox only loop threads
    // drain (the server acks from the loop that read the submit). Loop
    // threads enqueue unconditionally; boundedness comes from the read
    // throttle — the conn stops reading while its outbox is over capacity,
    // so no more acks get generated for it.
    const bool may_block = IoLoop::Current() == nullptr;
    sync::MutexLock lock(out_mu_);
    if (may_block) {
      if (outbox_bytes_ >= kOutboxCapacityBytes && !closing_) {
        // One stall episode, however many waits it takes to drain.
        NetMetrics::Get().outbox_stalls->Increment();
      }
      while (outbox_bytes_ >= kOutboxCapacityBytes && !closing_) {
        space_cv_.Wait(out_mu_);
      }
    }
    if (closing_) {
      return false;
    }
    outbox_bytes_ += bytes.size();
    outbox_.push_back(std::move(bytes));
    if (!flush_scheduled_) {
      flush_scheduled_ = true;
      lock.Unlock();
      // From the loop thread this needs no wakeup: the task runs after the
      // current dispatch, which is exactly what coalesces every frame
      // generated this iteration into one writev.
      loop_->Post([self = shared_from_this()] { self->FlushOutbox(); });
    }
    return true;
  }

 private:
  void RegisterOnLoop() {
    if (finished_.load(std::memory_order_relaxed)) {
      return;
    }
    registered_ = true;
    interest_ = EPOLLIN | EPOLLRDHUP | EPOLLET;
    if (!loop_->Add(fd_, this, interest_)) {
      HardFailOnLoop();
    }
  }

  // hard = true tears the socket down immediately (protocol error, write
  // failure, transport shutdown); hard = false flushes accepted frames and
  // FINs once drained. Reads stop once the loop runs the close nudge, either
  // way. Any thread.
  void CloseInternal(wire::WireError error, bool hard) {
    {
      sync::MutexLock lock(out_mu_);
      if (!closing_) {
        closing_ = true;
        close_error_ = error;
      }
      if (hard) {
        hard_close_ = true;
      }
    }
    closed_.store(true, std::memory_order_release);
    space_cv_.NotifyAll();
    // Only the loop thread may touch the fd: a conn whose teardown already
    // finished has closed it, and the number may now belong to another
    // connection (a second Close, e.g. from a client's destructor, would
    // shut that one down).
    loop_->Post(
        [self = shared_from_this(), hard] { self->CloseNudgeOnLoop(hard); });
  }

  void CloseNudgeOnLoop(bool hard) {
    if (finished_.load(std::memory_order_relaxed)) {
      return;
    }
    // Makes the socket read EOF so the read side finishes.
    ::shutdown(fd_, hard ? SHUT_RDWR : SHUT_RD);
    if (!read_done_) {
      HandleReadable();  // observes EOF / reset, fires on_close
    }
    FlushOutbox();  // graceful: drain + FIN; hard: discard
    MaybeFinish();
  }

  // Loop thread: read to EAGAIN through the loop's pooled scratch buffer,
  // decoding frames in place.
  void HandleReadable() {
    if (read_done_) {
      return;
    }
    std::vector<char>& buffer = loop_->scratch();
    int chunks = 0;
    for (;;) {
      const ssize_t n = ::read(fd_, buffer.data(), buffer.size());
      if (n > 0) {
        if (!receiver_.Deliver(*this, handler_,
                               buffer.data(), static_cast<std::size_t>(n))) {
          FinishRead(receiver_.error(), /*hard=*/true);
          return;
        }
        if (!read_paused_) {
          bool over;
          {
            sync::MutexLock lock(out_mu_);
            over = outbox_bytes_ >= kOutboxCapacityBytes;
          }
          if (over) {
            // Inbound throttle: stop reading until the outbox drains below
            // half capacity (FlushOutbox re-arms). TCP's receive window
            // then pushes back on the peer.
            read_paused_ = true;
            UpdateInterest();
          }
        }
        if (read_paused_) {
          return;
        }
        if (++chunks >= kMaxChunksPerDispatch) {
          // Yield to the loop's other connections; continue via a task
          // (edge-triggered readiness would not re-fire on its own).
          loop_->Post([self = shared_from_this()] { self->HandleReadable(); });
          return;
        }
        continue;
      }
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          return;  // drained
        }
      }
      // n == 0 with no partial frame is the peer's clean FIN; EOF mid-frame
      // or a hard read error is a torn stream — unless we initiated the
      // teardown ourselves.
      wire::WireError error = wire::WireError::kNone;
      if (!closed() && (n < 0 || receiver_.mid_frame())) {
        error = wire::WireError::kTruncated;
      }
      FinishRead(error, /*hard=*/false);
      return;
    }
  }

  // Loop thread: the read side is over. Fires on_close (exactly once) and
  // hands the write side its closing orders.
  void FinishRead(wire::WireError error, bool hard) {
    if (read_done_) {
      return;
    }
    read_done_ = true;
    wire::WireError reported;
    {
      sync::MutexLock lock(out_mu_);
      if (!closing_) {
        closing_ = true;
        close_error_ = error;
      }
      if (hard) {
        hard_close_ = true;
      }
      reported = close_error_;
    }
    closed_.store(true, std::memory_order_release);
    ::shutdown(fd_, hard ? SHUT_RDWR : SHUT_RD);
    space_cv_.NotifyAll();
    if (handler_.on_close) {
      handler_.on_close(*this, reported);
    }
    // No callback can follow on_close; release the handler's captures (the
    // client-session/connection ownership cycle breaks here).
    handler_ = ConnectionHandler{};
    FlushOutbox();
    MaybeFinish();
  }

  // Loop thread: drain the outbox with one sendmsg of up to
  // kMaxIovPerWritev coalesced frames per syscall. Arms EPOLLOUT only when
  // the kernel buffer pushes back; sends the FIN once a closing conn is
  // fully drained.
  void FlushOutbox() {
    if (write_done_) {
      return;
    }
    NetMetrics& metrics = NetMetrics::Get();
    int writes = 0;
    for (;;) {
      iovec iov[kMaxIovPerWritev];
      int iovcnt = 0;
      bool hard = false;
      bool drained_closing = false;
      {
        sync::MutexLock lock(out_mu_);
        flush_scheduled_ = false;
        hard = hard_close_;
        if (hard) {
          outbox_.clear();
          outbox_bytes_ = 0;
          front_offset_ = 0;
          space_cv_.NotifyAll();
        } else {
          // deque growth never moves existing elements and senders only
          // push_back, so the fronts snapshotted here stay pinned while we
          // writev outside the lock.
          std::size_t skip = front_offset_;
          for (auto it = outbox_.begin();
               it != outbox_.end() && iovcnt < kMaxIovPerWritev; ++it) {
            iov[iovcnt].iov_base = const_cast<char*>(it->data()) + skip;
            iov[iovcnt].iov_len = it->size() - skip;
            skip = 0;
            ++iovcnt;
          }
          drained_closing = iovcnt == 0 && closing_;
        }
      }
      if (hard) {
        write_done_ = true;  // the hard closer shuts the socket down
        MaybeFinish();
        return;
      }
      if (iovcnt == 0) {
        if (drained_closing) {
          ::shutdown(fd_, SHUT_WR);  // graceful drain complete: FIN
          write_done_ = true;
          MaybeFinish();
          return;
        }
        if (write_armed_) {
          write_armed_ = false;
          UpdateInterest();
        }
        return;
      }
      msghdr msg{};
      msg.msg_iov = iov;
      msg.msg_iovlen = static_cast<std::size_t>(iovcnt);
      // MSG_NOSIGNAL: a peer reset must surface as EPIPE, not SIGPIPE.
      const ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          if (!write_armed_) {
            write_armed_ = true;
            UpdateInterest();
          }
          return;
        }
        HardFailOnLoop();
        return;
      }
      metrics.writev_frames->Record(static_cast<std::uint64_t>(iovcnt));
      bool resume_read = false;
      {
        sync::MutexLock lock(out_mu_);
        std::size_t remaining = static_cast<std::size_t>(n);
        while (remaining > 0) {
          std::string& front = outbox_.front();
          const std::size_t avail = front.size() - front_offset_;
          if (remaining >= avail) {
            remaining -= avail;
            outbox_bytes_ -= front.size();
            outbox_.pop_front();
            front_offset_ = 0;
          } else {
            front_offset_ += remaining;
            remaining = 0;
          }
        }
        if (outbox_bytes_ < kOutboxCapacityBytes) {
          space_cv_.NotifyAll();
        }
        resume_read = read_paused_ && outbox_bytes_ < kOutboxCapacityBytes / 2;
      }
      if (resume_read) {
        read_paused_ = false;
        // EPOLL_CTL_MOD re-checks readiness, so bytes that arrived while
        // paused fire EPOLLIN again despite edge triggering.
        UpdateInterest();
      }
      if (++writes == kMaxWritevsPerFlush) {
        // Yield to the loop's other work, as reads do: a drained backlog
        // of megabytes would otherwise hold every task of the loop (a geo
        // node's clients) for milliseconds. A task continues the flush.
        sync::MutexLock lock(out_mu_);
        if (!flush_scheduled_) {
          flush_scheduled_ = true;
          lock.Unlock();
          loop_->Post([self = shared_from_this()] { self->FlushOutbox(); });
        }
        return;
      }
    }
  }

  // Loop thread: a write failed hard (EPIPE/ECONNRESET). Tear the whole
  // connection down now; the read side observes the shutdown and fires
  // on_close.
  void HardFailOnLoop() {
    {
      sync::MutexLock lock(out_mu_);
      if (!closing_) {
        closing_ = true;
        close_error_ = wire::WireError::kNone;
      }
      hard_close_ = true;
      outbox_.clear();
      outbox_bytes_ = 0;
      front_offset_ = 0;
      space_cv_.NotifyAll();
    }
    closed_.store(true, std::memory_order_release);
    ::shutdown(fd_, SHUT_RDWR);
    write_done_ = true;
    if (!read_done_) {
      HandleReadable();
    }
    MaybeFinish();
  }

  void UpdateInterest() {
    if (!registered_ || finished_.load(std::memory_order_relaxed) ||
        (read_done_ && write_done_)) {
      return;
    }
    std::uint32_t events = EPOLLET | EPOLLRDHUP;
    if (!read_done_ && !read_paused_) {
      events |= EPOLLIN;
    }
    if (!write_done_ && write_armed_) {
      events |= EPOLLOUT;
    }
    if (events != interest_) {
      interest_ = events;
      (void)loop_->Modify(fd_, this, events);
    }
  }

  void MaybeFinish() {
    if (!read_done_ || !write_done_ ||
        finished_.load(std::memory_order_relaxed)) {
      return;
    }
    if (registered_) {
      loop_->Remove(fd_, this);
      registered_ = false;
    }
    ::close(fd_);
    finished_.store(true, std::memory_order_release);
  }

  IoLoop* const loop_;
  const int fd_;

  // Loop-thread-only state.
  ConnectionHandler handler_;
  internal::FrameReceiver receiver_;
  bool registered_ = false;
  bool read_done_ = false;
  bool write_done_ = false;
  bool read_paused_ = false;
  bool write_armed_ = false;
  std::uint32_t interest_ = 0;
  std::size_t front_offset_ = 0;  // bytes of outbox_ front already written

  std::atomic<bool> finished_{false};

  sync::Mutex out_mu_{"EpollTransport::Conn::out_mu_", sync::kRankConnQueue};
  sync::CondVar space_cv_;
  std::deque<std::string> outbox_ GUARDED_BY(out_mu_);
  std::size_t outbox_bytes_ GUARDED_BY(out_mu_) = 0;
  bool flush_scheduled_ GUARDED_BY(out_mu_) = false;
  bool closing_ GUARDED_BY(out_mu_) = false;
  bool hard_close_ GUARDED_BY(out_mu_) = false;
  wire::WireError close_error_ GUARDED_BY(out_mu_) = wire::WireError::kNone;
};

// The accepting socket, registered level-triggered on loop 0 (a stall —
// e.g. fd exhaustion — must re-fire without a new SYN).
class EpollTransport::Listener : public IoLoop::FdHandler {
 public:
  Listener(EpollTransport* transport, IoLoop* loop, int fd,
           AcceptHandler handler)
      : transport_(transport),
        loop_(loop),
        fd_(fd),
        handler_(std::move(handler)) {}

  IoLoop* loop() const { return loop_; }
  int fd() const { return fd_; }

  void OnEvents(std::uint32_t) override {
    for (;;) {
      const int fd =
          ::accept4(fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR || errno == ECONNABORTED || errno == EPROTO) {
          continue;  // client aborted its handshake while queued
        }
        if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
            errno == ENOMEM) {
          // fd/buffer exhaustion recovers once connections are reaped; back
          // off briefly (level-triggered registration re-fires).
          transport_->ReapFinished();
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        return;  // EAGAIN: backlog drained
      }
      transport_->HandleAccepted(fd, handler_);
    }
  }

  void CloseOnLoop() {
    loop_->Remove(fd_, this);
    ::close(fd_);
  }

 private:
  EpollTransport* const transport_;
  IoLoop* const loop_;
  const int fd_;
  const AcceptHandler handler_;
};

EpollTransport::EpollTransport(Options options) {
  unsigned n = options.num_io_threads;
  if (n == 0) {
    // A few loops go a long way: each owns many sockets. Scale gently with
    // the machine so small hosts (and CI runners) get one loop.
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    n = std::min(4u, std::max(1u, hw / 4));
  }
  loops_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    loops_.push_back(std::make_unique<IoLoop>("net-io-" + std::to_string(i)));
  }
}

EpollTransport::~EpollTransport() { Shutdown(); }

IoLoop* EpollTransport::SingleLoop() {
  return loops_.size() == 1 ? loops_[0].get() : nullptr;
}

IoLoop& EpollTransport::NextLoop() {
  const unsigned i = next_loop_.fetch_add(1, std::memory_order_relaxed);
  return *loops_[i % loops_.size()];
}

std::string EpollTransport::Listen(const std::string& address,
                                   AcceptHandler handler) {
  sockaddr_in addr;
  std::string host;
  if (handler == nullptr || !ParseAddress(address, &addr, &host)) {
    return "";
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return "";
  }
  int one = 1;
  (void)setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 128) != 0) {
    ::close(fd);
    return "";
  }
  sockaddr_in bound;
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    ::close(fd);
    return "";
  }
  SetNonBlocking(fd);
  Listener* listener = nullptr;
  {
    sync::MutexLock lock(mu_);
    if (shutdown_ || listener_ != nullptr) {
      ::close(fd);
      return "";
    }
    listener_ = std::make_unique<Listener>(this, loops_[0].get(), fd,
                                           std::move(handler));
    listener = listener_.get();
  }
  loops_[0]->RunBlocking([this, listener, fd] {
    (void)loops_[0]->Add(fd, listener, EPOLLIN);  // level-triggered
  });
  return host + ":" + std::to_string(ntohs(bound.sin_port));
}

void EpollTransport::HandleAccepted(int fd, const AcceptHandler& handler) {
  ReapFinished();
  SetNoDelay(fd);
  auto connection = std::make_shared<Conn>(&NextLoop(), fd);
  connection->SetHandler(handler(connection));
  {
    sync::MutexLock lock(mu_);
    if (shutdown_) {
      ::close(fd);
      return;
    }
    connections_.push_back(connection);
  }
  NetMetrics::Get().tcp_accepts->Increment();
  connection->Register();
}

std::shared_ptr<Connection> EpollTransport::Dial(const std::string& address,
                                                 ConnectionHandler handler) {
  ReapFinished();
  sockaddr_in addr;
  std::string host;
  if (!ParseAddress(address, &addr, &host)) {
    return nullptr;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return nullptr;
  }
  SetNonBlocking(fd);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 &&
      (errno != EINPROGRESS || !AwaitConnected(fd))) {
    ::close(fd);
    return nullptr;
  }
  SetNoDelay(fd);
  auto connection = std::make_shared<Conn>(&NextLoop(), fd);
  connection->SetHandler(std::move(handler));
  {
    sync::MutexLock lock(mu_);
    if (shutdown_) {
      ::close(fd);
      return nullptr;
    }
    connections_.push_back(connection);
  }
  NetMetrics::Get().tcp_dials->Increment();
  connection->Register();
  return connection;
}

void EpollTransport::ReapFinished() {
  std::vector<std::shared_ptr<Conn>> finished;
  {
    sync::MutexLock lock(mu_);
    auto it = connections_.begin();
    while (it != connections_.end()) {
      if ((*it)->finished()) {
        finished.push_back(std::move(*it));
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Dropped outside mu_; a finished conn's fd is already closed, this just
  // releases buffers (and the Conn, unless a queued task still pins it).
}

void EpollTransport::Shutdown() {
  std::unique_ptr<Listener> listener;
  std::vector<std::shared_ptr<Conn>> connections;
  {
    sync::MutexLock lock(mu_);
    if (shutdown_) {
      return;
    }
    shutdown_ = true;
    listener = std::move(listener_);
    connections = std::move(connections_);
  }
  if (listener != nullptr) {
    Listener* raw = listener.get();
    raw->loop()->RunBlocking([raw] { raw->CloseOnLoop(); });
  }
  for (const auto& connection : connections) {
    connection->CloseHard();
  }
  // The hard-close nudges tear each conn down synchronously on its loop;
  // a barrier per loop (FIFO after every nudge) means all on_close have
  // fired and every fd is closed once these return.
  for (const auto& loop : loops_) {
    loop->RunBlocking([] {});
  }
  for (const auto& loop : loops_) {
    loop->Stop();
  }
}

}  // namespace eunomia::net
