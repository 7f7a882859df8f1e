// IoLoop: the event-loop core of the epoll transport backend. One IoLoop is
// one thread running epoll_wait over many registered nonblocking fds plus a
// wakeup eventfd for cross-thread submission.
//
// Threading model (the glusterfs/libuv registry shape):
//   - Every FdHandler callback runs on the loop thread. A handler owns its
//     per-fd state without locks as long as only the loop thread touches it.
//   - Other threads communicate with the loop exclusively through Post(),
//     which enqueues a task and (if needed) writes the wakeup eventfd. Tasks
//     run on the loop thread after the current readiness dispatch, in FIFO
//     order per queue.
//   - epoll interest changes (Add/Modify/Remove) are loop-thread-only; call
//     them from a handler or a posted task. Remove() additionally suppresses
//     any not-yet-dispatched events for that handler in the current batch,
//     so a handler that tears another one down mid-iteration cannot leave a
//     dangling dispatch behind.
//
// Post() from the loop thread itself skips the eventfd write: the loop
// always drains the task queue after dispatching readiness, so tasks posted
// during dispatch (e.g. "flush this connection's outbox") run in the same
// iteration — this is what lets every ack generated in one wakeup coalesce
// into one writev. Tasks posted by a task run in the next iteration, whose
// epoll_wait polls instead of blocking.
//
// The task queue mutex ranks at kRankIoLoop (820): senders may post a flush
// kick while holding a connection outbox lock (kRankConnQueue, 810).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "src/common/sync.h"

namespace eunomia::net {

class IoLoop {
 public:
  // Callbacks for one registered fd; all invocations are on the loop thread.
  class FdHandler {
   public:
    virtual ~FdHandler() = default;
    // `events` is the epoll readiness bitmask (EPOLLIN | EPOLLOUT | ...).
    virtual void OnEvents(std::uint32_t events) = 0;
  };

  // Starts the loop thread, named `name` (at most 15 bytes are kept).
  explicit IoLoop(std::string name);
  ~IoLoop();

  IoLoop(const IoLoop&) = delete;
  IoLoop& operator=(const IoLoop&) = delete;

  // Enqueues `fn` to run on the loop thread; wakes the loop if it is (or may
  // be) blocked in epoll_wait. Safe from any thread, including the loop
  // thread itself and callers holding a kRankConnQueue lock.
  void Post(std::function<void()> fn) EXCLUDES(task_mu_);

  // The IoLoop whose thread is executing, or nullptr off all loop threads.
  static IoLoop* Current();
  bool OnLoopThread() const { return Current() == this; }

  // epoll registration. Loop-thread-only. `handler` must stay valid until
  // Remove() returns (the transport pins handlers via its connection
  // registry).
  bool Add(int fd, FdHandler* handler, std::uint32_t events);
  bool Modify(int fd, FdHandler* handler, std::uint32_t events);
  void Remove(int fd, FdHandler* handler);

  // Shared per-loop receive scratch buffer (loop-thread-only): every
  // connection on this loop decodes out of the same pooled block instead of
  // carrying kReadChunkBytes of its own.
  std::vector<char>& scratch() { return scratch_; }

  // Stops the loop and joins the thread. Tasks already posted (and tasks
  // they post while draining) still run; afterwards no callback runs again.
  // Must not be called from the loop thread.
  void Stop() EXCLUDES(task_mu_);

 private:
  void Run();
  void Wake();

  const std::string name_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;

  sync::Mutex task_mu_{"IoLoop::task_mu_", sync::kRankIoLoop};
  std::deque<std::function<void()>> tasks_ GUARDED_BY(task_mu_);
  bool stop_ GUARDED_BY(task_mu_) = false;

  // Loop-thread-only: handlers removed during the current dispatch batch.
  std::vector<FdHandler*> removed_this_round_;
  std::vector<char> scratch_;

  std::thread thread_;
};

}  // namespace eunomia::net
