// IoLoop: the event-loop core of the epoll transport backend and of a geo
// node. One IoLoop is one thread running epoll_wait over many registered
// nonblocking fds, a wakeup eventfd for cross-thread submission and a
// timerfd for ordered timers.
//
// Threading model (the glusterfs/libuv registry shape):
//   - Every FdHandler callback and every task runs on the loop thread. A
//     handler owns its per-fd state without locks as long as only the loop
//     thread touches it.
//   - Other threads communicate with the loop exclusively through Post(),
//     ScheduleAfter() and RunBlocking(), which enqueue a task and (if
//     needed) write the wakeup eventfd.
//   - epoll interest changes (Add/Modify/Remove) are loop-thread-only; call
//     them from a handler or a task. Remove() additionally suppresses any
//     not-yet-dispatched events for that handler in the current batch, so a
//     handler that tears another one down mid-iteration cannot leave a
//     dangling dispatch behind.
//
// An iteration waits in epoll_wait, dispatches readiness, then runs one
// turn of tasks.
//
// Order: tasks run in (due time, submission seq) order, exactly as if the
// loop popped the smallest due task one at a time. Post(fn) is
// ScheduleAfter(0, fn); both stamp (due = Now(), seq) under task_mu_ and
// append to a FIFO `ready_` vector, which is therefore already sorted.
// Only delayed timers live in the ordered `timers_` map.
//
// Turns: after the readiness dispatch the loop takes task_mu_ once, swaps
// out `ready_`, moves the timers due at the turn's `now` into a local list,
// unlocks, and runs the two lists merged by (due, seq). A task posted
// during the turn is stamped at or after `now` with a larger seq, so it
// sorts after every task of the turn and runs in the next iteration, whose
// epoll_wait polls instead of blocking. A task posted by a readiness
// handler (e.g. "flush this connection's outbox") runs in the turn of the
// same iteration, and Post() from the loop thread skips the eventfd write —
// this is what lets every frame generated in one wakeup coalesce into one
// writev.
//
// Phase: a timer armed on the loop thread counts its delay from the start
// of the running turn (of the iteration, for a readiness handler), not
// from the instant it is armed. Timers armed in one turn with equal delays
// therefore come due together and run in arming order in one later turn,
// however long the arming turn took, and a periodic timer re-armed from
// its callback keeps its phase to the others of its period.
//
// Precision: one timerfd, armed at the earliest timer's absolute
// CLOCK_MONOTONIC deadline, wakes the loop. An epoll_wait timeout (or a
// futex wait) inherits the thread's timer slack and wakes tens of
// microseconds late; a timerfd expiry does not. The timerfd is re-armed
// only when the earliest deadline changes, so a loop without timers pays
// nothing for it.
//
// Stop() discards what is queued and joins the thread. Between the tasks
// of a turn the loop checks an atomic stop flag, so at most the task
// already running finishes after Stop is requested; queued posts and
// timers are destroyed unrun. Afterwards no callback runs again and Post
// is a no-op — state owned by loop tasks may then be inspected from any
// thread. (The transport runs its teardown through RunBlocking barriers
// before it stops its loops.)
//
// The task queue mutex ranks at kRankIoLoop (820): senders may post a flush
// kick while holding a connection outbox lock (kRankConnQueue, 810).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <utility>
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
  // A loop whose thread Start() launches; tasks posted before then run in
  // its first turn.
  struct DeferStart {};
  IoLoop(std::string name, DeferStart);
  ~IoLoop();

  IoLoop(const IoLoop&) = delete;
  IoLoop& operator=(const IoLoop&) = delete;

  void Start() EXCLUDES(task_mu_);

  // Monotonic microseconds since a process-wide epoch shared by every
  // loop. Sharing matters for crash/restart: a geo node restarted on a
  // fresh loop must keep issuing hybrid-clock timestamps strictly ahead of
  // its previous incarnation's, or peers' duplicate suppression would drop
  // its post-restart updates.
  static std::uint64_t Now();

  // Enqueues `fn` to run on the loop thread; wakes the loop if it is (or
  // may be) blocked in epoll_wait. Safe from any thread, including the loop
  // thread itself and callers holding a kRankConnQueue lock. False, with
  // `fn` dropped, once the loop has stopped.
  bool Post(std::function<void()> fn) EXCLUDES(task_mu_) {
    return ScheduleAfter(0, std::move(fn));
  }

  // Runs fn on the loop thread no earlier than delay_us from now — from the
  // start of the running turn when called on the loop thread (see Phase).
  bool ScheduleAfter(std::uint64_t delay_us, std::function<void()> fn)
      EXCLUDES(task_mu_);

  // Runs fn on the loop thread and blocks until it completed. Runs it
  // inline on the loop thread, and when the loop is not running (never
  // started, or stopped: then the caller is the only executor) — also when
  // a concurrent Stop discarded it.
  void RunBlocking(const std::function<void()>& fn) EXCLUDES(task_mu_);

  // Tasks queued and not yet taken by a turn: ready posts plus pending
  // timers. The turn in progress has already taken its own.
  std::size_t PendingTasks() const EXCLUDES(task_mu_);

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

  // Stops the loop, discarding what is queued, and joins the thread (see
  // the file comment). Must not be called from the loop thread.
  void Stop() EXCLUDES(task_mu_);

 private:
  enum class State { kIdle, kRunning, kStopping, kStopped };
  struct Task {
    std::uint64_t due;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  using TimerKey = std::pair<std::uint64_t, std::uint64_t>;  // (due, seq)

  void Run() EXCLUDES(task_mu_);
  // Runs one turn: the ready posts and the timers due at `now`.
  void RunTurn(std::uint64_t now) EXCLUDES(task_mu_);
  // Points the timerfd at `due` (loop thread); UINT64_MAX leaves it idle.
  void ArmTimer(std::uint64_t due);
  void Wake();

  const std::string name_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  int timer_fd_ = -1;

  mutable sync::Mutex task_mu_{"IoLoop::task_mu_", sync::kRankIoLoop};
  // Posts in (due, seq) order: both are stamped under task_mu_ on append.
  std::vector<Task> ready_ GUARDED_BY(task_mu_);
  // Delayed timers; iteration order is their execution order.
  std::map<TimerKey, std::function<void()>> timers_ GUARDED_BY(task_mu_);
  std::uint64_t next_seq_ GUARDED_BY(task_mu_) = 0;
  State state_ GUARDED_BY(task_mu_) = State::kIdle;
  // Set with state_ = kStopping; read without task_mu_ between the tasks
  // of a turn.
  std::atomic<bool> stopping_{false};

  // Loop-thread-only: the `now` of the running turn (the base of timers
  // its tasks arm), the deadline the timerfd is armed at, the handlers
  // removed during the current dispatch batch, and the turn's task lists
  // (reused, so steady state allocates nothing per task beyond the
  // std::function itself).
  std::uint64_t turn_start_ = 0;
  std::uint64_t armed_due_ = UINT64_MAX;
  std::vector<FdHandler*> removed_this_round_;
  std::vector<Task> turn_;
  std::vector<Task> due_timers_;
  std::vector<char> scratch_;

  std::thread thread_;
};

}  // namespace eunomia::net
