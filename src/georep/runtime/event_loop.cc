#include "src/georep/runtime/event_loop.h"

#include <future>
#include <utility>

#include "src/common/thread_name.h"

namespace eunomia::geo::rt {

namespace {

// One epoch for the whole process: every EventLoop reads the same monotonic
// timeline, so timestamps survive an owner's crash/restart (see Now()).
std::chrono::steady_clock::time_point ProcessEpoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

}  // namespace

EventLoop::EventLoop(std::string thread_name)
    : epoch_(ProcessEpoch()), thread_name_(std::move(thread_name)) {}

EventLoop::~EventLoop() { Stop(); }

std::uint64_t EventLoop::Now() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void EventLoop::Start() {
  sync::MutexLock lock(mu_);
  if (running_ || stopped_.load(std::memory_order_relaxed)) {
    return;
  }
  running_ = true;
  thread_ = std::thread([this] {
    SetCurrentThreadName(thread_name_);
    RunLoop();
  });
  loop_thread_id_.store(thread_.get_id(), std::memory_order_release);
}

void EventLoop::Stop() {
  {
    sync::MutexLock lock(mu_);
    if (stopped_.load(std::memory_order_relaxed)) {
      return;
    }
    stopped_.store(true, std::memory_order_relaxed);
    cv_.NotifyAll();
  }
  if (thread_.joinable()) {
    thread_.join();
  }
  // Discarded tasks are destroyed outside mu_: a captured object's
  // destructor may itself call Post, which is then a no-op.
  std::vector<Task> ready;
  std::map<TimerKey, std::function<void()>> timers;
  sync::MutexLock lock(mu_);
  running_ = false;
  ready.swap(ready_);
  timers.swap(timers_);
  lock.Unlock();
}

void EventLoop::ScheduleAfter(std::uint64_t delay_us,
                              std::function<void()> fn) {
  sync::MutexLock lock(mu_);
  if (stopped_.load(std::memory_order_relaxed)) {
    return;
  }
  if (delay_us == 0) {
    ready_.push_back(Task{Now(), next_seq_++, std::move(fn)});
  } else {
    const std::uint64_t from = InLoopThread() ? turn_start_ : Now();
    timers_.emplace(TimerKey{from + delay_us, next_seq_++}, std::move(fn));
  }
  if (waiting_) {
    waiting_ = false;
    cv_.NotifyOne();
  }
}

void EventLoop::RunBlocking(std::function<void()> fn) {
  {
    sync::MutexLock lock(mu_);
    if (!running_ || stopped_.load(std::memory_order_relaxed)) {
      fn();  // loop not live: the caller is the only executor
      return;
    }
  }
  if (InLoopThread()) {
    fn();
    return;
  }
  auto done = std::make_shared<std::promise<void>>();
  auto future = done->get_future();
  Post([&fn, done] {
    fn();
    done->set_value();
  });
  // Wait, but survive a concurrent Stop(): Stop discards queued tasks, so
  // once the loop is down and our task did not run, execute inline — the
  // joined loop thread can no longer touch runtime state.
  while (future.wait_for(std::chrono::milliseconds(20)) !=
         std::future_status::ready) {
    sync::MutexLock lock(mu_);
    if (stopped_.load(std::memory_order_relaxed) && !running_) {
      if (future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        fn();
      }
      return;
    }
  }
}

std::size_t EventLoop::PendingTasks() const {
  sync::MutexLock lock(mu_);
  return ready_.size() + timers_.size();
}

void EventLoop::RunLoop() {
  // Reused across turns: `turn` swaps capacity with ready_, so steady state
  // allocates nothing per task beyond the std::function itself.
  std::vector<Task> turn;
  std::vector<Task> due_timers;
  // Manual Lock/Unlock instead of a scoped guard: the lock is dropped
  // around each turn's task bodies and re-taken at the loop head — a shape
  // the static analysis still verifies because every path rebalances.
  mu_.Lock();
  while (!stopped_.load(std::memory_order_relaxed)) {
    const std::uint64_t now = Now();
    while (!timers_.empty() && timers_.begin()->first.first <= now) {
      auto node = timers_.extract(timers_.begin());
      due_timers.push_back(
          Task{node.key().first, node.key().second, std::move(node.mapped())});
    }
    if (ready_.empty() && due_timers.empty()) {
      waiting_ = true;
      if (timers_.empty()) {
        cv_.Wait(mu_);
      } else {
        cv_.WaitUntil(mu_, epoch_ + std::chrono::microseconds(
                                        timers_.begin()->first.first));
      }
      waiting_ = false;
      continue;
    }
    turn_start_ = now;
    turn.swap(ready_);
    mu_.Unlock();
    // Both lists are sorted; run their merge in (due, seq) order. Every
    // task posted meanwhile sorts after all of them (see the header).
    std::size_t r = 0;
    std::size_t t = 0;
    while ((r < turn.size() || t < due_timers.size()) &&
           !stopped_.load(std::memory_order_relaxed)) {
      const bool take_ready =
          t == due_timers.size() ||
          (r < turn.size() &&
           TimerKey{turn[r].due, turn[r].seq} <
               TimerKey{due_timers[t].due, due_timers[t].seq});
      Task& task = take_ready ? turn[r++] : due_timers[t++];
      task.fn();
      task.fn = nullptr;  // release captures now, as a popped task would
    }
    turn.clear();
    due_timers.clear();
    mu_.Lock();
  }
  mu_.Unlock();
}

}  // namespace eunomia::geo::rt
