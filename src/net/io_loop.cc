#include "src/net/io_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <string>
#include <utility>

#include "src/common/thread_name.h"
#include "src/net/net_metrics.h"

namespace eunomia::net {

namespace {

constexpr int kMaxEventsPerWait = 64;
constexpr std::size_t kScratchBytes = 256u << 10;
constexpr std::uint64_t kNoTimer = UINT64_MAX;

thread_local IoLoop* current_loop = nullptr;

// One epoch for the whole process: every loop reads the same monotonic
// timeline, so timestamps survive an owner's crash/restart (see Now()).
std::chrono::steady_clock::time_point ProcessEpoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

[[noreturn]] void Die(const std::string& name, const char* what) {
  std::fprintf(stderr, "IoLoop(%s): %s failed: %s\n", name.c_str(), what,
               std::strerror(errno));
  std::abort();
}

}  // namespace

IoLoop* IoLoop::Current() { return current_loop; }

std::uint64_t IoLoop::Now() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - ProcessEpoch())
          .count());
}

IoLoop::IoLoop(std::string name) : IoLoop(std::move(name), DeferStart{}) {
  Start();
}

IoLoop::IoLoop(std::string name, DeferStart) : name_(std::move(name)) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  timer_fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_CLOEXEC | TFD_NONBLOCK);
  if (epoll_fd_ < 0 || wake_fd_ < 0 || timer_fd_ < 0) {
    Die(name_, "epoll_create1/eventfd/timerfd_create");
  }
  // Level-triggered, drained every wakeup. Their data.ptr is the member
  // holding the fd, which no FdHandler can alias.
  for (int* fd : {&wake_fd_, &timer_fd_}) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, *fd, &ev) != 0) {
      Die(name_, "epoll_ctl(wake_fd/timer_fd)");
    }
  }
  scratch_.resize(kScratchBytes);
}

IoLoop::~IoLoop() {
  Stop();
  ::close(timer_fd_);
  ::close(wake_fd_);
  ::close(epoll_fd_);
}

void IoLoop::Start() {
  sync::MutexLock lock(task_mu_);
  if (state_ != State::kIdle) {
    return;
  }
  state_ = State::kRunning;
  thread_ = std::thread([this] {
    SetCurrentThreadName(name_);
    Run();
  });
}

bool IoLoop::ScheduleAfter(std::uint64_t delay_us, std::function<void()> fn) {
  const bool on_loop = OnLoopThread();
  bool wake;
  {
    sync::MutexLock lock(task_mu_);
    if (state_ == State::kStopped) {
      return false;  // fn is destroyed by the caller, outside task_mu_
    }
    if (delay_us == 0) {
      // The loop blocks only on an empty queue, so only the first post
      // needs to wake it; from the loop thread the turn picks it up anyway.
      wake = ready_.empty() && !on_loop;
      ready_.push_back(Task{Now(), next_seq_++, std::move(fn)});
    } else {
      const std::uint64_t from = on_loop ? turn_start_ : Now();
      const auto it =
          timers_.emplace(TimerKey{from + delay_us, next_seq_++}, std::move(fn))
              .first;
      // A new earliest deadline: the loop re-arms its timerfd once awake.
      wake = it == timers_.begin() && !on_loop;
    }
  }
  if (wake) {
    Wake();
  }
  return true;
}

void IoLoop::RunBlocking(const std::function<void()>& fn) {
  if (OnLoopThread()) {
    fn();
    return;
  }
  bool live;
  {
    sync::MutexLock lock(task_mu_);
    live = state_ == State::kRunning || state_ == State::kStopping;
  }
  // The task holds the only reference to the promise: a task Stop discards
  // breaks it, which ends the wait below with `ran` still false, after the
  // loop thread has left its last task.
  auto done = std::make_shared<std::promise<void>>();
  std::future<void> completed = done->get_future();
  bool ran = false;
  if (live && Post([&fn, &ran, done] {
        fn();
        ran = true;
        done->set_value();
      })) {
    done.reset();
    completed.wait();
  }
  if (!ran) {
    fn();
  }
}

std::size_t IoLoop::PendingTasks() const {
  sync::MutexLock lock(task_mu_);
  return ready_.size() + timers_.size();
}

void IoLoop::Wake() {
  const std::uint64_t one = 1;
  for (;;) {
    if (::write(wake_fd_, &one, sizeof(one)) >= 0 || errno != EINTR) {
      return;  // EAGAIN means the counter is already nonzero: loop will wake
    }
  }
}

void IoLoop::ArmTimer(std::uint64_t due) {
  if (due == armed_due_) {
    return;
  }
  armed_due_ = due;
  if (due == kNoTimer) {
    return;  // the armed deadline has passed; the timerfd stays quiet
  }
  // steady_clock is CLOCK_MONOTONIC, so the epoch plus `due` is the
  // absolute deadline the timerfd wants.
  const auto deadline = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            ProcessEpoch().time_since_epoch())
                            .count() +
                        static_cast<std::int64_t>(due) * 1000;
  itimerspec spec{};
  spec.it_value.tv_sec = static_cast<time_t>(deadline / 1'000'000'000);
  spec.it_value.tv_nsec = static_cast<long>(deadline % 1'000'000'000);
  if (::timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &spec, nullptr) != 0) {
    Die(name_, "timerfd_settime");
  }
}

bool IoLoop::Add(int fd, FdHandler* handler, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.ptr = handler;
  return ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0;
}

bool IoLoop::Modify(int fd, FdHandler* handler, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.ptr = handler;
  return ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) == 0;
}

void IoLoop::Remove(int fd, FdHandler* handler) {
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  // Events for this handler may already sit in the batch being dispatched;
  // mark it so the remainder of the batch skips them.
  removed_this_round_.push_back(handler);
}

void IoLoop::Stop() {
  std::vector<Task> ready;
  std::map<TimerKey, std::function<void()>> timers;
  {
    sync::MutexLock lock(task_mu_);
    if (state_ == State::kIdle) {
      // Never started: discard here, outside the lock below.
      state_ = State::kStopped;
      ready.swap(ready_);
      timers.swap(timers_);
    } else if (state_ == State::kRunning) {
      state_ = State::kStopping;
      stopping_.store(true);
    }
  }
  Wake();
  if (thread_.joinable()) {
    thread_.join();
  }
}

void IoLoop::RunTurn(std::uint64_t now) {
  {
    sync::MutexLock lock(task_mu_);
    while (!timers_.empty() && timers_.begin()->first.first <= now) {
      auto node = timers_.extract(timers_.begin());
      due_timers_.push_back(
          Task{node.key().first, node.key().second, std::move(node.mapped())});
    }
    turn_.swap(ready_);
  }
  if (turn_.empty() && due_timers_.empty()) {
    return;
  }
  turn_start_ = now;
  metrics::Histogram& lateness = *NetMetrics::Get().timer_lateness_us;
  // Both lists are sorted; run their merge in (due, seq) order. Every task
  // posted meanwhile sorts after all of them (see the header).
  std::size_t r = 0;
  std::size_t t = 0;
  while ((r < turn_.size() || t < due_timers_.size()) &&
         !stopping_.load(std::memory_order_relaxed)) {
    const bool take_ready =
        t == due_timers_.size() ||
        (r < turn_.size() && TimerKey{turn_[r].due, turn_[r].seq} <
                                 TimerKey{due_timers_[t].due,
                                          due_timers_[t].seq});
    Task& task = take_ready ? turn_[r++] : due_timers_[t++];
    if (!take_ready) {
      lateness.Record(Now() - task.due);
    }
    task.fn();
    task.fn = nullptr;  // release captures now, as a popped task would
  }
  turn_.clear();
  due_timers_.clear();
}

void IoLoop::Run() {
  current_loop = this;
  NetMetrics& metrics = NetMetrics::Get();
  std::array<epoll_event, kMaxEventsPerWait> events;
  // 0 when tasks posted by the last turn are still queued: Post() wakes
  // the loop only on an empty queue, so blocking then would strand them and
  // every later post behind them. Polling keeps them behind the next
  // readiness dispatch, as a posted read continuation expects.
  int timeout_ms = -1;
  for (;;) {
    const int n =
        ::epoll_wait(epoll_fd_, events.data(), kMaxEventsPerWait, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      Die(name_, "epoll_wait");
    }
    metrics.epoll_wakeups->Increment();
    const std::uint64_t busy_start = Now();
    turn_start_ = busy_start;
    removed_this_round_.clear();
    for (int i = 0; i < n; ++i) {
      void* const ptr = events[i].data.ptr;
      if (ptr == &wake_fd_ || ptr == &timer_fd_) {
        std::uint64_t drained;
        while (::read(*static_cast<int*>(ptr), &drained, sizeof(drained)) >
               0) {
        }
        if (ptr == &timer_fd_) {
          armed_due_ = kNoTimer;  // expired: the next deadline re-arms it
        }
        continue;
      }
      auto* handler = static_cast<FdHandler*>(ptr);
      if (std::find(removed_this_round_.begin(), removed_this_round_.end(),
                    handler) != removed_this_round_.end()) {
        continue;
      }
      handler->OnEvents(events[i].events);
    }
    // The turn's `now` follows the dispatch, so every task posted so far
    // is due by it (the turn runs posts and timers merged in due order).
    RunTurn(n > 0 ? Now() : busy_start);
    std::uint64_t earliest;
    {
      sync::MutexLock lock(task_mu_);
      timeout_ms = ready_.empty() ? -1 : 0;
      earliest = timers_.empty() ? kNoTimer : timers_.begin()->first.first;
    }
    ArmTimer(earliest);
    metrics.io_loop_iteration_us->Record(Now() - busy_start);
    if (stopping_.load(std::memory_order_relaxed)) {
      break;
    }
  }
  // Discard what is queued, outside task_mu_: a destroyed capture may post
  // (refused from here on).
  std::vector<Task> ready;
  std::map<TimerKey, std::function<void()>> timers;
  {
    sync::MutexLock lock(task_mu_);
    state_ = State::kStopped;
    ready.swap(ready_);
    timers.swap(timers_);
  }
  turn_.clear();
  due_timers_.clear();
  ready.clear();
  timers.clear();
  current_loop = nullptr;
}

}  // namespace eunomia::net
