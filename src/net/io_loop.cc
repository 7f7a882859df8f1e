#include "src/net/io_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

#include "src/common/thread_name.h"
#include "src/net/net_metrics.h"

namespace eunomia::net {

namespace {

constexpr int kMaxEventsPerWait = 64;
constexpr std::size_t kScratchBytes = 256u << 10;

thread_local IoLoop* current_loop = nullptr;

}  // namespace

IoLoop* IoLoop::Current() { return current_loop; }

IoLoop::IoLoop(std::string name) : name_(std::move(name)) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    std::fprintf(stderr, "IoLoop(%s): epoll_create1/eventfd failed: %s\n",
                 name_.c_str(), std::strerror(errno));
    std::abort();
  }
  epoll_event ev{};
  ev.events = EPOLLIN;  // level-triggered: drained every wakeup
  ev.data.ptr = nullptr;  // nullptr marks the wakeup fd in dispatch
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    std::fprintf(stderr, "IoLoop(%s): epoll_ctl(wake_fd) failed: %s\n",
                 name_.c_str(), std::strerror(errno));
    std::abort();
  }
  scratch_.resize(kScratchBytes);
  thread_ = std::thread([this] {
    SetCurrentThreadName(name_);
    Run();
  });
}

IoLoop::~IoLoop() {
  Stop();
  ::close(wake_fd_);
  ::close(epoll_fd_);
}

void IoLoop::Post(std::function<void()> fn) {
  bool need_wake;
  {
    sync::MutexLock lock(task_mu_);
    need_wake = tasks_.empty();
    tasks_.push_back(std::move(fn));
  }
  // The loop drains the queue after every dispatch, so a task posted from
  // the loop thread is picked up in the current iteration without a wake.
  if (need_wake && Current() != this) {
    Wake();
  }
}

void IoLoop::Wake() {
  const std::uint64_t one = 1;
  for (;;) {
    if (::write(wake_fd_, &one, sizeof(one)) >= 0 || errno != EINTR) {
      return;  // EAGAIN means the counter is already nonzero: loop will wake
    }
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
  {
    sync::MutexLock lock(task_mu_);
    if (stop_) {
      lock.Unlock();
      if (thread_.joinable()) {
        thread_.join();
      }
      return;
    }
    stop_ = true;
  }
  Wake();
  if (thread_.joinable()) {
    thread_.join();
  }
}

void IoLoop::Run() {
  current_loop = this;
  NetMetrics& metrics = NetMetrics::Get();
  std::array<epoll_event, kMaxEventsPerWait> events;
  std::deque<std::function<void()>> tasks;
  // 0 when tasks posted by the last task batch are still queued: Post()
  // wakes the loop only on an empty queue, so blocking then would strand
  // them and every later post behind them. Polling keeps them behind the
  // next readiness dispatch, as a posted read continuation expects.
  int timeout_ms = -1;
  for (;;) {
    const int n =
        ::epoll_wait(epoll_fd_, events.data(), kMaxEventsPerWait, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      std::fprintf(stderr, "IoLoop(%s): epoll_wait failed: %s\n",
                   name_.c_str(), std::strerror(errno));
      std::abort();
    }
    metrics.epoll_wakeups->Increment();
    const auto busy_start = std::chrono::steady_clock::now();
    removed_this_round_.clear();
    for (int i = 0; i < n; ++i) {
      auto* handler = static_cast<FdHandler*>(events[i].data.ptr);
      if (handler == nullptr) {
        std::uint64_t drained;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      if (std::find(removed_this_round_.begin(), removed_this_round_.end(),
                    handler) != removed_this_round_.end()) {
        continue;
      }
      handler->OnEvents(events[i].events);
    }
    bool stop;
    {
      sync::MutexLock lock(task_mu_);
      tasks.swap(tasks_);
      stop = stop_;
    }
    for (auto& task : tasks) {
      task();
    }
    tasks.clear();
    {
      sync::MutexLock lock(task_mu_);
      timeout_ms = tasks_.empty() ? -1 : 0;
    }
    metrics.io_loop_iteration_us->Record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - busy_start)
            .count()));
    if (stop) {
      // Drain tasks posted by the tasks above (teardown chains) before the
      // thread exits; afterwards nothing runs on this loop again.
      for (;;) {
        {
          sync::MutexLock lock(task_mu_);
          tasks.swap(tasks_);
        }
        if (tasks.empty()) {
          break;
        }
        for (auto& task : tasks) {
          task();
        }
        tasks.clear();
      }
      break;
    }
  }
  current_loop = nullptr;
}

}  // namespace eunomia::net
