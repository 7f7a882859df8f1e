// Tests for rt::EventLoop, a wrapper over net::IoLoop — the loop every geo
// node runs on — so they pin the io loop's timers and tasks: the
// (due, seq) execution order across posts and timers, posts from many
// threads, the phase of timers armed in one turn, Stop's discard
// guarantee, RunBlocking's inline paths, and the queue-depth accessor.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "src/georep/runtime/event_loop.h"

namespace eunomia::geo::rt {
namespace {

// A task posted by a timer sorts before a later timer even when both are
// due by the time the loop looks again: timer A (1 ms) posts X, then keeps
// the loop busy past timer B (50 ms). A drain that runs every due timer
// before the turn's posts would run A, B, X.
TEST(EventLoopTest, TaskPostedByATimerRunsBeforeALaterTimer) {
  EventLoop loop;
  std::vector<std::string> order;  // loop thread only until Stop
  std::promise<void> done;
  loop.Start();
  // Scheduled from a loop task, so a slow thread start cannot make B due
  // before A has run.
  loop.Post([&] {
    const std::uint64_t start = loop.Now();
    loop.ScheduleAfter(1'000, [&, start] {
      order.push_back("A");
      loop.Post([&] { order.push_back("X"); });
      while (loop.Now() < start + 60'000) {
      }
    });
    loop.ScheduleAfter(50'000, [&] {
      order.push_back("B");
      done.set_value();
    });
  });
  ASSERT_EQ(done.get_future().wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  loop.Stop();
  EXPECT_EQ(order, (std::vector<std::string>{"A", "X", "B"}));
}

// Timers a turn arms with equal delays come due together, in arming order,
// however long the arming turn ran: a task arms F, keeps the loop busy for
// 3 ms, then arms S. Counted from the arming instant, S would be due 3 ms
// after F and the task F posts would run between them (F, X, S).
TEST(EventLoopTest, TimersArmedInOneTurnComeDueTogether) {
  EventLoop loop;
  std::vector<std::string> order;  // loop thread only until Stop
  std::promise<void> done;
  loop.Start();
  loop.Post([&] {
    loop.ScheduleAfter(1'000, [&] {
      order.push_back("F");
      loop.Post([&] { order.push_back("X"); });
    });
    const std::uint64_t start = loop.Now();
    while (loop.Now() < start + 3'000) {
    }
    loop.ScheduleAfter(1'000, [&] { order.push_back("S"); });
    loop.ScheduleAfter(20'000, [&] { done.set_value(); });
  });
  ASSERT_EQ(done.get_future().wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  loop.Stop();
  EXPECT_EQ(order, (std::vector<std::string>{"F", "S", "X"}));
}

// Posts from concurrent producers: every task runs exactly once, and each
// producer's tasks run in the order it posted them.
TEST(EventLoopTest, ConcurrentProducersRunEveryTaskOnceInPostOrder) {
  constexpr int kProducers = 4;
  constexpr int kTasks = 10'000;
  EventLoop loop;
  loop.Start();
  std::array<std::vector<int>, kProducers> seen;  // loop thread only
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&loop, &seen, p] {
      for (int i = 0; i < kTasks; ++i) {
        loop.Post([&seen, p, i] { seen[p].push_back(i); });
      }
    });
  }
  for (std::thread& producer : producers) {
    producer.join();
  }
  loop.RunBlocking([] {});  // posted last, so it runs after every task
  loop.Stop();
  for (int p = 0; p < kProducers; ++p) {
    ASSERT_EQ(seen[p].size(), static_cast<std::size_t>(kTasks));
    for (int i = 0; i < kTasks; ++i) {
      ASSERT_EQ(seen[p][i], i) << "producer " << p;
    }
  }
}

// Stop discards what is queued: once it is requested only the running task
// finishes, nothing runs after it returns, and a later post never runs.
TEST(EventLoopTest, NothingRunsAfterStop) {
  EventLoop loop;
  std::promise<void> blocker_started;
  std::atomic<bool> release{false};
  std::atomic<int> ran{0};
  // All queued before Start, so they share the blocker's turn: the stop
  // flag is checked between the tasks of a turn.
  loop.Post([&] {
    blocker_started.set_value();
    while (!release.load()) {
      std::this_thread::yield();
    }
  });
  for (int i = 0; i < 100; ++i) {
    loop.Post([&ran] { ran.fetch_add(1); });
  }
  loop.ScheduleAfter(10'000'000, [&ran] { ran.fetch_add(1); });
  loop.Start();
  blocker_started.get_future().wait();
  EXPECT_EQ(loop.PendingTasks(), 1u);  // the timer; the turn took the rest

  std::atomic<bool> stopping{false};
  std::thread stopper([&] {
    stopping.store(true);
    loop.Stop();
  });
  while (!stopping.load()) {
    std::this_thread::yield();
  }
  // Let Stop set its flag and block joining the running task.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  release.store(true);
  stopper.join();
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(loop.PendingTasks(), 0u);

  loop.Post([&ran] { ran.fetch_add(1); });
  loop.ScheduleAfter(0, [&ran] { ran.fetch_add(1); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(loop.PendingTasks(), 0u);
}

// RunBlocking must not deadlock from inside a loop task, and after Stop the
// caller is the only executor.
TEST(EventLoopTest, RunBlockingRunsInlineInALoopTaskAndAfterStop) {
  EventLoop loop;
  loop.Start();
  bool inline_in_task = false;
  loop.RunBlocking([&] {
    bool ran = false;
    loop.RunBlocking([&ran] { ran = true; });
    inline_in_task = ran && loop.InLoopThread();
  });
  EXPECT_TRUE(inline_in_task);

  loop.Stop();
  std::thread::id ran_on;
  loop.RunBlocking([&ran_on] { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

// ScheduleAfter(0) from inside a task joins the back of the queue: it runs
// after the tasks already posted, never ahead of them. PeerLinks' chunked
// catch-up relies on this to interleave with live traffic.
TEST(EventLoopTest, ScheduleAfterZeroFromATaskRunsAfterQueuedTasks) {
  EventLoop loop;
  std::vector<std::string> order;  // loop thread only until Stop
  std::promise<void> done;
  loop.Post([&] {
    order.push_back("T1");
    loop.ScheduleAfter(0, [&] {
      order.push_back("Y");
      done.set_value();
    });
  });
  loop.Post([&] { order.push_back("T2"); });
  loop.Post([&] { order.push_back("T3"); });
  loop.Start();
  ASSERT_EQ(done.get_future().wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  loop.Stop();
  EXPECT_EQ(order, (std::vector<std::string>{"T1", "T2", "T3", "Y"}));
}

}  // namespace
}  // namespace eunomia::geo::rt
