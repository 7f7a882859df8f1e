// Process-wide transport instrumentation (docs/METRICS.md §net). Always
// on for every transport backend: the hooks are relaxed atomic adds on
// pre-resolved counters, so the per-frame cost is two fetch_adds. Series
// are registered lazily into metrics::Registry::Default() on first use;
// that can happen under kRankConnSend (800), which nests cleanly under the
// registry mutex (kRankMetricsRegistry, 950).
#pragma once

#include <cstdint>
#include <memory>

#include "src/metrics/counter.h"
#include "src/metrics/histogram.h"
#include "src/net/wire.h"

namespace eunomia::net {

struct NetMetrics {
  // Indexed by raw MsgType value (1..kMaxMsgType; slot 0 is unused —
  // decoded frames always carry a valid type).
  std::shared_ptr<metrics::Counter> frames_out[wire::kMaxMsgType + 1];
  std::shared_ptr<metrics::Counter> bytes_out[wire::kMaxMsgType + 1];
  std::shared_ptr<metrics::Counter> frames_in[wire::kMaxMsgType + 1];
  std::shared_ptr<metrics::Counter> bytes_in[wire::kMaxMsgType + 1];

  // Connection churn: constructed / destroyed, any backend.
  std::shared_ptr<metrics::Counter> connections_opened;
  std::shared_ptr<metrics::Counter> connections_closed;
  // TCP accept/dial successes (churn split by direction).
  std::shared_ptr<metrics::Counter> tcp_accepts;
  std::shared_ptr<metrics::Counter> tcp_dials;
  // Times a sender blocked because a TCP connection's outbox was at
  // capacity (counted once per full-to-drained episode, not per wait).
  std::shared_ptr<metrics::Counter> outbox_stalls;

  // Event-loop (epoll) backend internals. epoll_wakeups counts epoll_wait
  // returns; writev_frames is the number of frames coalesced into each
  // writev (the syscall-amortization signal); io_loop_iteration_us is the
  // busy time per wakeup — readiness dispatch plus posted tasks, excluding
  // the blocked wait itself; timer_lateness_us is how late each io-loop
  // timer started, from its due time.
  std::shared_ptr<metrics::Counter> epoll_wakeups;
  std::shared_ptr<metrics::Histogram> writev_frames;
  std::shared_ptr<metrics::Histogram> io_loop_iteration_us;
  std::shared_ptr<metrics::Histogram> timer_lateness_us;

  void RecordFrameOut(wire::MsgType type, std::size_t bytes) {
    const auto index = static_cast<std::size_t>(type);
    frames_out[index]->Increment();
    bytes_out[index]->Add(bytes);
  }
  void RecordFrameIn(wire::MsgType type, std::size_t bytes) {
    const auto index = static_cast<std::size_t>(type);
    frames_in[index]->Increment();
    bytes_in[index]->Add(bytes);
  }

  static NetMetrics& Get();
};

}  // namespace eunomia::net
