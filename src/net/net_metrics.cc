#include "src/net/net_metrics.h"

#include "src/metrics/registry.h"

namespace eunomia::net {

NetMetrics& NetMetrics::Get() {
  // Leaked: transport threads may record into these during process exit.
  static NetMetrics* instance = [] {
    metrics::Registry& registry = metrics::Registry::Default();
    auto* m = new NetMetrics();
    for (std::uint8_t t = wire::kMinMsgType; t <= wire::kMaxMsgType; ++t) {
      const auto type = static_cast<wire::MsgType>(t);
      const metrics::Labels labels = {{"type", wire::MsgTypeName(type)}};
      m->frames_out[t] = registry.AddCounter(
          "eunomia_net_frames_out_total", "Frames sent, by message type",
          labels);
      m->bytes_out[t] = registry.AddCounter(
          "eunomia_net_bytes_out_total",
          "Bytes sent (header + payload), by message type", labels);
      m->frames_in[t] = registry.AddCounter(
          "eunomia_net_frames_in_total", "Frames received, by message type",
          labels);
      m->bytes_in[t] = registry.AddCounter(
          "eunomia_net_bytes_in_total",
          "Bytes received (header + payload), by message type", labels);
    }
    m->connections_opened = registry.AddCounter(
        "eunomia_net_connections_opened_total",
        "Transport connections constructed (any backend)");
    m->connections_closed = registry.AddCounter(
        "eunomia_net_connections_closed_total",
        "Transport connections destroyed (any backend)");
    m->tcp_accepts = registry.AddCounter(
        "eunomia_net_tcp_accepts_total", "TCP connections accepted");
    m->tcp_dials = registry.AddCounter(
        "eunomia_net_tcp_dials_total", "TCP connections dialed successfully");
    m->outbox_stalls = registry.AddCounter(
        "eunomia_net_outbox_stalls_total",
        "Send-side backpressure episodes (outbox hit capacity)");
    m->epoll_wakeups = registry.AddCounter(
        "eunomia_net_epoll_wakeups_total",
        "epoll_wait returns across all io-loop threads");
    m->writev_frames = registry.AddHistogram(
        "eunomia_net_writev_frames",
        "Frames coalesced into one writev (epoll backend)");
    m->io_loop_iteration_us = registry.AddHistogram(
        "eunomia_net_io_loop_iteration_us",
        "Busy microseconds per io-loop wakeup (dispatch + posted tasks)");
    m->timer_lateness_us = registry.AddHistogram(
        "eunomia_net_io_loop_timer_lateness_microseconds",
        "Microseconds from an io-loop timer's due time to its start");
    return m;
  }();
  return *instance;
}

}  // namespace eunomia::net
