// Multi-connection load driver for the networked service (src/net/): the
// fig2 `--transport=tcp|loopback` mode and the eunomiad smoke test use it.
//
// Shape of a run: an EunomiaServer is started behind the given transport;
// one EunomiaClient connection per partition (the per-channel FIFO contract
// — a partition must stay on one connection) races the shared FixedLoad
// through the socket hop; the measurement is start-to-fully-stabilized on
// the server side, exactly like the in-process scan, so the numbers are
// directly comparable. All connections record ack round-trip latency into
// one shared metrics::Histogram (recording is wait-free), so there is no
// per-client merge step.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/service_driver.h"
#include "src/metrics/histogram.h"
#include "src/metrics/registry.h"
#include "src/net/eunomia_client.h"
#include "src/net/eunomia_server.h"

namespace eunomia::bench {

struct TransportRunResult {
  double ops_per_sec = 0.0;  // 0 => a client failed or the load never stabilized
  metrics::Histogram::Snapshot ack_latency_us;
};

inline TransportRunResult MeasureTransportThroughput(
    net::Transport& transport, const std::string& listen_address,
    std::uint32_t num_shards, const FixedLoad& load,
    std::uint64_t stable_period_us = 200, metrics::Registry* metrics = nullptr) {
  TransportRunResult result;
  net::EunomiaServer::Options options;
  options.num_partitions = load.num_partitions;
  options.num_shards = num_shards;
  options.stable_period_us = stable_period_us;
  // When set, the server + service register their series here (the net
  // layer's frame counters are always on in Registry::Default()); the CI
  // fig2 TCP smoke scrapes this mid-run into a .prom artifact.
  options.metrics = metrics;
  net::EunomiaServer server(&transport, options);
  const std::string address = server.Start(listen_address);
  if (address.empty()) {
    return result;
  }
  const std::uint64_t start = NowMicros();
  std::atomic<bool> all_ok{true};
  // Every connection records into this one histogram; snapped into the
  // result after the producers join.
  const auto ack_latency = std::make_shared<metrics::Histogram>(
      "bench_net_ack_latency_microseconds",
      "Batch ack round-trip latency across all driver connections");
  std::vector<std::thread> producers;
  producers.reserve(load.num_partitions);
  for (std::uint32_t p = 0; p < load.num_partitions; ++p) {
    producers.emplace_back([&, p] {
      net::EunomiaClient::Options client_options;
      client_options.ack_latency_us = ack_latency;
      net::EunomiaClient client(&transport, address,
                                std::move(client_options));
      if (!client.Connect()) {
        all_ok.store(false);
        return;
      }
      ProducePartitionLoad(client, static_cast<PartitionId>(p),
                           load.ops_per_batch, load.batch_interval_us,
                           load.ops_per_partition,
                           /*deadline_us=*/kTimestampMax);
      if (!client.WaitForAcks()) {
        all_ok.store(false);
      }
      client.Close();
    });
  }
  for (auto& producer : producers) {
    producer.join();
  }
  result.ack_latency_us = ack_latency->Snap();
  const std::uint64_t deadline = NowMicros() + 120'000'000ULL;
  while (server.ops_stabilized() < load.total_ops() && NowMicros() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const std::uint64_t elapsed = NowMicros() - start;
  const bool converged = server.ops_stabilized() >= load.total_ops();
  server.Stop();
  if (!all_ok.load() || !converged || elapsed == 0) {
    return result;
  }
  result.ops_per_sec = static_cast<double>(load.total_ops()) /
                       (static_cast<double>(elapsed) / 1e6);
  return result;
}

}  // namespace eunomia::bench
