// Shared load-generation helpers for the native-service benchmarks
// (Figs. 2, 3, 4 — §7.1 of the paper).
//
// "In order to stretch as much as possible the implementation, we directly
// connect clients to Eunomia, bypassing the data store. Thus, each client
// simulates a different partition in a multi-server datacenter." Each
// producer thread here plays one partition: it tags ops with a hybrid clock,
// batches them locally for ~1 ms (the paper's batching interval) and pushes
// the batch to the service; idle gaps are covered by heartbeats.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/clock/hybrid_clock.h"
#include "src/eunomia/op.h"
#include "src/eunomia/service.h"
#include "src/sequencer/sequencer_service.h"

namespace eunomia::bench {

inline std::uint64_t NowMicros() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct ProducerOptions {
  std::uint32_t num_partitions = 15;
  std::uint64_t duration_us = 3'000'000;
  std::uint64_t batch_interval_us = 1000;  // the paper's 1 ms batching
  // Per-producer offered load cap (ops per batch interval). Keeps memory
  // bounded while still far exceeding what the stabilizer can absorb once
  // enough partitions are attached — the plateau is the service's capacity.
  std::uint64_t ops_per_batch = 2000;
};

// One partition's producer body, shared by the time-bounded and the
// count-bounded drivers: hybrid-clock-timestamped batches of up to
// ops_per_batch until either bound trips (pass kTimestampMax / a huge
// deadline for "unbounded"), an optional sleep between batches, then a
// far-future heartbeat so the backlog can stabilize. Returns ops submitted.
template <typename Service>
std::uint64_t ProducePartitionLoad(Service& service, PartitionId p,
                                   std::uint64_t ops_per_batch,
                                   std::uint64_t batch_interval_us,
                                   std::uint64_t max_ops,
                                   std::uint64_t deadline_us) {
  HybridClock clock;
  std::uint64_t produced = 0;
  while (produced < max_ops && NowMicros() < deadline_us) {
    // EunomiaService recycles drained batch vectors through a free-list;
    // take one back (capacity intact) instead of allocating per interval.
    // Services without a pool (the FT fan-out) fall back to a fresh vector.
    std::vector<OpRecord> batch;
    if constexpr (requires { service.AcquireBatchBuffer(); }) {
      batch = service.AcquireBatchBuffer();
    }
    batch.reserve(ops_per_batch);
    const std::uint64_t n = std::min(ops_per_batch, max_ops - produced);
    for (std::uint64_t i = 0; i < n; ++i) {
      batch.push_back(OpRecord{clock.TimestampUpdate(NowMicros(), 0), p, 0, 0});
    }
    produced += n;
    service.SubmitBatch(p, std::move(batch));
    if (batch_interval_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(batch_interval_us));
    }
  }
  service.Heartbeat(p, clock.max_ts() + 3'600'000'000ULL);
  return produced;
}

// Generic service concept: SubmitBatch(partition, vector<OpRecord>) and
// Heartbeat(partition, ts).
template <typename Service>
std::uint64_t DriveProducers(Service& service, const ProducerOptions& options) {
  std::atomic<std::uint64_t> submitted{0};
  std::vector<std::thread> producers;
  producers.reserve(options.num_partitions);
  const std::uint64_t deadline = NowMicros() + options.duration_us;
  for (std::uint32_t p = 0; p < options.num_partitions; ++p) {
    producers.emplace_back([&service, &options, &submitted, deadline, p] {
      submitted.fetch_add(
          ProducePartitionLoad(service, static_cast<PartitionId>(p),
                               options.ops_per_batch,
                               options.batch_interval_us,
                               /*max_ops=*/kTimestampMax, deadline),
          std::memory_order_relaxed);
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  return submitted.load();
}

// Fixed-load race for capacity measurements: every producer submits exactly
// ops_per_partition ops (batched, timestamp-ordered by a hybrid clock), then
// a far-future heartbeat, and the measurement is the wall-clock time until
// the service reports them all stabilized. Bounding the op count keeps
// memory flat even when the offered load far exceeds the stabilizer's
// capacity — which is exactly the regime the shard-scaling curve probes.
struct FixedLoad {
  std::uint32_t num_partitions = 16;
  std::uint64_t ops_per_partition = 250'000;
  std::uint64_t ops_per_batch = 2000;
  // 0 = submit flat out; otherwise sleep this long between batches.
  std::uint64_t batch_interval_us = 0;

  std::uint64_t total_ops() const {
    return static_cast<std::uint64_t>(num_partitions) * ops_per_partition;
  }
};

template <typename Service>
void SubmitFixedLoad(Service& service, const FixedLoad& load) {
  std::vector<std::thread> producers;
  producers.reserve(load.num_partitions);
  for (std::uint32_t p = 0; p < load.num_partitions; ++p) {
    producers.emplace_back([&service, &load, p] {
      ProducePartitionLoad(service, static_cast<PartitionId>(p),
                           load.ops_per_batch, load.batch_interval_us,
                           load.ops_per_partition,
                           /*deadline_us=*/kTimestampMax);
    });
  }
  for (auto& t : producers) {
    t.join();
  }
}

// Drives `service` with the fixed load and returns stabilized ops/sec
// (start-to-fully-stabilized). Works for EunomiaService and FtEunomiaService
// (anything with Start/Stop/SubmitBatch/Heartbeat/ops_stabilized).
template <typename Service>
double MeasureStabilizedThroughput(Service& service, const FixedLoad& load) {
  service.Start();
  const std::uint64_t start = NowMicros();
  SubmitFixedLoad(service, load);
  const std::uint64_t deadline = NowMicros() + 120'000'000ULL;
  while (service.ops_stabilized() < load.total_ops() && NowMicros() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const std::uint64_t elapsed = NowMicros() - start;
  // Judge convergence before Stop(): its final flush may push the counter
  // to the target and mask a run that actually timed out.
  const bool converged = service.ops_stabilized() >= load.total_ops();
  service.Stop();
  if (!converged || elapsed == 0) {
    return 0.0;  // did not converge inside the deadline
  }
  return static_cast<double>(load.total_ops()) /
         (static_cast<double>(elapsed) / 1e6);
}

// Convenience wrapper: native EunomiaService with `num_shards` stabilizer
// workers.
inline double MeasureShardedThroughput(std::uint32_t num_shards,
                                       const FixedLoad& load,
                                       std::uint64_t stable_period_us = 200) {
  EunomiaService::Options options;
  options.num_partitions = load.num_partitions;
  options.num_shards = num_shards;
  options.stable_period_us = stable_period_us;
  EunomiaService service(options);
  return MeasureStabilizedThroughput(service, load);
}

// Sequencer load: each client thread issues blocking Next() calls flat out.
template <typename Sequencer>
std::uint64_t DriveSequencerClients(Sequencer& sequencer, std::uint32_t clients,
                                    std::uint64_t duration_us) {
  std::atomic<std::uint64_t> granted{0};
  std::vector<std::thread> threads;
  threads.reserve(clients);
  const std::uint64_t deadline = NowMicros() + duration_us;
  for (std::uint32_t c = 0; c < clients; ++c) {
    threads.emplace_back([&sequencer, &granted, deadline] {
      std::uint64_t local = 0;
      while (NowMicros() < deadline) {
        sequencer.Next();
        ++local;
      }
      granted.fetch_add(local, std::memory_order_relaxed);
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  return granted.load();
}

}  // namespace eunomia::bench
