// Native multithreaded Eunomia service — the C++ implementation of §6.
//
// This is the component the paper benchmarks in §7.1 by connecting load
// generators directly to it (bypassing the data store): partitions batch
// operations locally (~1 ms) and push them to the service.
//
// The stabilizer is a *sharded pipeline*. N worker threads each own a
// contiguous partition range with a private EunomiaCore shard — there is no
// shared mutex on the ingest hot path. A worker is woken by submissions and
// heartbeats for its partitions (condition variable, with the stabilization
// period as a fallback tick), drains its inboxes via swap, bulk-inserts each
// batch (EunomiaCore::AddBatch exploits per-partition timestamp
// monotonicity), and publishes its (stable_time, stable_ops) to a merge
// stage. A dedicated merge thread computes the global minimum stable time
// across shards and emits ops in global (timestamp, partition) order through
// a k-way merge of the per-shard sorted streams. With num_shards == 1 the
// emitted sequence is bit-for-bit the single-stabilizer order, so the
// unsharded configuration pins the semantics.
//
// Two variants:
//   - EunomiaService: the non-fault-tolerant service described above.
//   - FtEunomiaService: N replicas (Alg. 4); partitions fan batches out to
//     every replica, replicas deduplicate and acknowledge cumulatively, the
//     leader stabilizes and notifies followers. Replicas never coordinate on
//     the input order — that is why fault tolerance costs so little compared
//     to a chain-replicated sequencer (Fig. 3).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "src/common/sync.h"
#include "src/common/types.h"
#include "src/eunomia/core.h"
#include "src/eunomia/op.h"
#include "src/eunomia/replica.h"
#include "src/eunomia/service_wal.h"
#include "src/metrics/counter.h"
#include "src/metrics/gauge.h"

namespace eunomia::metrics {
class Registry;
}

namespace eunomia {

// Callback invoked with each stable batch (ops are in timestamp order).
// May be empty; the service then just counts.
using StableSink = std::function<void(const std::vector<OpRecord>&)>;

// Shared stable-stream fanout used by both service variants: the primary
// Options sink plus a copy-on-write registry of added listeners. Emit
// serializes concurrent emitters (the FT service can briefly have two
// replicas believing they lead during a failover; subscribers must still
// observe one totally ordered stream).
class StableFanout {
 public:
  void SetSink(StableSink sink) EXCLUDES(emit_mu_);
  void AddListener(StableSink listener) EXCLUDES(listener_mu_);
  void Emit(const std::vector<OpRecord>& ops) EXCLUDES(emit_mu_);

 private:
  sync::Mutex emit_mu_{"StableFanout::emit_mu_", sync::kRankFanoutEmit};
  sync::Mutex listener_mu_{"StableFanout::listener_mu_",
                           sync::kRankFanoutListeners};
  StableSink sink_ GUARDED_BY(emit_mu_);
  std::shared_ptr<const std::vector<StableSink>> listeners_
      GUARDED_BY(listener_mu_);
};

class EunomiaService {
 public:
  struct Options {
    std::uint32_t num_partitions = 1;
    // Stabilizer worker count; clamped to [1, num_partitions]. Each shard
    // owns a contiguous partition range and a private EunomiaCore.
    std::uint32_t num_shards = 1;
    std::uint64_t stable_period_us = 500;  // theta (fallback wakeup period)
    StableSink sink;
    // Durability (src/eunomia/service_wal.h). With durability.disk set, the
    // constructor recovers accepted-but-unstable state from the disk and
    // SubmitBatch logs each batch before accepting it; stable ops above the
    // last snapshot may re-emit after a crash (at-least-once, dedup by
    // (ts, partition)). disk == nullptr keeps the service purely in-memory.
    ServiceDurability durability;
    // Observability (docs/METRICS.md §eunomia). When set, the service
    // registers per-shard submit/emit counters, per-partition stable-
    // frontier lag gauges, ordbuf occupancy and merge-queue depth into this
    // registry and refreshes them once per pipeline tick (delta-mirroring
    // the cores' cumulative counters — never per-op work). Null: no
    // instrumentation at all, which is the baseline the ≤2% overhead gate
    // (bench/metrics_overhead) compares against.
    metrics::Registry* metrics = nullptr;
  };

  explicit EunomiaService(Options options);
  ~EunomiaService();

  EunomiaService(const EunomiaService&) = delete;
  EunomiaService& operator=(const EunomiaService&) = delete;

  // Start/Stop are serialized and idempotent: concurrent callers block until
  // the transition completes, repeated calls are no-ops. A remote frontend
  // (src/net/) may race disconnecting clients against shutdown, so Stop must
  // be safe against concurrent SubmitBatch/Heartbeat — late calls are
  // dropped, never crash.
  void Start();
  // Stops the pipeline. Ops a shard already extracted as stable are flushed
  // to the sink (in order) even if the global-min gate was still withholding
  // them; ops still in inboxes or shard cores are dropped, as before.
  // Because the flush may emit past the global gate, the sorted-emission
  // guarantee is per Start/Stop cycle: a restarted service may emit retained
  // ops whose timestamps precede the final flush of the previous cycle.
  void Stop();

  bool running() const { return running_.load(std::memory_order_relaxed); }

  // Registers an additional consumer of the stable stream, invoked after the
  // Options sink with the same batches in the same order (on the merge
  // thread). This is the fanout point remote frontends use to attach
  // subscribers without owning the service's primary sink. Listeners cannot
  // be removed — a frontend installs one listener and multiplexes its own
  // dynamic subscriber set behind it.
  void AddStableListener(StableSink listener);

  // Producer API — callable concurrently from partition threads. Ops inside
  // a batch must be in increasing timestamp order (the partition guarantees
  // it; Property 2). Only valid between Start() and Stop(): submissions
  // outside that window are dropped (there is no consumer, so buffering
  // them would grow the inboxes without bound).
  void SubmitBatch(PartitionId partition, std::vector<OpRecord> batch);
  void Heartbeat(PartitionId partition, Timestamp ts);

  // Returns an empty batch vector recycled from the shard pipeline (with its
  // previous capacity intact), or a fresh one if the free-list is empty.
  // Producers that submit continuously can pair this with SubmitBatch to
  // stop allocating a new vector per batch interval.
  std::vector<OpRecord> AcquireBatchBuffer();

  std::uint64_t ops_stabilized() const {
    return ops_stabilized_.load(std::memory_order_relaxed);
  }
  std::uint64_t ops_submitted() const {
    return ops_submitted_.load(std::memory_order_relaxed);
  }
  std::uint32_t num_shards() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  // Heartbeats actually forwarded to the shard cores. A heartbeat is
  // forwarded only when it advances past the last value forwarded for its
  // partition, so an idle service does not inflate this on every tick.
  std::uint64_t heartbeats_forwarded() const;

  // Durability observability (0 / nullptr-safe when durability is off).
  std::uint64_t wal_snapshots() const {
    return wal_ ? wal_->snapshots_taken() : 0;
  }
  std::uint64_t wal_append_failures() const {
    return wal_ ? wal_->append_failures() : 0;
  }
  // True if recovery found (and discarded) a torn final record in any log.
  bool recovered_torn_tail() const { return recovered_torn_tail_; }

 private:
  struct Inbox {
    sync::Mutex mu{"EunomiaService::Inbox::mu", sync::kRankServiceInbox};
    std::vector<std::vector<OpRecord>> batches GUARDED_BY(mu);
    Timestamp heartbeat GUARDED_BY(mu) = 0;
  };

  struct Shard {
    Shard(std::uint32_t first, std::uint32_t count)
        : first_partition(first),
          num_partitions(count),
          core(count, first),
          last_forwarded_hb(count, 0) {}

    const std::uint32_t first_partition;
    const std::uint32_t num_partitions;
    EunomiaCore core;  // private to the owning worker thread
    sync::Mutex wake_mu{"EunomiaService::Shard::wake_mu",
                        sync::kRankShardWake};
    sync::CondVar wake_cv;
    bool work_pending GUARDED_BY(wake_mu) = false;
    std::vector<Timestamp> last_forwarded_hb;  // owning thread only
    std::atomic<std::uint64_t> heartbeats_forwarded{0};
    std::thread thread;
  };

  // Per-shard state published to the merge stage: the shard's stable time
  // and its extracted stable ops (a sorted stream).
  struct MergeStage {
    sync::Mutex mu{"EunomiaService::MergeStage::mu", sync::kRankMergeStage};
    sync::CondVar cv;
    bool dirty GUARDED_BY(mu) = false;
    // Set by Stop() only after every shard thread is joined, so the final
    // flush cannot run before the last shard's publish.
    bool shutdown GUARDED_BY(mu) = false;
    std::vector<Timestamp> shard_stable GUARDED_BY(mu);
    std::vector<std::deque<OpRecord>> staged GUARDED_BY(mu);
  };

  // Drained inbox batch vectors are recycled through this small free-list
  // instead of being destroyed every tick; AcquireBatchBuffer hands their
  // capacity back to producers.
  struct BatchPool {
    sync::Mutex mu{"EunomiaService::BatchPool::mu", sync::kRankBatchPool};
    std::vector<std::vector<OpRecord>> free GUARDED_BY(mu);
  };
  static constexpr std::size_t kBatchPoolCap = 64;

  // Series registered when Options::metrics is set; all updates are relaxed
  // atomic writes performed once per shard/merge tick.
  struct Telemetry {
    std::vector<std::shared_ptr<metrics::Counter>> shard_ops_received;
    std::vector<std::shared_ptr<metrics::Counter>> shard_ops_emitted;
    std::vector<std::shared_ptr<metrics::Gauge>> shard_occupancy;
    std::vector<std::shared_ptr<metrics::Gauge>> partition_lag;
    std::shared_ptr<metrics::Gauge> merge_queue_depth;
    std::shared_ptr<metrics::Counter> ops_stabilized;
    std::shared_ptr<metrics::Counter> recovered_batches;
    std::shared_ptr<metrics::Counter> wal_append_failures;
  };

  void ShardLoop(std::uint32_t shard_index);
  void MergeLoop();
  void WakeShard(std::uint32_t shard_index);
  void RecycleBatches(std::vector<std::vector<OpRecord>>* drained);

  Options options_;
  std::unique_ptr<Telemetry> telemetry_;  // null when metrics are off
  // Latest global-min stable time, published by the merge thread so shard
  // ticks can compute per-partition frontier lag without taking merge_.mu.
  std::atomic<Timestamp> global_stable_{0};
  // Durability pipeline; nullptr when Options::durability.disk is unset.
  std::unique_ptr<ServiceWal> wal_;
  // Recovery artifacts, fixed at construction: stable ops at or below the
  // suppression mark were covered by the on-disk snapshot and must not be
  // re-emitted by the merge thread.
  OpOrderKey wal_suppress_mark_{0, 0};
  bool recovered_torn_tail_ = false;
  // Serializes Start/Stop so concurrent lifecycle calls cannot interleave
  // with thread spawning/joining.
  sync::Mutex lifecycle_mu_{"EunomiaService::lifecycle_mu_",
                            sync::kRankLifecycle};
  StableFanout fanout_;
  std::vector<std::unique_ptr<Inbox>> inboxes_;
  BatchPool batch_pool_;
  std::vector<std::uint32_t> shard_of_partition_;
  std::vector<std::unique_ptr<Shard>> shards_;
  MergeStage merge_;
  std::thread merge_thread_;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> ops_stabilized_{0};
  std::atomic<std::uint64_t> ops_submitted_{0};
};

class FtEunomiaService {
 public:
  struct Options {
    std::uint32_t num_partitions = 1;
    std::uint32_t num_replicas = 3;
    std::uint64_t stable_period_us = 500;  // theta
    StableSink sink;  // invoked by whichever replica is currently leader
  };

  explicit FtEunomiaService(Options options);
  ~FtEunomiaService();

  FtEunomiaService(const FtEunomiaService&) = delete;
  FtEunomiaService& operator=(const FtEunomiaService&) = delete;

  // Serialized and idempotent, like the non-FT service: safe against
  // concurrent SubmitBatch from disconnecting remote clients.
  void Start();
  void Stop();

  bool running() const { return running_.load(std::memory_order_relaxed); }

  // Same contract as EunomiaService::AddStableListener; invoked by whichever
  // replica is currently leader, after the Options sink.
  void AddStableListener(StableSink listener);

  // Fans the batch out to every live replica as one shared immutable copy
  // (the partition-side ReplicatedSender logic — resend-until-acked — is
  // handled by the caller via AckOf; see bench/service_driver.h). Only
  // valid between Start() and Stop(): submissions outside that window are
  // dropped. Moving the batch in avoids even the single copy.
  void SubmitBatch(PartitionId partition, std::vector<OpRecord> batch);
  void Heartbeat(PartitionId partition, Timestamp ts);

  // Latest cumulative ack from `replica` for `partition`; kTimestampMax if
  // the replica crashed (callers treat it as "stop buffering for it").
  // Stopping the service is not a crash: after Stop() this still reports the
  // real ack frontier of every replica.
  Timestamp AckOf(std::uint32_t replica, PartitionId partition) const;

  // Crash injection: stops the replica thread; if it was the leader, the
  // next live replica takes over (lowest id, Omega-style). Safe to call from
  // the leader's own sink callback (self-crash defers the join to Stop).
  void CrashReplica(std::uint32_t replica);

  bool AnyReplicaAlive() const;
  std::optional<std::uint32_t> CurrentLeader() const;

  std::uint64_t ops_stabilized() const {
    return ops_stabilized_.load(std::memory_order_relaxed);
  }

 private:
  // Batches are fanned out to every replica as one shared immutable vector
  // (replicas only read them through NewBatch's span), so SubmitBatch pays
  // one copy total instead of one per replica.
  using SharedBatch = std::shared_ptr<const std::vector<OpRecord>>;

  struct ReplicaState {
    sync::Mutex mu{"FtEunomiaService::ReplicaState::mu",
                   sync::kRankServiceInbox};
    std::vector<std::pair<PartitionId, SharedBatch>> batches GUARDED_BY(mu);
    std::vector<Timestamp> heartbeats GUARDED_BY(mu);  // per partition
    std::unique_ptr<EunomiaReplica> logic;
    std::thread thread;
    // "Not crashed". Independent of the service-running flag: Stop() leaves
    // it untouched so shutdown is not observed as a failure.
    std::atomic<bool> alive{false};
    std::vector<std::atomic<Timestamp>> acks;  // per partition
    // Stable notices from the leader, applied by followers.
    std::atomic<Timestamp> stable_notice{0};
  };

  void ReplicaLoop(std::uint32_t replica_id);
  void RecomputeLeader();

  Options options_;
  sync::Mutex lifecycle_mu_{"FtEunomiaService::lifecycle_mu_",
                            sync::kRankLifecycle};
  StableFanout fanout_;
  std::vector<std::unique_ptr<ReplicaState>> replicas_;
  std::atomic<bool> running_{false};
  std::atomic<std::int32_t> leader_{0};  // -1 when none alive
  std::atomic<std::uint64_t> ops_stabilized_{0};
};

}  // namespace eunomia
