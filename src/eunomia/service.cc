#include "src/eunomia/service.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <string>

#include "src/metrics/registry.h"

namespace eunomia {

namespace {

void SleepMicros(std::uint64_t us) {
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

}  // namespace

// --- StableFanout ------------------------------------------------------------

void StableFanout::SetSink(StableSink sink) {
  sync::MutexLock lock(emit_mu_);
  sink_ = std::move(sink);
}

void StableFanout::AddListener(StableSink listener) {
  if (!listener) {
    return;
  }
  sync::MutexLock lock(listener_mu_);
  auto next = listeners_ ? std::make_shared<std::vector<StableSink>>(*listeners_)
                         : std::make_shared<std::vector<StableSink>>();
  next->push_back(std::move(listener));
  listeners_ = std::move(next);
}

void StableFanout::Emit(const std::vector<OpRecord>& ops) {
  // emit_mu_ makes the whole fanout of one batch atomic with respect to
  // other emitters, so a failover's momentary second leader cannot
  // interleave its batch into a listener mid-delivery.
  sync::MutexLock emit_lock(emit_mu_);
  if (sink_) {
    sink_(ops);
  }
  std::shared_ptr<const std::vector<StableSink>> listeners;
  {
    sync::MutexLock lock(listener_mu_);
    listeners = listeners_;
  }
  if (listeners) {
    for (const StableSink& listener : *listeners) {
      listener(ops);
    }
  }
}

// --- EunomiaService ----------------------------------------------------------

EunomiaService::EunomiaService(Options options) : options_(std::move(options)) {
  assert(options_.num_partitions >= 1);
  fanout_.SetSink(options_.sink);
  const std::uint32_t partitions = options_.num_partitions;
  const std::uint32_t shards =
      std::clamp<std::uint32_t>(options_.num_shards, 1, partitions);
  inboxes_.reserve(partitions);
  for (std::uint32_t i = 0; i < partitions; ++i) {
    inboxes_.push_back(std::make_unique<Inbox>());
  }
  // Contiguous ranges, remainder spread over the first shards.
  shard_of_partition_.resize(partitions);
  const std::uint32_t base = partitions / shards;
  const std::uint32_t rem = partitions % shards;
  std::uint32_t first = 0;
  for (std::uint32_t s = 0; s < shards; ++s) {
    const std::uint32_t count = base + (s < rem ? 1 : 0);
    shards_.push_back(std::make_unique<Shard>(first, count));
    for (std::uint32_t p = first; p < first + count; ++p) {
      shard_of_partition_[p] = s;
    }
    first += count;
  }
  {
    // No pipeline threads exist yet, but the analysis (rightly) has no
    // notion of "before Start": take the lock.
    sync::MutexLock lock(merge_.mu);
    merge_.shard_stable.assign(shards, 0);
    merge_.staged.resize(shards);
  }
  if (options_.metrics != nullptr) {
    metrics::Registry& registry = *options_.metrics;
    telemetry_ = std::make_unique<Telemetry>();
    for (std::uint32_t s = 0; s < shards; ++s) {
      const metrics::Labels labels = {{"shard", std::to_string(s)}};
      telemetry_->shard_ops_received.push_back(registry.AddCounter(
          "eunomia_service_ops_received_total",
          "Ops ingested into the shard's stabilization core", labels));
      telemetry_->shard_ops_emitted.push_back(registry.AddCounter(
          "eunomia_service_ops_emitted_total",
          "Ops the shard extracted as stable", labels));
      telemetry_->shard_occupancy.push_back(registry.AddGauge(
          "eunomia_service_ordbuf_occupancy",
          "Ops buffered in the shard's ordered buffer, pending stability",
          labels));
    }
    for (std::uint32_t p = 0; p < partitions; ++p) {
      telemetry_->partition_lag.push_back(registry.AddGauge(
          "eunomia_service_partition_frontier_lag",
          "Timestamp distance (us) by which the partition's reported time "
          "leads the global stable frontier; the partition pinned at 0 is "
          "the straggler gating stabilization",
          {{"partition", std::to_string(p)}}));
    }
    telemetry_->merge_queue_depth = registry.AddGauge(
        "eunomia_service_merge_queue_depth",
        "Stable ops staged at the merge gate, waiting for the global "
        "minimum to pass them");
    telemetry_->ops_stabilized = registry.AddCounter(
        "eunomia_service_ops_stabilized_total",
        "Ops emitted in global (timestamp, partition) order");
    telemetry_->recovered_batches = registry.AddCounter(
        "eunomia_service_recovered_batches_total",
        "Accepted-but-unstable batches replayed from the WAL at startup");
  }
  if (options_.durability.disk != nullptr) {
    wal_ = std::make_unique<ServiceWal>(partitions, options_.durability);
    ServiceWal::Recovered recovered = wal_->Recover();
    wal_suppress_mark_ = recovered.stable_mark;
    recovered_torn_tail_ = recovered.any_torn_tail;
    // Replay the accepted pre-crash inputs straight into the shard cores —
    // no pipeline threads exist yet, and going through SubmitBatch would
    // re-log records that are already on disk. Emission of the replayed ops
    // resumes once heartbeats/submissions advance the stable frontier; the
    // merge thread suppresses the prefix the snapshot already covered.
    for (std::uint32_t p = 0; p < partitions; ++p) {
      Shard& shard = *shards_[shard_of_partition_[p]];
      for (auto& batch : recovered.batches[p]) {
        shard.core.AddBatch(batch);
        if (telemetry_) {
          telemetry_->recovered_batches->Increment();
        }
      }
      if (recovered.heartbeats[p] > 0) {
        shard.core.Heartbeat(p, recovered.heartbeats[p]);
        shard.last_forwarded_hb[p - shard.first_partition] =
            recovered.heartbeats[p];
      }
    }
  }
}

EunomiaService::~EunomiaService() { Stop(); }

void EunomiaService::Start() {
  sync::MutexLock lifecycle(lifecycle_mu_);
  if (running_.exchange(true)) {
    return;
  }
  {
    sync::MutexLock lock(merge_.mu);
    merge_.shutdown = false;
  }
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->thread = std::thread([this, s] { ShardLoop(s); });
  }
  merge_thread_ = std::thread([this] { MergeLoop(); });
}

void EunomiaService::Stop() {
  // Serialized with Start and with other Stop callers: a second concurrent
  // Stop blocks here until the pipeline is fully down instead of returning
  // while threads are still draining.
  sync::MutexLock lifecycle(lifecycle_mu_);
  if (!running_.exchange(false)) {
    return;
  }
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    WakeShard(s);
  }
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) {
      shard->thread.join();
    }
  }
  // Every shard has now published its last extraction; let the merge thread
  // run its final flush and exit.
  {
    sync::MutexLock lock(merge_.mu);
    merge_.shutdown = true;
  }
  merge_.cv.NotifyOne();
  if (merge_thread_.joinable()) {
    merge_thread_.join();
  }
  if (wal_) {
    // Clean shutdown: everything accepted is made durable regardless of the
    // fsync policy. A kill -9 never reaches this line — that is the point.
    wal_->Flush();
  }
}

void EunomiaService::SubmitBatch(PartitionId partition, std::vector<OpRecord> batch) {
  assert(partition < inboxes_.size());
  if (!running_.load(std::memory_order_relaxed)) {
    return;  // no consumer after Stop: accepting would grow inboxes forever
  }
  if (wal_) {
    // Log-before-accept: the record reaches the WAL (and, under
    // FsyncPolicy::kPerCommit, the platter — this call syncs inline)
    // before the batch can have any downstream effect, so anything the
    // caller sees acknowledged is recoverable. An append failure is counted
    // (wal_append_failures) but does not reject the batch: a dying disk
    // degrades durability, not availability.
    wal_->LogBatch(partition, batch);
  }
  ops_submitted_.fetch_add(batch.size(), std::memory_order_relaxed);
  Inbox& inbox = *inboxes_[partition];
  {
    sync::MutexLock lock(inbox.mu);
    inbox.batches.push_back(std::move(batch));
  }
  WakeShard(shard_of_partition_[partition]);
}

void EunomiaService::Heartbeat(PartitionId partition, Timestamp ts) {
  assert(partition < inboxes_.size());
  if (!running_.load(std::memory_order_relaxed)) {
    return;
  }
  if (wal_) {
    wal_->LogHeartbeat(partition, ts);
  }
  Inbox& inbox = *inboxes_[partition];
  {
    sync::MutexLock lock(inbox.mu);
    inbox.heartbeat = std::max(inbox.heartbeat, ts);
  }
  WakeShard(shard_of_partition_[partition]);
}

void EunomiaService::AddStableListener(StableSink listener) {
  fanout_.AddListener(std::move(listener));
}

std::vector<OpRecord> EunomiaService::AcquireBatchBuffer() {
  sync::MutexLock lock(batch_pool_.mu);
  if (batch_pool_.free.empty()) {
    return {};
  }
  std::vector<OpRecord> buffer = std::move(batch_pool_.free.back());
  batch_pool_.free.pop_back();
  return buffer;
}

void EunomiaService::RecycleBatches(std::vector<std::vector<OpRecord>>* drained) {
  sync::MutexLock lock(batch_pool_.mu);
  for (auto& batch : *drained) {
    if (batch_pool_.free.size() >= kBatchPoolCap) {
      break;
    }
    batch.clear();  // keep the capacity, drop the ops
    batch_pool_.free.push_back(std::move(batch));
  }
  // Anything past the cap is destroyed with *drained as usual.
}

std::uint64_t EunomiaService::heartbeats_forwarded() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->heartbeats_forwarded.load(std::memory_order_relaxed);
  }
  return total;
}

void EunomiaService::WakeShard(std::uint32_t shard_index) {
  Shard& shard = *shards_[shard_index];
  {
    sync::MutexLock lock(shard.wake_mu);
    shard.work_pending = true;
  }
  shard.wake_cv.NotifyOne();
}

void EunomiaService::ShardLoop(std::uint32_t shard_index) {
  Shard& shard = *shards_[shard_index];
  std::vector<std::vector<OpRecord>> drained;
  std::vector<std::vector<OpRecord>> recycle;
  std::vector<OpRecord> stable_ops;
  // Shard-thread-local mirror of merge_.shard_stable[shard_index] (only this
  // thread ever advances it), so the publish-needed test below does not have
  // to take merge_.mu on idle ticks.
  Timestamp published_stable = 0;
  // Last values mirrored into the telemetry counters (counters are deltas
  // of the core's cumulative numbers, applied every 64th tick — see the
  // telemetry block below).
  std::uint64_t mirrored_received = 0;
  std::uint64_t mirrored_emitted = 0;
  std::uint64_t telemetry_tick = 0;
  while (running_.load(std::memory_order_relaxed)) {
    {
      // Sleep until a submission/heartbeat for this shard arrives; the
      // stabilization period is only a fallback tick.
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::microseconds(options_.stable_period_us);
      sync::MutexLock lock(shard.wake_mu);
      while (!shard.work_pending && running_.load(std::memory_order_relaxed)) {
        if (shard.wake_cv.WaitUntil(shard.wake_mu, deadline) ==
            std::cv_status::timeout) {
          break;
        }
      }
      shard.work_pending = false;
    }
    if (!running_.load(std::memory_order_relaxed)) {
      break;
    }
    // Drain this shard's inboxes into the private core.
    for (std::uint32_t p = shard.first_partition;
         p < shard.first_partition + shard.num_partitions; ++p) {
      Inbox& inbox = *inboxes_[p];
      Timestamp hb = 0;
      {
        sync::MutexLock lock(inbox.mu);
        drained.swap(inbox.batches);
        hb = inbox.heartbeat;
      }
      for (auto& batch : drained) {
        shard.core.AddBatch(batch);
        recycle.push_back(std::move(batch));
      }
      drained.clear();
      Timestamp& forwarded = shard.last_forwarded_hb[p - shard.first_partition];
      if (hb > forwarded) {
        shard.core.Heartbeat(p, hb);
        forwarded = hb;
        shard.heartbeats_forwarded.fetch_add(1, std::memory_order_relaxed);
      }
    }
    // Return drained batch capacity to producers — one pool-lock per tick,
    // not one per partition.
    if (!recycle.empty()) {
      RecycleBatches(&recycle);
      recycle.clear();
    }
    // PROCESS_STABLE on the shard, then publish to the merge stage. The
    // extracted ops all have ts <= shard_stable; the merge stage withholds
    // them until the *global* minimum passes them.
    const Timestamp shard_stable = shard.core.StableTime();
    stable_ops.clear();
    shard.core.ProcessStable(&stable_ops);
    if (shard_stable > published_stable || !stable_ops.empty()) {
      published_stable = std::max(published_stable, shard_stable);
      {
        sync::MutexLock lock(merge_.mu);
        merge_.shard_stable[shard_index] =
            std::max(merge_.shard_stable[shard_index], published_stable);
        auto& queue = merge_.staged[shard_index];
        queue.insert(queue.end(), stable_ops.begin(), stable_ops.end());
        merge_.dirty = true;
      }
      merge_.cv.NotifyOne();
    }
    if (telemetry_ && (++telemetry_tick & 63) == 0) {
      // Mirrored every 64th tick, not every tick: under load the loop wakes
      // per submission, and a per-wake O(partitions) gauge refresh is the
      // kind of cost the <=2% overhead gate (bench/metrics_overhead) exists
      // to catch. Scrapes sample at seconds granularity; 64 ticks of
      // staleness is invisible to them.
      const std::uint64_t received = shard.core.ops_received();
      const std::uint64_t emitted = shard.core.ops_emitted();
      telemetry_->shard_ops_received[shard_index]->Add(received -
                                                       mirrored_received);
      telemetry_->shard_ops_emitted[shard_index]->Add(emitted -
                                                      mirrored_emitted);
      mirrored_received = received;
      mirrored_emitted = emitted;
      telemetry_->shard_occupancy[shard_index]->Set(
          static_cast<std::int64_t>(shard.core.pending_ops()));
      const Timestamp global = global_stable_.load(std::memory_order_relaxed);
      for (std::uint32_t p = shard.first_partition;
           p < shard.first_partition + shard.num_partitions; ++p) {
        const Timestamp seen = shard.core.partition_time(p);
        telemetry_->partition_lag[p]->Set(
            seen > global ? static_cast<std::int64_t>(seen - global) : 0);
      }
    }
  }
}

void EunomiaService::MergeLoop() {
  std::vector<std::vector<OpRecord>> ready(shards_.size());
  std::vector<std::size_t> heads(shards_.size(), 0);
  std::vector<OpRecord> emit;
  for (;;) {
    bool shutting_down = false;
    // Under the lock, only detach each shard's eligible prefix; the k-way
    // merge itself runs unlocked so large emissions never stall publishes.
    {
      sync::MutexLock lock(merge_.mu);
      while (!merge_.dirty && !merge_.shutdown) {
        merge_.cv.Wait(merge_.mu);
      }
      const bool was_dirty = merge_.dirty;
      merge_.dirty = false;
      shutting_down = !was_dirty && merge_.shutdown;
      if (shutting_down) {
        // Final pass: ops a shard already extracted from its core must not
        // be destroyed with the service. No emission can follow this one, so
        // flushing every staged (sorted) stream past the global-min gate
        // still leaves the total emitted sequence in (ts, partition) order —
        // matching the old single-stabilizer service, which delivered
        // everything it extracted.
        for (std::size_t s = 0; s < merge_.staged.size(); ++s) {
          auto& queue = merge_.staged[s];
          ready[s].assign(queue.begin(), queue.end());
          queue.clear();
        }
      } else {
        const Timestamp global = *std::min_element(merge_.shard_stable.begin(),
                                                   merge_.shard_stable.end());
        global_stable_.store(global, std::memory_order_relaxed);
        if (global > kTimestampZero) {
          for (std::size_t s = 0; s < merge_.staged.size(); ++s) {
            auto& queue = merge_.staged[s];
            while (!queue.empty() && queue.front().ts <= global) {
              ready[s].push_back(queue.front());
              queue.pop_front();
            }
          }
        }
      }
      if (telemetry_) {
        std::size_t staged = 0;
        for (const auto& queue : merge_.staged) {
          staged += queue.size();
        }
        telemetry_->merge_queue_depth->Set(static_cast<std::int64_t>(staged));
      }
    }
    // K-way merge of the detached per-shard sorted streams. Ties across
    // shards are ordered by partition id — the same (ts, partition) total
    // order EunomiaCore emits.
    emit.clear();
    for (;;) {
      int best = -1;
      for (std::size_t s = 0; s < ready.size(); ++s) {
        if (heads[s] == ready[s].size()) {
          continue;
        }
        if (best < 0 || OrderKeyOf(ready[s][heads[s]]) <
                            OrderKeyOf(ready[best][heads[best]])) {
          best = static_cast<int>(s);
        }
      }
      if (best < 0) {
        break;
      }
      emit.push_back(ready[best][heads[best]++]);
    }
    for (std::size_t s = 0; s < ready.size(); ++s) {
      ready[s].clear();
      heads[s] = 0;
    }
    // After a recovery, the prefix of the stable stream covered by the
    // on-disk snapshot was already emitted by the pre-crash incarnation;
    // re-emitting it would rewind subscribers. The stream is sorted, so the
    // covered ops are a prefix of this emission.
    if (wal_ && !emit.empty() &&
        OrderKeyOf(emit.front()) <= wal_suppress_mark_) {
      const auto first_kept =
          std::find_if(emit.begin(), emit.end(), [this](const OpRecord& op) {
            return OrderKeyOf(op) > wal_suppress_mark_;
          });
      emit.erase(emit.begin(), first_kept);
    }
    if (!emit.empty()) {
      ops_stabilized_.fetch_add(emit.size(), std::memory_order_relaxed);
      if (telemetry_) {
        telemetry_->ops_stabilized->Add(emit.size());
      }
      fanout_.Emit(emit);
      if (wal_) {
        // Advance the durable frontier; periodically snapshots the mark and
        // compacts the logs (merge thread only — appends keep flowing, they
        // just queue behind the compaction's brief writer pause).
        wal_->NoteStable(OrderKeyOf(emit.back()));
      }
    }
    if (shutting_down) {
      break;
    }
  }
}

// --- FtEunomiaService --------------------------------------------------------

FtEunomiaService::FtEunomiaService(Options options) : options_(std::move(options)) {
  assert(options_.num_replicas >= 1);
  fanout_.SetSink(options_.sink);
  replicas_.reserve(options_.num_replicas);
  for (std::uint32_t r = 0; r < options_.num_replicas; ++r) {
    auto state = std::make_unique<ReplicaState>();
    state->heartbeats.assign(options_.num_partitions, 0);
    state->logic = std::make_unique<EunomiaReplica>(r, options_.num_partitions);
    state->acks = std::vector<std::atomic<Timestamp>>(options_.num_partitions);
    for (auto& a : state->acks) {
      a.store(0, std::memory_order_relaxed);
    }
    replicas_.push_back(std::move(state));
  }
}

FtEunomiaService::~FtEunomiaService() { Stop(); }

void FtEunomiaService::Start() {
  sync::MutexLock lifecycle(lifecycle_mu_);
  if (running_.exchange(true)) {
    return;
  }
  leader_.store(0);
  for (std::uint32_t r = 0; r < replicas_.size(); ++r) {
    replicas_[r]->alive.store(true);
    replicas_[r]->thread = std::thread([this, r] { ReplicaLoop(r); });
  }
}

void FtEunomiaService::Stop() {
  sync::MutexLock lifecycle(lifecycle_mu_);
  if (!running_.exchange(false)) {
    return;
  }
  // Shutdown is not a crash: per-replica liveness is left untouched so that
  // AckOf keeps reporting the real frontiers after Stop.
  for (auto& replica : replicas_) {
    if (replica->thread.joinable()) {
      replica->thread.join();
    }
  }
}

void FtEunomiaService::AddStableListener(StableSink listener) {
  fanout_.AddListener(std::move(listener));
}

void FtEunomiaService::SubmitBatch(PartitionId partition,
                                   std::vector<OpRecord> batch) {
  if (!running_.load(std::memory_order_relaxed)) {
    return;  // replica threads are gone; inboxes would grow unboundedly
  }
  // One immutable batch shared by every replica inbox: replicas only read
  // batches (NewBatch takes a span), so the per-replica deep copies the
  // fan-out used to make were pure waste.
  const SharedBatch shared =
      std::make_shared<const std::vector<OpRecord>>(std::move(batch));
  for (auto& replica : replicas_) {
    if (!replica->alive.load(std::memory_order_relaxed)) {
      continue;
    }
    sync::MutexLock lock(replica->mu);
    replica->batches.emplace_back(partition, shared);
  }
}

void FtEunomiaService::Heartbeat(PartitionId partition, Timestamp ts) {
  if (!running_.load(std::memory_order_relaxed)) {
    return;
  }
  for (auto& replica : replicas_) {
    if (!replica->alive.load(std::memory_order_relaxed)) {
      continue;
    }
    sync::MutexLock lock(replica->mu);
    replica->heartbeats[partition] = std::max(replica->heartbeats[partition], ts);
  }
}

Timestamp FtEunomiaService::AckOf(std::uint32_t replica, PartitionId partition) const {
  assert(replica < replicas_.size() && partition < options_.num_partitions);
  if (!replicas_[replica]->alive.load(std::memory_order_relaxed)) {
    return kTimestampMax;
  }
  return replicas_[replica]->acks[partition].load(std::memory_order_relaxed);
}

void FtEunomiaService::CrashReplica(std::uint32_t replica) {
  assert(replica < replicas_.size());
  ReplicaState& state = *replicas_[replica];
  if (!state.alive.exchange(false)) {
    return;
  }
  // The leader's sink callback runs on the replica's own thread; a crash
  // injected from there must not self-join. The loop observes alive == false
  // and exits on its own; Stop() reaps the thread.
  if (state.thread.joinable() &&
      state.thread.get_id() != std::this_thread::get_id()) {
    state.thread.join();
  }
  RecomputeLeader();
}

void FtEunomiaService::RecomputeLeader() {
  for (std::uint32_t r = 0; r < replicas_.size(); ++r) {
    if (replicas_[r]->alive.load(std::memory_order_relaxed)) {
      leader_.store(static_cast<std::int32_t>(r));
      return;
    }
  }
  leader_.store(-1);
}

bool FtEunomiaService::AnyReplicaAlive() const {
  for (const auto& replica : replicas_) {
    if (replica->alive.load(std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

std::optional<std::uint32_t> FtEunomiaService::CurrentLeader() const {
  const std::int32_t l = leader_.load(std::memory_order_relaxed);
  return l >= 0 ? std::optional<std::uint32_t>(static_cast<std::uint32_t>(l))
                : std::nullopt;
}

void FtEunomiaService::ReplicaLoop(std::uint32_t replica_id) {
  ReplicaState& state = *replicas_[replica_id];
  std::vector<std::pair<PartitionId, SharedBatch>> drained;
  std::vector<Timestamp> heartbeats(options_.num_partitions, 0);
  std::vector<Timestamp> forwarded_hb(options_.num_partitions, 0);
  Timestamp applied_notice = 0;
  std::vector<OpRecord> stable_ops;
  while (running_.load(std::memory_order_relaxed) &&
         state.alive.load(std::memory_order_relaxed)) {
    {
      sync::MutexLock lock(state.mu);
      drained.swap(state.batches);
      heartbeats = state.heartbeats;
    }
    // NEW_BATCH per Alg. 4: dedup against PartitionTime_f, then cumulative ack.
    for (auto& [partition, batch] : drained) {
      const Timestamp ack = state.logic->NewBatch(*batch, partition);
      state.acks[partition].store(ack, std::memory_order_relaxed);
    }
    drained.clear();
    for (PartitionId p = 0; p < heartbeats.size(); ++p) {
      // Forward a heartbeat only when it advances past the last value
      // forwarded for that partition; redelivering the unchanged inbox value
      // every tick would only inflate the core's counters.
      if (heartbeats[p] > forwarded_hb[p]) {
        state.logic->Heartbeat(p, heartbeats[p]);
        forwarded_hb[p] = heartbeats[p];
      }
    }
    // The acquire read of leader_ synchronizes with a crashing leader's
    // final release-broadcast: if we observe ourselves as the new leader,
    // the predecessor's last stable notice is visible below.
    const bool is_leader =
        leader_.load(std::memory_order_acquire) == static_cast<std::int32_t>(replica_id);
    // Apply any pending stable notice first, leader or not (Alg. 4 lines
    // 13-15): a replica that just took over leadership must discard the
    // prefix the previous leader already shipped before it emits, or the
    // failover would re-emit (and double-count) those ops.
    const Timestamp notice = state.stable_notice.load(std::memory_order_acquire);
    if (notice > applied_notice) {  // skip re-applying an unchanged notice
      state.logic->OnStableNotice(notice);
      applied_notice = notice;
    }
    if (is_leader) {
      stable_ops.clear();
      const auto result = state.logic->ProcessStable(&stable_ops);
      if (result.stable_time > 0) {
        // STABLE broadcast (Alg. 4 line 12) — before the sink, so a crash
        // injected from the sink callback hands over to a follower that
        // already holds the notice covering this emission.
        for (std::uint32_t r = 0; r < replicas_.size(); ++r) {
          if (r != replica_id && replicas_[r]->alive.load(std::memory_order_relaxed)) {
            Timestamp cur = replicas_[r]->stable_notice.load(std::memory_order_relaxed);
            while (cur < result.stable_time &&
                   !replicas_[r]->stable_notice.compare_exchange_weak(
                       cur, result.stable_time, std::memory_order_release,
                       std::memory_order_relaxed)) {
            }
          }
        }
      }
      if (result.emitted > 0) {
        ops_stabilized_.fetch_add(result.emitted, std::memory_order_relaxed);
        fanout_.Emit(stable_ops);
      }
    }
    SleepMicros(options_.stable_period_us);
  }
}

}  // namespace eunomia
