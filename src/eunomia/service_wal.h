// Durability for EunomiaService: per-partition write-ahead logs plus a
// stable-frontier snapshot.
//
// What must survive a kill -9 is exactly the service's external promise:
// every batch/heartbeat it accepted (logged *before* the submission returns,
// so acked implies recoverable) and the prefix of the stable stream it has
// already emitted (so a restart does not silently rewind the frontier).
// The state itself is tiny — EunomiaCore holds only unstable ops — so
// instead of snapshotting core state, the snapshot records the *emitted
// frontier* (the (ts, partition) order key of the last stable op), and the
// logs retain every record not wholly covered by it. Recovery is then:
// replay the retained batches/heartbeats into the shard cores (they are
// idempotent re-inserts of exactly the pre-crash inputs), and suppress
// re-emission of stable ops at or below the snapshot mark.
//
// Stream semantics after a crash: ops between the last snapshot mark and
// the pre-crash stable frontier are re-emitted — the stable stream is
// at-least-once across restarts, deduplicable by the unique (ts, partition)
// key (Property 2). At-least-once is the deliberate choice: a subscriber
// that missed the pre-crash tail sees no hole, and one that saw it drops
// the duplicates by key.
//
// Files on the Disk (one logical directory per service):
//   log-p<P>  per-partition record log: kBatch / kHeartbeat records
//   snap      one framed kSnapshot record, replaced via WriteAtomic
//
// Log truncation: once the emitted frontier has advanced past a threshold
// of logged bytes, the snapshot is rewritten and each partition log is
// compacted, dropping batch records whose *last* op is covered by the mark
// (a straddling batch is kept whole; replay + suppression handles the
// overlap) and keeping only the newest heartbeat per partition.
//
// The fault-tolerant variant (FtEunomiaService) is intentionally not wired
// here: its durability story is replication (Alg. 4), and mixing the two
// recovery paths would blur which one a test is exercising.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/sync.h"
#include "src/common/types.h"
#include "src/eunomia/op.h"
#include "src/wal/log_writer.h"

namespace eunomia {

// Durability knobs embedded in EunomiaService::Options. disk == nullptr
// means durability is off and the service behaves exactly as before.
struct ServiceDurability {
  wal::Disk* disk = nullptr;  // borrowed; must outlive the service
  wal::FsyncPolicy fsync = wal::FsyncPolicy::kPerCommit;
  // Rewrite the snapshot + compact the logs once this many bytes of
  // records have been appended since the last snapshot.
  std::uint64_t snapshot_interval_bytes = 1u << 20;
  // Run a background maintenance thread for snapshot/compaction work and
  // the kInterval time-bounded sync (every wal::kFsyncIntervalUs). Appends
  // are always inline. Off = fully synchronous for deterministic tests.
  bool threaded = true;
};

class ServiceWal {
 public:
  // Record types in the per-partition logs / snapshot file.
  static constexpr std::uint8_t kBatchRecord = 1;
  static constexpr std::uint8_t kHeartbeatRecord = 2;
  static constexpr std::uint8_t kSnapshotRecord = 3;

  ServiceWal(std::uint32_t num_partitions, const ServiceDurability& options);
  ~ServiceWal();

  ServiceWal(const ServiceWal&) = delete;
  ServiceWal& operator=(const ServiceWal&) = delete;

  struct Recovered {
    // Batches in original per-partition log order, and the newest logged
    // heartbeat per partition.
    std::vector<std::vector<std::vector<OpRecord>>> batches;  // [partition]
    std::vector<Timestamp> heartbeats;                        // [partition]
    // Emission suppression point: stable ops with order key <= mark were
    // already covered by the snapshot and must not re-emit.
    OpOrderKey stable_mark{0, 0};
    bool any_torn_tail = false;  // at least one log ended mid-record
  };

  // Reads the snapshot and all partition logs (repairing torn tails on
  // disk), then opens the append pipelines. Must be called exactly once,
  // before any Log* call; single-threaded.
  Recovered Recover();

  // Appends a batch record; under FsyncPolicy::kPerCommit it is synced
  // before this returns. Returns false if the disk failed.
  bool LogBatch(PartitionId partition, const std::vector<OpRecord>& batch);
  // Appends a heartbeat record (never blocks for durability: a lost
  // heartbeat only delays stabilization, it loses no data).
  void LogHeartbeat(PartitionId partition, Timestamp ts);

  // Called from the merge thread with the order key of the last op of each
  // emitted stable batch. Rewrites the snapshot and compacts logs when
  // enough bytes have accumulated — on a background maintenance thread in
  // threaded mode (compacting a large log inline would stall stabilization
  // itself), synchronously in inline/deterministic mode.
  void NoteStable(OpOrderKey frontier);

  // Drains and syncs every log (clean shutdown; kill -9 tests skip it).
  void Flush();

  std::uint64_t snapshots_taken() const {
    return snapshots_taken_.load(std::memory_order_relaxed);
  }
  std::uint64_t append_failures() const {
    return append_failures_.load(std::memory_order_relaxed);
  }

  static std::string LogName(PartitionId partition);

 private:
  void WriteSnapshotAndCompact(OpOrderKey mark);
  void SnapshotLoop();

  const ServiceDurability options_;
  const std::uint32_t num_partitions_;
  std::vector<std::unique_ptr<wal::LogWriter>> logs_;  // [partition]

  // Snapshot scheduling state, shared between the merge thread (NoteStable)
  // and the maintenance thread. Never held across a compaction — the thread
  // takes the request out and releases before touching the logs.
  mutable sync::Mutex snap_mu_{"ServiceWal::snap_mu_",
                               sync::kRankWalSnapshot};
  sync::CondVar snap_cv_;
  OpOrderKey last_snapshot_mark_ GUARDED_BY(snap_mu_){0, 0};
  std::uint64_t bytes_at_last_snapshot_ GUARDED_BY(snap_mu_) = 0;
  OpOrderKey snap_mark_ GUARDED_BY(snap_mu_){0, 0};  // requested mark
  bool snap_requested_ GUARDED_BY(snap_mu_) = false;
  bool snap_stop_ GUARDED_BY(snap_mu_) = false;
  std::thread snap_thread_;  // threaded mode only; joined in the destructor

  std::atomic<std::uint64_t> snapshots_taken_{0};
  std::atomic<std::uint64_t> append_failures_{0};
};

}  // namespace eunomia
