#include "src/eunomia/service_wal.h"

#include <chrono>
#include <utility>

#include "src/net/wire_io.h"

namespace eunomia {

namespace io = net::wire::io;

std::string ServiceWal::LogName(PartitionId partition) {
  return "log-p" + std::to_string(partition);
}

ServiceWal::ServiceWal(std::uint32_t num_partitions,
                       const ServiceDurability& options)
    : options_(options), num_partitions_(num_partitions) {}

ServiceWal::~ServiceWal() {
  if (snap_thread_.joinable()) {
    {
      sync::MutexLock lock(snap_mu_);
      snap_stop_ = true;
    }
    snap_cv_.NotifyAll();
    snap_thread_.join();
  }
}

namespace {

constexpr std::size_t kOpWireBytes = 28;  // ts, partition, key, tag

// Sized-once + raw stores: this runs on the commit path for every accepted
// batch, where per-byte appends measurably tax a small host.
void EncodeBatch(std::string* out, PartitionId partition,
                 const std::vector<OpRecord>& batch) {
  const std::size_t base = out->size();
  out->resize(base + 8 + batch.size() * kOpWireBytes);
  char* p = out->data() + base;
  io::StoreU32(p, partition);
  io::StoreU32(p + 4, static_cast<std::uint32_t>(batch.size()));
  p += 8;
  for (const OpRecord& op : batch) {
    io::StoreU64(p, op.ts);
    io::StoreU32(p + 8, op.partition);
    io::StoreU64(p + 12, op.key);
    io::StoreU64(p + 20, op.tag);
    p += kOpWireBytes;
  }
}

bool DecodeBatch(const std::string& payload, PartitionId* partition,
                 std::vector<OpRecord>* batch) {
  io::PayloadReader reader(payload);
  std::uint32_t count = 0;
  if (!reader.U32(partition) || !reader.U32(&count)) {
    return false;
  }
  batch->resize(count);
  for (OpRecord& op : *batch) {
    if (!reader.U64(&op.ts) || !reader.U32(&op.partition) ||
        !reader.U64(&op.key) || !reader.U64(&op.tag)) {
      return false;
    }
  }
  return reader.done();
}

}  // namespace

ServiceWal::Recovered ServiceWal::Recover() {
  Recovered out;
  out.batches.resize(num_partitions_);
  out.heartbeats.assign(num_partitions_, 0);

  // Snapshot first: a missing/invalid snapshot is simply mark (0, 0).
  std::string snap_bytes;
  if (options_.disk->ReadAll("snap", &snap_bytes)) {
    std::vector<wal::Record> records;
    // The snapshot is replaced atomically, so a CRC failure here means
    // external corruption; falling back to the zero mark only costs
    // duplicate re-emission, never a hole.
    wal::ReadLog(snap_bytes, &records);
    if (!records.empty() && records.back().type == kSnapshotRecord) {
      io::PayloadReader reader(records.back().payload);
      std::uint64_t ts = 0;
      std::uint32_t partition = 0;
      if (reader.U64(&ts) && reader.U32(&partition) && reader.done()) {
        out.stable_mark = OpOrderKey{ts, partition};
      }
    }
  }
  {
    sync::MutexLock lock(snap_mu_);
    last_snapshot_mark_ = out.stable_mark;
  }

  logs_.resize(num_partitions_);
  for (PartitionId p = 0; p < num_partitions_; ++p) {
    std::vector<wal::Record> records;
    if (wal::RecoverLog(options_.disk, LogName(p), &records) ==
        wal::LogState::kTornTail) {
      out.any_torn_tail = true;
    }
    for (const wal::Record& record : records) {
      if (record.type == kBatchRecord) {
        PartitionId logged_partition = 0;
        std::vector<OpRecord> batch;
        if (DecodeBatch(record.payload, &logged_partition, &batch) &&
            logged_partition == p) {
          out.batches[p].push_back(std::move(batch));
        }
      } else if (record.type == kHeartbeatRecord) {
        io::PayloadReader reader(record.payload);
        std::uint32_t partition = 0;
        std::uint64_t ts = 0;
        if (reader.U32(&partition) && reader.U64(&ts) && reader.done() &&
            partition == p && ts > out.heartbeats[p]) {
          out.heartbeats[p] = ts;
        }
      }
      // Unknown record types are skipped, not fatal: the CRC already
      // vouched for them, they are just from a newer writer.
    }
    // Append pipelines open only after RecoverLog truncated any torn tail,
    // so new records always start on a record boundary.
    logs_[p] = std::make_unique<wal::LogWriter>(options_.disk, LogName(p),
                                                options_.fsync);
  }
  if (options_.threaded) {
    snap_thread_ = std::thread([this] { SnapshotLoop(); });
  }
  return out;
}

bool ServiceWal::LogBatch(PartitionId partition,
                          const std::vector<OpRecord>& batch) {
  // Reused per producer thread: a full batch record is tens of KB, and an
  // allocate/free per append is measurable on the commit path.
  static thread_local std::string payload;
  payload.clear();
  EncodeBatch(&payload, partition, batch);
  if (!logs_[partition]->Append(kBatchRecord, payload)) {
    append_failures_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  return true;
}

void ServiceWal::LogHeartbeat(PartitionId partition, Timestamp ts) {
  std::string payload;
  io::PutU32(&payload, partition);
  io::PutU64(&payload, ts);
  // Heartbeats ride the same log and the same fsync policy as batches; a
  // lost heartbeat only delays stabilization after a restart, it loses no
  // data, so there is no need for a separate non-durable path.
  if (!logs_[partition]->Append(kHeartbeatRecord, payload)) {
    append_failures_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ServiceWal::NoteStable(OpOrderKey frontier) {
  {
    sync::MutexLock lock(snap_mu_);
    if (frontier <= last_snapshot_mark_) {
      return;
    }
    std::uint64_t total_bytes = 0;
    for (const auto& log : logs_) {
      total_bytes += log->bytes_appended();  // lock-free reads
    }
    if (total_bytes - bytes_at_last_snapshot_ <
        options_.snapshot_interval_bytes) {
      return;
    }
    // Debit the byte budget at request time so a merge thread emitting
    // faster than the maintenance thread compacts does not pile up
    // requests for the same span of log.
    bytes_at_last_snapshot_ = total_bytes;
    if (snap_thread_.joinable()) {
      snap_mark_ = frontier;
      snap_requested_ = true;
      snap_cv_.NotifyOne();
      return;
    }
  }
  // Inline/deterministic mode: compact right here on the merge thread.
  WriteSnapshotAndCompact(frontier);
}

void ServiceWal::SnapshotLoop() {
  // Besides servicing snapshot requests, this thread is the kInterval
  // syncer: appends are inline and only sync by bytes, so the "a written
  // byte stays un-synced at most wal::kFsyncIntervalUs" half of the
  // interval policy is enforced here by flushing every log each window.
  // Flush is a no-op on a log with nothing un-synced.
  using Clock = std::chrono::steady_clock;
  const bool interval_sync =
      options_.fsync == wal::FsyncPolicy::kInterval;
  const auto interval = std::chrono::microseconds(wal::kFsyncIntervalUs);
  auto next_sync = Clock::now() + interval;
  for (;;) {
    OpOrderKey mark{0, 0};
    bool do_snapshot = false;
    {
      sync::MutexLock lock(snap_mu_);
      while (!snap_requested_ && !snap_stop_) {
        if (interval_sync) {
          if (Clock::now() >= next_sync) {
            break;
          }
          snap_cv_.WaitUntil(snap_mu_, next_sync);
        } else {
          snap_cv_.Wait(snap_mu_);
        }
      }
      if (snap_stop_ && !snap_requested_) {
        return;  // stopping with nothing pending
      }
      if (snap_requested_) {
        mark = snap_mark_;
        snap_requested_ = false;
        do_snapshot = true;
      }
    }
    if (do_snapshot) {
      WriteSnapshotAndCompact(mark);
    }
    if (interval_sync && Clock::now() >= next_sync) {
      for (auto& log : logs_) {
        log->Flush();
      }
      next_sync = Clock::now() + interval;
    }
  }
}

void ServiceWal::WriteSnapshotAndCompact(OpOrderKey mark) {
  // Snapshot first: only once the new mark is durable may the logs drop
  // records it covers. (The reverse order could lose ops: compacted logs
  // plus the old mark would replay nothing for the gap.)
  std::string payload;
  io::PutU64(&payload, mark.ts);
  io::PutU32(&payload, mark.partition);
  std::string framed;
  wal::AppendRecord(&framed, kSnapshotRecord, payload);
  if (!options_.disk->WriteAtomic("snap", framed)) {
    append_failures_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  {
    sync::MutexLock lock(snap_mu_);
    last_snapshot_mark_ = mark;
  }
  snapshots_taken_.fetch_add(1, std::memory_order_relaxed);
  for (PartitionId p = 0; p < num_partitions_; ++p) {
    // The filter runs in log order; track the newest heartbeat seen so only
    // the monotone survivors (in practice, the last) are kept.
    Timestamp newest_hb = 0;
    logs_[p]->Compact([&](const wal::RecordView& record) {
      if (record.type == kBatchRecord) {
        // A batch is droppable only when *all* its ops are covered by the
        // snapshot mark; a straddler stays whole (replay + suppression
        // absorbs the covered prefix). Ops are fixed-width, so peeking at
        // the last one is O(1) — decoding every op of every batch would
        // make compaction quadratic-feeling on big logs for no benefit.
        if (record.payload.size() < 8) {
          return false;  // malformed: drop
        }
        const char* data = record.payload.data();
        const std::uint32_t count = io::GetU32(data + 4);
        if (count == 0 || record.payload.size() !=
                              8 + std::size_t{count} * kOpWireBytes) {
          return false;
        }
        const char* last = data + 8 + std::size_t{count - 1} * kOpWireBytes;
        return OpOrderKey{io::GetU64(last), io::GetU32(last + 8)} > mark;
      }
      if (record.type == kHeartbeatRecord) {
        io::PayloadReader reader(record.payload);
        std::uint32_t partition = 0;
        std::uint64_t ts = 0;
        if (!reader.U32(&partition) || !reader.U64(&ts) || !reader.done()) {
          return false;
        }
        // Keep monotone-increasing heartbeats only; the replay takes the
        // max anyway, this just sheds the bulk of a heartbeat-heavy log.
        if (ts <= newest_hb) {
          return false;
        }
        newest_hb = ts;
        return true;
      }
      return true;  // unknown-but-valid: preserve
    });
  }
}

void ServiceWal::Flush() {
  for (const auto& log : logs_) {
    log->Flush();
  }
}

}  // namespace eunomia
