#include "src/georep/runtime/durability.h"

#include <algorithm>
#include <cassert>
#include <string_view>
#include <utility>

#include "src/net/wire_io.h"

namespace eunomia::geo::rt {

namespace io = ::eunomia::net::wire::io;

namespace {

constexpr const char* kInboundLogName = "inbound";
constexpr const char* kSnapName = "snap";

void PutVts(std::string* out, const VectorTimestamp& vts) {
  for (DatacenterId d = 0; d < vts.size(); ++d) {
    io::PutU64(out, vts[d]);
  }
}

bool GetVts(io::PayloadReader* reader, std::uint32_t num_dcs,
            VectorTimestamp* vts) {
  *vts = VectorTimestamp(num_dcs);
  for (DatacenterId d = 0; d < num_dcs; ++d) {
    std::uint64_t v = 0;
    if (!reader->U64(&v)) {
      return false;
    }
    (*vts)[d] = v;
  }
  return true;
}

// Shared by kInstallRecord and kInboundPayloadRecord.
std::string EncodePayloadRecord(PartitionId partition,
                                const RemotePayload& payload) {
  std::string out;
  io::PutU32(&out, partition);
  io::PutU64(&out, payload.uid);
  io::PutU64(&out, payload.key);
  io::PutU32(&out, payload.origin);
  PutVts(&out, payload.vts);
  io::PutU32(&out, static_cast<std::uint32_t>(payload.value.size()));
  out += payload.value;
  return out;
}

bool DecodePayloadRecord(std::string_view bytes, std::uint32_t num_dcs,
                         PartitionId* partition, RemotePayload* payload) {
  io::PayloadReader reader(bytes);
  std::uint32_t value_len = 0;
  if (!reader.U32(partition) || !reader.U64(&payload->uid) ||
      !reader.U64(&payload->key) || !reader.U32(&payload->origin) ||
      !GetVts(&reader, num_dcs, &payload->vts) || !reader.U32(&value_len) ||
      !reader.Bytes(value_len, &payload->value)) {
    return false;
  }
  return reader.done();
}

// The install-log record filter Recover and InstallCursor share: a
// well-formed kInstallRecord of partition `p` that `dc` originated.
bool DecodeInstallRecord(std::uint8_t type, std::string_view bytes,
                         DatacenterId dc, std::uint32_t num_dcs, PartitionId p,
                         RemotePayload* payload) {
  PartitionId logged_partition = 0;
  return type == GeoDurability::kInstallRecord &&
         DecodePayloadRecord(bytes, num_dcs, &logged_partition, payload) &&
         logged_partition == p && payload->origin == dc;
}

std::string EncodeMetaRecord(const std::vector<RemoteUpdate>& batch) {
  std::string out;
  io::PutU32(&out, static_cast<std::uint32_t>(batch.size()));
  for (const RemoteUpdate& u : batch) {
    io::PutU64(&out, u.uid);
    io::PutU64(&out, u.key);
    io::PutU32(&out, u.origin);
    io::PutU32(&out, u.partition);
    PutVts(&out, u.vts);
  }
  return out;
}

bool DecodeMetaRecord(std::string_view bytes, std::uint32_t num_dcs,
                      std::vector<RemoteUpdate>* batch) {
  io::PayloadReader reader(bytes);
  std::uint32_t count = 0;
  if (!reader.U32(&count)) {
    return false;
  }
  batch->clear();
  batch->reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    RemoteUpdate u;
    if (!reader.U64(&u.uid) || !reader.U64(&u.key) || !reader.U32(&u.origin) ||
        !reader.U32(&u.partition) || !GetVts(&reader, num_dcs, &u.vts)) {
      return false;
    }
    batch->push_back(std::move(u));
  }
  return reader.done();
}

struct SnapshotState {
  VectorTimestamp site_time;
  std::vector<Timestamp> clock_marks;                       // per partition
  std::vector<std::pair<ClientId, VectorTimestamp>> sessions;
  // Per partition: the full store contents.
  std::vector<std::vector<std::pair<Key, GeoVersion>>> stores;
};

std::string EncodeSnapshot(const SnapshotState& snap, std::uint32_t num_dcs,
                           std::uint32_t partitions) {
  std::string out;
  io::PutU32(&out, num_dcs);
  PutVts(&out, snap.site_time);
  io::PutU32(&out, partitions);
  for (const Timestamp mark : snap.clock_marks) {
    io::PutU64(&out, mark);
  }
  io::PutU32(&out, static_cast<std::uint32_t>(snap.sessions.size()));
  for (const auto& [client, vts] : snap.sessions) {
    io::PutU64(&out, client);
    PutVts(&out, vts);
  }
  for (const auto& store : snap.stores) {
    io::PutU32(&out, static_cast<std::uint32_t>(store.size()));
    for (const auto& [key, version] : store) {
      io::PutU64(&out, key);
      io::PutU32(&out, version.origin);
      PutVts(&out, version.vts);
      io::PutU32(&out, static_cast<std::uint32_t>(version.value.size()));
      out += version.value;
    }
  }
  return out;
}

bool DecodeSnapshot(const std::string& bytes, std::uint32_t num_dcs,
                    std::uint32_t partitions, SnapshotState* snap) {
  io::PayloadReader reader(bytes);
  std::uint32_t got_dcs = 0;
  std::uint32_t got_partitions = 0;
  if (!reader.U32(&got_dcs) || got_dcs != num_dcs ||
      !GetVts(&reader, num_dcs, &snap->site_time) ||
      !reader.U32(&got_partitions) || got_partitions != partitions) {
    return false;
  }
  snap->clock_marks.assign(partitions, 0);
  for (std::uint32_t p = 0; p < partitions; ++p) {
    if (!reader.U64(&snap->clock_marks[p])) {
      return false;
    }
  }
  std::uint32_t num_sessions = 0;
  if (!reader.U32(&num_sessions)) {
    return false;
  }
  snap->sessions.clear();
  for (std::uint32_t i = 0; i < num_sessions; ++i) {
    ClientId client = 0;
    VectorTimestamp vts;
    if (!reader.U64(&client) || !GetVts(&reader, num_dcs, &vts)) {
      return false;
    }
    snap->sessions.emplace_back(client, std::move(vts));
  }
  snap->stores.assign(partitions, {});
  for (std::uint32_t p = 0; p < partitions; ++p) {
    std::uint32_t count = 0;
    if (!reader.U32(&count)) {
      return false;
    }
    for (std::uint32_t i = 0; i < count; ++i) {
      Key key = 0;
      GeoVersion version;
      std::uint32_t value_len = 0;
      if (!reader.U64(&key) || !reader.U32(&version.origin) ||
          !GetVts(&reader, num_dcs, &version.vts) || !reader.U32(&value_len) ||
          !reader.Bytes(value_len, &version.value)) {
        return false;
      }
      snap->stores[p].emplace_back(key, std::move(version));
    }
  }
  return reader.done();
}

}  // namespace

GeoDurability::GeoDurability(GeoDurabilityOptions options)
    : options_(options),
      install_logs_(options.partitions),
      local_ts_mark_(options.partitions, 0) {
  assert(options_.disk != nullptr);
  assert(options_.num_dcs > 0 && options_.partitions > 0);
}

GeoDurability::~GeoDurability() = default;

std::string GeoDurability::InstallLogName(PartitionId p) {
  return "install-p" + std::to_string(p);
}

void GeoDurability::Append(wal::LogWriter* writer, std::uint8_t type,
                           const std::string& payload) {
  // A dying disk degrades durability, not availability: the failure is
  // counted (and surfaced through append_failures()) but the protocol keeps
  // running on its in-memory state.
  if (!writer->Append(type, payload)) {
    ++append_failures_;
  }
}

void GeoDurability::OnLocalInstall(PartitionId partition,
                                   const RemotePayload& payload) {
  if (recovering_) {
    return;
  }
  assert(partition < install_logs_.size());
  assert(install_logs_[partition] != nullptr &&
         "GeoDurability::Recover must run before the runtime starts");
  const Timestamp ts = payload.vts[options_.dc];
  if (ts > local_ts_mark_[partition]) {
    local_ts_mark_[partition] = ts;
  }
  Append(install_logs_[partition].get(), kInstallRecord,
         EncodePayloadRecord(partition, payload));
}

void GeoDurability::OnInboundMetadata(const std::vector<RemoteUpdate>& batch) {
  if (recovering_ || batch.empty()) {
    return;
  }
  assert(inbound_log_ != nullptr);
  Append(inbound_log_.get(), kInboundMetaRecord, EncodeMetaRecord(batch));
}

void GeoDurability::OnInboundPayload(PartitionId partition,
                                     const RemotePayload& payload) {
  if (recovering_) {
    return;
  }
  assert(inbound_log_ != nullptr);
  Append(inbound_log_.get(), kInboundPayloadRecord,
         EncodePayloadRecord(partition, payload));
}

void GeoDurability::Recover(DatacenterRuntime* runtime, SessionMap* sessions) {
  recovering_ = true;

  // --- snapshot --------------------------------------------------------------
  std::string snap_bytes;
  if (options_.disk->ReadAll(kSnapName, &snap_bytes)) {
    std::vector<wal::Record> records;
    wal::ReadLog(snap_bytes, &records);
    // Take the newest valid snapshot record (WriteAtomic keeps exactly one,
    // but a corrupt file degrades to "no snapshot", never to garbage).
    for (auto it = records.rbegin(); it != records.rend(); ++it) {
      SnapshotState snap;
      if (it->type == kGeoSnapshotRecord &&
          DecodeSnapshot(it->payload, options_.num_dcs, options_.partitions,
                         &snap)) {
        runtime->RestoreSiteTime(snap.site_time);
        for (PartitionId p = 0; p < options_.partitions; ++p) {
          runtime->PrimePartitionClock(p, snap.clock_marks[p]);
          local_ts_mark_[p] = snap.clock_marks[p];
          for (const auto& [key, version] : snap.stores[p]) {
            runtime->RestoreStoreVersion(p, key, version);
          }
        }
        if (sessions != nullptr) {
          for (const auto& [client, vts] : snap.sessions) {
            (*sessions)[client] = vts;
          }
        }
        break;
      }
    }
  }

  // --- install logs (replay re-enqueues for stabilization + shipping) --------
  for (PartitionId p = 0; p < options_.partitions; ++p) {
    std::vector<wal::Record> records;
    wal::RecoverLog(options_.disk, InstallLogName(p), &records);
    for (const wal::Record& record : records) {
      RemotePayload payload;
      if (!DecodeInstallRecord(record.type, record.payload, options_.dc,
                               options_.num_dcs, p, &payload)) {
        continue;
      }
      const Timestamp ts = payload.vts[options_.dc];
      if (ts > local_ts_mark_[p]) {
        local_ts_mark_[p] = ts;
      }
      runtime->RestoreLocalUpdate(p, payload);
    }
    install_logs_[p] = std::make_unique<wal::LogWriter>(
        options_.disk, InstallLogName(p), options_.fsync);
  }

  // --- inbound log (arrival order preserves the per-origin FIFO) -------------
  {
    std::vector<wal::Record> records;
    wal::RecoverLog(options_.disk, kInboundLogName, &records);
    for (const wal::Record& record : records) {
      if (record.type == kInboundMetaRecord) {
        std::vector<RemoteUpdate> batch;
        if (DecodeMetaRecord(record.payload, options_.num_dcs, &batch)) {
          runtime->OnRemoteMetadata(batch);
        }
      } else if (record.type == kInboundPayloadRecord) {
        PartitionId partition = 0;
        RemotePayload payload;
        if (DecodePayloadRecord(record.payload, options_.num_dcs, &partition,
                                &payload) &&
            partition < options_.partitions) {
          runtime->OnPayload(partition, std::move(payload));
        }
      }
    }
    inbound_log_ = std::make_unique<wal::LogWriter>(
        options_.disk, kInboundLogName, options_.fsync);
  }

  recovering_ = false;
  bytes_at_last_snapshot_ = 0;
}

InstallCursor GeoDurability::ReadInstalls(Timestamp mark) const {
  return InstallCursor(options_.disk, options_.dc, options_.num_dcs, mark,
                       local_ts_mark_);
}

InstallCursor::InstallCursor(wal::Disk* disk, DatacenterId dc,
                             std::uint32_t num_dcs, Timestamp mark,
                             std::vector<Timestamp> last)
    : disk_(disk),
      dc_(dc),
      num_dcs_(num_dcs),
      mark_(mark),
      last_(std::move(last)),
      logs_(last_.size()) {}

bool InstallCursor::Next(PartitionId* partition, RemotePayload* payload) {
  // Each log is in timestamp order: a P-way merge of the heads yields the
  // global order, but only once every unfinished log has a head.
  Log* best = nullptr;
  for (PartitionId p = 0; p < logs_.size(); ++p) {
    Log& log = logs_[p];
    if (log.ready.empty() && !log.done && !ReadChunk(p)) {
      return false;
    }
    if (!log.ready.empty() &&
        (best == nullptr ||
         log.ready.front().vts[dc_] < best->ready.front().vts[dc_])) {
      best = &log;
    }
  }
  if (best == nullptr) {
    return false;
  }
  *partition = static_cast<PartitionId>(best - logs_.data());
  *payload = std::move(best->ready.front());
  best->ready.pop_front();
  return true;
}

bool InstallCursor::done() const {
  return std::all_of(logs_.begin(), logs_.end(), [](const Log& log) {
    return log.done && log.ready.empty();
  });
}

bool InstallCursor::ReadChunk(PartitionId partition) {
  Log& log = logs_[partition];
  std::string chunk;
  if (!disk_->ReadAt(GeoDurability::InstallLogName(partition), log.read_to,
                     kReadChunkBytes, &chunk) ||
      chunk.empty()) {
    log.done = true;  // the end (a torn tail left in `partial` included)
    return true;
  }
  log.read_to += chunk.size();
  log.partial += chunk;
  std::size_t parsed = 0;
  wal::ScanLog(
      log.partial,
      [&](const wal::RecordView& record) {
        RemotePayload payload;
        if (log.done || !DecodeInstallRecord(record.type, record.payload, dc_,
                                             num_dcs_, partition, &payload)) {
          return;
        }
        const Timestamp ts = payload.vts[dc_];
        log.done = ts > last_[partition];  // appended after the cursor opened
        if (!log.done && ts > mark_) {
          log.ready.push_back(std::move(payload));
        }
      },
      &parsed);
  log.partial.erase(0, parsed);
  return log.done || !log.ready.empty();
}

std::uint64_t GeoDurability::BytesLogged() const {
  std::uint64_t bytes = inbound_log_->bytes_appended();
  for (const auto& log : install_logs_) {
    bytes += log->bytes_appended();
  }
  return bytes;
}

bool GeoDurability::SnapshotDue() const {
  return inbound_log_ != nullptr &&
         BytesLogged() - bytes_at_last_snapshot_ >=
             options_.snapshot_interval_bytes;
}

void GeoDurability::Snapshot(const DatacenterRuntime& runtime,
                             const SessionMap* sessions,
                             Timestamp install_truncate_mark) {
  assert(inbound_log_ != nullptr);
  SnapshotState snap;
  snap.site_time = runtime.receiver().site_time();
  snap.clock_marks = local_ts_mark_;
  if (sessions != nullptr) {
    snap.sessions.reserve(sessions->size());
    for (const auto& [client, vts] : *sessions) {
      snap.sessions.emplace_back(client, vts);
    }
  }
  snap.stores.resize(options_.partitions);
  for (PartitionId p = 0; p < options_.partitions; ++p) {
    auto& store = snap.stores[p];
    runtime.StoreAt(p).ForEach([&store](Key key, const GeoVersion& version) {
      store.emplace_back(key, version);
    });
  }

  std::string framed;
  wal::AppendRecord(&framed, kGeoSnapshotRecord,
                    EncodeSnapshot(snap, options_.num_dcs, options_.partitions));
  // Snapshot FIRST, truncate after: if the crash lands between the two, the
  // logs still hold everything the snapshot also covers (replay dedups). The
  // reverse order could truncate entries the snapshot never captured.
  if (!options_.disk->WriteAtomic(kSnapName, framed)) {
    ++append_failures_;
    return;  // keep the logs intact — they are the only copy
  }
  ++snapshots_taken_;

  const VectorTimestamp& site_time = snap.site_time;
  inbound_log_->Compact([this, &site_time](const wal::RecordView& record) {
    if (record.type == kInboundMetaRecord) {
      std::vector<RemoteUpdate> batch;
      if (!DecodeMetaRecord(record.payload, options_.num_dcs, &batch)) {
        return false;  // undecodable: drop
      }
      for (const RemoteUpdate& u : batch) {
        if (u.origin < site_time.size() && u.vts[u.origin] > site_time[u.origin]) {
          return true;  // at least one update not yet applied
        }
      }
      return false;
    }
    if (record.type == kInboundPayloadRecord) {
      PartitionId partition = 0;
      RemotePayload payload;
      if (!DecodePayloadRecord(record.payload, options_.num_dcs, &partition,
                               &payload)) {
        return false;
      }
      return payload.origin < site_time.size() &&
             payload.vts[payload.origin] > site_time[payload.origin];
    }
    return true;  // unknown record types are preserved verbatim
  });
  if (install_truncate_mark > 0) {
    const DatacenterId self = options_.dc;
    for (auto& log : install_logs_) {
      log->Compact([this, self, install_truncate_mark](
                       const wal::RecordView& record) {
        PartitionId partition = 0;
        RemotePayload payload;
        if (record.type != kInstallRecord ||
            !DecodePayloadRecord(record.payload, options_.num_dcs, &partition,
                                 &payload)) {
          return false;
        }
        return payload.vts[self] > install_truncate_mark;
      });
    }
  }

  bytes_at_last_snapshot_ = BytesLogged();
}

void GeoDurability::Flush() {
  if (inbound_log_ == nullptr) {
    return;
  }
  for (auto& log : install_logs_) {
    log->Flush();
  }
  inbound_log_->Flush();
}

}  // namespace eunomia::geo::rt
