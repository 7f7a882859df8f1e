#include "src/georep/runtime/durability.h"

#include <algorithm>
#include <cassert>
#include <string_view>
#include <utility>

#include "src/georep/runtime/geo_wire.h"
#include "src/net/wire_io.h"

namespace eunomia::geo::rt {

namespace io = ::eunomia::net::wire::io;

namespace {

constexpr const char* kInboundLogName = "inbound";
constexpr const char* kSnapName = "snap";

std::size_t VtsBytes(const VectorTimestamp& vts) {
  return 4 + 8 * static_cast<std::size_t>(vts.size());
}

// Lays a snapshot's records out in one buffer: entries are packed into the
// open record until the next would push it past wal::kMaxRecordBytes. With
// a null buffer it only counts bytes, so a first pass sizes the buffer the
// second pass fills exactly.
class SnapshotRecords {
 public:
  explicit SnapshotRecords(std::string* out) : out_(out) {}

  // Makes room for an entry of `bytes`, which the caller then appends,
  // sealing the open record first if there is none or the entry would not
  // fit in it.
  void Reserve(std::size_t bytes) {
    assert(bytes <= wal::kMaxRecordBytes);
    if (!open_ || size_ - open_at_ + bytes >
                      wal::kRecordHeaderBytes + wal::kMaxRecordBytes) {
      Seal();
      open_ = true;
      open_at_ = size_;
      size_ += wal::kRecordHeaderBytes;
      if (out_ != nullptr) {
        out_->append(wal::kRecordHeaderBytes, '\0');
      }
    }
    size_ += bytes;
  }

  // Fills the open record's header in; the next entry opens a new record.
  void Seal() {
    if (open_ && out_ != nullptr) {
      char header[wal::kRecordHeaderBytes];
      wal::BuildRecordHeader(
          header, GeoDurability::kGeoSnapshotRecord,
          std::string_view(*out_).substr(open_at_ + wal::kRecordHeaderBytes));
      out_->replace(open_at_, wal::kRecordHeaderBytes, header,
                    wal::kRecordHeaderBytes);
    }
    open_ = false;
  }

  std::size_t size() const { return size_; }

 private:
  std::string* const out_;
  bool open_ = false;
  std::size_t open_at_ = 0;  // where the open record's header goes
  std::size_t size_ = 0;
};

// Writes the snapshot's records into *out, or with out null only sizes
// them; returns their size. DecodeGeoSnapshot's layout, encoded straight
// from the live state: no store copy.
std::size_t LayOutSnapshot(std::string* out, const VectorTimestamp& site_time,
                           const std::vector<Timestamp>& clock_marks,
                           const SessionMap* sessions,
                           const DatacenterRuntime& runtime) {
  const std::uint32_t partitions =
      static_cast<std::uint32_t>(clock_marks.size());
  const std::size_t num_sessions = sessions != nullptr ? sessions->size() : 0;
  SnapshotRecords records(out);
  records.Reserve(VtsBytes(site_time) + 4 + 8u * partitions + 4 +
                  4u * partitions);
  if (out != nullptr) {
    wire::AppendVts(out, site_time);
    io::PutU32(out, partitions);
    for (const Timestamp mark : clock_marks) {
      io::PutU64(out, mark);
    }
    io::PutU32(out, static_cast<std::uint32_t>(num_sessions));
    for (PartitionId p = 0; p < partitions; ++p) {
      io::PutU32(out, static_cast<std::uint32_t>(runtime.StoreAt(p).size()));
    }
  }
  records.Seal();
  if (sessions != nullptr) {
    for (const auto& [client, vts] : *sessions) {
      records.Reserve(8 + VtsBytes(vts));
      if (out != nullptr) {
        io::PutU64(out, client);
        wire::AppendVts(out, vts);
      }
    }
  }
  for (PartitionId p = 0; p < partitions; ++p) {
    runtime.StoreAt(p).ForEach([&](Key key, const GeoVersion& version) {
      records.Reserve(8 + 4 + VtsBytes(version.vts) + 4 + version.value.size());
      if (out != nullptr) {
        io::PutU64(out, key);
        io::PutU32(out, version.origin);
        wire::AppendVts(out, version.vts);
        io::PutU32(out, static_cast<std::uint32_t>(version.value.size()));
        out->append(version.value);
      }
    });
  }
  records.Seal();
  return records.size();
}

}  // namespace

bool DecodeGeoSnapshot(std::string_view file, std::uint32_t num_dcs,
                       std::uint32_t partitions, GeoSnapshot* snap) {
  // WriteAtomic replaces the file whole, so a torn or foreign record is
  // corruption: the snapshot is trusted in full or not at all.
  std::vector<std::string_view> records;
  bool typed = true;
  const wal::LogState state =
      wal::ScanLog(file, [&](const wal::RecordView& record) {
        typed = typed && record.type == GeoDurability::kGeoSnapshotRecord;
        records.push_back(record.payload);
      });
  if (state != wal::LogState::kClean || !typed || records.empty()) {
    return false;
  }

  io::PayloadReader header(records[0]);
  std::uint32_t got_partitions = 0;
  std::uint32_t num_sessions = 0;
  std::vector<std::uint32_t> store_sizes(partitions);
  snap->clock_marks.assign(partitions, 0);
  bool ok = wire::ReadVts(&header, &snap->site_time) &&
            snap->site_time.size() == num_dcs &&
            header.U32(&got_partitions) && got_partitions == partitions;
  for (Timestamp& mark : snap->clock_marks) {
    ok = ok && header.U64(&mark);
  }
  ok = ok && header.U32(&num_sessions);
  for (std::uint32_t& size : store_sizes) {
    ok = ok && header.U32(&size);
  }
  if (!ok || !header.done()) {
    return false;
  }

  // The entries, read record by record; none spans two.
  std::size_t next = 1;
  io::PayloadReader entries{std::string_view()};
  const auto entry = [&]() -> io::PayloadReader* {
    while (entries.done()) {
      if (next == records.size()) {
        return nullptr;
      }
      entries = io::PayloadReader(records[next++]);
    }
    return &entries;
  };
  snap->sessions.clear();
  for (std::uint32_t i = 0; i < num_sessions; ++i) {
    io::PayloadReader* reader = entry();
    ClientId client = 0;
    VectorTimestamp vts;
    if (reader == nullptr || !reader->U64(&client) ||
        !wire::ReadVts(reader, &vts) || vts.size() != num_dcs) {
      return false;
    }
    snap->sessions.emplace_back(client, std::move(vts));
  }
  snap->stores.assign(partitions, {});
  for (PartitionId p = 0; p < partitions; ++p) {
    for (std::uint32_t i = 0; i < store_sizes[p]; ++i) {
      io::PayloadReader* reader = entry();
      Key key = 0;
      GeoVersion version;
      std::uint32_t value_len = 0;
      if (reader == nullptr || !reader->U64(&key) ||
          !reader->U32(&version.origin) || version.origin >= num_dcs ||
          !wire::ReadVts(reader, &version.vts) ||
          version.vts.size() != num_dcs || !reader->U32(&value_len) ||
          !reader->Bytes(value_len, &version.value)) {
        return false;
      }
      snap->stores[p].emplace_back(key, std::move(version));
    }
  }
  return entries.done() && next == records.size();
}

GeoDurability::GeoDurability(GeoDurabilityOptions options)
    : options_(options),
      synced_site_time_(options.num_dcs),
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
  // counted (append_failures(), which GeoNode exports as
  // eunomia_georep_wal_append_failures_total) but the protocol keeps
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
         wire::EncodeGeoPayload(partition, payload));
}

void GeoDurability::OnInboundMetadata(const std::vector<RemoteUpdate>& batch) {
  if (recovering_ || batch.empty()) {
    return;
  }
  assert(inbound_log_ != nullptr);
  // A batch arrives in one kGeoMetaBatch frame, from one origin.
  Append(inbound_log_.get(), kInboundMetaRecord,
         wire::EncodeGeoMetaBatch(batch.front().origin, batch.data(),
                                  batch.size()));
}

void GeoDurability::OnInboundPayload(PartitionId partition,
                                     const RemotePayload& payload) {
  if (recovering_) {
    return;
  }
  assert(inbound_log_ != nullptr);
  Append(inbound_log_.get(), kInboundPayloadRecord,
         wire::EncodeGeoPayload(partition, payload));
}

void GeoDurability::Recover(DatacenterRuntime* runtime, SessionMap* sessions) {
  runtime_ = runtime;
  sessions_ = sessions;
  recovering_ = true;

  // --- snapshot --------------------------------------------------------------
  std::string snap_bytes;
  GeoSnapshot snap;
  if (options_.disk->ReadAll(kSnapName, &snap_bytes) &&
      DecodeGeoSnapshot(snap_bytes, options_.num_dcs, options_.partitions,
                        &snap)) {
    last_snapshot_size_ = snap_bytes.size();
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
  }

  // --- install logs (replay re-enqueues for stabilization + shipping) --------
  for (PartitionId p = 0; p < options_.partitions; ++p) {
    std::vector<wal::Record> records;
    wal::RecoverLog(options_.disk, InstallLogName(p), &records);
    for (const wal::Record& record : records) {
      wire::GeoPayloadMsg msg;
      if (record.type != kInstallRecord ||
          !wire::DecodeGeoPayload(record.payload, &msg) ||
          !wire::FitsDeployment(msg, options_.num_dcs, options_.partitions) ||
          msg.partition != p || msg.payload.origin != options_.dc) {
        continue;
      }
      const Timestamp ts = msg.payload.vts[options_.dc];
      if (ts > local_ts_mark_[p]) {
        local_ts_mark_[p] = ts;
      }
      runtime->RestoreLocalUpdate(p, msg.payload);
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
        wire::GeoMetaBatchMsg msg;
        if (wire::DecodeGeoMetaBatch(record.payload, &msg) &&
            wire::FitsDeployment(msg, options_.num_dcs, options_.partitions)) {
          runtime->OnRemoteMetadata(msg.updates);
        }
      } else if (record.type == kInboundPayloadRecord) {
        wire::GeoPayloadMsg msg;
        if (wire::DecodeGeoPayload(record.payload, &msg) &&
            wire::FitsDeployment(msg, options_.num_dcs, options_.partitions)) {
          runtime->OnPayload(msg.partition, std::move(msg.payload));
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

bool InstallCursor::Next(LoggedInstall* install) {
  // Each log is in timestamp order: a P-way merge of the heads yields the
  // global order, but only once every unfinished log has a head.
  Log* best = nullptr;
  for (PartitionId p = 0; p < logs_.size(); ++p) {
    Log& log = logs_[p];
    if (log.ready.empty() && !log.done && !ReadChunk(p)) {
      return false;
    }
    if (log.ready.empty()) {
      continue;
    }
    const Timestamp head = log.ready.front().update.vts[dc_];
    if (best == nullptr || head < best->ready.front().update.vts[dc_]) {
      best = &log;
    }
  }
  if (best == nullptr) {
    return false;
  }
  *install = std::move(best->ready.front());
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
  const auto partitions = static_cast<std::uint32_t>(last_.size());
  std::size_t parsed = 0;
  wal::ScanLog(
      log.partial,
      [&](const wal::RecordView& record) {
        LoggedInstall install;
        if (log.done || record.type != GeoDurability::kInstallRecord ||
            !wire::DecodeGeoPayloadUpdate(record.payload, &install.update) ||
            !wire::FitsDeployment(install.update, num_dcs_, partitions) ||
            install.update.partition != partition ||
            install.update.origin != dc_) {
          return;
        }
        const Timestamp ts = install.update.vts[dc_];
        log.done = ts > last_[partition];  // appended after the cursor opened
        if (!log.done && ts > mark_) {
          install.body.assign(record.payload);
          log.ready.push_back(std::move(install));
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
             std::max(options_.snapshot_interval_bytes, last_snapshot_size_);
}

void GeoDurability::Snapshot(Timestamp install_truncate_mark) {
  assert(inbound_log_ != nullptr);
  const VectorTimestamp site_time = runtime_->receiver().site_time();
  // One buffer of exactly the snapshot's size.
  std::string framed;
  framed.reserve(LayOutSnapshot(nullptr, site_time, local_ts_mark_, sessions_,
                                *runtime_));
  LayOutSnapshot(&framed, site_time, local_ts_mark_, sessions_, *runtime_);
  // Snapshot FIRST, truncate after: if the crash lands between the two, the
  // logs still hold everything the snapshot also covers (replay dedups). The
  // reverse order could truncate entries the snapshot never captured.
  if (!options_.disk->WriteAtomic(kSnapName, framed)) {
    ++append_failures_;
    return;  // keep the logs intact — they are the only copy
  }
  ++snapshots_taken_;
  last_snapshot_size_ = framed.size();

  // Both filters drop what recovery would reject anyway.
  const std::uint32_t num_dcs = options_.num_dcs;
  const std::uint32_t partitions = options_.partitions;
  const auto unapplied = [&site_time](const RemoteUpdate& u) {
    return u.vts[u.origin] > site_time[u.origin];
  };
  inbound_log_->Compact([&](const wal::RecordView& record) {
    if (record.type == kInboundMetaRecord) {
      wire::GeoMetaBatchMsg msg;
      return wire::DecodeGeoMetaBatch(record.payload, &msg) &&
             wire::FitsDeployment(msg, num_dcs, partitions) &&
             std::any_of(msg.updates.begin(), msg.updates.end(), unapplied);
    }
    if (record.type == kInboundPayloadRecord) {
      RemoteUpdate u;
      return wire::DecodeGeoPayloadUpdate(record.payload, &u) &&
             wire::FitsDeployment(u, num_dcs, partitions) && unapplied(u);
    }
    return true;  // unknown record types are preserved verbatim
  });
  if (install_truncate_mark > 0) {
    const DatacenterId self = options_.dc;
    for (auto& log : install_logs_) {
      log->Compact([&](const wal::RecordView& record) {
        RemoteUpdate u;
        return record.type == kInstallRecord &&
               wire::DecodeGeoPayloadUpdate(record.payload, &u) &&
               wire::FitsDeployment(u, num_dcs, partitions) &&
               u.vts[self] > install_truncate_mark;
      });
    }
  }

  bytes_at_last_snapshot_ = BytesLogged();
}

const VectorTimestamp& GeoDurability::synced_site_time() const {
  assert(runtime_ != nullptr);
  return options_.fsync == wal::FsyncPolicy::kPerCommit
             ? runtime_->receiver().site_time()
             : synced_site_time_;
}

void GeoDurability::Flush() {
  if (inbound_log_ == nullptr) {
    return;
  }
  bool synced = true;
  for (auto& log : install_logs_) {
    synced = log->Flush() && synced;
  }
  synced = inbound_log_->Flush() && synced;
  // Every inbound record the receiver has applied is on stable storage now,
  // so a replay reaches at least this SiteTime. Under kOff Flush syncs
  // nothing and the value stays 0.
  if (synced && options_.fsync == wal::FsyncPolicy::kInterval) {
    synced_site_time_ = runtime_->receiver().site_time();
  }
}

}  // namespace eunomia::geo::rt
