#include "src/wal/log_writer.h"

#include <chrono>
#include <utility>

#include "src/wal/wal_metrics.h"

namespace eunomia::wal {

namespace {

// Shared fsync hook: counts the sync and times it into the process-wide
// histogram. The LogWriter mutex is held here (kRankWalWriter); both
// metric writes are wait-free, and the lazy first registration nests under
// the higher-ranked registry mutex.
bool TimedSync(File* file) {
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  const bool ok = file->Sync();
  const auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
      Clock::now() - start);
  WalMetrics& wm = WalMetrics::Get();
  wm.fsyncs->Increment();
  wm.fsync_latency_us->Record(static_cast<std::uint64_t>(micros.count()));
  return ok;
}

}  // namespace

bool ParseFsyncPolicy(std::string_view text, FsyncPolicy* out) {
  if (text == "commit") {
    *out = FsyncPolicy::kPerCommit;
  } else if (text == "interval") {
    *out = FsyncPolicy::kInterval;
  } else if (text == "off") {
    *out = FsyncPolicy::kOff;
  } else {
    return false;
  }
  return true;
}

const char* FsyncPolicyName(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kPerCommit:
      return "commit";
    case FsyncPolicy::kInterval:
      return "interval";
    case FsyncPolicy::kOff:
      return "off";
  }
  return "?";
}

LogWriter::LogWriter(Disk* disk, std::string name, FsyncPolicy policy)
    : disk_(disk), name_(std::move(name)), policy_(policy) {
  sync::MutexLock lock(mu_);
  file_ = disk_->OpenAppend(name_);
  failed_ = file_ == nullptr;
}

bool LogWriter::SyncLocked() {
  if (file_ == nullptr || !TimedSync(file_.get())) {
    failed_ = true;
    return false;
  }
  unsynced_bytes_ = 0;
  return true;
}

bool LogWriter::Append(std::uint8_t type, std::string_view payload) {
  sync::MutexLock lock(mu_);
  if (failed_) {
    return false;
  }
  std::string frame;
  AppendRecord(&frame, type, payload);
  if (file_ == nullptr || !file_->Append(frame)) {
    failed_ = true;
    return false;
  }
  bytes_appended_.fetch_add(frame.size(), std::memory_order_relaxed);
  WalMetrics::Get().appended_bytes->Add(frame.size());
  unsynced_bytes_ += frame.size();
  switch (policy_) {
    case FsyncPolicy::kPerCommit:
      return SyncLocked();
    case FsyncPolicy::kInterval:
      return unsynced_bytes_ < kFsyncIntervalBytes || SyncLocked();
    case FsyncPolicy::kOff:
      return true;
  }
  return true;
}

bool LogWriter::Flush() {
  sync::MutexLock lock(mu_);
  if (failed_) {
    return false;
  }
  if (policy_ == FsyncPolicy::kOff || unsynced_bytes_ == 0) {
    return true;
  }
  return SyncLocked();
}

bool LogWriter::Compact(const std::function<bool(const RecordView&)>& keep) {
  sync::MutexLock lock(mu_);
  std::string bytes;
  disk_->ReadAll(name_, &bytes);
  // Scan in place and splice surviving frames verbatim: the frames are
  // already valid (the CRC vouched for them), so the rewrite costs one pass
  // plus the kept bytes — no payload copies, no re-framing, no re-CRC. A
  // torn tail is dropped by the rewrite.
  std::string kept;
  ScanLog(bytes, [&](const RecordView& record) {
    if (keep(record)) {
      kept.append(record.frame);
    }
  });
  bool ok = disk_->WriteAtomic(name_, kept);
  if (ok) {
    // Reopen: on a posix disk the old fd now points at the unlinked inode.
    file_ = disk_->OpenAppend(name_);
    ok = file_ != nullptr;
  }
  if (!ok) {
    failed_ = true;
    return false;
  }
  // The rewrite is durable in full (WriteAtomic syncs), so everything
  // appended so far is durable too.
  unsynced_bytes_ = 0;
  WalMetrics::Get().compactions->Increment();
  return true;
}

LogState RecoverLog(Disk* disk, const std::string& name,
                    std::vector<Record>* records) {
  std::string bytes;
  if (!disk->ReadAll(name, &bytes)) {
    return LogState::kClean;  // missing file: an empty log
  }
  const std::size_t before = records->size();
  std::size_t valid = 0;
  const LogState state = ReadLog(bytes, records, &valid);
  WalMetrics& wm = WalMetrics::Get();
  wm.recovered_records->Add(records->size() - before);
  if (state == LogState::kTornTail) {
    wm.torn_tails->Increment();
    // Truncate the garbage so a reopened appender starts on a boundary.
    disk->WriteAtomic(name, std::string_view(bytes).substr(0, valid));
  }
  return state;
}

}  // namespace eunomia::wal
