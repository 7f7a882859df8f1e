// Append pipeline for one log file.
//
// A LogWriter owns the append handle for a single log and serializes all
// record appends through it. Append() encodes the record and writes it
// inline on the caller's thread: no extra thread, no nondeterminism, so
// durability is whatever the fsync policy says it is, byte-for-byte
// reproducible under MemDisk.
//
// Fsync policy:
//   kPerCommit — every record is synced before Append() returns.
//   kInterval  — synced every kFsyncIntervalBytes of appends, or sooner by
//                an explicit Flush(). The time half of the bound (a written
//                byte stays un-synced at most kFsyncIntervalUs) is the
//                owner's job: ServiceWal's maintenance thread and GeoNode's
//                event loop call Flush() every kFsyncIntervalUs. The writer
//                itself never reads a clock, so a simulated schedule stays
//                deterministic.
//   kOff       — never sync; a crash loses every record appended since the
//                last Compact(). For benchmarks and tests.
//
// Compact(keep) rewrites the log atomically, dropping records the filter
// rejects — the truncation half of the snapshot protocol. It swaps the file
// via Disk::WriteAtomic while holding the append lock, so it may race
// appends from other threads; kept records are copied frame-verbatim (no
// re-encode, no re-CRC), so a rewrite costs one scan plus the surviving
// bytes.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "src/common/sync.h"
#include "src/wal/disk.h"
#include "src/wal/log.h"

namespace eunomia::wal {

enum class FsyncPolicy {
  kPerCommit,
  kInterval,
  kOff,
};

// Parses "commit" / "interval" / "off". False (out untouched) otherwise.
bool ParseFsyncPolicy(std::string_view text, FsyncPolicy* out);
const char* FsyncPolicyName(FsyncPolicy policy);

// kInterval's two bounds, in bytes (enforced by the writer) and in time
// (enforced by the owner calling Flush(); see the file comment).
inline constexpr std::size_t kFsyncIntervalBytes = 64u << 10;
inline constexpr std::uint64_t kFsyncIntervalUs = 5000;

class LogWriter {
 public:
  // Reads-and-repairs is the caller's job (RecoverLog) *before* constructing
  // the writer; the writer only ever appends.
  LogWriter(Disk* disk, std::string name, FsyncPolicy policy);

  LogWriter(const LogWriter&) = delete;
  LogWriter& operator=(const LogWriter&) = delete;

  // Appends one framed record; under kPerCommit it is synced before this
  // returns. False if the underlying write or sync failed.
  bool Append(std::uint8_t type, std::string_view payload);

  // Syncs everything appended so far, unless the policy is kOff.
  bool Flush();

  // Atomically rewrites the log keeping only records `keep` accepts. The
  // views passed to `keep` are valid only for the duration of the call.
  bool Compact(const std::function<bool(const RecordView&)>& keep);

  // Lock-free: read on hot paths (snapshot gating) by other threads.
  std::uint64_t bytes_appended() const {
    return bytes_appended_.load(std::memory_order_relaxed);
  }

 private:
  bool SyncLocked() REQUIRES(mu_);

  Disk* const disk_;
  const std::string name_;
  const FsyncPolicy policy_;

  // Serializes appends against each other and against Compact, which
  // ServiceWal's maintenance thread runs while producers append.
  sync::Mutex mu_{"LogWriter::mu_", sync::kRankWalWriter};
  std::unique_ptr<File> file_ GUARDED_BY(mu_);
  std::size_t unsynced_bytes_ GUARDED_BY(mu_) = 0;
  bool failed_ GUARDED_BY(mu_) = false;  // a disk write failed
  // Written under mu_, read without it (see the accessor above).
  std::atomic<std::uint64_t> bytes_appended_{0};
};

// Reads and parses log `name`. A missing file is an empty, clean log. If a
// torn tail is found, the file is truncated to the valid prefix on disk so
// a subsequently opened LogWriter appends from a clean record boundary.
LogState RecoverLog(Disk* disk, const std::string& name,
                    std::vector<Record>* records);

}  // namespace eunomia::wal
