// The durability seam: a minimal flat-namespace "disk" the WAL writes
// through.
//
// Three implementations share one contract so the same recovery code runs
// everywhere:
//   - PosixDisk: real files under a data directory (the daemons). Append is
//     O_APPEND write(2); Sync is fsync(2); WriteAtomic is the classic
//     write-temp + fsync + rename(2) sequence, so a snapshot is either the
//     old blob or the new blob, never a torn mix.
//   - MemDisk: an in-memory map with explicit durability tracking — every
//     file remembers how much of it has been fsync'd. Crash() models
//     kill -9: the un-synced suffix of every file vanishes. Deterministic
//     chaos runs on this.
//   - FaultyDisk: MemDisk plus seed-derived storage faults applied at crash
//     time — torn writes (a partial tail of the un-synced suffix survives,
//     possibly mid-record) and bit flips inside that torn tail. Recovery
//     must detect both by CRC/length and never propagate them.
//
// The contract is deliberately tiny (append, sync, ranged read, atomic
// replace, remove): a WAL needs nothing more, and every operation has an
// obvious crash-consistency story.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/random.h"
#include "src/common/sync.h"

namespace eunomia::wal {

// An open append-only file handle. Handles stay valid across
// Disk::WriteAtomic on the same name (they follow the name, not the inode).
class File {
 public:
  virtual ~File() = default;
  virtual bool Append(std::string_view data) = 0;
  // Makes everything appended so far crash-durable.
  virtual bool Sync() = 0;
};

class Disk {
 public:
  virtual ~Disk() = default;

  Disk() = default;
  Disk(const Disk&) = delete;
  Disk& operator=(const Disk&) = delete;

  // Opens `name` for appending, creating it empty if missing.
  virtual std::unique_ptr<File> OpenAppend(const std::string& name) = 0;
  // Reads up to `max_bytes` of `name` from byte `offset` on (fewer at the
  // end of the file). False if it does not exist (out is cleared).
  virtual bool ReadAt(const std::string& name, std::uint64_t offset,
                      std::size_t max_bytes, std::string* out) = 0;
  bool ReadAll(const std::string& name, std::string* out) {
    return ReadAt(name, 0, SIZE_MAX, out);
  }
  // Atomically replaces `name` with `data` (write temp + sync + rename).
  // After a crash the file holds either the old or the new contents.
  virtual bool WriteAtomic(const std::string& name, std::string_view data) = 0;
  virtual bool Remove(const std::string& name) = 0;
  virtual std::vector<std::string> List() = 0;
};

// Real files under `dir` (created if missing). Returns nullptr/false on any
// OS error; callers treat that as the storage being gone.
class PosixDisk final : public Disk {
 public:
  explicit PosixDisk(std::string dir);

  bool ok() const { return ok_; }  // the directory exists / was created

  std::unique_ptr<File> OpenAppend(const std::string& name) override;
  bool ReadAt(const std::string& name, std::uint64_t offset,
              std::size_t max_bytes, std::string* out) override;
  bool WriteAtomic(const std::string& name, std::string_view data) override;
  bool Remove(const std::string& name) override;
  std::vector<std::string> List() override;

 private:
  std::string Path(const std::string& name) const { return dir_ + "/" + name; }

  std::string dir_;
  bool ok_ = false;
};

// In-memory disk with explicit durability tracking. Thread-safe (producers
// append, a maintenance thread compacts and tests inspect concurrently),
// and survives the components writing to it — the chaos harness owns one
// per datacenter across crash/restart cycles, exactly like a real disk
// survives a process.
class MemDisk : public Disk {
 public:
  MemDisk() = default;

  std::unique_ptr<File> OpenAppend(const std::string& name) override;
  bool ReadAt(const std::string& name, std::uint64_t offset,
              std::size_t max_bytes, std::string* out) override;
  bool WriteAtomic(const std::string& name, std::string_view data) override;
  bool Remove(const std::string& name) override;
  std::vector<std::string> List() override;

  // kill -9: every file loses its un-synced suffix (subclasses may leave a
  // mangled partial tail instead — see FaultyDisk).
  void Crash();

  std::uint64_t syncs() const;
  std::uint64_t bytes_written() const;

 protected:
  struct FileState {
    // Chunked: a contiguous buffer would copy the whole file at every
    // doubling, an append stall that grows with the log.
    std::deque<char> data;
    std::size_t durable = 0;  // prefix made durable by Sync / WriteAtomic
  };

  // Invoked under mu_ for each file at Crash(); default truncates to the
  // durable prefix.
  virtual void ApplyCrash(FileState* file) REQUIRES(mu_);

  mutable sync::Mutex mu_{"MemDisk::mu_", sync::kRankWalDisk};
  std::map<std::string, FileState> files_ GUARDED_BY(mu_);
  std::uint64_t syncs_ GUARDED_BY(mu_) = 0;
  std::uint64_t bytes_written_ GUARDED_BY(mu_) = 0;

 private:
  friend class MemFile;
};

// MemDisk that injects storage faults when the process "dies": with
// probability torn_tail, a random partial prefix of the un-synced suffix
// survives the crash (a torn / short write), and with probability bit_flip
// one bit inside that surviving tail is flipped (a corrupt sector). Faults
// never touch the synced prefix — fsync's contract is exactly what the
// recovery invariants are allowed to rely on.
class FaultyDisk final : public MemDisk {
 public:
  struct Faults {
    double torn_tail = 0.0;
    double bit_flip = 0.0;
  };

  FaultyDisk(const Faults& faults, std::uint64_t seed)
      : faults_(faults), rng_(seed) {}

  std::uint64_t torn_tails() const;
  std::uint64_t bit_flips() const;

 protected:
  void ApplyCrash(FileState* file) override REQUIRES(mu_);

 private:
  const Faults faults_;
  Rng rng_ GUARDED_BY(mu_);
  std::uint64_t torn_tails_ GUARDED_BY(mu_) = 0;
  std::uint64_t bit_flips_ GUARDED_BY(mu_) = 0;
};

}  // namespace eunomia::wal
