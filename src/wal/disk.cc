#include "src/wal/disk.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include <dirent.h>

namespace eunomia::wal {

// --- PosixDisk ---------------------------------------------------------------

namespace {

class PosixFile final : public File {
 public:
  explicit PosixFile(int fd) : fd_(fd) {}
  ~PosixFile() override {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }

  bool Append(std::string_view data) override {
    const char* p = data.data();
    std::size_t left = data.size();
    while (left > 0) {
      const ssize_t n = ::write(fd_, p, left);
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        return false;
      }
      p += n;
      left -= static_cast<std::size_t>(n);
    }
    return true;
  }

  bool Sync() override { return ::fsync(fd_) == 0; }

 private:
  int fd_;
};

bool WriteAllFd(int fd, std::string_view data) {
  const char* p = data.data();
  std::size_t left = data.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

PosixDisk::PosixDisk(std::string dir) : dir_(std::move(dir)) {
  // mkdir -p over the single level callers actually pass; nested paths work
  // too because we walk every '/' boundary.
  std::string prefix;
  prefix.reserve(dir_.size());
  for (std::size_t i = 0; i <= dir_.size(); ++i) {
    if (i == dir_.size() || dir_[i] == '/') {
      if (!prefix.empty() && prefix != "/") {
        if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
          return;
        }
      }
    }
    if (i < dir_.size()) {
      prefix.push_back(dir_[i]);
    }
  }
  struct stat st;
  ok_ = ::stat(dir_.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

std::unique_ptr<File> PosixDisk::OpenAppend(const std::string& name) {
  const int fd =
      ::open(Path(name).c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC,
             0644);
  if (fd < 0) {
    return nullptr;
  }
  return std::make_unique<PosixFile>(fd);
}

bool PosixDisk::ReadAt(const std::string& name, std::uint64_t offset,
                       std::size_t max_bytes, std::string* out) {
  out->clear();
  const int fd = ::open(Path(name).c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return false;
  }
  char buf[1 << 16];
  while (out->size() < max_bytes) {
    const std::size_t want = std::min(sizeof(buf), max_bytes - out->size());
    const ssize_t n = ::pread(fd, buf, want,
                              static_cast<off_t>(offset + out->size()));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      ::close(fd);
      return false;
    }
    if (n == 0) {
      break;
    }
    out->append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return true;
}

bool PosixDisk::WriteAtomic(const std::string& name, std::string_view data) {
  const std::string tmp = Path(name) + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return false;
  }
  const bool written = WriteAllFd(fd, data) && ::fsync(fd) == 0;
  ::close(fd);
  if (!written || ::rename(tmp.c_str(), Path(name).c_str()) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  // Durably record the rename itself (the directory entry).
  const int dfd = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return true;
}

bool PosixDisk::Remove(const std::string& name) {
  return ::unlink(Path(name).c_str()) == 0;
}

std::vector<std::string> PosixDisk::List() {
  std::vector<std::string> names;
  DIR* d = ::opendir(dir_.c_str());
  if (d == nullptr) {
    return names;
  }
  while (struct dirent* ent = ::readdir(d)) {
    const std::string name = ent->d_name;
    if (name == "." || name == ".." ||
        (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0)) {
      continue;
    }
    names.push_back(name);
  }
  ::closedir(d);
  return names;
}

// --- MemDisk -----------------------------------------------------------------

// Appends land directly in the shared FileState; the handle keeps only the
// disk pointer and the name so it stays valid across WriteAtomic/Compact
// replacing the contents under the same name. (Named — not anonymous — so
// MemDisk's friend declaration reaches it.)
class MemFile final : public File {
 public:
  MemFile(MemDisk* disk, std::string name)
      : disk_(disk), name_(std::move(name)) {}

  bool Append(std::string_view data) override;
  bool Sync() override;

 private:
  MemDisk* const disk_;
  const std::string name_;
};

bool MemFile::Append(std::string_view data) {
  sync::MutexLock lock(disk_->mu_);
  auto& file = disk_->files_[name_];
  file.data.insert(file.data.end(), data.begin(), data.end());
  disk_->bytes_written_ += data.size();
  return true;
}

bool MemFile::Sync() {
  sync::MutexLock lock(disk_->mu_);
  auto& file = disk_->files_[name_];
  file.durable = file.data.size();
  ++disk_->syncs_;
  return true;
}

std::unique_ptr<File> MemDisk::OpenAppend(const std::string& name) {
  {
    sync::MutexLock lock(mu_);
    files_[name];  // create-if-missing, like O_CREAT
  }
  return std::make_unique<MemFile>(this, name);
}

bool MemDisk::ReadAt(const std::string& name, std::uint64_t offset,
                     std::size_t max_bytes, std::string* out) {
  out->clear();
  sync::MutexLock lock(mu_);
  const auto it = files_.find(name);
  if (it == files_.end()) {
    return false;
  }
  const std::deque<char>& data = it->second.data;
  if (offset < data.size()) {
    const auto first = data.begin() + static_cast<std::ptrdiff_t>(offset);
    out->resize(std::min<std::size_t>(max_bytes, data.end() - first));
    std::copy_n(first, out->size(), out->data());
  }
  return true;
}

bool MemDisk::WriteAtomic(const std::string& name, std::string_view data) {
  sync::MutexLock lock(mu_);
  auto& file = files_[name];
  file.data.assign(data.begin(), data.end());
  file.durable = file.data.size();
  bytes_written_ += data.size();
  ++syncs_;
  return true;
}

bool MemDisk::Remove(const std::string& name) {
  sync::MutexLock lock(mu_);
  return files_.erase(name) > 0;
}

std::vector<std::string> MemDisk::List() {
  sync::MutexLock lock(mu_);
  std::vector<std::string> names;
  names.reserve(files_.size());
  for (const auto& [name, file] : files_) {
    names.push_back(name);
  }
  return names;
}

void MemDisk::Crash() {
  sync::MutexLock lock(mu_);
  for (auto& [name, file] : files_) {
    ApplyCrash(&file);
  }
}

void MemDisk::ApplyCrash(FileState* file) {
  file->data.resize(file->durable);
}

std::uint64_t MemDisk::syncs() const {
  sync::MutexLock lock(mu_);
  return syncs_;
}

std::uint64_t MemDisk::bytes_written() const {
  sync::MutexLock lock(mu_);
  return bytes_written_;
}

// --- FaultyDisk --------------------------------------------------------------

void FaultyDisk::ApplyCrash(FileState* file) {
  const std::size_t unsynced = file->data.size() - file->durable;
  if (unsynced > 0 && rng_.NextBool(faults_.torn_tail)) {
    // A torn write: a random strict-partial prefix of the un-synced suffix
    // reached the platter, very possibly ending mid-record.
    const std::size_t kept =
        static_cast<std::size_t>(rng_.NextBounded(unsynced));
    file->data.resize(file->durable + kept);
    ++torn_tails_;
    if (kept > 0 && rng_.NextBool(faults_.bit_flip)) {
      const std::size_t at =
          file->durable + static_cast<std::size_t>(rng_.NextBounded(kept));
      file->data[at] = static_cast<char>(
          file->data[at] ^ static_cast<char>(1u << rng_.NextBounded(8)));
      ++bit_flips_;
    }
  } else {
    file->data.resize(file->durable);
  }
}

std::uint64_t FaultyDisk::torn_tails() const {
  sync::MutexLock lock(mu_);
  return torn_tails_;
}

std::uint64_t FaultyDisk::bit_flips() const {
  sync::MutexLock lock(mu_);
  return bit_flips_;
}

}  // namespace eunomia::wal
