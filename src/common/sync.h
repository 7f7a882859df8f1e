// Annotated synchronization primitives: the compiler-enforced half of the
// concurrency discipline (docs/ARCHITECTURE.md "Concurrency discipline").
//
// Every mutex in the tree is a sync::Mutex, every guarded field carries
// GUARDED_BY, and clang's -Wthread-safety analysis (promoted to an error in
// CI) proves at compile time that no annotated field is touched without its
// lock. The macros are the abseil-style spelling of clang's thread-safety
// attributes and expand to nothing on non-clang compilers, so gcc builds
// are unaffected.
//
// On top of the static analysis, debug builds carry a *lock-rank* deadlock
// detector. Each Mutex is constructed with a name and a rank (see the
// kRank* table below; ranks order mutexes outermost-first). A thread may
// only acquire a mutex whose rank is strictly greater than the rank of
// every ranked mutex it already holds — so any acquisition order that could
// participate in a cycle aborts immediately, printing both lock names,
// instead of deadlocking some run later under just the wrong interleaving.
// Mutexes constructed with kRankExempt opt out (leaf locks in tests and
// tools that never nest). The checks compile away entirely when
// EUNOMIA_LOCK_RANK_CHECKS is 0 (Release builds): Lock/Unlock reduce to the
// raw std::mutex calls.
//
// Waiting: CondVar deliberately has no predicate-taking overloads. A
// predicate lambda's body is analyzed as a separate function, so reads of
// GUARDED_BY fields inside it would trip the analysis even though the lock
// is held; writing the standard `while (!cond) cv.Wait(mu);` loop inline
// keeps the accesses visible to the checker. WaitFor/WaitUntil return
// std::cv_status so timeout loops read the same way.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>

// --- clang thread-safety annotation macros -----------------------------------

#if defined(__clang__) && (!defined(SWIG))
#define EUNOMIA_TS_ATTRIBUTE(x) __attribute__((x))
#else
#define EUNOMIA_TS_ATTRIBUTE(x)  // no-op on gcc/msvc
#endif

#define CAPABILITY(x) EUNOMIA_TS_ATTRIBUTE(capability(x))
#define SCOPED_CAPABILITY EUNOMIA_TS_ATTRIBUTE(scoped_lockable)
#define GUARDED_BY(x) EUNOMIA_TS_ATTRIBUTE(guarded_by(x))
#define PT_GUARDED_BY(x) EUNOMIA_TS_ATTRIBUTE(pt_guarded_by(x))
#define ACQUIRED_BEFORE(...) EUNOMIA_TS_ATTRIBUTE(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) EUNOMIA_TS_ATTRIBUTE(acquired_after(__VA_ARGS__))
#define REQUIRES(...) EUNOMIA_TS_ATTRIBUTE(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  EUNOMIA_TS_ATTRIBUTE(requires_shared_capability(__VA_ARGS__))
#define ACQUIRE(...) EUNOMIA_TS_ATTRIBUTE(acquire_capability(__VA_ARGS__))
#define RELEASE(...) EUNOMIA_TS_ATTRIBUTE(release_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) \
  EUNOMIA_TS_ATTRIBUTE(try_acquire_capability(__VA_ARGS__))
#define EXCLUDES(...) EUNOMIA_TS_ATTRIBUTE(locks_excluded(__VA_ARGS__))
#define ASSERT_CAPABILITY(x) EUNOMIA_TS_ATTRIBUTE(assert_capability(x))
#define RETURN_CAPABILITY(x) EUNOMIA_TS_ATTRIBUTE(lock_returned(x))
#define NO_THREAD_SAFETY_ANALYSIS \
  EUNOMIA_TS_ATTRIBUTE(no_thread_safety_analysis)

// --- lock-rank configuration -------------------------------------------------

// Default: rank checking follows assertions (on unless NDEBUG). The build
// overrides this per configuration: CMake defines EUNOMIA_LOCK_RANK_CHECKS=1
// for every build type except Release, so the CI test matrix always runs
// with the detector armed while Release perf builds compile it out.
#if !defined(EUNOMIA_LOCK_RANK_CHECKS)
#if defined(NDEBUG)
#define EUNOMIA_LOCK_RANK_CHECKS 0
#else
#define EUNOMIA_LOCK_RANK_CHECKS 1
#endif
#endif

namespace eunomia::sync {

// Lock ranks, outermost (acquired first) to innermost (acquired last). The
// bands are spaced so a future lock slots between its neighbours without
// renumbering. The full "who nests inside whom" rationale lives in
// docs/ARCHITECTURE.md; the invariant enforced here is only that every
// chain of nested acquisitions is strictly rank-increasing.
using LockRank = std::int32_t;

// Exempt from ordering checks entirely (never pushed on the held stack).
// For leaf mutexes that provably never hold anything else — test sinks,
// bench counters. Prefer a real rank for anything in src/.
inline constexpr LockRank kRankExempt = -1;

inline constexpr LockRank kRankLifecycle = 100;     // service Start/Stop
inline constexpr LockRank kRankTransport = 200;     // transport registries
inline constexpr LockRank kRankFanoutEmit = 300;    // StableFanout::emit_mu_
inline constexpr LockRank kRankFanoutListeners = 310;
inline constexpr LockRank kRankServerPeers = 400;   // net::EunomiaServer
inline constexpr LockRank kRankClientSession = 410; // net::EunomiaClient
inline constexpr LockRank kRankSeqStage = 600;      // sequencer queues
inline constexpr LockRank kRankServiceInbox = 700;  // per-partition inboxes
inline constexpr LockRank kRankShardWake = 710;     // shard wakeup
inline constexpr LockRank kRankMergeStage = 720;    // merge publish state
inline constexpr LockRank kRankBatchPool = 730;     // batch free-list
inline constexpr LockRank kRankConnSend = 800;      // Connection::send_mu_
inline constexpr LockRank kRankConnQueue = 810;     // per-conn outbox
inline constexpr LockRank kRankIoLoop = 820;        // net::IoLoop task queue
inline constexpr LockRank kRankSeqRequest = 900;    // blocking RPC requests
inline constexpr LockRank kRankWalSnapshot = 920;   // ServiceWal snapshot queue
inline constexpr LockRank kRankWalWriter = 930;     // wal::LogWriter queue
inline constexpr LockRank kRankWalDisk = 940;       // wal::MemDisk file map
inline constexpr LockRank kRankMetricsRegistry = 950;  // metrics::Registry
inline constexpr LockRank kRankLeaf = 1000;         // sinks, probes, stats

class Mutex;

namespace internal {

#if EUNOMIA_LOCK_RANK_CHECKS

// Per-thread stack of held *ranked* mutexes. Bounded: a thread holding
// kMaxHeldLocks ranked locks at once is itself a discipline violation.
struct HeldLocks {
  static constexpr int kMaxHeldLocks = 16;
  const Mutex* held[kMaxHeldLocks];
  int depth = 0;
};

inline HeldLocks& ThreadHeldLocks() {
  thread_local HeldLocks held;
  return held;
}

void PushHeldLock(const Mutex& mu);
void PopHeldLock(const Mutex& mu);

#endif  // EUNOMIA_LOCK_RANK_CHECKS

}  // namespace internal

// A std::mutex with a name, a lock rank, and thread-safety annotations.
// Non-recursive; acquisition order across ranked mutexes is asserted in
// debug builds (see file comment).
class CAPABILITY("mutex") Mutex {
 public:
  // `name` must outlive the mutex (string literals in practice); it is what
  // the rank-violation abort prints.
  explicit Mutex(const char* name, LockRank rank)
      : name_(name), rank_(rank) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() {
#if EUNOMIA_LOCK_RANK_CHECKS
    internal::PushHeldLock(*this);
#endif
    mu_.lock();
  }

  void Unlock() RELEASE() {
    // Bookkeeping strictly BEFORE the native unlock: the instant mu_ is
    // released, a waiter may wake, observe its predicate, return, and
    // destroy this Mutex (the blocking-RPC Request pattern in
    // src/sequencer/), so the native unlock must be the last access.
#if EUNOMIA_LOCK_RANK_CHECKS
    internal::PopHeldLock(*this);
#endif
    mu_.unlock();
  }

  // Try-acquisition cannot deadlock, so it is exempt from the rank assert;
  // on success the mutex still joins the held stack and constrains later
  // acquisitions.
  bool TryLock() TRY_ACQUIRE(true) {
#if EUNOMIA_LOCK_RANK_CHECKS
    if (!mu_.try_lock()) {
      return false;
    }
    internal::PushHeldLock(*this);
    return true;
#else
    return mu_.try_lock();
#endif
  }

  const char* name() const { return name_; }
  LockRank rank() const { return rank_; }

 private:
  friend class CondVar;

  std::mutex mu_;
  const char* const name_;
  const LockRank rank_;
};

namespace internal {

#if EUNOMIA_LOCK_RANK_CHECKS

[[noreturn]] inline void RankViolation(const Mutex& holding,
                                       const Mutex& acquiring) {
  std::fprintf(stderr,
               "lock-rank violation: acquiring \"%s\" (rank %d) while "
               "holding \"%s\" (rank %d); acquisition order must be "
               "strictly rank-increasing\n",
               acquiring.name(), acquiring.rank(), holding.name(),
               holding.rank());
  std::abort();
}

inline void PushHeldLock(const Mutex& mu) {
  if (mu.rank() == kRankExempt) {
    return;
  }
  HeldLocks& held = ThreadHeldLocks();
  if (held.depth > 0) {
    const Mutex& top = *held.held[held.depth - 1];
    if (top.rank() >= mu.rank()) {
      RankViolation(top, mu);
    }
  }
  if (held.depth == HeldLocks::kMaxHeldLocks) {
    std::fprintf(stderr,
                 "lock-rank violation: thread holds %d ranked locks while "
                 "acquiring \"%s\"\n",
                 HeldLocks::kMaxHeldLocks, mu.name());
    std::abort();
  }
  held.held[held.depth++] = &mu;
}

inline void PopHeldLock(const Mutex& mu) {
  if (mu.rank() == kRankExempt) {
    return;
  }
  HeldLocks& held = ThreadHeldLocks();
  // Releases are almost always LIFO, but out-of-order release (an early
  // MutexLock::Unlock below an inner scope) is legal — scan from the top.
  for (int i = held.depth - 1; i >= 0; --i) {
    if (held.held[i] == &mu) {
      for (int j = i; j + 1 < held.depth; ++j) {
        held.held[j] = held.held[j + 1];
      }
      --held.depth;
      return;
    }
  }
  std::fprintf(stderr, "lock-rank violation: releasing \"%s\" not held\n",
               mu.name());
  std::abort();
}

#endif  // EUNOMIA_LOCK_RANK_CHECKS

}  // namespace internal

// RAII lock with optional early release (the absl::ReleasableMutexLock
// shape). `MutexLock lock(mu);` for the common case; lock.Unlock() when a
// value must be returned or a callback invoked after the critical section
// without waiting for scope exit.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  void Unlock() RELEASE() {
    held_ = false;
    mu_.Unlock();
  }

  ~MutexLock() RELEASE() {
    if (held_) {
      mu_.Unlock();
    }
  }

 private:
  Mutex& mu_;
  bool held_ = true;
};

// Condition variable bound to sync::Mutex. Implemented on the native
// std::condition_variable (no condition_variable_any indirection): the
// underlying std::mutex is adopted for the wait and released back after.
// The waiting mutex stays on the rank stack for the duration — correct,
// because a blocked waiter acquires nothing until the wait returns with the
// lock re-held.
class CondVar {
 public:
  CondVar() = default;

  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    cv_.wait(native);
    native.release();
  }

  template <typename Rep, typename Period>
  std::cv_status WaitFor(Mutex& mu,
                         const std::chrono::duration<Rep, Period>& timeout)
      REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    const std::cv_status status = cv_.wait_for(native, timeout);
    native.release();
    return status;
  }

  template <typename Clock, typename Duration>
  std::cv_status WaitUntil(
      Mutex& mu, const std::chrono::time_point<Clock, Duration>& deadline)
      REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    const std::cv_status status = cv_.wait_until(native, deadline);
    native.release();
    return status;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace eunomia::sync
