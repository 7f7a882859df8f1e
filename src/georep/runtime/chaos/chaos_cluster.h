// A simulated EunomiaKV deployment wired to the fault-injecting environment,
// with crash/restart lifecycle management.
//
// The cluster owns everything that must SURVIVE a datacenter crash — the
// per-DC uid allocators (a restarted datacenter must not re-issue uids of
// its previous incarnation; the strided stream is the durable-allocation
// stand-in), the client session maps (VClock_c is client-side state in the
// paper, so a server crash does not reset it), the shared visibility
// tracker (the observer, not part of the system under test), and, in
// durable mode, one fault-injecting in-memory disk per datacenter — while
// the DatacenterRuntime objects themselves are disposable: Crash() destroys
// one outright, Restart() builds a fresh one with newly drawn clock skew.
//
// Two recovery modes:
//   - durable=false: the environment replays its full channel histories
//     into the fresh runtime (the WAL-less stand-in).
//   - durable=true: each runtime writes a real WAL + snapshots through
//     GeoDurability onto a wal::FaultyDisk that survives the crash (losing
//     its unsynced suffix, possibly torn or bit-flipped). Restart recovers
//     from the disk, then the environment provides only the *incremental*
//     catch-up — peer traffic above the recovered applied frontier — plus
//     the re-fan-out of the payloads in its install WAL, the same records a
//     real node's WAL catch-up replays.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/random.h"
#include "src/georep/config.h"
#include "src/georep/runtime/chaos/faulty_env.h"
#include "src/georep/runtime/datacenter_runtime.h"
#include "src/georep/runtime/durability.h"
#include "src/georep/visibility.h"
#include "src/sim/simulator.h"
#include "src/wal/disk.h"
#include "src/wal/log_writer.h"

namespace eunomia::geo::rt::chaos {

struct ChaosOptions {
  GeoConfig config;
  FaultProfile profile;
  std::uint64_t seed = 1;
  // Durable mode (see file comment). The RYW-across-crash invariant is only
  // sound under kPerCommit: with a lazier policy an acknowledged write may
  // legitimately die with the unsynced log tail.
  bool durable = false;
  wal::FaultyDisk::Faults disk_faults;
  wal::FsyncPolicy fsync = wal::FsyncPolicy::kPerCommit;
  std::uint64_t snapshot_period_us = 250'000;
  std::uint64_t snapshot_interval_bytes = 16u << 10;
};

class ChaosCluster {
 public:
  ChaosCluster(sim::Simulator* sim, const ChaosOptions& options);

  // Creates every datacenter runtime and starts its timers. Call once.
  void Start();

  // Kills a datacenter: the environment drops everything in flight to or
  // scheduled by it, then the runtime object is destroyed. All volatile
  // state (stores, Eunomia buffers, receiver queues, parked payloads,
  // un-fsynced log bytes) is lost; in durable mode the disk keeps its
  // synced prefix plus a possibly-torn fragment of the unsynced suffix.
  void Crash(DatacenterId dc);

  // Boots a fresh runtime for a crashed datacenter — new clock skew drawn,
  // state recovered from its disk (durable mode) or rebuilt by the
  // environment's replay — and starts its timers.
  void Restart(DatacenterId dc);

  bool alive(DatacenterId dc) const { return env_.alive(dc); }
  DatacenterRuntime* runtime(DatacenterId dc) { return runtimes_[dc].get(); }
  const DatacenterRuntime* runtime(DatacenterId dc) const {
    return runtimes_[dc].get();
  }
  FaultyGeoEnvironment& env() { return env_; }
  const FaultyGeoEnvironment& env() const { return env_; }
  VisibilityTracker& tracker() { return tracker_; }
  const VisibilityTracker& tracker() const { return tracker_; }
  const GeoConfig& config() const { return options_.config; }
  bool durable() const { return options_.durable; }
  wal::FaultyDisk* disk(DatacenterId dc) { return disks_[dc].get(); }
  GeoDurability* durability(DatacenterId dc) { return durability_[dc].get(); }

  // Largest absolute clock error any partition clock has carried so far
  // (drawn skews plus injected steps) — feeds the staleness bound.
  std::int64_t max_clock_error_us() const { return max_clock_error_us_; }
  void NoteClockError(std::int64_t abs_error_us) {
    if (abs_error_us > max_clock_error_us_) {
      max_clock_error_us_ = abs_error_us;
    }
  }

 private:
  std::vector<PhysicalClock> DrawClocks();
  std::unique_ptr<DatacenterRuntime> MakeRuntime(DatacenterId dc);
  std::unique_ptr<GeoDurability> MakeDurability(DatacenterId dc);
  // Recurring per-DC snapshot event (durable mode): snapshot when enough
  // log bytes accumulated, truncating installs up to the frontier every
  // peer has durably applied.
  void ScheduleSnapshot(DatacenterId dc);
  Timestamp InstallTruncateMark(DatacenterId dc) const;

  sim::Simulator* const sim_;
  const ChaosOptions options_;
  VisibilityTracker tracker_;
  FaultyGeoEnvironment env_;
  Rng clock_rng_;
  std::vector<UidAllocator> uids_;
  std::vector<SessionMap> sessions_;
  std::vector<std::unique_ptr<wal::FaultyDisk>> disks_;  // survive crashes
  std::vector<std::unique_ptr<GeoDurability>> durability_;
  std::vector<std::unique_ptr<DatacenterRuntime>> runtimes_;
  std::int64_t max_clock_error_us_ = 0;
};

}  // namespace eunomia::geo::rt::chaos
