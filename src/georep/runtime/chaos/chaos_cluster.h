// A simulated EunomiaKV deployment wired to the fault-injecting environment,
// with crash/restart lifecycle management.
//
// The cluster owns what must SURVIVE a crash — the per-DC uid allocators,
// the client session maps (VClock_c is client-side state in the paper), the
// visibility tracker (the observer) and, durable, one fault-injecting disk
// per datacenter. Each datacenter's DatacenterRuntime and PeerLinks are
// disposable: Crash() destroys them, Restart() builds fresh ones with newly
// drawn clock skew.
//
// Recovery: WAL-less (durable=false), the environment replays its channel
// histories into the fresh runtime. Durable, each runtime logs through
// GeoDurability onto a wal::FaultyDisk that survives the crash minus its
// unsynced suffix; a crash closes every link to and from the datacenter,
// Restart recovers from the disk and re-dials, and the peers' PeerLinks,
// re-dialing on backoff, catch it up from their install WALs.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/random.h"
#include "src/georep/config.h"
#include "src/georep/runtime/chaos/faulty_env.h"
#include "src/georep/runtime/datacenter_runtime.h"
#include "src/georep/runtime/durability.h"
#include "src/georep/runtime/peer_links.h"
#include "src/georep/visibility.h"
#include "src/sim/simulator.h"
#include "src/wal/disk.h"
#include "src/wal/log_writer.h"

namespace eunomia::geo::rt::chaos {

struct ChaosOptions {
  GeoConfig config;
  FaultProfile profile;
  std::uint64_t seed = 1;
  // Durable mode (see file comment). Read-your-writes across a crash holds
  // only under kPerCommit: a lazier policy may lose an acknowledged write.
  bool durable = false;
  wal::FaultyDisk::Faults disk_faults;
  wal::FsyncPolicy fsync = wal::FsyncPolicy::kPerCommit;
  std::uint64_t snapshot_interval_bytes = 16u << 10;
};

class ChaosCluster {
 public:
  ChaosCluster(sim::Simulator* sim, const ChaosOptions& options);

  // Creates every datacenter and starts it. Call once.
  void Start();

  // Kills a datacenter: the environment drops everything in flight to or
  // scheduled by it, then its runtime and links are destroyed with all
  // volatile state; in durable mode the disk keeps its synced prefix plus a
  // possibly-torn fragment of the unsynced suffix.
  void Crash(DatacenterId dc);

  // Reboots a crashed datacenter with new clock skew (see file comment).
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
  wal::FaultyDisk* disk(DatacenterId dc) { return disks_[dc].get(); }
  GeoDurability* durability(DatacenterId dc) { return durability_[dc].get(); }
  const PeerLinks* links(DatacenterId dc) const { return links_[dc].get(); }

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
  // Builds dc's durability (durable mode), runtime and links.
  void Build(DatacenterId dc);
  // Recovers dc from its disk (durable mode), dials every peer and starts
  // the runtime's timers and the links.
  void Boot(DatacenterId dc);

  const ChaosOptions options_;
  VisibilityTracker tracker_;
  FaultyGeoEnvironment env_;
  Rng clock_rng_;
  std::vector<UidAllocator> uids_;
  std::vector<SessionMap> sessions_;
  std::vector<std::unique_ptr<wal::FaultyDisk>> disks_;  // survive crashes
  std::vector<std::unique_ptr<GeoDurability>> durability_;
  std::vector<std::unique_ptr<DatacenterRuntime>> runtimes_;
  std::vector<std::unique_ptr<PeerLinks>> links_;  // after runtimes_
  std::int64_t max_clock_error_us_ = 0;
};

}  // namespace eunomia::geo::rt::chaos
