#include "src/georep/runtime/chaos/chaos_cluster.h"

#include <cstdlib>
#include <utility>
#include <vector>

namespace eunomia::geo::rt::chaos {

ChaosCluster::ChaosCluster(sim::Simulator* sim, const ChaosOptions& options)
    : options_(options),
      tracker_(options.config.timeline_window_us, /*num_datacenters=*/0),
      env_(sim, options.config, options.profile, options.seed),
      clock_rng_(options.seed ^ 0xc10cc10cc10cc10cULL),
      sessions_(options.config.num_dcs) {
  // Detailed per-(uid, dc) visible times feed the causal-order checker;
  // num_datacenters=0 above keeps origin records for the whole run so a
  // replay-driven re-apply can never double-reclaim them.
  tracker_.EnableDetailedLog();
  uids_.reserve(options_.config.num_dcs);
  for (DatacenterId dc = 0; dc < options_.config.num_dcs; ++dc) {
    uids_.emplace_back(/*first=*/dc, /*stride=*/options_.config.num_dcs);
  }
  disks_.resize(options_.config.num_dcs);
  durability_.resize(options_.config.num_dcs);
  if (options_.durable) {
    for (DatacenterId dc = 0; dc < options_.config.num_dcs; ++dc) {
      disks_[dc] = std::make_unique<wal::FaultyDisk>(
          options_.disk_faults, options_.seed ^ (0xd15cull << 16) ^ dc);
    }
  }
  runtimes_.resize(options_.config.num_dcs);
  links_.resize(options_.config.num_dcs);
}

std::vector<PhysicalClock> ChaosCluster::DrawClocks() {
  const ClockConfig& cc = options_.config.clocks;
  std::vector<PhysicalClock> clocks;
  clocks.reserve(options_.config.partitions_per_dc);
  for (PartitionId p = 0; p < options_.config.partitions_per_dc; ++p) {
    const std::int64_t offset =
        clock_rng_.NextInRange(-cc.max_offset_us, cc.max_offset_us);
    const double drift =
        (clock_rng_.NextDouble() * 2.0 - 1.0) * cc.max_drift_ppm;
    NoteClockError(std::abs(offset));
    clocks.emplace_back(offset, drift);
  }
  return clocks;
}

void ChaosCluster::Build(DatacenterId dc) {
  if (options_.durable) {
    GeoDurabilityOptions opts;
    opts.disk = disks_[dc].get();
    opts.dc = dc;
    opts.num_dcs = options_.config.num_dcs;
    opts.partitions = options_.config.partitions_per_dc;
    opts.fsync = options_.fsync;
    opts.snapshot_interval_bytes = options_.snapshot_interval_bytes;
    durability_[dc] = std::make_unique<GeoDurability>(std::move(opts));
  }
  runtimes_[dc] = std::make_unique<DatacenterRuntime>(
      dc, options_.config, &env_, &tracker_, &uids_[dc], &sessions_[dc],
      DrawClocks(), durability_[dc].get());
  links_[dc] = std::make_unique<PeerLinks>(
      PeerLinks::Options{}, runtimes_[dc].get(), &env_, &env_,
      durability_[dc].get(), /*replayed_frames=*/nullptr);
}

void ChaosCluster::Boot(DatacenterId dc) {
  if (options_.durable) {
    // Before the dials, so the hellos name the recovered frontier (a fresh
    // disk recovers to an empty world and opens the log writers).
    // Sessions live client-side here, so snapshots carry none.
    durability_[dc]->Recover(runtimes_[dc].get(), /*sessions=*/nullptr);
  }
  for (DatacenterId peer = 0; peer < options_.config.num_dcs; ++peer) {
    if (peer != dc) {
      links_[dc]->Dial(peer);  // a peer that is down is re-dialed later
    }
  }
  runtimes_[dc]->StartTimers();
  links_[dc]->Start();
}

void ChaosCluster::Start() {
  for (DatacenterId dc = 0; dc < options_.config.num_dcs; ++dc) {
    Build(dc);
    env_.AttachDatacenter(dc, runtimes_[dc].get(), links_[dc].get());
  }
  for (DatacenterId dc = 0; dc < options_.config.num_dcs; ++dc) {
    Boot(dc);
  }
}

void ChaosCluster::Crash(DatacenterId dc) {
  // Epoch-bump first: every closure capturing the old runtime or links is
  // fenced before the objects die.
  env_.CrashDatacenter(dc);
  links_[dc].reset();
  runtimes_[dc].reset();
  if (!options_.durable) {
    // No catch-up source: the links stay nominally up, what the dead
    // datacenter misses is lost at delivery and restored by Restart's
    // channel-history replay.
    return;
  }
  // The process is gone: its connections close, in-flight frames are lost,
  // and the peers start re-dialing.
  for (DatacenterId peer = 0; peer < options_.config.num_dcs; ++peer) {
    if (peer != dc) {
      env_.DropLink(dc, peer);
      env_.DropLink(peer, dc);
    }
  }
  // Destroy the writers (their destructors drain queued bytes but never
  // issue a final sync — kill -9 semantics), then crash the disk: the
  // un-fsynced suffix dies, possibly leaving a torn or bit-flipped tail.
  durability_[dc].reset();
  disks_[dc]->Crash();
}

void ChaosCluster::Restart(DatacenterId dc) {
  Build(dc);
  env_.RestartDatacenter(dc, runtimes_[dc].get(), links_[dc].get(),
                         /*replay=*/!options_.durable);
  Boot(dc);
}

}  // namespace eunomia::geo::rt::chaos
