#include "src/georep/runtime/chaos/chaos_cluster.h"

#include <algorithm>
#include <cstdlib>
#include <utility>
#include <vector>

namespace eunomia::geo::rt::chaos {

ChaosCluster::ChaosCluster(sim::Simulator* sim, const ChaosOptions& options)
    : sim_(sim),
      options_(options),
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

std::unique_ptr<DatacenterRuntime> ChaosCluster::MakeRuntime(DatacenterId dc) {
  return std::make_unique<DatacenterRuntime>(dc, options_.config, &env_,
                                             &tracker_, &uids_[dc],
                                             &sessions_[dc], DrawClocks(),
                                             durability_[dc].get());
}

std::unique_ptr<GeoDurability> ChaosCluster::MakeDurability(DatacenterId dc) {
  GeoDurabilityOptions opts;
  opts.disk = disks_[dc].get();
  opts.dc = dc;
  opts.num_dcs = options_.config.num_dcs;
  opts.partitions = options_.config.partitions_per_dc;
  opts.fsync = options_.fsync;
  opts.snapshot_interval_bytes = options_.snapshot_interval_bytes;
  return std::make_unique<GeoDurability>(std::move(opts));
}

void ChaosCluster::Start() {
  for (DatacenterId dc = 0; dc < options_.config.num_dcs; ++dc) {
    if (options_.durable) {
      durability_[dc] = MakeDurability(dc);
    }
    runtimes_[dc] = MakeRuntime(dc);
    env_.RegisterRuntime(dc, runtimes_[dc].get());
    if (options_.durable) {
      // A fresh disk recovers to an empty world; the call also opens the
      // log writers the hooks append to.
      durability_[dc]->Recover(runtimes_[dc].get(), /*sessions=*/nullptr);
    }
  }
  for (DatacenterId dc = 0; dc < options_.config.num_dcs; ++dc) {
    runtimes_[dc]->StartTimers();
    if (options_.durable) {
      ScheduleSnapshot(dc);
    }
  }
}

void ChaosCluster::Crash(DatacenterId dc) {
  // Epoch-bump first: every closure capturing the old runtime is fenced
  // before the object dies.
  env_.CrashDatacenter(dc);
  runtimes_[dc].reset();
  if (options_.durable) {
    // Destroy the writers (their destructors drain queued bytes but never
    // issue a final sync — kill -9 semantics), then crash the disk: the
    // un-fsynced suffix dies, possibly leaving a torn or bit-flipped tail.
    durability_[dc].reset();
    disks_[dc]->Crash();
  }
}

void ChaosCluster::Restart(DatacenterId dc) {
  if (!options_.durable) {
    runtimes_[dc] = MakeRuntime(dc);
    env_.RestartDatacenter(dc, runtimes_[dc].get());
    runtimes_[dc]->StartTimers();
    return;
  }
  durability_[dc] = MakeDurability(dc);
  runtimes_[dc] = MakeRuntime(dc);
  env_.AttachDatacenter(dc, runtimes_[dc].get());
  durability_[dc]->Recover(runtimes_[dc].get(), /*sessions=*/nullptr);
  // Incremental catch-up: peer traffic above the recovered applied
  // frontier (the disk already replayed everything that had arrived).
  env_.CatchUpDatacenter(dc, runtimes_[dc].get());
  // Re-fan-out every logged install, partition-major in log order: the
  // pre-crash fan-out may not have reached every peer; peers dedup.
  std::vector<std::vector<RemotePayload>> installs(
      options_.config.partitions_per_dc);
  InstallCursor cursor = durability_[dc]->ReadInstalls(/*mark=*/0);
  PartitionId partition = 0;
  RemotePayload payload;
  while (!cursor.done()) {
    if (cursor.Next(&partition, &payload)) {
      installs[partition].push_back(std::move(payload));
    }
  }
  for (PartitionId p = 0; p < installs.size(); ++p) {
    for (const RemotePayload& install : installs[p]) {
      for (DatacenterId k = 0; k < options_.config.num_dcs; ++k) {
        if (k != dc) {
          env_.SendPayload(dc, k, p, install);
        }
      }
    }
  }
  runtimes_[dc]->StartTimers();
}

void ChaosCluster::ScheduleSnapshot(DatacenterId dc) {
  sim_->ScheduleAfter(options_.snapshot_period_us, [this, dc] {
    if (alive(dc) && durability_[dc] != nullptr &&
        durability_[dc]->SnapshotDue()) {
      durability_[dc]->Snapshot(*runtimes_[dc], /*sessions=*/nullptr,
                                InstallTruncateMark(dc));
    }
    ScheduleSnapshot(dc);
  });
}

Timestamp ChaosCluster::InstallTruncateMark(DatacenterId dc) const {
  // An install entry may be dropped only once (a) it has stabilized locally
  // (nothing left to re-enqueue) and (b) every peer has durably applied it
  // — under kPerCommit a peer's recovered SiteTime never regresses, so its
  // live SiteTime is a durable lower bound. With any peer down (its applied
  // frontier unobservable) or a lazier fsync policy, keep everything.
  if (options_.fsync != wal::FsyncPolicy::kPerCommit) {
    return 0;
  }
  Timestamp mark = runtimes_[dc]->eunomia().StableTime();
  for (DatacenterId k = 0; k < options_.config.num_dcs; ++k) {
    if (k == dc) {
      continue;
    }
    if (!alive(k)) {
      return 0;
    }
    mark = std::min(mark, runtimes_[k]->receiver().site_time()[dc]);
  }
  return mark;
}

}  // namespace eunomia::geo::rt::chaos
