// GeoDurability — per-datacenter write-ahead logging, snapshots and crash
// recovery for the geo-replication runtime (ROADMAP item 2: replace the
// chaos environment's in-memory replay stand-in with a real durable log).
//
// What survives a kill -9 (given the fsync policy honored it):
//   - every locally installed update, logged via DurabilityHooks::
//     OnLocalInstall *before* its payload fans out to any peer;
//   - every accepted inbound metadata batch and payload, logged before the
//     receiver/partition processes it — so the applied frontier (SiteTime)
//     a replay reconstructs is always >= the pre-crash one under
//     FsyncPolicy::kPerCommit;
//   - the latest snapshot: store contents, receiver SiteTime, client
//     session vclocks, and per-partition local-timestamp high-water marks.
//
// File layout on the Disk (all paths relative to the disk root):
//   install-p<P>   one log per partition: kInstallRecord entries in local
//                  timestamp order (the order RestoreLocalUpdate requires)
//   inbound        one log for all remote traffic: kInboundMetaRecord /
//                  kInboundPayloadRecord entries in arrival order, which
//                  preserves the per-origin FIFO the receiver relies on
//   snap           one framed kGeoSnapshotRecord, replaced atomically
//
// Recovery = restore the snapshot (store versions, SiteTime, sessions,
// clock marks), then replay the install logs through RestoreLocalUpdate
// (re-priming clocks and re-enqueueing for stabilization + re-shipping),
// then replay the inbound log through OnRemoteMetadata/OnPayload. Replay is
// at-least-once above the snapshot: the receiver's SiteTime head check and
// the runtime's payload duplicate check shed everything already covered.
// The hooks are suppressed while recovering, so replay never re-logs.
//
// After Recover the caller MUST re-fan-out every retained install payload
// to every peer (Recovered::retained_installs): the pre-crash fan-out may
// not have reached them, and peers dedup whatever it did. Metadata re-ships
// itself through re-stabilization.
//
// Truncation: Snapshot() rewrites the inbound log keeping only entries not
// yet covered by the snapshotted SiteTime, and the install logs keeping
// only entries above `install_truncate_mark` — the caller passes
// min(local stable frontier, every peer's applied-from-us frontier), or 0
// to keep everything when peer progress is unknown. Truncated installs stay
// recoverable through the snapshot store plus the clock marks.
//
// Torn tails: each log is repaired by wal::RecoverLog before use — a
// partial or bit-flipped final record (detected by the CRC/length framing)
// is discarded on disk and never reaches the runtime.
//
// Threading: single-caller contract, like the runtime it serves. Appends
// are inline (wal::LogWriter), so the simulator's schedule stays
// deterministic; under kInterval the caller owns the time bound by calling
// Flush() every wal::kFsyncIntervalUs (GeoNode does, on its event loop).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/types.h"
#include "src/georep/runtime/datacenter_runtime.h"
#include "src/wal/disk.h"
#include "src/wal/log_writer.h"

namespace eunomia::geo::rt {

struct GeoDurabilityOptions {
  wal::Disk* disk = nullptr;  // borrowed; must outlive the GeoDurability
  DatacenterId dc = 0;
  std::uint32_t num_dcs = 0;
  std::uint32_t partitions = 0;
  wal::FsyncPolicy fsync = wal::FsyncPolicy::kPerCommit;
  // Snapshot() is cheap to skip: SnapshotDue() gates on this many log bytes
  // appended since the last snapshot.
  std::uint64_t snapshot_interval_bytes = 1u << 20;
};

class GeoDurability final : public DurabilityHooks {
 public:
  static constexpr std::uint8_t kInstallRecord = 1;
  static constexpr std::uint8_t kInboundMetaRecord = 2;
  static constexpr std::uint8_t kInboundPayloadRecord = 3;
  static constexpr std::uint8_t kGeoSnapshotRecord = 4;

  struct Recovered {
    bool had_snapshot = false;
    bool any_torn_tail = false;  // at least one log lost a torn/corrupt tail
    std::uint64_t store_versions = 0;
    std::uint64_t installs_replayed = 0;
    std::uint64_t inbound_meta_replayed = 0;
    std::uint64_t inbound_payloads_replayed = 0;
    // Install-log survivors in replay order; see the re-fan-out contract in
    // the file comment.
    std::vector<std::pair<PartitionId, RemotePayload>> retained_installs;
  };

  explicit GeoDurability(GeoDurabilityOptions options);
  ~GeoDurability() override;

  GeoDurability(const GeoDurability&) = delete;
  GeoDurability& operator=(const GeoDurability&) = delete;

  // Repairs the logs, restores the snapshot and replays everything into
  // `runtime`. Call once, on a fresh runtime constructed with this object
  // as its hooks, before StartTimers. `sessions` may be null when session
  // state lives outside the crashed process (the sim harness's client-side
  // vclocks).
  Recovered Recover(DatacenterRuntime* runtime, SessionMap* sessions);

  // DurabilityHooks (no-ops while Recover is replaying).
  void OnLocalInstall(PartitionId partition,
                      const RemotePayload& payload) override;
  void OnInboundMetadata(const std::vector<RemoteUpdate>& batch) override;
  void OnInboundPayload(PartitionId partition,
                        const RemotePayload& payload) override;

  bool SnapshotDue() const;
  // Snapshots `runtime` (+ `sessions` if non-null) and truncates the logs;
  // see the file comment for the install_truncate_mark contract.
  void Snapshot(const DatacenterRuntime& runtime, const SessionMap* sessions,
                Timestamp install_truncate_mark);

  // Syncs everything logged so far, unless the policy is kOff. Clean
  // shutdowns call it, and so does the kInterval time bound; a kill -9
  // never reaches it.
  void Flush();

  std::uint64_t snapshots_taken() const { return snapshots_taken_; }
  std::uint64_t append_failures() const { return append_failures_; }

 private:
  static std::string InstallLogName(PartitionId p);

  void Append(wal::LogWriter* writer, std::uint8_t type,
              const std::string& payload);

  const GeoDurabilityOptions options_;
  std::vector<std::unique_ptr<wal::LogWriter>> install_logs_;  // per partition
  std::unique_ptr<wal::LogWriter> inbound_log_;
  // Per-partition max local timestamp ever logged: snapshotted so truncated
  // installs still prime the restored hybrid clocks.
  std::vector<Timestamp> local_ts_mark_;
  bool recovering_ = false;
  std::uint64_t bytes_at_last_snapshot_ = 0;
  std::uint64_t snapshots_taken_ = 0;
  std::uint64_t append_failures_ = 0;
};

}  // namespace eunomia::geo::rt
