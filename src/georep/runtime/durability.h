// GeoDurability — per-datacenter write-ahead logging, snapshots and crash
// recovery for the geo-replication runtime.
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
// Recovery = restore the snapshot, then replay the install logs through
// RestoreLocalUpdate (re-priming clocks, re-enqueueing for stabilization
// and re-shipping), then the inbound log through OnRemoteMetadata/
// OnPayload. Replay is at-least-once above the snapshot (the receiver's and
// the payload dedup shed what is covered) and never re-logs.
//
// The install logs are also the only source of peer catch-up (ReadInstalls,
// read by PeerLinks). Snapshot() truncates them to the entries above
// `install_truncate_mark` (PeerLinks::InstallTruncateMark: no peer needs
// the rest; 0 keeps everything) and the inbound log to the entries above
// the snapshotted SiteTime. Truncated installs stay recoverable through the
// snapshot store plus the clock marks.
//
// Torn tails: wal::RecoverLog repairs each log before use, discarding a
// partial or bit-flipped final record on disk.
//
// Threading: single caller, like the runtime it serves. Appends are inline
// (wal::LogWriter), so the simulator stays deterministic; under kInterval
// the caller calls Flush() every wal::kFsyncIntervalUs (PeerLinks does).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
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

// Forward cursor over the install logs (GeoDurability::ReadInstalls): yields
// every install logged before it opened with own timestamp above the mark,
// merged across partitions in (timestamp, partition) order — the order
// Eunomia stabilizes them in. It reads each log by byte offset, at most one
// chunk per partition per Next(), so no call costs more however long the
// log; the logs must not be compacted while it is in use.
class InstallCursor {
 public:
  static constexpr std::size_t kReadChunkBytes = 64u << 10;

  // `last[p]`: the newest own timestamp partition p had logged at open.
  InstallCursor(wal::Disk* disk, DatacenterId dc, std::uint32_t num_dcs,
                Timestamp mark, std::vector<Timestamp> last);

  // False when nothing is ready yet (call again) or the cursor is done().
  bool Next(PartitionId* partition, RemotePayload* payload);
  bool done() const;

 private:
  struct Log {
    std::uint64_t read_to = 0;  // file offset read so far
    bool done = false;          // nothing more to read
    std::string partial;        // a record split across chunks
    std::deque<RemotePayload> ready;  // decoded, in log order
  };

  // Reads and decodes the log's next chunk. False while it still has no
  // head and is not done.
  bool ReadChunk(PartitionId partition);

  wal::Disk* const disk_;
  const DatacenterId dc_;
  const std::uint32_t num_dcs_;
  const Timestamp mark_;
  const std::vector<Timestamp> last_;  // per partition, at open
  std::vector<Log> logs_;              // per partition
};

class GeoDurability final : public DurabilityHooks {
 public:
  static constexpr std::uint8_t kInstallRecord = 1;
  static constexpr std::uint8_t kInboundMetaRecord = 2;
  static constexpr std::uint8_t kInboundPayloadRecord = 3;
  static constexpr std::uint8_t kGeoSnapshotRecord = 4;

  explicit GeoDurability(GeoDurabilityOptions options);
  ~GeoDurability() override;

  GeoDurability(const GeoDurability&) = delete;
  GeoDurability& operator=(const GeoDurability&) = delete;

  // Repairs the logs, restores the snapshot and replays everything into
  // `runtime`. Call once, on a fresh runtime constructed with this object
  // as its hooks, before StartTimers. `sessions` may be null when session
  // state lives outside the crashed process (the sim harness's client-side
  // vclocks).
  void Recover(DatacenterRuntime* runtime, SessionMap* sessions);

  // DurabilityHooks (no-ops while Recover is replaying).
  void OnLocalInstall(PartitionId partition,
                      const RemotePayload& payload) override;
  void OnInboundMetadata(const std::vector<RemoteUpdate>& batch) override;
  void OnInboundPayload(PartitionId partition,
                        const RemotePayload& payload) override;

  // A cursor over the logged installs with own timestamp above `mark`, as
  // the install logs stand now. Call after Recover.
  InstallCursor ReadInstalls(Timestamp mark) const;
  // The install log file of partition p (relative to the disk root).
  static std::string InstallLogName(PartitionId p);

  bool SnapshotDue() const;
  // Snapshots `runtime` (+ `sessions` if non-null) and truncates the logs;
  // see the file comment for the install_truncate_mark contract.
  void Snapshot(const DatacenterRuntime& runtime, const SessionMap* sessions,
                Timestamp install_truncate_mark);

  // Syncs everything logged so far, unless the policy is kOff. Clean
  // shutdowns call it, and so does the kInterval time bound; a kill -9
  // never reaches it.
  void Flush();

  wal::FsyncPolicy fsync() const { return options_.fsync; }
  std::uint64_t snapshots_taken() const { return snapshots_taken_; }
  std::uint64_t append_failures() const { return append_failures_; }

 private:
  void Append(wal::LogWriter* writer, std::uint8_t type,
              const std::string& payload);
  std::uint64_t BytesLogged() const;  // by every log writer, ever

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
