// One datacenter's EunomiaKV protocol runtime (§4–§5, Algorithm 5),
// transport-agnostic.
//
// The partition update path (hybrid clocks of Algorithm 2, metadata
// batching toward the local Eunomia, direct payload fan-out to sibling
// partitions), the Eunomia stabilizer shipping ordered metadata to every
// remote receiver, the Algorithm 5 receiver, session vector clocks and
// visibility bookkeeping. All interaction with the world goes through the
// Environment seam (environment.h), bound by the simulator (sim_env.h) and
// by real threads and sockets (geo_node.h). Single-threaded by contract:
// the binding serializes every call.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/clock/hybrid_clock.h"
#include "src/clock/physical_clock.h"
#include "src/common/types.h"
#include "src/eunomia/core.h"
#include "src/eunomia/sender.h"
#include "src/georep/config.h"
#include "src/georep/geo_store.h"
#include "src/georep/receiver.h"
#include "src/georep/remote_update.h"
#include "src/georep/runtime/environment.h"
#include "src/georep/visibility.h"
#include "src/store/hash_ring.h"

namespace eunomia::geo::rt {

// Client-session map: ClientId -> VClock_c (Table 2). The sim binding
// shares one map across its datacenters (clients are objects of the whole
// simulated world); a real datacenter node owns the sessions of the
// clients attached to it.
using SessionMap = std::unordered_map<ClientId, VectorTimestamp>;

// Write-ahead seam: the runtime announces, synchronously and before any
// side effect leaves the process, every event a crash-recovery log must
// capture. OnLocalInstall fires after a local update is installed but
// before its payload fan-out; the inbound pair fires when remote metadata /
// payloads are accepted (after duplicate suppression, so replaying a log
// never double-logs). Implementations append to a durable log
// (georep/runtime/durability.h); a null hooks pointer keeps the runtime
// purely in-memory.
class DurabilityHooks {
 public:
  virtual ~DurabilityHooks() = default;
  virtual void OnLocalInstall(PartitionId partition,
                              const RemotePayload& payload) = 0;
  virtual void OnInboundMetadata(const std::vector<RemoteUpdate>& batch) = 0;
  virtual void OnInboundPayload(PartitionId partition,
                                const RemotePayload& payload) = 0;
};

class DatacenterRuntime {
 public:
  // `clocks` holds one loosely synchronized physical clock per partition
  // (the binding decides the skew model). `tracker`, `uids`, `sessions` and
  // `hooks` (optional) are borrowed and must outlive the runtime.
  DatacenterRuntime(DatacenterId id, const GeoConfig& config, Environment* env,
                    VisibilityTracker* tracker, UidAllocator* uids,
                    SessionMap* sessions, std::vector<PhysicalClock> clocks,
                    DurabilityHooks* hooks = nullptr);

  DatacenterRuntime(const DatacenterRuntime&) = delete;
  DatacenterRuntime& operator=(const DatacenterRuntime&) = delete;

  DatacenterId id() const { return id_; }

  // Schedules the recurring partition-flush, stabilizer and receiver-check
  // timers. Call exactly once, after every peer datacenter is reachable.
  void StartTimers();

  // --- client entry points ---------------------------------------------------
  void ClientRead(ClientId client, Key key, std::function<void()> done);
  // Read that hands the observed version (a copy taken at the partition, so
  // the caller may inspect it after the fact) to the completion callback.
  // A missing key yields an empty value with an all-zero vector timestamp.
  // ClientRead forwards here; the chaos harness uses the value to check
  // session read-your-writes.
  void ClientReadValue(ClientId client, Key key,
                       std::function<void(const GeoVersion&)> done);
  void ClientUpdate(ClientId client, Key key, Value value,
                    std::function<void()> done);

  // --- crash-recovery bootstrap ----------------------------------------------
  // Re-installs an update this datacenter originated in a previous
  // incarnation (from its install WAL, or the chaos harness's WAL-less
  // replay). Restores the store version, re-primes the partition's hybrid
  // clock so future timestamps stay strictly ahead of the old incarnation's,
  // and re-enqueues the op for stabilization + remote shipping (receivers
  // dedup what they already applied). Call in timestamp order per
  // partition, before StartTimers. It does NOT re-fan-out the payload:
  // PeerLinks' catch-up re-ships it from the install WAL.
  void RestoreLocalUpdate(PartitionId partition, const RemotePayload& update);
  // Restores one store version from a durability snapshot: the raw Put plus
  // a hybrid-clock observation of the version's local component, with no
  // re-enqueue for stabilization or shipping (the snapshot covers state
  // whose metadata already stabilized). Same call-window contract as
  // RestoreLocalUpdate.
  void RestoreStoreVersion(PartitionId partition, Key key,
                           const GeoVersion& version);
  // Restores the receiver's applied frontier (SiteTime) from a snapshot, so
  // replayed inbound arrivals the old incarnation already applied are
  // dropped as duplicates instead of re-applied against fresh state. Call
  // before replaying any inbound metadata or payloads.
  void RestoreSiteTime(const VectorTimestamp& site_time);
  // Re-primes one partition's hybrid clock to at least `ts` — covers local
  // timestamps whose install-log entries were truncated away (their stable,
  // everywhere-applied ops no longer replay, but future timestamps must
  // still strictly exceed them or Property 2 breaks).
  void PrimePartitionClock(PartitionId partition, Timestamp ts);

  // --- message ingress (invoked by the binding on delivery) ------------------
  // At the Eunomia node: one partition's flush (FIFO per partition) — its
  // timestamp-ordered metadata batch, possibly empty, then its frontier.
  void OnMetadataBatch(PartitionId partition,
                       const std::vector<OpRecord>& batch, Timestamp frontier);
  // At the receiver: ordered metadata from a remote Eunomia (FIFO per
  // origin), and the scalar-mode stable-frontier beacon.
  void OnRemoteMetadata(const std::vector<RemoteUpdate>& batch);
  void OnFrontier(DatacenterId origin, Timestamp frontier);
  // At a partition: a sibling's payload (unordered).
  void OnPayload(PartitionId partition, RemotePayload payload);

  // Straggler injection (§7.2.3): overrides the partition -> Eunomia
  // communication interval for one partition.
  void SetPartitionCommInterval(PartitionId partition,
                                std::uint64_t interval_us);
  // Clock-skew injection: replaces one partition's physical clock (offset /
  // drift) mid-run. The hybrid clock's monotonicity absorbs any backward
  // step — that resilience is exactly what the chaos schedules probe.
  void SetPartitionClock(PartitionId partition, const PhysicalClock& clock);

  // --- introspection ---------------------------------------------------------
  const GeoStore& StoreAt(PartitionId partition) const;
  const Receiver& receiver() const { return *receiver_; }
  const EunomiaCore& eunomia() const { return eunomia_; }
  const VectorTimestamp* SessionOf(ClientId client) const;
  std::uint64_t updates_installed() const { return updates_installed_; }
  const GeoConfig& config() const { return config_; }
  // Payloads buffered ahead of their metadata go-ahead, and go-aheads parked
  // waiting for a payload — both must drain to zero once the world quiesces.
  std::size_t BufferedPayloads() const;
  std::size_t PendingApplyCount() const;
  // Payload copies dropped because the update was already applied (an
  // at-least-once payload channel redelivered, or a crash-recovery re-ship
  // overlapped the original).
  std::uint64_t payload_duplicates() const { return payload_duplicates_; }

 private:
  struct Partition {
    PartitionId id = 0;
    PhysicalClock clock;
    // Tie-free hybrid clock: timestamps are partition-tagged in their low
    // bits so no two partitions of this DC ever issue equal values (see
    // clock/hybrid_clock.h for why Algorithm 5 wants this).
    PartitionedHybridClock hybrid;
    GeoStore store;
    PartitionBatcher batcher;
    std::uint64_t comm_interval_us = 1000;
    // Data/metadata separation state: payloads received ahead of metadata,
    // and metadata go-aheads waiting for payloads.
    std::unordered_map<std::uint64_t, RemotePayload> payloads;
    std::unordered_map<std::uint64_t, std::function<void()>> pending_applies;
  };

  void SchedulePartitionFlush(PartitionId p);
  void FlushPartition(PartitionId p);
  void ScheduleStabilizer();
  void RunStabilizer();
  void ScheduleReceiverCheck();

  void ExecuteUpdate(Partition& part, ClientId client, Key key, Value value,
                     std::function<void()> done);
  void ApplyRemote(PartitionId p, const RemoteUpdate& meta,
                   std::function<void()> done);
  void ExecuteRemote(Partition& part, std::uint64_t uid,
                     std::function<void()> done);

  const DatacenterId id_;
  const GeoConfig config_;
  Environment* const env_;
  DurabilityHooks* const hooks_;
  VisibilityTracker* const tracker_;
  UidAllocator* const uids_;
  SessionMap* const sessions_;
  store::ConsistentHashRing router_;
  std::vector<Partition> partitions_;
  EunomiaCore eunomia_;
  std::unique_ptr<Receiver> receiver_;
  // Metadata registry: uid -> shipping metadata, kept at the origin until
  // Eunomia stabilizes and ships it.
  std::unordered_map<std::uint64_t, RemoteUpdate> registry_;
  std::uint64_t updates_installed_ = 0;
  std::uint64_t payload_duplicates_ = 0;
  std::vector<OpRecord> stable_scratch_;
};

}  // namespace eunomia::geo::rt
