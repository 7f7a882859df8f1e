// Fault-injecting simulator binding of the geo-runtime Environment.
//
// FoundationDB-style deterministic chaos: the real EunomiaKV protocol runs
// unmodified on top of this environment while every hazard the deployment
// assumptions permit is injected from a single PRNG seed — payload loss
// (with at-least-once re-ship), payload duplication and delay, metadata
// duplication, WAN link degradation that heals (hold-and-flush, so the FIFO
// contract of §3.1/§4 is never silently violated), whole-datacenter crash
// with total state loss and replay-driven restart, per-partition clock
// steps, and stragglers. Faults that the protocol is NOT expected to
// survive (true payload loss, metadata loss, metadata reordering) are
// available as deliberate "plants": intentionally introduced bugs the
// invariant checker must catch, proving the harness has teeth.
//
// Fault taxonomy vs the Environment contract:
//   - SendPayload is unordered (§5), so the payload channel may drop (then
//     re-ship), duplicate and delay freely — the protocol's payload/metadata
//     separation must absorb all of it.
//   - SendMetadataBatch / SendHeartbeat / SendRemoteMetadata / SendFrontier
//     are FIFO per directed channel; the only benign faults injected there
//     are adjacent duplication (FIFO-preserving; receivers must dedup) and
//     extra channel delay (sim::Network clamps delivery order). Loss and
//     reordering on these channels are plants, never benign faults.
//   - Crash: every in-flight message toward the datacenter and every timer,
//     hop or server task it had scheduled dies with it (per-DC epoch
//     gating); its entire runtime state is discarded.
//   - Restart: the environment replays, in order, (1) the datacenter's own
//     install log (the durable-WAL stand-in until ROADMAP item 2 lands),
//     (2) inbound payload history per origin, (3) inbound metadata history
//     per origin (FIFO). Remote receivers dedup the suffix the restarted
//     Eunomia re-stabilizes and re-ships.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "src/common/random.h"
#include "src/georep/runtime/sim_env.h"

namespace eunomia::geo::rt::chaos {

// A deliberately introduced protocol-breaking bug. The nemesis sweep's
// --plant / --expect-violation mode asserts that at least one seed catches
// it and that the printed seed reproduces the violation by itself.
enum class Plant {
  kNone,
  kDropPayload,      // payload silently never shipped (no re-ship)
  kReorderMetadata,  // ordered-metadata batch bypasses the FIFO channel
  kDropMetadata,     // ordered-metadata batch silently discarded
};

struct FaultProfile {
  // Benign payload-channel faults (the protocol must absorb these).
  double payload_drop = 0.0;  // dropped, then re-shipped (at-least-once)
  double payload_dup = 0.0;
  double payload_delay = 0.0;  // probability of extra jitter on a payload
  std::uint64_t payload_delay_max_us = 15'000;
  std::uint64_t reship_delay_us = 20'000;
  // Benign FIFO-channel fault: adjacent duplication of an ordered batch.
  double metadata_dup = 0.0;
  // Deliberate bug injection.
  Plant plant = Plant::kNone;
  double plant_probability = 0.25;
};

struct FaultStats {
  std::uint64_t payloads_dropped = 0;  // benign: re-shipped later
  std::uint64_t payloads_duplicated = 0;
  std::uint64_t payloads_delayed = 0;
  std::uint64_t metadata_duplicated = 0;
  std::uint64_t plants_fired = 0;
  std::uint64_t crashes = 0;
  std::uint64_t restarts = 0;
};

class FaultyGeoEnvironment : public SimGeoEnvironment {
 public:
  // One update as the origin datacenter durably installed it; the per-DC
  // sequence of these is the crash-recovery oracle and replay source.
  struct InstallRecord {
    PartitionId partition = 0;
    RemotePayload payload;
  };

  FaultyGeoEnvironment(sim::Simulator* sim, const GeoConfig& config,
                       const FaultProfile& profile, std::uint64_t seed);

  // --- fault controls --------------------------------------------------------
  // Detaches the runtime and advances the datacenter's epoch: every closure
  // it had in flight (timers, hops, server tasks, intra-DC deliveries) is
  // dropped when it fires, and inbound messages are lost until restart. The
  // old runtime object may be destroyed immediately afterwards — nothing
  // gated can touch it again.
  void CrashDatacenter(DatacenterId dc);
  // Attaches a fresh runtime and replays its world: own install log (call
  // order = timestamp order per partition, as required by
  // DatacenterRuntime::RestoreLocalUpdate), then inbound payloads, then
  // inbound ordered metadata per origin. The caller starts timers after.
  void RestartDatacenter(DatacenterId dc, DatacenterRuntime* runtime);
  // Durable-mode restart: attaches the runtime WITHOUT any environment
  // replay — the runtime recovered its own state from a (simulated) disk
  // (GeoDurability::Recover). The environment's channel histories stay the
  // convergence oracle but are no longer the recovery mechanism.
  void AttachDatacenter(DatacenterId dc, DatacenterRuntime* runtime);
  // Durable-mode catch-up: delivers only the peer traffic ABOVE the
  // runtime's recovered applied frontier (its receiver SiteTime) — inbound
  // payloads first, then ordered metadata, per origin in channel FIFO
  // order. This models sender-side retransmission from the last
  // acknowledged point, which is exactly what GeoNode's WAL catch-up
  // provides on reconnect; full-history replay would work too (the
  // receiver dedups) but would defeat the purpose of recovering from disk.
  void CatchUpDatacenter(DatacenterId dc, DatacenterRuntime* runtime);
  // Degrades (extra_us > 0) or heals (extra_us = 0) every WAN channel from
  // `from` to `to` — ordered metadata/frontier and all payload channels.
  // Extra delay holds messages back but preserves FIFO (hold-and-flush), so
  // a healed partition flushes its backlog in order instead of losing it.
  void SetWanDelay(DatacenterId from, DatacenterId to, std::uint64_t extra_us);

  bool alive(DatacenterId dc) const { return runtimes_[dc] != nullptr; }
  std::uint64_t epoch(DatacenterId dc) const { return epoch_[dc]; }
  const FaultStats& stats() const { return stats_; }
  // Every update ever installed at `origin`, in install order — the
  // convergence oracle.
  const std::vector<InstallRecord>& install_log(DatacenterId origin) const {
    return install_log_[origin];
  }

  // --- Environment overrides -------------------------------------------------
  void ScheduleAfter(DatacenterId dc, std::uint64_t delay_us,
                     std::function<void()> fn) override;
  void ClientHop(DatacenterId dc, std::function<void()> fn) override;
  void RunOnPartition(DatacenterId dc, PartitionId partition,
                      std::uint64_t cost_us, bool priority,
                      std::function<void()> fn) override;
  void SendMetadataBatch(DatacenterId dc, PartitionId partition,
                         std::vector<OpRecord> batch) override;
  void SendHeartbeat(DatacenterId dc, PartitionId partition,
                     Timestamp ts) override;
  void SendRemoteMetadata(DatacenterId from, DatacenterId to,
                          std::vector<RemoteUpdate> batch) override;
  void SendPayload(DatacenterId from, DatacenterId to, PartitionId partition,
                   RemotePayload payload) override;
  void SendApply(DatacenterId dc, PartitionId partition,
                 std::function<void()> fn) override;
  // SendFrontier and ChargeEunomia are inherited unchanged: the frontier
  // beacon rides the same FIFO channel as ordered metadata (base class) and
  // the receiver ignores regressions, so no extra machinery is needed.

 private:
  // Wraps a closure so it runs only if datacenter `dc` has not crashed
  // since the wrap (epoch snapshot) and a runtime is attached. This is what
  // makes destroying a crashed runtime safe: every closure that captured it
  // is fenced here.
  std::function<void()> Gate(DatacenterId dc, std::function<void()> fn);

  std::size_t Idx(DatacenterId from, DatacenterId to) const {
    return static_cast<std::size_t>(from) * config_.num_dcs + to;
  }

  FaultProfile profile_;
  Rng rng_;
  FaultStats stats_;
  std::vector<std::uint64_t> epoch_;
  std::vector<std::vector<InstallRecord>> install_log_;
  std::unordered_set<std::uint64_t> logged_uids_;
  // Channel histories for restart replay, indexed [from * num_dcs + to].
  std::vector<std::vector<InstallRecord>> payload_history_;
  std::vector<std::vector<std::vector<RemoteUpdate>>> meta_history_;
};

}  // namespace eunomia::geo::rt::chaos
