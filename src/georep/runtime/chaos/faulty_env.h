// Fault-injecting simulator binding of the geo-runtime Environment and of
// the PeerLinks link seam.
//
// FoundationDB-style deterministic chaos: the real EunomiaKV protocol and
// peer-link state machine run unmodified on top of this environment while
// every hazard the deployment assumptions permit is injected from a single
// PRNG seed: payload loss (with at-least-once re-ship), duplication and
// delay, metadata duplication, WAN degradation that heals (hold-and-flush,
// so the FIFO contract of §3.1/§4 holds), link drops that lose the frames
// in flight, whole-datacenter crashes, clock steps and stragglers. Faults
// the protocol is NOT expected to survive (true payload loss, metadata loss
// or reordering) are deliberate "plants" the invariant checker must catch.
//
// Links: a directed pair's metadata link is the FIFO channel Eunomia ->
// remote receiver, its payload link the channels between sibling
// partitions. A dial succeeds iff the peer is up, which accepts both hellos
// inside it; a frame reaches the peer's PeerLinks only if its link was not
// closed meanwhile. Benign faults respect each link's contract: the payload
// link (§5, unordered) may drop-then-re-ship, duplicate and delay; the FIFO
// channels only duplicate adjacently and delay (sim::Network keeps order).
//
// Crash: every in-flight message toward the datacenter and every closure it
// had scheduled dies with it (per-DC epoch gating). Restart: a durable
// datacenter recovers from its disk and its peers' PeerLinks catch it up; a
// WAL-less one has no catch-up source, so the environment replays its own
// install log, then its inbound payload and metadata histories.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/common/random.h"
#include "src/georep/runtime/peer_links.h"
#include "src/georep/runtime/sim_env.h"

namespace eunomia::geo::rt::chaos {

// A deliberately introduced protocol-breaking bug: the nemesis sweep's
// --expect-violation mode asserts some seed catches it, reproducibly.
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
  std::uint64_t plants_fired = 0;
  std::uint64_t crashes = 0;
  std::uint64_t restarts = 0;
  std::uint64_t links_dropped = 0;  // directed pairs, crashes' included
};

class FaultyGeoEnvironment : public SimGeoEnvironment, public LinkSeam {
 public:
  // One update as its origin installed it (the oracle and replay source).
  struct InstallRecord {
    PartitionId partition = 0;
    RemotePayload payload;
  };

  FaultyGeoEnvironment(sim::Simulator* sim, const GeoConfig& config,
                       const FaultProfile& profile, std::uint64_t seed);

  // --- fault controls --------------------------------------------------------
  // Attaches a datacenter's runtime and its PeerLinks.
  void AttachDatacenter(DatacenterId dc, DatacenterRuntime* runtime,
                        PeerLinks* links);
  // Detaches both and advances the datacenter's epoch: every closure it had
  // in flight is dropped when it fires, and inbound messages are lost until
  // restart. The old objects may be destroyed immediately afterwards.
  void CrashDatacenter(DatacenterId dc);
  // Attaches a rebooted datacenter; `replay` (WAL-less) replays its world
  // as the file comment says. The caller starts timers after.
  void RestartDatacenter(DatacenterId dc, DatacenterRuntime* runtime,
                         PeerLinks* links, bool replay);
  // Closes the links `from` -> `to`: frames in flight on them are lost, and
  // `from`'s PeerLinks (if attached) learns the links went down.
  void DropLink(DatacenterId from, DatacenterId to);
  // Degrades (extra_us > 0) or heals (extra_us = 0) every WAN channel from
  // `from` to `to` — ordered metadata/frontier and all payload channels.
  // Extra delay holds messages back but preserves FIFO (hold-and-flush), so
  // a healed partition flushes its backlog in order instead of losing it.
  void SetWanDelay(DatacenterId from, DatacenterId to, std::uint64_t extra_us);

  bool alive(DatacenterId dc) const { return runtimes_[dc] != nullptr; }
  std::uint64_t epoch(DatacenterId dc) const { return epoch_[dc]; }
  const FaultStats& stats() const { return stats_; }
  // Every update ever installed at `origin`, in install order.
  const std::vector<InstallRecord>& install_log(DatacenterId origin) const {
    return install_log_[origin];
  }

  // --- Environment: the WAN sends record the message (install log, replay
  // histories), then hand it to the sender's PeerLinks ----------------------
  void SendRemoteMetadata(DatacenterId from, DatacenterId to,
                          std::vector<RemoteUpdate> batch) override;
  void SendFrontier(DatacenterId from, DatacenterId to,
                    Timestamp frontier) override;
  void SendPayload(DatacenterId from, DatacenterId to, PartitionId partition,
                   RemotePayload payload) override;

  // --- LinkSeam (every datacenter's PeerLinks sends through it) -------------
  bool Dial(DatacenterId from, DatacenterId to,
            wire::GeoHelloMsg hello) override;
  bool SendOnMetadataLink(DatacenterId from, DatacenterId to,
                          net::wire::MsgType type, std::string frame) override;
  bool SendOnPayloadLink(DatacenterId from, DatacenterId to,
                         PartitionId partition, std::string frame) override;
  void Close(DatacenterId from, DatacenterId to) override;

 private:
  // One directed pair's metadata + payload links.
  struct SimLink {
    bool up = false;
    std::uint64_t epoch = 0;  // Close bumps it: older frames are lost
    PeerLinks::Inbound metadata;  // the receiving side's connection state
    PeerLinks::Inbound payloads;
  };

  // The closure that hands `frame` to the receiving PeerLinks.
  std::function<void()> Delivery(DatacenterId from, DatacenterId to,
                                 net::wire::MsgType type, std::string frame);

  // Runs the closure only if datacenter `dc` has not crashed since the
  // wrap and a runtime is attached — what makes destroying a crashed runtime
  // safe. It also kills the restart race: a pre-crash flush carries
  // timestamps AHEAD of the restored batcher's replayed ops, and reaching
  // the fresh EunomiaCore first it would get them discarded as non-monotone
  // — silently losing acknowledged updates.
  std::function<void()> Gate(DatacenterId dc,
                             std::function<void()> fn) override;

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
  std::vector<SimLink> links_;  // [from * num_dcs + to]
  std::vector<PeerLinks*> peer_links_;
};

}  // namespace eunomia::geo::rt::chaos
