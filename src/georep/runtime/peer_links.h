// PeerLinks — one datacenter's end of the geo peer protocol, written
// against a small link seam so the real and the simulated deployment run
// the same code. Per directed pair there are two links: a FIFO metadata
// link (kGeoMetaBatch, kGeoFrontier, kGeoAck) and an unordered payload link
// (kGeoPayload). Per peer, PeerLinks runs:
//   - dial: both links open with a kGeoHello; the metadata link's carries
//     resume_from, this node's durably applied frontier of the peer's
//     updates (GeoDurability::synced_site_time, 0 without a WAL), which
//     the peer's replay skips;
//   - catch-up: whenever the links come up (Start, re-dial), replay every
//     install-WAL record above what the peer durably acked — payloads for
//     all, metadata up to the horizon — one bounded chunk per turn, while
//     live metadata-link frames wait on a hold list behind the replay;
//   - link down: drop the links and the replay, re-dial with backoff;
//   - durable duties: flush the WAL every wal::kFsyncIntervalUs (the time
//     bound of an interval fsync), ack the durably applied frontier, and
//     snapshot with the install truncation mark.
// What is durable is GeoDurability's one rule, under every fsync policy:
// the hello and the acks carry only what a crash would recover, so a peer
// truncates its install logs only below state this node has synced.
// Inbound, it validates each link's frames and hands them to the runtime.
//
// GeoNode binds the seam to net::Transport connections on its io loop;
// the chaos harness's FaultyGeoEnvironment to sim::Network channels on
// epoch-gated simulator events. All members run in the datacenter's
// execution context (the Environment's timers) except Stop and OnFrame,
// which may run on any thread (it defers its effects through
// Environment::ScheduleAfter).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/types.h"
#include "src/georep/runtime/datacenter_runtime.h"
#include "src/georep/runtime/durability.h"
#include "src/georep/runtime/environment.h"
#include "src/georep/runtime/geo_wire.h"
#include "src/metrics/counter.h"
#include "src/net/wire.h"

namespace eunomia::geo::rt {

// How PeerLinks reaches its peers: the links `from` -> `to`.
class LinkSeam {
 public:
  virtual ~LinkSeam() = default;
  // Opens both links, each starting with `hello` under its link_kind.
  // False when either failed; nothing is kept half open.
  virtual bool Dial(DatacenterId from, DatacenterId to,
                    wire::GeoHelloMsg hello) = 0;
  // False when the link is gone (the frame is then lost).
  virtual bool SendOnMetadataLink(DatacenterId from, DatacenterId to,
                                  net::wire::MsgType type,
                                  std::string frame) = 0;
  virtual bool SendOnPayloadLink(DatacenterId from, DatacenterId to,
                                 PartitionId partition, std::string frame) = 0;
  // Closes both links; frames still in flight may be lost.
  virtual void Close(DatacenterId from, DatacenterId to) = 0;
};

class PeerLinks {
 public:
  struct Options {
    // After a link drops, re-dials start at reconnect_backoff_ms and double
    // up to reconnect_backoff_max_ms, until the peer answers (a dead peer
    // may come back at any time; Stop ends them).
    std::uint32_t reconnect_backoff_ms = 50;
    std::uint32_t reconnect_backoff_max_ms = 1000;
  };

  // The receiving side of one link, kept by the binding per connection.
  struct Inbound {
    bool hello_done = false;
    DatacenterId peer = 0;
    std::uint32_t link_kind = wire::kMetadataLink;
  };

  struct Replays {  // the catch-ups sent to one peer
    std::uint64_t started = 0;
    std::uint64_t frames = 0;
    Timestamp last_from = 0;  // the acked mark the latest one replayed above
  };

  // `durability` null: a WAL-less node (no catch-up source, acks or
  // snapshots); otherwise it has recovered `runtime` before Dial.
  // `replayed_frames`, when set, counts every frame a catch-up sends. All
  // borrowed; must outlive this object.
  PeerLinks(const Options& options, DatacenterRuntime* runtime,
            Environment* env, LinkSeam* seam, GeoDurability* durability,
            metrics::Counter* replayed_frames);

  PeerLinks(const PeerLinks&) = delete;
  PeerLinks& operator=(const PeerLinks&) = delete;

  // Dials `peer` once and remembers it: after Start, a remembered peer
  // whose links are not up is re-dialed like a dropped one.
  bool Dial(DatacenterId peer);
  void Start();  // catch-ups to every remembered peer, the durable ticks
  void Stop() { stopped_.store(true); }  // no more re-dials or ticks
  void OnLinkDown(DatacenterId peer);  // close both, re-dial after backoff

  // The runtime's WAN sends (Environment), routed onto the links.
  void SendRemoteMetadata(DatacenterId to,
                          const std::vector<RemoteUpdate>& batch);
  void SendFrontier(DatacenterId to, Timestamp frontier);
  void SendPayload(DatacenterId to, PartitionId partition,
                   const RemotePayload& payload);

  // Validates a frame that arrived on `link` (the first must be the hello)
  // and schedules its effect. False: a protocol violation; drop the link.
  bool OnFrame(Inbound* link, net::wire::MsgType type,
               std::string_view payload);

  // Highest durably applied frontier `peer` has acked of our updates.
  Timestamp peer_applied(DatacenterId peer) const {
    return peers_[peer].applied;
  }
  const Replays& replays(DatacenterId peer) const {
    return peers_[peer].replays;
  }
  std::uint64_t send_failures() const { return send_failures_.load(); }
  std::uint64_t reconnects() const { return reconnects_.load(); }

 private:
  // One WAL replay to one peer.
  struct CatchUp {
    InstallCursor installs;
    // StableTime() at the start: replayed metadata stops here, since an op
    // Eunomia has not seen yet could still undercut anything above.
    Timestamp horizon;
    // Live metadata-link frames, sent in order once the replay finishes.
    std::vector<std::pair<net::wire::MsgType, std::string>> held;
  };

  struct Peer {
    bool dialed = false;
    bool down = false;  // links lost; a backoff re-dial is scheduled
    std::uint32_t backoff_ms = 0;
    Timestamp applied = 0;
    // The replay on the current links, if any; bumping catch_up_epoch
    // orphans the chunks a previous replay left scheduled.
    std::unique_ptr<CatchUp> catch_up;
    std::uint64_t catch_up_epoch = 0;
    Replays replays;
  };

  // Holds live metadata-link frames behind a running catch-up, sends the
  // rest, and marks the peer down on a failed send (returning false).
  bool SendToPeer(DatacenterId to, net::wire::MsgType type, std::string frame,
                  PartitionId partition = 0, bool from_catch_up = false);
  void TryReconnect(DatacenterId peer);
  void StartCatchUp(DatacenterId peer);
  // Sends one chunk; the last releases the held frames.
  void CatchUpStep(DatacenterId peer, std::uint64_t epoch);
  // Runs `duty` now and every `period_us` until Stop.
  void Every(std::uint64_t period_us, std::function<void()> duty);
  // Up to here the install WAL may be truncated: the local stable frontier
  // floored by every peer's durable ack (0 while any peer has not acked or
  // a catch-up reads the log).
  Timestamp InstallTruncateMark() const;
  // Schedules raising peer_applied(peer) to `applied`. Any thread.
  void RaiseApplied(DatacenterId peer, Timestamp applied);
  void Later(std::uint64_t delay_us, std::function<void()> fn) {
    env_->ScheduleAfter(dc_, delay_us, std::move(fn));
  }

  const Options options_;
  const DatacenterId dc_;
  const std::uint32_t num_dcs_;
  const std::uint32_t partitions_;
  DatacenterRuntime* const runtime_;
  Environment* const env_;
  LinkSeam* const seam_;
  GeoDurability* const durability_;
  metrics::Counter* const replayed_frames_;
  std::vector<Peer> peers_;  // indexed by DatacenterId; [dc_] unused
  std::atomic<bool> stopped_{false};
  std::atomic<std::uint64_t> send_failures_{0};
  std::atomic<std::uint64_t> reconnects_{0};
};

}  // namespace eunomia::geo::rt
