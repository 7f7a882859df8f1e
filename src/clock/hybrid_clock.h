// Hybrid timestamp generation — Algorithm 2 of the paper.
//
// A partition p_n tags an update with
//     MaxTs_n <- max(Clock_n, Clock_c + 1, MaxTs_n + 1)
// which merges physical time with a logical catch-up component: if a client
// clock (or a previous local update) is ahead of the physical clock the
// logical part moves forward instead of blocking, which is what makes the
// protocol "resilient to clock skew by avoiding artificial delays due to
// clock synchronization uncertainties" (§3.2).
//
// The same class decides when a heartbeat is due (Algorithm 2 lines 10-12):
// a heartbeat may only be emitted when the physical clock has moved at least
// delta past the last issued timestamp, which guarantees that the heartbeat
// timestamp exceeds every update the partition has sent (Property 2).
#pragma once

#include <algorithm>

#include "src/common/types.h"

namespace eunomia {

class HybridClock {
 public:
  HybridClock() = default;

  // Computes the timestamp for a new update given the partition's current
  // physical clock reading and the dependency clock carried by the client.
  // Strictly monotonic across calls (Property 2) and strictly greater than
  // client_clock (Property 1).
  Timestamp TimestampUpdate(Timestamp physical_now, Timestamp client_clock) {
    max_ts_ = std::max({physical_now, client_clock + 1, max_ts_ + 1});
    return max_ts_;
  }

  // Largest timestamp this partition has issued so far (MaxTs_n).
  Timestamp max_ts() const { return max_ts_; }

  // Heartbeat gate: Algorithm 2 line 11. A heartbeat carrying physical_now
  // is safe iff physical_now >= MaxTs_n + delta; the slack guarantees that
  // any update issued "right after" the heartbeat (still at physical_now)
  // will be tagged with a larger timestamp than the heartbeat carried.
  bool HeartbeatDue(Timestamp physical_now, Timestamp delta) const {
    return physical_now >= max_ts_ + delta;
  }

  // Observes an externally applied timestamp (e.g. a remote update written
  // into the local store) so that later local updates dominate it.
  void Observe(Timestamp ts) { max_ts_ = std::max(max_ts_, ts); }

 private:
  Timestamp max_ts_ = 0;
};

// Tie-free hybrid clock: all timestamps issued by partition p are congruent
// to p modulo `stride`, so no two partitions of a datacenter can ever issue
// equal timestamps (classic Lamport process-id tie-breaking, applied in the
// timestamp's low bits).
//
// Why this matters: the paper's Algorithm 5 keys the receiver's SiteTime and
// the dependency checks on the scalar local entry u.vts[k]. Two *concurrent*
// updates from different partitions of the same origin may legitimately
// share that scalar (the paper allows processing them in any order), which
// makes "have I applied u yet?" ambiguous at a remote receiver — e.g. after
// an Eunomia-replica failover re-ship, a fresh update can be mistaken for a
// duplicate of a same-timestamp sibling. Working in a stride-scaled domain
// (local clock reading -> reading * stride + partition) removes the
// ambiguity while preserving Properties 1 and 2.
//
// The whole timestamp domain is scaled: client clocks, heartbeats and
// stability cutoffs all live in stride-multiplied units, which is invisible
// to the protocol (timestamps are only ever compared, never interpreted as
// wall-clock durations).
class PartitionedHybridClock {
 public:
  PartitionedHybridClock() = default;
  PartitionedHybridClock(std::uint32_t partition, std::uint32_t stride)
      : partition_(partition), stride_(stride) {}

  // Timestamp for a new update given the raw physical clock reading (in
  // microseconds) and the dependency clock carried by the client (already in
  // the scaled domain). Strictly greater than both, strictly monotone, and
  // congruent to the partition id.
  Timestamp TimestampUpdate(Timestamp physical_us, Timestamp client_clock) {
    const Timestamp floor =
        std::max({physical_us * stride_, client_clock, max_ts_});
    max_ts_ = AlignUpStrict(floor);
    return max_ts_;
  }

  // The partition's frontier (Alg. 2 lines 10-12, scaled domain): strictly
  // above every timestamp issued so far, aligned to the partition's residue
  // and recorded, so every later update strictly exceeds it (Property 2).
  // No Δ gate is needed: recording the value is what keeps later updates
  // above it, so a partition may report its frontier on every flush.
  Timestamp HeartbeatValue(Timestamp physical_us) {
    max_ts_ = AlignUpStrict(std::max(physical_us * stride_, max_ts_));
    return max_ts_;
  }

  // Observes a timestamp this partition issued in a previous incarnation
  // (crash-recovery replay of the local install log): later updates must
  // strictly exceed every restored one even if the fresh physical clock
  // reads behind the old incarnation's. `scaled_ts` is already in the
  // stride-scaled domain and congruent to this partition's residue, so the
  // max preserves the congruence invariant.
  void Observe(Timestamp scaled_ts) { max_ts_ = std::max(max_ts_, scaled_ts); }

  Timestamp max_ts() const { return max_ts_; }
  std::uint32_t stride() const { return stride_; }

 private:
  // Smallest value > v congruent to partition_ (mod stride_).
  Timestamp AlignUpStrict(Timestamp v) const {
    const Timestamp base = (v / stride_) * stride_ + partition_;
    return base > v ? base : base + stride_;
  }

  std::uint32_t partition_ = 0;
  std::uint32_t stride_ = 1;
  Timestamp max_ts_ = 0;
};

}  // namespace eunomia
