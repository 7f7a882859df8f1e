// Post-schedule invariant checking for the chaos harness.
//
// After a nemesis schedule heals every fault and the world quiesces, four
// properties must hold (read-your-writes, a statement about individual
// reads, is checked online by the client harness):
//
//   1. Convergence — every datacenter's merged store equals the oracle:
//      the per-key fold of ALL updates ever installed anywhere (the
//      environment's install logs) under GeoStore::Supersedes, whose total
//      order makes the expected winner schedule-independent.
//   2. Causal delivery — at every datacenter, an update became visible only
//      after every update it causally depends on (any w from origin o with
//      w.vts[o] <= u.vts[o]), and same-origin updates became visible in
//      timestamp (FIFO) order. Checked against the visibility tracker's
//      detailed log.
//   3. Quiescence / no loss — receiver queues, buffered payloads and parked
//      go-aheads are empty, and each receiver's SiteTime matches the
//      maximum installed timestamp per origin (nothing silently dropped).
//   4. Bounded staleness — each Eunomia's stable frontier tracks real time
//      to within clock error + two batch intervals + the stabilization and
//      receiver periods + slack; a wedged stabilizer shows up as a frontier
//      stuck in the past.
#pragma once

#include <string>
#include <vector>

#include "src/georep/runtime/chaos/chaos_cluster.h"

namespace eunomia::geo::rt::chaos {

struct Violation {
  std::string invariant;  // "convergence", "causal-order", ...
  std::string detail;
};

struct InvariantOptions {
  // Allowed gap between simulated now and each Eunomia's stable frontier
  // (in unscaled microseconds) at quiescence.
  std::uint64_t staleness_bound_us = 200'000;
  // Detail strings emitted per invariant before summarizing the rest.
  std::size_t max_details_per_invariant = 20;
};

// Requires every datacenter alive (the nemesis heals before checking).
std::vector<Violation> CheckInvariants(const ChaosCluster& cluster,
                                       const InvariantOptions& options);

}  // namespace eunomia::geo::rt::chaos
