// Randomized nemesis schedules: one PRNG seed -> a full chaos experiment.
//
// A schedule derives everything from the seed — deployment shape (partition
// count, scalar vs vector metadata, WAN latencies, jitter), fault profile
// (payload loss/dup/delay rates, metadata duplication), clock skews, a
// closed-loop client workload with per-client read-your-writes probes, and
// 3-8 timed fault windows (WAN degradation that heals, whole-DC
// crash/restart, straggler partitions, clock steps, and in durable
// schedules link drops that re-dial and catch up). Every fault heals
// before the horizon, the world quiesces, and the invariant checker runs.
// The same seed replays the identical schedule bit-for-bit, so a violation
// reprinted with its seed is a one-command repro.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/georep/runtime/chaos/faulty_env.h"
#include "src/georep/runtime/chaos/invariants.h"

namespace eunomia::geo::rt::chaos {

struct NemesisOptions {
  std::uint64_t seed = 1;
  // Shrinks horizon and quiesce for CI smoke runs.
  bool smoke = false;
  // Deliberate bug to inject (--plant): the sweep asserts it is caught.
  Plant plant = Plant::kNone;
  std::uint32_t clients_per_dc = 2;
  // Durable mode: <0 draws per seed (~40% of schedules recover from a WAL
  // and peer catch-up instead of environment replay), 0 never, 1 always.
  // Durable schedules run fsync-per-commit (read-your-writes across a crash
  // needs acked writes on stable storage) and add torn-write/bit-flip
  // disk faults.
  int durability = -1;
};

struct NemesisReport {
  std::uint64_t seed = 0;
  std::uint64_t executed_events = 0;
  std::uint64_t updates_acked = 0;
  std::uint64_t reads_done = 0;
  std::uint32_t fault_windows = 0;
  bool scalar_metadata = false;
  bool durable = false;
  std::uint64_t wal_torn_tails = 0;
  std::uint64_t wal_bit_flips = 0;
  std::uint64_t snapshots_taken = 0;
  FaultStats faults;
  std::vector<Violation> violations;

  bool ok() const { return violations.empty(); }
  // Deterministic one-line fingerprint: two runs of the same seed must
  // produce identical digests (pinned by the determinism test).
  std::string Digest() const;
};

NemesisReport RunNemesisSchedule(const NemesisOptions& options);

}  // namespace eunomia::geo::rt::chaos
