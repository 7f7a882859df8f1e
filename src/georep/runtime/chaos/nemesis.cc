#include "src/georep/runtime/chaos/nemesis.h"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

namespace eunomia::geo::rt::chaos {
namespace {

// Private read-your-writes probe keys live far above the shared-key range.
constexpr Key kPrivateKeyBase = 1'000'000;
constexpr Key kSharedKeys = 200;

// One closed-loop client pinned to a datacenter. Ticks are driven straight
// off the simulator (never through the gated environment), so a loop
// survives its datacenter crashing: an op in flight when the epoch advanced
// is treated as aborted and the loop resumes once the datacenter is back.
struct ClientState {
  ClientId id = 0;
  DatacenterId dc = 0;
  Key private_key = 0;
  std::uint64_t seq = 0;    // last issued private-key sequence number
  std::uint64_t acked = 0;  // last acknowledged sequence number
  bool in_flight = false;
  std::uint64_t issue_epoch = 0;
  Rng rng;
};

std::uint64_t ParseSeq(const Value& value) {
  if (value.size() < 2 || value[0] != 's') {
    return 0;
  }
  return std::strtoull(value.c_str() + 1, nullptr, 10);
}

GeoConfig DrawConfig(Rng* rng) {
  GeoConfig config;
  config.num_dcs = 3;
  config.partitions_per_dc = 2 + static_cast<std::uint32_t>(rng->NextBounded(2));
  config.servers_per_dc = 1;
  config.scalar_metadata = rng->NextBool(0.35);
  // Clock skews far beyond NTP: the protocol claims correctness independent
  // of synchronization precision, so the schedules hold it to that.
  config.clocks.max_offset_us = 20'000;
  config.clocks.max_drift_ppm = 50.0;
  // Compressed WAN (vs the paper's 40-80 ms) so hundreds of protocol rounds
  // and several fault windows fit in a few simulated seconds.
  config.network.jitter = 0.05 + 0.15 * rng->NextDouble();
  config.network.wan_one_way_us.assign(config.num_dcs,
                                       std::vector<sim::SimTime>(config.num_dcs, 0));
  for (DatacenterId i = 0; i < config.num_dcs; ++i) {
    for (DatacenterId j = i + 1; j < config.num_dcs; ++j) {
      const sim::SimTime one_way = 2'000 + rng->NextBounded(18'000);
      config.network.wan_one_way_us[i][j] = one_way;
      config.network.wan_one_way_us[j][i] = one_way;
    }
  }
  return config;
}

FaultProfile DrawProfile(Rng* rng, Plant plant) {
  FaultProfile profile;
  profile.payload_drop = 0.05 + 0.25 * rng->NextDouble();
  profile.payload_dup = 0.3 * rng->NextDouble();
  profile.payload_delay = 0.3 * rng->NextDouble();
  profile.payload_delay_max_us = 1'000 + rng->NextBounded(14'000);
  profile.reship_delay_us = 10'000 + rng->NextBounded(30'000);
  profile.metadata_dup = 0.2 * rng->NextDouble();
  profile.plant = plant;
  return profile;
}

}  // namespace

std::string NemesisReport::Digest() const {
  std::ostringstream os;
  os << "seed=" << seed << " events=" << executed_events
     << " updates=" << updates_acked << " reads=" << reads_done
     << " windows=" << fault_windows << (scalar_metadata ? " scalar" : " vector")
     << (durable ? " durable" : "") << " crashes=" << faults.crashes
     << " drops=" << faults.payloads_dropped
     << " plants=" << faults.plants_fired
     << " violations=" << violations.size();
  if (durable) {
    os << " torn=" << wal_torn_tails << " flips=" << wal_bit_flips
       << " snaps=" << snapshots_taken;
  }
  if (!violations.empty()) {
    os << " first=[" << violations[0].invariant << ": "
       << violations[0].detail << "]";
  }
  return os.str();
}

NemesisReport RunNemesisSchedule(const NemesisOptions& options) {
  Rng root(options.seed ^ 0x6e656d6573697321ULL);
  const std::uint64_t horizon_us = options.smoke ? 2'000'000 : 3'000'000;
  const std::uint64_t quiesce_us = options.smoke ? 1'500'000 : 2'000'000;

  const GeoConfig config = DrawConfig(&root);
  const FaultProfile profile = DrawProfile(&root, options.plant);

  // Always consume the draw so a given seed produces the same schedule no
  // matter how `durability` overrides it.
  const bool durable_draw = root.NextBool(0.4);
  const bool durable =
      options.durability == 1 || (options.durability < 0 && durable_draw);

  sim::Simulator sim(options.seed);
  ChaosOptions chaos_options;
  chaos_options.config = config;
  chaos_options.profile = profile;
  chaos_options.seed = root.Next();
  chaos_options.durable = durable;
  if (durable) {
    chaos_options.fsync = wal::FsyncPolicy::kPerCommit;
    // Per-commit fsync leaves little unsynced tail for these to bite on;
    // they mostly exercise the torn-fragment tolerance of WriteAtomic
    // snapshots and the final interval of each log. Deterministic torn-tail
    // coverage lives in the dedicated durability tests.
    chaos_options.disk_faults.torn_tail = 0.5;
    chaos_options.disk_faults.bit_flip = 0.25;
  }
  ChaosCluster cluster(&sim, chaos_options);
  cluster.Start();

  // --- fault windows ---------------------------------------------------------
  // All windows end at least 400 ms before the horizon; the heal-all event
  // at the horizon restores anything a guard skipped.
  const std::uint32_t num_windows = 3 + static_cast<std::uint32_t>(root.NextBounded(5));
  std::int64_t max_step_us = 0;
  for (std::uint32_t w = 0; w < num_windows; ++w) {
    const std::uint64_t start = 200'000 + root.NextBounded(horizon_us - 1'200'000);
    const std::uint64_t duration = 100'000 + root.NextBounded(400'000);
    // Link drops need a catch-up source, so only durable schedules draw
    // them; WAL-less ones keep their four kinds and draws.
    const std::uint64_t kind = root.NextBounded(durable ? 5 : 4);
    switch (kind) {
      case 0: {  // WAN degradation, hold-and-flush (FIFO preserved)
        const DatacenterId from = static_cast<DatacenterId>(root.NextBounded(config.num_dcs));
        const DatacenterId to = static_cast<DatacenterId>(
            (from + 1 + root.NextBounded(config.num_dcs - 1)) % config.num_dcs);
        const std::uint64_t extra = 50'000 + root.NextBounded(150'000);
        const bool both_ways = root.NextBool(0.5);
        sim.ScheduleAt(start, [&cluster, from, to, extra, both_ways] {
          cluster.env().SetWanDelay(from, to, extra);
          if (both_ways) {
            cluster.env().SetWanDelay(to, from, extra);
          }
        });
        sim.ScheduleAt(start + duration, [&cluster, from, to] {
          cluster.env().SetWanDelay(from, to, 0);
          cluster.env().SetWanDelay(to, from, 0);
        });
        break;
      }
      case 1: {  // whole-DC crash with state loss, then restart + catch-up
        const DatacenterId dc = static_cast<DatacenterId>(root.NextBounded(config.num_dcs));
        sim.ScheduleAt(start, [&cluster, dc] {
          if (cluster.alive(dc)) {
            cluster.Crash(dc);
          }
        });
        sim.ScheduleAt(start + duration, [&cluster, dc] {
          if (!cluster.alive(dc)) {
            cluster.Restart(dc);
          }
        });
        break;
      }
      case 2: {  // straggler partition (§7.2.3)
        const DatacenterId dc = static_cast<DatacenterId>(root.NextBounded(config.num_dcs));
        const PartitionId p = static_cast<PartitionId>(root.NextBounded(config.partitions_per_dc));
        const std::uint64_t interval = 20'000 + root.NextBounded(80'000);
        sim.ScheduleAt(start, [&cluster, dc, p, interval] {
          if (cluster.alive(dc)) {
            cluster.runtime(dc)->SetPartitionCommInterval(p, interval);
          }
        });
        const std::uint64_t normal = config.batch_interval_us;
        sim.ScheduleAt(start + duration, [&cluster, dc, p, normal] {
          if (cluster.alive(dc)) {
            cluster.runtime(dc)->SetPartitionCommInterval(p, normal);
          }
        });
        break;
      }
      case 4: {  // link drop: in-flight frames lost, re-dial + catch-up
        const DatacenterId from =
            static_cast<DatacenterId>(root.NextBounded(config.num_dcs));
        const DatacenterId to = static_cast<DatacenterId>(
            (from + 1 + root.NextBounded(config.num_dcs - 1)) % config.num_dcs);
        sim.ScheduleAt(start, [&cluster, from, to] {
          if (cluster.alive(from) && cluster.alive(to)) {
            cluster.env().DropLink(from, to);
          }
        });
        break;
      }
      default: {  // clock step: one partition's clock jumps mid-run
        const DatacenterId dc = static_cast<DatacenterId>(root.NextBounded(config.num_dcs));
        const PartitionId p = static_cast<PartitionId>(root.NextBounded(config.partitions_per_dc));
        const std::int64_t offset = root.NextInRange(-50'000, 50'000);
        const double drift = (root.NextDouble() * 2.0 - 1.0) * config.clocks.max_drift_ppm;
        max_step_us = std::max(max_step_us, std::abs(offset));
        sim.ScheduleAt(start, [&cluster, dc, p, offset, drift] {
          if (cluster.alive(dc)) {
            cluster.runtime(dc)->SetPartitionClock(p, PhysicalClock(offset, drift));
          }
        });
        break;
      }
    }
  }
  cluster.NoteClockError(max_step_us);

  // Heal-all: every link restored, every crashed datacenter restarted,
  // every straggler back to the configured interval.
  sim.ScheduleAt(horizon_us, [&cluster, &config] {
    for (DatacenterId from = 0; from < config.num_dcs; ++from) {
      for (DatacenterId to = 0; to < config.num_dcs; ++to) {
        if (from != to) {
          cluster.env().SetWanDelay(from, to, 0);
        }
      }
    }
    for (DatacenterId dc = 0; dc < config.num_dcs; ++dc) {
      if (!cluster.alive(dc)) {
        cluster.Restart(dc);
      }
      for (PartitionId p = 0; p < config.partitions_per_dc; ++p) {
        cluster.runtime(dc)->SetPartitionCommInterval(p, config.batch_interval_us);
      }
    }
  });

  // --- closed-loop clients with read-your-writes probes ----------------------
  const std::uint32_t total_clients = options.clients_per_dc * config.num_dcs;
  std::vector<ClientState> clients(total_clients);
  std::vector<Violation> ryw_violations;
  std::uint64_t updates_acked = 0;
  std::uint64_t reads_done = 0;
  for (std::uint32_t c = 0; c < total_clients; ++c) {
    clients[c].id = c;
    clients[c].dc = static_cast<DatacenterId>(c % config.num_dcs);
    clients[c].private_key = kPrivateKeyBase + c;
    clients[c].rng = root.Fork(100 + c);
  }

  auto tick = std::make_shared<std::function<void(std::size_t)>>();
  *tick = [&sim, &cluster, &clients, &ryw_violations, &updates_acked,
           &reads_done, horizon_us, tick](std::size_t ci) {
    ClientState& c = clients[ci];
    if (sim.now() >= horizon_us) {
      return;  // workload stops; in-flight tails drain during quiesce
    }
    if (c.in_flight && cluster.env().epoch(c.dc) != c.issue_epoch) {
      c.in_flight = false;  // the datacenter crashed under the op: aborted
    }
    if (!c.in_flight && cluster.alive(c.dc)) {
      c.in_flight = true;
      c.issue_epoch = cluster.env().epoch(c.dc);
      const double roll = c.rng.NextDouble();
      if (roll < 0.40) {
        // Private-key write: the next read-your-writes obligation.
        const std::uint64_t seq = ++c.seq;
        cluster.runtime(c.dc)->ClientUpdate(
            c.id, c.private_key, std::string("s").append(std::to_string(seq)),
            [&clients, &updates_acked, ci, seq] {
              ClientState& cc = clients[ci];
              cc.in_flight = false;
              cc.acked = std::max(cc.acked, seq);
              ++updates_acked;
            });
      } else if (roll < 0.70) {
        // Shared-key write: cross-DC conflicts for the convergence oracle.
        const Key key = c.rng.NextBounded(kSharedKeys);
        cluster.runtime(c.dc)->ClientUpdate(
            c.id, key,
            std::string("v").append(std::to_string(c.rng.NextBounded(1000))),
            [&clients, &updates_acked, ci] {
              clients[ci].in_flight = false;
              ++updates_acked;
            });
      } else {
        // Read-your-writes probe: the read must observe at least the last
        // sequence number acknowledged before it was issued — across
        // crashes too, since acknowledged writes are in the install log.
        const std::uint64_t floor = c.acked;
        cluster.runtime(c.dc)->ClientReadValue(
            c.id, c.private_key,
            [&clients, &ryw_violations, &reads_done, ci,
             floor](const GeoVersion& v) {
              ClientState& cc = clients[ci];
              cc.in_flight = false;
              ++reads_done;
              const std::uint64_t observed = ParseSeq(v.value);
              if (observed < floor) {
                std::ostringstream os;
                os << "client=" << cc.id << " dc=" << cc.dc << " read seq="
                   << observed << " after having acked seq=" << floor;
                ryw_violations.push_back({"read-your-writes", os.str()});
              }
            });
      }
    }
    sim.ScheduleAfter(4'000 + c.rng.NextBounded(4'000),
                      [tick, ci] { (*tick)(ci); });
  };
  for (std::uint32_t c = 0; c < total_clients; ++c) {
    sim.ScheduleAfter(1'000 + root.NextBounded(3'000),
                      [tick, c] { (*tick)(c); });
  }

  sim.RunUntil(horizon_us + quiesce_us);
  // The driver lambda captures `tick` (a shared_ptr to itself) to stay
  // alive across reschedules; with the horizon reached nothing will call
  // it again, so break the self-reference or the cycle leaks.
  *tick = nullptr;

  // --- invariants ------------------------------------------------------------
  InvariantOptions iopts;
  iopts.staleness_bound_us =
      static_cast<std::uint64_t>(cluster.max_clock_error_us()) +
      2 * config.batch_interval_us + config.theta_us + config.rho_us +
      60'000;  // delivery + server-queue slack
  NemesisReport report;
  report.seed = options.seed;
  report.executed_events = sim.executed_events();
  report.updates_acked = updates_acked;
  report.reads_done = reads_done;
  report.fault_windows = num_windows;
  report.scalar_metadata = config.scalar_metadata;
  report.durable = durable;
  if (durable) {
    for (DatacenterId dc = 0; dc < config.num_dcs; ++dc) {
      report.wal_torn_tails += cluster.disk(dc)->torn_tails();
      report.wal_bit_flips += cluster.disk(dc)->bit_flips();
      report.snapshots_taken += cluster.durability(dc)->snapshots_taken();
    }
  }
  report.faults = cluster.env().stats();
  report.violations = std::move(ryw_violations);
  std::vector<Violation> post = CheckInvariants(cluster, iopts);
  report.violations.insert(report.violations.end(), post.begin(), post.end());
  return report;
}

}  // namespace eunomia::geo::rt::chaos
