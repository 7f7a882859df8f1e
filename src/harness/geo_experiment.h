// Geo-replication experiment runner shared by the bench binaries and the
// integration tests: builds a named system over a fresh simulator, drives it
// with a workload, and returns the steady-state measurements.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "src/georep/config.h"
#include "src/georep/geo_system.h"
#include "src/sim/simulator.h"
#include "src/workload/workload.h"

namespace eunomia::harness {

enum class SystemKind {
  kEventual,
  kEunomiaKv,
  kGentleRain,
  kCure,
  kSSeq,
  kASeq,
};

std::string SystemName(SystemKind kind);

// A constructed system together with the simulator that owns its time.
struct SystemUnderTest {
  std::unique_ptr<sim::Simulator> sim;
  std::unique_ptr<geo::GeoSystem> system;
};

SystemUnderTest MakeSystem(SystemKind kind, const geo::GeoConfig& config,
                           std::uint64_t seed);

struct GeoRunResult {
  std::string system;
  double throughput_ops_s = 0.0;  // steady-state window
  std::uint64_t reads = 0;
  std::uint64_t updates = 0;
  // Visibility percentiles (artificial delay, ms) for a chosen origin->dest
  // pair, as histogram bucket upper bounds; negative if no samples.
  double vis_p50_ms = -1.0;
  double vis_p90_ms = -1.0;
  double vis_p95_ms = -1.0;
  double vis_p99_ms = -1.0;
};

// Runs `workload` against a fresh instance of `kind` and reports the
// steady-state throughput plus visibility stats for updates originating at
// `vis_origin` observed at `vis_dest`.
GeoRunResult RunGeoExperiment(SystemKind kind, const geo::GeoConfig& config,
                              const wl::WorkloadConfig& workload,
                              DatacenterId vis_origin = 0,
                              DatacenterId vis_dest = 1);

}  // namespace eunomia::harness
