#include "bench/harness/geo_experiment.h"

#include <cassert>

#include "src/cure/cure.h"
#include "src/eventual/eventual.h"
#include "src/georep/eunomiakv.h"
#include "src/gentlerain/gentlerain.h"
#include "src/sequencer/seq_system.h"

namespace eunomia::harness {

std::string SystemName(SystemKind kind) {
  switch (kind) {
    case SystemKind::kEventual:
      return "Eventual";
    case SystemKind::kEunomiaKv:
      return "EunomiaKV";
    case SystemKind::kGentleRain:
      return "GentleRain";
    case SystemKind::kCure:
      return "Cure";
    case SystemKind::kSSeq:
      return "S-Seq";
    case SystemKind::kASeq:
      return "A-Seq";
  }
  return "?";
}

SystemUnderTest MakeSystem(SystemKind kind, const geo::GeoConfig& config,
                           std::uint64_t seed) {
  SystemUnderTest out;
  out.sim = std::make_unique<sim::Simulator>(seed);
  switch (kind) {
    case SystemKind::kEventual:
      out.system = std::make_unique<geo::EventualSystem>(out.sim.get(), config);
      break;
    case SystemKind::kEunomiaKv:
      out.system = std::make_unique<geo::EunomiaKvSystem>(out.sim.get(), config);
      break;
    case SystemKind::kGentleRain:
      out.system = std::make_unique<geo::GentleRainSystem>(out.sim.get(), config);
      break;
    case SystemKind::kCure:
      out.system = std::make_unique<geo::CureSystem>(out.sim.get(), config);
      break;
    case SystemKind::kSSeq:
      out.system = std::make_unique<geo::SeqSystem>(
          out.sim.get(), config, geo::SeqSystem::Mode::kSynchronous);
      break;
    case SystemKind::kASeq:
      out.system = std::make_unique<geo::SeqSystem>(
          out.sim.get(), config, geo::SeqSystem::Mode::kAsynchronous);
      break;
  }
  return out;
}

GeoRunResult RunGeoExperiment(SystemKind kind, const geo::GeoConfig& config,
                              const wl::WorkloadConfig& workload,
                              DatacenterId vis_origin, DatacenterId vis_dest) {
  SystemUnderTest sut = MakeSystem(kind, config, workload.seed);
  wl::WorkloadDriver driver(sut.sim.get(), sut.system.get(), workload,
                            config.num_dcs);
  driver.Start();
  sut.sim->RunUntil(workload.duration_us);
  // Let in-flight operations and replication drain without new load.
  driver.Stop();
  sut.sim->RunUntil(workload.duration_us + 2 * sim::kSecond);

  const auto& tracker = sut.system->tracker();
  GeoRunResult result;
  result.system = SystemName(kind);
  result.throughput_ops_s =
      tracker.Throughput(driver.measure_from_us(), driver.measure_to_us());
  result.reads = tracker.reads_completed();
  result.updates = tracker.updates_completed();
  if (const auto* vis = tracker.VisibilityHistogram(vis_origin, vis_dest)) {
    const auto snap = vis->Snap();
    result.vis_p50_ms = static_cast<double>(snap.Quantile(0.50)) / 1000.0;
    result.vis_p90_ms = static_cast<double>(snap.Quantile(0.90)) / 1000.0;
    result.vis_p95_ms = static_cast<double>(snap.Quantile(0.95)) / 1000.0;
    result.vis_p99_ms = static_cast<double>(snap.Quantile(0.99)) / 1000.0;
  }
  return result;
}

}  // namespace eunomia::harness
