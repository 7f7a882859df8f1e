// Instrumentation shared by every simulated geo-replicated system.
//
// The paper's quality-of-service metric is the *remote update visibility
// latency*: for EunomiaKV, "the time interval between the data arrival and
// the instant in which the update is executed at the responsible partition";
// for GentleRain/Cure, between the arrival of the remote operation at the
// partition and the moment the global stabilization procedure allows its
// visibility. Both definitions factor out the (identical) network latency,
// so the numbers capture only the artificial delay added by each metadata
// management strategy (§7.2.2). This tracker implements exactly that
// bookkeeping, plus op-completion counters for throughput.
#pragma once

#include <cassert>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/stats.h"
#include "src/common/types.h"
#include "src/metrics/histogram.h"
#include "src/metrics/registry.h"

namespace eunomia::geo {

class VisibilityTracker {
 public:
  // window_us controls the throughput / latency timeline resolution.
  // num_datacenters (when > 0) lets the tracker reclaim per-update origin
  // state once all num_datacenters - 1 destinations reported the update
  // visible; with 0 the installed records are kept for the whole run.
  explicit VisibilityTracker(std::uint64_t window_us = 1'000'000,
                             std::uint32_t num_datacenters = 0)
      : window_us_(window_us),
        num_datacenters_(num_datacenters),
        throughput_(window_us) {}

  // --- update lifecycle ------------------------------------------------------

  // Called at the origin when the update is installed locally. Returns the
  // globally unique update id used on the wire.
  std::uint64_t OnInstalled(DatacenterId origin, std::uint64_t t_us) {
    const std::uint64_t uid = next_uid_++;
    RecordInstalled(uid, origin, t_us);
    return uid;
  }

  // Same bookkeeping with an externally allocated uid (the geo runtime owns
  // uid allocation so a real multi-process deployment can use coordination-
  // free strided streams; see rt::UidAllocator).
  void RecordInstalled(std::uint64_t uid, DatacenterId origin,
                       std::uint64_t t_us) {
    if (!retain_installs_) {
      return;
    }
    const std::uint32_t remaining =
        num_datacenters_ >= 2 ? num_datacenters_ - 1 : 0;
    installed_[uid] = {origin, t_us, remaining};
  }

  // A per-datacenter tracker in a real deployment never receives remote
  // visibility reports for locally installed updates — those land on the
  // destination nodes' trackers — so retaining origin records would grow
  // one map entry per local update forever. Disabling retention makes
  // RecordInstalled a no-op; destination-side EnsureInstalled stubs (which
  // ARE consulted and reclaimed here) are unaffected.
  void DisableInstallRetention() { retain_installs_ = false; }

  // Destination-side stub: ensures an origin record exists for `uid` so a
  // tracker that never saw the install (a per-datacenter tracker in a real
  // deployment — the install happened in another process) still attributes
  // visibility samples to the right origin. A no-op when the record exists,
  // so the sim binding's shared tracker is unaffected.
  void EnsureInstalled(std::uint64_t uid, DatacenterId origin,
                       std::uint64_t t_us) {
    if (installed_.find(uid) == installed_.end()) {
      installed_[uid] = {origin, t_us,
                         num_datacenters_ >= 2 ? num_datacenters_ - 1 : 0};
    }
  }

  // Remote data (the update payload) arrived at datacenter dc.
  void OnRemoteArrival(std::uint64_t uid, DatacenterId dc, std::uint64_t t_us) {
    arrivals_[PackKey(uid, dc)] = t_us;
  }

  // Enables per-update bookkeeping of visible times (used by tests that
  // assert causal visibility ordering). Off by default to keep long
  // benchmark runs lean.
  void EnableDetailedLog() { detailed_ = true; }

  // Visible time of `uid` at `dc`, if recorded (requires EnableDetailedLog).
  std::optional<std::uint64_t> VisibleAt(std::uint64_t uid, DatacenterId dc) const {
    const auto it = visible_times_.find(PackKey(uid, dc));
    return it == visible_times_.end() ? std::nullopt
                                      : std::optional<std::uint64_t>(it->second);
  }

  // The update became visible (was executed / allowed by stabilization) at
  // datacenter dc.
  void OnRemoteVisible(std::uint64_t uid, DatacenterId dc, std::uint64_t t_us) {
    if (detailed_) {
      visible_times_[PackKey(uid, dc)] = t_us;
    }
    const auto inst = installed_.find(uid);
    if (inst == installed_.end()) {
      return;
    }
    const DatacenterId origin = inst->second.origin;
    const auto arr = arrivals_.find(PackKey(uid, dc));
    const std::uint64_t arrival =
        arr != arrivals_.end() ? arr->second : inst->second.installed_us;
    const std::uint64_t artificial = t_us >= arrival ? t_us - arrival : 0;
    auto& hist = visibility_hist_[{origin, dc}];
    if (hist == nullptr) {
      hist = MakeVisibilityHistogram(origin, dc);
    }
    hist->Record(artificial);
    auto& timeline = visibility_timeline_[{origin, dc}];
    if (!timeline) {
      timeline = std::make_unique<TimeSeries>(window_us_);
    }
    timeline->RecordValue(t_us, static_cast<double>(artificial));
    if (arr != arrivals_.end()) {
      arrivals_.erase(arr);
    }
    // Reclaim the origin record once every destination reported visible —
    // long runs must not accumulate one entry per update ever installed.
    if (dc != origin && inst->second.remaining_destinations > 0 &&
        --inst->second.remaining_destinations == 0) {
      installed_.erase(inst);
    }
  }

  // --- client-op accounting --------------------------------------------------

  void OnOpComplete(bool is_update, std::uint64_t t_us) {
    if (is_update) {
      ++updates_completed_;
    } else {
      ++reads_completed_;
    }
    throughput_.Record(t_us);
  }

  // --- results ----------------------------------------------------------------

  std::uint64_t reads_completed() const { return reads_completed_; }
  std::uint64_t updates_completed() const { return updates_completed_; }
  std::uint64_t ops_completed() const { return reads_completed_ + updates_completed_; }

  // Completed ops per second over [from_us, to_us) — the steady-state window
  // (the paper drops the first and last minute of each run).
  double Throughput(std::uint64_t from_us, std::uint64_t to_us) const {
    if (to_us <= from_us) {
      return 0.0;
    }
    const auto rates = throughput_.Rates();
    const std::size_t first = static_cast<std::size_t>(from_us / window_us_);
    const std::size_t last = static_cast<std::size_t>(to_us / window_us_);
    double total = 0.0;
    std::size_t windows = 0;
    for (std::size_t i = first; i < last && i < rates.size(); ++i) {
      total += rates[i];
      ++windows;
    }
    return windows == 0 ? 0.0 : total / static_cast<double>(windows);
  }

  // Artificial visibility delay (µs) of updates originating at `origin`
  // observed at `dest` — what the scrape endpoint exports and every bench
  // reads its percentiles from. Quantiles are bucket upper bounds, at most
  // 1/32 of the value above the exact sample. nullptr before the first
  // sample for the pair.
  const metrics::Histogram* VisibilityHistogram(DatacenterId origin,
                                                DatacenterId dest) const {
    const auto it = visibility_hist_.find({origin, dest});
    return it == visibility_hist_.end() ? nullptr : it->second.get();
  }

  // Registers every (origin, dest) visibility histogram — existing and
  // future — into `registry` as eunomia_georep_visibility_latency_
  // microseconds{origin=...,dest=...}. Call before traffic starts; series
  // registration is lazy on the first sample per pair, which runs on the
  // caller's event loop with no annotated lock held (registry rank 950
  // admits it from anywhere below leaf rank).
  void AttachMetrics(metrics::Registry* registry) { registry_ = registry; }

  // Mean artificial delay per time window (Fig. 7 timelines).
  const TimeSeries* VisibilityTimeline(DatacenterId origin, DatacenterId dest) const {
    const auto it = visibility_timeline_.find({origin, dest});
    return it == visibility_timeline_.end() ? nullptr : it->second.get();
  }

  const TimeSeries& throughput_timeline() const { return throughput_; }

  // Updates installed but never observed as visible at `dest` (sanity check:
  // should be only the tail in flight at the end of a run).
  std::size_t PendingArrivals() const { return arrivals_.size(); }

  // Origin records still held (the in-flight tail when num_datacenters was
  // given at construction; every update ever installed otherwise).
  std::size_t TrackedInstalls() const { return installed_.size(); }

 private:
  struct InstalledRecord {
    DatacenterId origin = 0;
    std::uint64_t installed_us = 0;
    // Destinations yet to report visible; 0 means "unknown, keep forever".
    std::uint32_t remaining_destinations = 0;
  };

  std::shared_ptr<metrics::Histogram> MakeVisibilityHistogram(
      DatacenterId origin, DatacenterId dest) {
    static constexpr char kName[] =
        "eunomia_georep_visibility_latency_microseconds";
    static constexpr char kHelp[] =
        "Artificial remote-visibility delay (network latency factored out): "
        "update arrival at the destination to the instant stabilization "
        "allows it to become visible, in microseconds";
    const metrics::Labels labels = {{"origin", std::to_string(origin)},
                                    {"dest", std::to_string(dest)}};
    if (registry_ != nullptr) {
      return registry_->AddHistogram(kName, kHelp, labels);
    }
    return std::make_shared<metrics::Histogram>(kName, kHelp, labels);
  }

  static std::uint64_t PackKey(std::uint64_t uid, DatacenterId dc) {
    // uids are dense, so shifting them 8 bits keeps the key collision-free
    // for any dc < 256. (uid * 64 + dc aliased dc >= 64 onto later uids.)
    assert(dc < 256);
    return (uid << 8) | dc;
  }

  std::uint64_t window_us_;
  std::uint32_t num_datacenters_;
  std::uint64_t next_uid_ = 0;
  bool detailed_ = false;
  bool retain_installs_ = true;
  std::unordered_map<std::uint64_t, std::uint64_t> visible_times_;
  std::unordered_map<std::uint64_t, InstalledRecord> installed_;
  std::unordered_map<std::uint64_t, std::uint64_t> arrivals_;
  metrics::Registry* registry_ = nullptr;
  std::map<std::pair<DatacenterId, DatacenterId>,
           std::shared_ptr<metrics::Histogram>>
      visibility_hist_;
  std::map<std::pair<DatacenterId, DatacenterId>, std::unique_ptr<TimeSeries>>
      visibility_timeline_;
  std::uint64_t reads_completed_ = 0;
  std::uint64_t updates_completed_ = 0;
  TimeSeries throughput_;
};

}  // namespace eunomia::geo
