// Shared plumbing of the benchmark program: the clock, the run protocol
// (phases and repeated set-up), the run report (correctness,
// attempted/failed, named metrics), the in-memory span log, and readers for
// the series the layers register in metrics::Registry.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/stats.h"
#include "src/metrics/counter.h"
#include "src/metrics/gauge.h"
#include "src/metrics/histogram.h"
#include "src/metrics/registry.h"
#include "src/net/wire.h"

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline void SleepUntilNs(std::int64_t deadline_ns) {
  const std::int64_t now = NowNs();
  if (deadline_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(deadline_ns - now));
  }
}

// Peak resident set size of the process so far. Taken right after the
// reference phase, so it covers set-up and the reference load but not the
// saturating step.
inline double PeakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  // results and span files
};

// --- the run protocol -------------------------------------------------------

// One phase of a run at a fixed offered rate; its first quarter is warm-up.
struct PhaseSpec {
  double rate = 0;  // offered ops/s
  std::int64_t duration_ns = 0;
  std::int64_t warmup_ns = 0;
  bool traced = false;      // run on a fresh set-up with the registry on
  bool saturating = false;  // offered above the knee; sending stops at its end
  std::int64_t start_ns = 0;  // set when the phase starts
};

// --trace 0: the reference rate for half the run (every latency), then
// the saturating rate for the other half (max_rate_ops_s; a shorter
// saturating window left its run-to-run spread above 0.1). --trace 1: the
// reference rate twice, 2/5 each, untraced and then traced.
inline std::vector<PhaseSpec> PlanPhases(const RunArgs& args, double reference_rate,
                                         double saturating_rate) {
  const auto total_ns = static_cast<std::int64_t>(args.seconds * 1e9);
  const auto phase = [](double rate, std::int64_t duration_ns, bool traced, bool saturating) {
    PhaseSpec p;
    p.rate = rate;
    p.duration_ns = duration_ns;
    p.warmup_ns = duration_ns / 4;
    p.traced = traced;
    p.saturating = saturating;
    return p;
  };
  if (args.trace) {
    return {phase(reference_rate, total_ns * 2 / 5, false, false),
            phase(reference_rate, total_ns * 2 / 5, true, false)};
  }
  return {phase(reference_rate, total_ns / 2, false, false),
          phase(saturating_rate, total_ns / 2, false, true)};
}

// Sets the system up `n` times, tearing it down in between, and returns
// the median wall time in seconds; the last set-up stays up. nullopt when
// a set-up fails (its error is printed).
inline std::optional<double> MedianSetupSeconds(int n,
                                                const std::function<bool(std::string*)>& set_up,
                                                const std::function<void()>& tear_down) {
  std::vector<double> seconds;
  for (int i = 0; i < n; ++i) {
    if (i > 0) {
      tear_down();
    }
    std::string error;
    const std::int64_t t0 = NowNs();
    if (!set_up(&error)) {
      std::fprintf(stderr, "set-up failed: %s\n", error.c_str());
      tear_down();
      return std::nullopt;
    }
    seconds.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  std::sort(seconds.begin(), seconds.end());
  return seconds[seconds.size() / 2];
}

// A saturating step that completes nearly its whole offered rate did not
// saturate, so max_rate_ops_s would read the schedule: say so loudly.
inline void WarnIfUnsaturated(const char* workload, double offered, double sustained) {
  if (sustained >= 0.9 * offered) {
    std::fprintf(stderr,
                 "WARNING: %s kept up with its saturating rate (%.0f of %.0f ops/s); raise the "
                 "rate so max_rate_ops_s measures capacity\n",
                 workload, sustained, offered);
  }
}

// What one run reports. Violations make `correct` false; the first one is
// kept as the reason.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  void Note(const std::string& key, const std::string& value) { notes_[key] = value; }
  void Violation(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    if (correct_) {
      violation_ = what;
    }
    correct_ = false;
  }
  void CountOps(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  bool correct() const { return correct_; }
  const std::string& violation() const { return violation_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::map<std::string, std::pair<double, std::string>>& metrics() const {
    return metrics_;
  }
  const std::map<std::string, std::string>& notes() const { return notes_; }

 private:
  std::mutex mu_;
  bool correct_ = true;
  std::string violation_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::map<std::string, std::string> notes_;
};

// Spans of one batch or op share `id`; `parent` names the enclosing span
// of the same id ("" for the root). Names point at string literals.
struct Span {
  std::uint64_t id = 0;
  const char* name = "";
  const char* parent = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

// Kept in memory during the run; Write() dumps JSON lines at the end.
class SpanLog {
 public:
  void Add(std::uint64_t id, const char* name, const char* parent, std::int64_t start_ns,
           std::int64_t end_ns) {
    if (start_ns > 0 && end_ns >= start_ns && spans_.size() < kMaxSpans) {
      spans_.push_back({id, name, parent, start_ns, end_ns});
    }
  }
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"id\":%llu,\"name\":\"%s\",\"parent\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld}\n",
                   static_cast<unsigned long long>(s.id), s.name, s.parent,
                   static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  static constexpr std::size_t kMaxSpans = 4'000'000;
  std::vector<Span> spans_;
};

// --- registry readers -------------------------------------------------------

inline std::uint64_t CounterValue(const eunomia::metrics::Registry& r, const std::string& name,
                                  const eunomia::metrics::Labels& labels = {}) {
  const auto m = std::dynamic_pointer_cast<eunomia::metrics::Counter>(r.Find(name, labels));
  return m == nullptr ? 0 : m->value();
}

inline Snapshot HistogramSnap(const eunomia::metrics::Registry& r, const std::string& name,
                              const eunomia::metrics::Labels& labels = {}) {
  const auto m = std::dynamic_pointer_cast<eunomia::metrics::Histogram>(r.Find(name, labels));
  Snapshot s;
  if (m != nullptr) {
    s = m->Snap();
  }
  s.buckets.resize(eunomia::metrics::Histogram::kNumBuckets, 0);
  return s;
}

// The always-on transport series (src/net/net_metrics.cc) and WAL series
// (src/wal/wal_metrics.cc), read from the default registry. Counters are
// process-cumulative, so a window is the difference of two readings.
struct LayerCounters {
  std::uint64_t frames[eunomia::net::wire::kMaxMsgType + 1] = {};  // in + out
  std::uint64_t bytes[eunomia::net::wire::kMaxMsgType + 1] = {};   // in + out
  std::uint64_t bytes_out[eunomia::net::wire::kMaxMsgType + 1] = {};
  std::uint64_t wakeups = 0;
  std::uint64_t outbox_stalls = 0;
  Snapshot writev_frames;
  Snapshot io_iter_us;
  std::uint64_t wal_fsyncs = 0;
  std::uint64_t wal_bytes = 0;
  Snapshot wal_fsync_us;

  static LayerCounters Read() {
    namespace wire = eunomia::net::wire;
    const auto& r = eunomia::metrics::Registry::Default();
    LayerCounters c;
    for (std::uint8_t t = wire::kMinMsgType; t <= wire::kMaxMsgType; ++t) {
      const eunomia::metrics::Labels l = {{"type", wire::MsgTypeName(static_cast<wire::MsgType>(t))}};
      c.frames[t] = CounterValue(r, "eunomia_net_frames_out_total", l) +
                    CounterValue(r, "eunomia_net_frames_in_total", l);
      c.bytes_out[t] = CounterValue(r, "eunomia_net_bytes_out_total", l);
      c.bytes[t] = c.bytes_out[t] + CounterValue(r, "eunomia_net_bytes_in_total", l);
    }
    c.wakeups = CounterValue(r, "eunomia_net_epoll_wakeups_total");
    c.outbox_stalls = CounterValue(r, "eunomia_net_outbox_stalls_total");
    c.writev_frames = HistogramSnap(r, "eunomia_net_writev_frames");
    c.io_iter_us = HistogramSnap(r, "eunomia_net_io_loop_iteration_us");
    c.wal_fsyncs = CounterValue(r, "eunomia_wal_fsync_total");
    c.wal_bytes = CounterValue(r, "eunomia_wal_appended_bytes_total");
    c.wal_fsync_us = HistogramSnap(r, "eunomia_wal_fsync_latency_microseconds");
    return c;
  }

  LayerCounters Since(const LayerCounters& e) const {
    LayerCounters d;
    for (std::size_t t = 0; t <= eunomia::net::wire::kMaxMsgType; ++t) {
      d.frames[t] = frames[t] - e.frames[t];
      d.bytes[t] = bytes[t] - e.bytes[t];
      d.bytes_out[t] = bytes_out[t] - e.bytes_out[t];
    }
    d.wakeups = wakeups - e.wakeups;
    d.outbox_stalls = outbox_stalls - e.outbox_stalls;
    d.writev_frames = Subtract(writev_frames, e.writev_frames);
    d.io_iter_us = Subtract(io_iter_us, e.io_iter_us);
    d.wal_fsyncs = wal_fsyncs - e.wal_fsyncs;
    d.wal_bytes = wal_bytes - e.wal_bytes;
    d.wal_fsync_us = Subtract(wal_fsync_us, e.wal_fsync_us);
    return d;
  }

  std::uint64_t TotalFrames() const {
    std::uint64_t n = 0;
    for (const std::uint64_t f : frames) {
      n += f;
    }
    return n;
  }
  std::uint64_t TotalBytes() const {
    std::uint64_t n = 0;
    for (const std::uint64_t b : bytes) {
      n += b;
    }
    return n;
  }
};

inline double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Per-layer metrics shared by every workload, from a window of the
// transport and WAL series. `ops` is the window's completed client ops,
// `updates` its updates, `seconds` its length.
inline void AddTransportAndWalMetrics(Report* report, const LayerCounters& d, double ops,
                                      double updates, double seconds) {
  report->Add("net.frames_per_op", Ratio(static_cast<double>(d.TotalFrames()), ops), "frames/op");
  report->Add("net.bytes_per_op", Ratio(static_cast<double>(d.TotalBytes()), ops), "B/op");
  report->Add("net.writev_frames_p50", InterpolatedQuantile(d.writev_frames, 0.5), "frames");
  report->Add("net.frames_per_wakeup",
              Ratio(static_cast<double>(d.TotalFrames()), static_cast<double>(d.wakeups)),
              "frames");
  report->Add("net.io_iter_p99_us", LayerTail(d.io_iter_us), "us");
  report->Add("net.outbox_stalls", static_cast<double>(d.outbox_stalls), "count");
  report->Add("wal.appended_bytes_per_update", Ratio(static_cast<double>(d.wal_bytes), updates),
              "B/update");
  report->Add("wal.fsyncs_per_s", Ratio(static_cast<double>(d.wal_fsyncs), seconds), "1/s");
  report->Add("wal.fsync_p99_us", LayerTail(d.wal_fsync_us), "us");
}

}  // namespace perfbench
