// Windowed event-rate timeline used by the throughput and straggler
// benchmarks (Fig. 4 / Fig. 7). Latency distributions live in
// metrics::Histogram (src/metrics/histogram.h).
#pragma once

#include <cstdint>
#include <vector>

namespace eunomia {

// Fixed-window event-rate timeline: Record(t) increments the window that
// contains t; Rates() converts counts to events/second.
class TimeSeries {
 public:
  // window_us: window width in microseconds.
  explicit TimeSeries(std::uint64_t window_us) : window_us_(window_us) {}

  void Record(std::uint64_t t_us, std::uint64_t weight = 1);
  // Records a sampled value (e.g. a latency) into the window containing t;
  // ValueMeans() then reports per-window means.
  void RecordValue(std::uint64_t t_us, double value);

  std::uint64_t window_us() const { return window_us_; }
  std::size_t num_windows() const { return counts_.size(); }
  std::vector<double> Rates() const;       // events per second per window
  std::vector<double> ValueMeans() const;  // mean recorded value per window

 private:
  void GrowTo(std::size_t window_index);

  std::uint64_t window_us_;
  std::vector<std::uint64_t> counts_;
  std::vector<double> value_sums_;
  std::vector<std::uint64_t> value_counts_;
};

}  // namespace eunomia
