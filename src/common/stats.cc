#include "src/common/stats.h"

namespace eunomia {

void TimeSeries::GrowTo(std::size_t window_index) {
  if (window_index >= counts_.size()) {
    counts_.resize(window_index + 1, 0);
    value_sums_.resize(window_index + 1, 0.0);
    value_counts_.resize(window_index + 1, 0);
  }
}

void TimeSeries::Record(std::uint64_t t_us, std::uint64_t weight) {
  const auto idx = static_cast<std::size_t>(t_us / window_us_);
  GrowTo(idx);
  counts_[idx] += weight;
}

void TimeSeries::RecordValue(std::uint64_t t_us, double value) {
  const auto idx = static_cast<std::size_t>(t_us / window_us_);
  GrowTo(idx);
  value_sums_[idx] += value;
  ++value_counts_[idx];
}

std::vector<double> TimeSeries::Rates() const {
  std::vector<double> rates(counts_.size());
  const double window_s = static_cast<double>(window_us_) / 1e6;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    rates[i] = static_cast<double>(counts_[i]) / window_s;
  }
  return rates;
}

std::vector<double> TimeSeries::ValueMeans() const {
  std::vector<double> means(value_sums_.size(), 0.0);
  for (std::size_t i = 0; i < value_sums_.size(); ++i) {
    if (value_counts_[i] > 0) {
      means[i] = value_sums_[i] / static_cast<double>(value_counts_[i]);
    }
  }
  return means;
}

}  // namespace eunomia
