// Statistics shared by every workload: exact percentiles over raw samples,
// the "tail only with at least ten samples beyond it" rule, warm-up
// subtraction and interpolated quantiles on metrics::Histogram snapshots,
// and the sustained rate of a saturating step (max_rate_ops_s).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/metrics/histogram.h"

namespace perfbench {

// Samples that lie strictly beyond the q-quantile of n samples, by the
// nearest-rank definition (the quantile is the ceil(q*n)-th smallest).
inline std::uint64_t SamplesBeyond(std::uint64_t n, double q) {
  const auto rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n)));
  return n > rank ? n - rank : 0;
}

// A tail percentile is reported only when at least this many samples lie
// beyond it; below that one stall would be the whole tail.
inline constexpr std::uint64_t kMinSamplesBeyondTail = 10;

// Linear-interpolated quantile (the "type 7" estimator) of raw samples.
// Takes the vector by value: it is partially reordered.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(lo), v.end());
  const double a = v[lo];
  if (lo + 1 >= v.size()) {
    return a;
  }
  const double b = *std::min_element(v.begin() + static_cast<std::ptrdiff_t>(lo) + 1, v.end());
  return a + (b - a) * (pos - static_cast<double>(lo));
}

// p99 of raw samples, or nullopt when fewer than kMinSamplesBeyondTail
// samples lie beyond it.
inline std::optional<double> TailP99(const std::vector<double>& v) {
  if (SamplesBeyond(v.size(), 0.99) < kMinSamplesBeyondTail) {
    return std::nullopt;
  }
  return Quantile(v, 0.99);
}

using Snapshot = eunomia::metrics::Histogram::Snapshot;

// later - earlier, bucket by bucket: the observations recorded between two
// snapshots of one histogram (how warm-up is excluded from a registry
// series that has been recording since the process started).
inline Snapshot Subtract(const Snapshot& later, const Snapshot& earlier) {
  Snapshot out;
  out.count = later.count - earlier.count;
  out.sum = later.sum - earlier.sum;
  out.buckets = later.buckets;
  out.buckets.resize(eunomia::metrics::Histogram::kNumBuckets, 0);
  for (std::size_t b = 0; b < earlier.buckets.size() && b < out.buckets.size(); ++b) {
    out.buckets[b] -= earlier.buckets[b];
  }
  return out;
}

inline void Accumulate(Snapshot* into, const Snapshot& s) {
  into->buckets.resize(eunomia::metrics::Histogram::kNumBuckets, 0);
  into->count += s.count;
  into->sum += s.sum;
  for (std::size_t b = 0; b < s.buckets.size() && b < into->buckets.size(); ++b) {
    into->buckets[b] += s.buckets[b];
  }
}

inline std::uint64_t BucketCount(const Snapshot& s) {
  std::uint64_t n = 0;
  for (const std::uint64_t c : s.buckets) {
    n += c;
  }
  return n;
}

// Quantile of a snapshot, interpolated linearly inside the bucket that
// holds it (bucket b spans [UpperBound(b-1)+1, UpperBound(b)]). The plain
// Snapshot::Quantile returns bucket upper bounds, which move in ~2% steps.
inline double InterpolatedQuantile(const Snapshot& s, double q) {
  using eunomia::metrics::Histogram;
  const std::uint64_t n = BucketCount(s);
  if (n == 0) {
    return 0.0;
  }
  const double rank = q * static_cast<double>(n);
  double cum = 0.0;
  for (int b = 0; b < static_cast<int>(s.buckets.size()); ++b) {
    const auto c = static_cast<double>(s.buckets[static_cast<std::size_t>(b)]);
    if (c > 0.0 && cum + c >= rank) {
      const double lo = b == 0 ? 0.0 : static_cast<double>(Histogram::BucketUpperBound(b - 1)) + 1.0;
      const double hi = static_cast<double>(Histogram::BucketUpperBound(b)) + 1.0;
      return lo + (hi - lo) * std::clamp((rank - cum) / c, 0.0, 1.0);
    }
    cum += c;
  }
  return static_cast<double>(Histogram::BucketUpperBound(static_cast<int>(s.buckets.size()) - 1));
}

inline std::optional<double> TailP99(const Snapshot& s) {
  if (SamplesBeyond(BucketCount(s), 0.99) < kMinSamplesBeyondTail) {
    return std::nullopt;
  }
  return InterpolatedQuantile(s, 0.99);
}

// For per-layer series with few samples (an fsync every few ms): the p99
// when it has ten samples beyond it, else the highest quantile that does
// (never below the median), else 0.
inline double LayerTail(const Snapshot& s) {
  const std::uint64_t n = BucketCount(s);
  if (n <= kMinSamplesBeyondTail) {
    return 0.0;
  }
  const double q = std::clamp(1.0 - static_cast<double>(kMinSamplesBeyondTail) / static_cast<double>(n), 0.5, 0.99);
  return InterpolatedQuantile(s, q);
}

inline double LayerTail(const std::vector<double>& v) {
  if (v.size() <= kMinSamplesBeyondTail) {
    return 0.0;
  }
  const double q = std::clamp(1.0 - static_cast<double>(kMinSamplesBeyondTail) / static_cast<double>(v.size()), 0.5, 0.99);
  return Quantile(v, q);
}

// One completion: when it happened and how many ops it completed.
struct Completion {
  std::int64_t t_ns = 0;
  std::uint64_t ops = 0;
};

// Ops completed per second inside [from_ns, to_ns). Over a step offered
// above the knee the backlog keeps the system busy for the whole window, so
// this is its capacity: set by the system, not by the schedule.
inline double SustainedRate(const std::vector<Completion>& completions, std::int64_t from_ns,
                            std::int64_t to_ns) {
  if (to_ns <= from_ns) {
    return 0.0;
  }
  std::uint64_t ops = 0;
  for (const Completion& c : completions) {
    ops += c.t_ns >= from_ns && c.t_ns < to_ns ? c.ops : 0;
  }
  return static_cast<double>(ops) / (static_cast<double>(to_ns - from_ns) / 1e9);
}

}  // namespace perfbench
