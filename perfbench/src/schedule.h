// Open-loop schedules: every input the benchmark sends is a pure function
// of the seed, generated before the run with the benchmark's own RNG (so a
// change to the repo's random utilities cannot change the inputs), and the
// program under test only ever receives the generated ops.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t Mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// SplitMix64 stream; Uniform() is in [0, 1).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    const std::uint64_t s = state_;
    state_ += 0x9e3779b97f4a7c15ULL;
    return Mix64(s);
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

// Independent stream for (seed, purpose, index): phases and partitions
// draw from their own streams so adding a phase never shifts another's.
inline Rng Stream(std::uint64_t seed, std::uint64_t purpose, std::uint64_t index = 0) {
  return Rng(Mix64(seed ^ Mix64(purpose * 0x100000001b3ULL + index)));
}

// --- ordering service -------------------------------------------------------

// One partition batch: sent at intended_ns (relative to the phase start),
// carrying n_ops ops.
struct OrderBatch {
  std::int64_t intended_ns = 0;
  std::uint32_t partition = 0;
  std::uint32_t n_ops = 0;
};

// Each partition sends one batch per interval_ns (the paper's 1 ms
// batching); partitions are spread evenly over the interval, each offset
// by a seeded jitter of up to half a slot; the op count of
// each batch is drawn uniformly from [0.5, 1.5] x the mean that yields
// ops_per_s over all partitions. Sorted by (intended time, partition).
inline std::vector<OrderBatch> MakeOrderSchedule(std::uint64_t seed, std::uint64_t phase,
                                                 double ops_per_s, std::int64_t duration_ns,
                                                 std::uint32_t partitions,
                                                 std::int64_t interval_ns) {
  std::vector<OrderBatch> out;
  const double mean = ops_per_s / static_cast<double>(partitions) *
                      static_cast<double>(interval_ns) / 1e9;
  for (std::uint32_t p = 0; p < partitions; ++p) {
    Rng rng = Stream(seed, 1000 + phase, p);
    const std::int64_t slot = interval_ns / partitions;
    const auto offset = slot * p + static_cast<std::int64_t>(rng.Uniform() * static_cast<double>(slot / 2));
    for (std::int64_t t = offset; t < duration_ns; t += interval_ns) {
      const double draw = mean * (0.5 + rng.Uniform());
      const auto n = static_cast<std::uint32_t>(std::max(1.0, std::floor(draw + rng.Uniform())));
      out.push_back({t, p, n});
    }
  }
  std::sort(out.begin(), out.end(), [](const OrderBatch& a, const OrderBatch& b) {
    return a.intended_ns != b.intended_ns ? a.intended_ns < b.intended_ns
                                          : a.partition < b.partition;
  });
  return out;
}

// --- geo-replicated store ---------------------------------------------------

struct GeoOp {
  std::int64_t intended_ns = 0;
  std::uint64_t key = 0;
  std::uint32_t dc = 0;
  bool update = false;
};

// Power-law key popularity (Zipf, exponent theta) by inverse CDF over a
// precomputed table; rank 0 is the hottest key. Ranks are scattered over
// the key space by a fixed permutation so hot keys land on many partitions.
class ZipfKeys {
 public:
  ZipfKeys(std::uint64_t num_keys, double theta) : cdf_(num_keys) {
    double sum = 0.0;
    for (std::uint64_t i = 0; i < num_keys; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) {
      c /= sum;
    }
  }
  std::uint64_t Sample(double u) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    const auto rank = static_cast<std::uint64_t>(std::min<std::ptrdiff_t>(
        it - cdf_.begin(), static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
    return Mix64(rank) % cdf_.size();
  }

 private:
  std::vector<double> cdf_;
};

struct GeoMix {
  double update_fraction = 0.1;
  std::uint64_t num_keys = 100'000;
  bool power_law = false;  // uniform keys otherwise
};

// Poisson arrivals at ops_per_s over the whole deployment, each sent to a
// uniformly chosen datacenter.
inline std::vector<GeoOp> MakeGeoSchedule(std::uint64_t seed, std::uint64_t phase,
                                          double ops_per_s, std::int64_t duration_ns,
                                          std::uint32_t num_dcs, const GeoMix& mix,
                                          const ZipfKeys* zipf) {
  std::vector<GeoOp> out;
  Rng rng = Stream(seed, 2000 + phase);
  const double mean_gap_ns = 1e9 / ops_per_s;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.Uniform()) * mean_gap_ns;
    if (t >= static_cast<double>(duration_ns)) {
      break;
    }
    GeoOp op;
    op.intended_ns = static_cast<std::int64_t>(t);
    op.dc = static_cast<std::uint32_t>(rng.Next() % num_dcs);
    op.update = rng.Uniform() < mix.update_fraction;
    op.key = mix.power_law && zipf != nullptr ? zipf->Sample(rng.Uniform())
                                              : rng.Next() % mix.num_keys;
    out.push_back(op);
  }
  return out;
}

// Canonical byte encoding, field by field (no struct padding), so two
// schedules can be compared for byte identity.
inline std::string Serialize(const std::vector<OrderBatch>& s) {
  std::string out;
  for (const OrderBatch& b : s) {
    out.append(reinterpret_cast<const char*>(&b.intended_ns), sizeof b.intended_ns);
    out.append(reinterpret_cast<const char*>(&b.partition), sizeof b.partition);
    out.append(reinterpret_cast<const char*>(&b.n_ops), sizeof b.n_ops);
  }
  return out;
}

inline std::string Serialize(const std::vector<GeoOp>& s) {
  std::string out;
  for (const GeoOp& op : s) {
    const char update = op.update ? 1 : 0;
    out.append(reinterpret_cast<const char*>(&op.intended_ns), sizeof op.intended_ns);
    out.append(reinterpret_cast<const char*>(&op.key), sizeof op.key);
    out.append(reinterpret_cast<const char*>(&op.dc), sizeof op.dc);
    out.append(&update, 1);
  }
  return out;
}

}  // namespace perfbench
