// Unit tests for src/common: PRNG, zipf sampler, statistics, CRC-32.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/crc32.h"
#include "src/common/random.h"
#include "src/common/stats.h"
#include "src/common/zipf.h"

namespace eunomia {
namespace {

TEST(Crc32Test, MatchesKnownVector) {
  // The zlib CRC-32 of "123456789" is the classic 0xCBF43926 check value —
  // pins the polynomial and bit order against accidental change.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(Crc32Test, UpdateMatchesOneShotAtEverySplit) {
  // 40 bytes = two passes of the 16-byte main loop plus an 8-byte tail, so
  // the splits below land everywhere: inside the main loop, on its stride,
  // inside the tail, and at both ends. The WAL relies on this when it
  // checksums its type byte and then the payload.
  std::string buffer;
  for (int i = 0; i < 40; ++i) {
    buffer.push_back(static_cast<char>(i * 37 + 11));
  }
  // Byte-at-a-time reference, independent of the sliced tables.
  std::uint32_t reference = 0xFFFFFFFFu;
  for (const char c : buffer) {
    reference ^= static_cast<unsigned char>(c);
    for (int bit = 0; bit < 8; ++bit) {
      reference = (reference >> 1) ^ ((reference & 1u) ? 0xEDB88320u : 0u);
    }
  }
  reference ^= 0xFFFFFFFFu;
  const std::uint32_t whole = Crc32(buffer.data(), buffer.size());
  EXPECT_EQ(whole, reference);
  for (std::size_t split = 0; split <= buffer.size(); ++split) {
    const std::uint32_t head = Crc32(buffer.data(), split);
    EXPECT_EQ(Crc32Update(head, buffer.data() + split, buffer.size() - split),
              whole)
        << "split at " << split;
  }
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    equal += a.Next() == b.Next() ? 1 : 0;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, ForkedStreamsAreIndependentAndStable) {
  Rng parent1(7);
  Rng parent2(7);
  Rng child_a = parent1.Fork(0);
  Rng child_b = parent2.Fork(0);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(child_a.Next(), child_b.Next());
  }
}

TEST(RngTest, NextBoundedRespectsBound) {
  Rng rng(99);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
  EXPECT_EQ(rng.NextBounded(0), 0u);
  EXPECT_EQ(rng.NextBounded(1), 0u);
}

TEST(RngTest, NextBoundedIsRoughlyUniform) {
  Rng rng(5);
  constexpr int kBuckets = 10;
  constexpr int kSamples = 100000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kSamples; ++i) {
    ++counts[rng.NextBounded(kBuckets)];
  }
  for (const int c : counts) {
    EXPECT_NEAR(c, kSamples / kBuckets, kSamples / kBuckets * 0.1);
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const std::int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
  EXPECT_EQ(rng.NextInRange(5, 5), 5);
  EXPECT_EQ(rng.NextInRange(5, 4), 5);  // degenerate range clamps to lo
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ExponentialHasRequestedMean) {
  Rng rng(17);
  double sum = 0.0;
  constexpr int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) {
    sum += rng.NextExponential(250.0);
  }
  EXPECT_NEAR(sum / kSamples, 250.0, 5.0);
}

TEST(ZipfTest, SamplesWithinRange) {
  ZipfGenerator zipf(1000, 0.99);
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(zipf.Sample(rng), 1000u);
  }
}

TEST(ZipfTest, RankZeroIsHottest) {
  ZipfGenerator zipf(10000, 0.99);
  Rng rng(2);
  std::vector<int> counts(10000, 0);
  for (int i = 0; i < 200000; ++i) {
    ++counts[zipf.Sample(rng)];
  }
  // Rank 0 must dominate, and the head must hold most of the mass.
  const int max_count = *std::max_element(counts.begin(), counts.end());
  EXPECT_EQ(max_count, counts[0]);
  int head = 0;
  for (int i = 0; i < 100; ++i) {
    head += counts[i];
  }
  EXPECT_GT(head, 200000 / 3);  // top 1% of keys > 1/3 of accesses
}

TEST(ZipfTest, SingleItemAlwaysZero) {
  ZipfGenerator zipf(1, 0.99);
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(zipf.Sample(rng), 0u);
  }
}

TEST(ZipfTest, ExponentOneSupported) {
  ZipfGenerator zipf(100, 1.0);
  Rng rng(4);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(zipf.Sample(rng), 100u);
  }
}

TEST(OnlineStatsTest, MeanAndVariance) {
  OnlineStats stats;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    stats.Add(v);
  }
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.variance(), 4.571428, 1e-5);  // sample variance
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(OnlineStatsTest, MergeMatchesCombinedStream) {
  Rng rng(8);
  OnlineStats all;
  OnlineStats left;
  OnlineStats right;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble() * 100.0;
    all.Add(v);
    (i % 2 == 0 ? left : right).Add(v);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-6);
}

TEST(OnlineStatsTest, EmptyIsZero) {
  OnlineStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
}

TEST(OnlineStatsTest, MergeWithEmptyPreservesMinMax) {
  // The multi-connection TCP driver merges per-connection stats; an idle
  // connection contributes an empty instance, which must not drag min to 0
  // or otherwise perturb the aggregate — in either merge direction.
  OnlineStats populated;
  populated.Add(5.0);
  populated.Add(11.0);
  OnlineStats empty;
  populated.Merge(empty);
  EXPECT_EQ(populated.count(), 2u);
  EXPECT_DOUBLE_EQ(populated.min(), 5.0);
  EXPECT_DOUBLE_EQ(populated.max(), 11.0);
  EXPECT_DOUBLE_EQ(populated.mean(), 8.0);

  OnlineStats target;
  target.Merge(populated);
  EXPECT_EQ(target.count(), 2u);
  EXPECT_DOUBLE_EQ(target.min(), 5.0);
  EXPECT_DOUBLE_EQ(target.max(), 11.0);
  EXPECT_DOUBLE_EQ(target.mean(), 8.0);

  OnlineStats both_empty;
  both_empty.Merge(empty);
  EXPECT_EQ(both_empty.count(), 0u);
  EXPECT_EQ(both_empty.min(), 0.0);
  EXPECT_EQ(both_empty.max(), 0.0);
}

TEST(LatencyHistogramTest, ExactForSmallValues) {
  LatencyHistogram h;
  for (std::uint64_t v = 0; v < 16; ++v) {
    h.Record(v);
  }
  EXPECT_EQ(h.count(), 16u);
  EXPECT_EQ(h.Percentile(100), 15u);
  EXPECT_LE(h.Percentile(50), 8u);
}

TEST(LatencyHistogramTest, PercentileWithinRelativeError) {
  LatencyHistogram h;
  Rng rng(21);
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 100000; ++i) {
    const auto v = static_cast<std::uint64_t>(rng.NextExponential(20000.0));
    values.push_back(v);
    h.Record(v);
  }
  std::sort(values.begin(), values.end());
  for (const double p : {50.0, 90.0, 99.0}) {
    const auto exact =
        values[static_cast<std::size_t>(p / 100.0 * (values.size() - 1))];
    const auto approx = h.Percentile(p);
    EXPECT_NEAR(static_cast<double>(approx), static_cast<double>(exact),
                static_cast<double>(exact) * 0.05 + 2.0);
  }
}

TEST(LatencyHistogramTest, MergeAddsCounts) {
  LatencyHistogram a;
  LatencyHistogram b;
  a.Record(100);
  b.Record(200);
  b.Record(300);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.Max(), 300u);
}

TEST(LatencyHistogramTest, MergeWithEmptyIsIdentity) {
  LatencyHistogram populated;
  populated.Record(100);
  populated.Record(900);
  LatencyHistogram empty;
  populated.Merge(empty);
  EXPECT_EQ(populated.count(), 2u);
  EXPECT_EQ(populated.Max(), 900u);
  EXPECT_DOUBLE_EQ(populated.mean(), 500.0);

  LatencyHistogram target;
  target.Merge(populated);
  EXPECT_EQ(target.count(), 2u);
  EXPECT_EQ(target.Max(), 900u);
  EXPECT_DOUBLE_EQ(target.mean(), 500.0);
}

TEST(CdfTest, QuantilesOfKnownDistribution) {
  Cdf cdf;
  for (int i = 1; i <= 100; ++i) {
    cdf.Add(static_cast<double>(i));
  }
  EXPECT_NEAR(cdf.Quantile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(cdf.Quantile(1.0), 100.0, 1e-9);
  EXPECT_NEAR(cdf.Quantile(0.5), 50.5, 1e-9);
  EXPECT_NEAR(cdf.FractionBelow(50.0), 0.5, 0.01);
  EXPECT_DOUBLE_EQ(cdf.FractionBelow(0.0), 0.0);
  EXPECT_DOUBLE_EQ(cdf.FractionBelow(1000.0), 1.0);
}

TEST(CdfTest, CurveIsMonotone) {
  Cdf cdf;
  Rng rng(31);
  for (int i = 0; i < 1000; ++i) {
    cdf.Add(rng.NextDouble() * 50.0);
  }
  const auto curve = cdf.Curve(21);
  ASSERT_EQ(curve.size(), 21u);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].first, curve[i - 1].first);
    EXPECT_GE(curve[i].second, curve[i - 1].second);
  }
}

TEST(TimeSeriesTest, RatesPerWindow) {
  TimeSeries ts(1'000'000);  // 1 s windows
  for (int i = 0; i < 500; ++i) {
    ts.Record(100);  // all in window 0
  }
  ts.Record(1'500'000);
  const auto rates = ts.Rates();
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_DOUBLE_EQ(rates[0], 500.0);
  EXPECT_DOUBLE_EQ(rates[1], 1.0);
}

TEST(TimeSeriesTest, ValueMeans) {
  TimeSeries ts(1000);
  ts.RecordValue(100, 10.0);
  ts.RecordValue(200, 30.0);
  ts.RecordValue(1500, 5.0);
  const auto means = ts.ValueMeans();
  ASSERT_EQ(means.size(), 2u);
  EXPECT_DOUBLE_EQ(means[0], 20.0);
  EXPECT_DOUBLE_EQ(means[1], 5.0);
}

}  // namespace
}  // namespace eunomia
