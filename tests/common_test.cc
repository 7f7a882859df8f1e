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
