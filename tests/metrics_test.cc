// Tests for the metrics subsystem (src/metrics/): exposition-format pin,
// concurrent-write merge correctness against a single-threaded model,
// log-linear bucket boundaries, registry get-or-create/type-mismatch/rank
// behavior, and the HTTP scrape endpoint round trip.
//
// The registry's GUARDED_BY annotations have their negative test in
// tests/sync_negative_compile.cc (probe 4), built — and required to FAIL to
// compile — by the clang job in CI.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/sync.h"
#include "src/metrics/counter.h"
#include "src/metrics/gauge.h"
#include "src/metrics/histogram.h"
#include "src/metrics/metrics_server.h"
#include "src/metrics/registry.h"

namespace eunomia::metrics {
namespace {

// ---------------------------------------------------------------------------
// Exposition format pin. The Prometheus text format is an external contract:
// dashboards parse it, so a formatting change must be a deliberate diff here.

TEST(MetricsExpositionTest, TextExpositionPin) {
  Registry registry;
  auto requests = registry.AddCounter("test_requests_total", "Total requests.",
                                      {{"method", "get"}});
  requests->Add(3);
  auto depth = registry.AddGauge("test_queue_depth", "Depth.");
  depth->Set(-2);
  auto latency = registry.AddHistogram("test_latency_us", "Submit latency.");
  latency->Record(3);
  latency->Record(3);
  latency->Record(7);
  latency->Record(40);  // values in [32, 64) land in a bucket of width 1

  // Families sort by name; HELP/TYPE once per family; only non-empty
  // histogram buckets, cumulative, then +Inf/_sum/_count.
  EXPECT_EQ(registry.TextExposition(),
            "# HELP test_latency_us Submit latency.\n"
            "# TYPE test_latency_us histogram\n"
            "test_latency_us_bucket{le=\"3\"} 2\n"
            "test_latency_us_bucket{le=\"7\"} 3\n"
            "test_latency_us_bucket{le=\"40\"} 4\n"
            "test_latency_us_bucket{le=\"+Inf\"} 4\n"
            "test_latency_us_sum 53\n"
            "test_latency_us_count 4\n"
            "# HELP test_queue_depth Depth.\n"
            "# TYPE test_queue_depth gauge\n"
            "test_queue_depth -2\n"
            "# HELP test_requests_total Total requests.\n"
            "# TYPE test_requests_total counter\n"
            "test_requests_total{method=\"get\"} 3\n");
}

TEST(MetricsExpositionTest, EscapesLabelValuesAndHelp) {
  Registry registry;
  registry.AddCounter("test_escape_total", "line1\nline2 with \\ slash",
                      {{"path", "a\\b\"c\nd"}});
  const std::string out = registry.TextExposition();
  EXPECT_NE(out.find("# HELP test_escape_total line1\\nline2 with \\\\ slash"),
            std::string::npos);
  EXPECT_NE(out.find("test_escape_total{path=\"a\\\\b\\\"c\\nd\"} 0"),
            std::string::npos);
}

TEST(MetricsExpositionTest, SeriesSumParsesWhatWeEmit) {
  Registry registry;
  registry.AddCounter("test_sum_total", "h", {{"k", "a"}})->Add(5);
  registry.AddCounter("test_sum_total", "h", {{"k", "b"}})->Add(7);
  registry.AddCounter("test_sum_total_long", "h")->Add(100);  // shared prefix
  const std::string out = registry.TextExposition();
  bool found = false;
  EXPECT_EQ(SeriesSum(out, "test_sum_total", &found), 12.0);
  EXPECT_TRUE(found);
  SeriesSum(out, "test_absent", &found);
  EXPECT_FALSE(found);
}

// ---------------------------------------------------------------------------
// Bucket boundaries.

TEST(HistogramBucketTest, LinearRangeIsExact) {
  for (std::uint64_t v = 0; v < 32; ++v) {
    EXPECT_EQ(Histogram::BucketFor(v), static_cast<int>(v));
    EXPECT_EQ(Histogram::BucketUpperBound(static_cast<int>(v)), v);
  }
}

TEST(HistogramBucketTest, BoundariesAroundOctaves) {
  // 32..63: still one bucket per value (first octave, 32 sub-buckets).
  EXPECT_EQ(Histogram::BucketUpperBound(Histogram::BucketFor(32)), 32u);
  EXPECT_EQ(Histogram::BucketUpperBound(Histogram::BucketFor(33)), 33u);
  EXPECT_EQ(Histogram::BucketUpperBound(Histogram::BucketFor(63)), 63u);
  // 64..127: buckets of width 2; 64 and 65 share one.
  EXPECT_EQ(Histogram::BucketFor(64), Histogram::BucketFor(65));
  EXPECT_EQ(Histogram::BucketUpperBound(Histogram::BucketFor(64)), 65u);
  EXPECT_NE(Histogram::BucketFor(65), Histogram::BucketFor(66));
}

TEST(HistogramBucketTest, EveryValueIsWithinItsBucket) {
  std::mt19937_64 rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const int shift = static_cast<int>(rng() % 63);
    const std::uint64_t v = rng() >> shift;
    const int bucket = Histogram::BucketFor(v);
    ASSERT_GE(bucket, 0);
    ASSERT_LT(bucket, Histogram::kNumBuckets);
    const std::uint64_t upper = Histogram::BucketUpperBound(bucket);
    ASSERT_LE(v, upper);
    if (bucket > 0 && bucket < Histogram::kNumBuckets - 1) {
      // The bucket below must end strictly under v (tight binning), and the
      // relative error of reporting `upper` for v is bounded by the 32
      // sub-buckets per octave: upper - v <= v/32 + 1.
      ASSERT_GT(v, Histogram::BucketUpperBound(bucket - 1));
      ASSERT_LE(upper - v, v / 32 + 1);
    }
  }
}

TEST(HistogramBucketTest, UpperBoundsAreStrictlyIncreasing) {
  // Buckets above the one holding UINT64_MAX are unreachable from
  // BucketFor; they saturate rather than overflow the shift.
  const int top =
      Histogram::BucketFor(std::numeric_limits<std::uint64_t>::max());
  ASSERT_LT(top, Histogram::kNumBuckets);
  for (int b = 1; b <= top; ++b) {
    ASSERT_GT(Histogram::BucketUpperBound(b), Histogram::BucketUpperBound(b - 1))
        << "bucket " << b;
  }
  EXPECT_EQ(Histogram::BucketUpperBound(top),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(Histogram::BucketUpperBound(Histogram::kNumBuckets - 1),
            std::numeric_limits<std::uint64_t>::max());
}

// ---------------------------------------------------------------------------
// Concurrent writes merge to exactly the single-threaded model. Run under
// the TSan/ASan CI matrices, this is also the data-race probe for the
// striped record path.

TEST(MetricsConcurrencyTest, HistogramMergeMatchesSingleThreadedModel) {
  Histogram hist("test_merge_us", "h");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20'000;
  std::vector<std::vector<std::uint64_t>> recorded(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, &recorded, t] {
      std::mt19937_64 rng(static_cast<std::uint64_t>(t) + 1);
      recorded[t].reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) {
        const std::uint64_t v = rng() % 1'000'000;
        hist.Record(v);
        recorded[t].push_back(v);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }

  // Single-threaded model of the same stream.
  std::vector<std::uint64_t> model_buckets(Histogram::kNumBuckets, 0);
  std::uint64_t model_sum = 0;
  for (const auto& values : recorded) {
    for (const std::uint64_t v : values) {
      ++model_buckets[static_cast<std::size_t>(Histogram::BucketFor(v))];
      model_sum += v;
    }
  }
  const Histogram::Snapshot snap = hist.Snap();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(snap.sum, model_sum);
  EXPECT_EQ(snap.buckets, model_buckets);
}

TEST(MetricsConcurrencyTest, CountersAndGaugesUnderContention) {
  Counter counter("test_contended_total", "h");
  Gauge gauge("test_contended_depth", "h");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.Increment();
        gauge.Increment();
        gauge.Decrement();
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(gauge.value(), 0);
}

// Scraping while writers are live must be safe (loose consistency is fine;
// crashing or racing is not). TSan validates the claim.
TEST(MetricsConcurrencyTest, ScrapeDuringWrites) {
  Registry registry;
  auto hist = registry.AddHistogram("test_live_us", "h");
  auto counter = registry.AddCounter("test_live_total", "h");
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      std::uint64_t v = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        hist->Record(v++ % 100'000);
        counter->Increment();
      }
    });
  }
  for (int i = 0; i < 50; ++i) {
    const std::string out = registry.TextExposition();
    EXPECT_NE(out.find("test_live_us_count"), std::string::npos);
  }
  stop.store(true);
  for (auto& writer : writers) {
    writer.join();
  }
  const Histogram::Snapshot snap = hist->Snap();
  EXPECT_EQ(snap.count, counter->value());
}

// ---------------------------------------------------------------------------
// Snapshot statistics.

TEST(HistogramSnapshotTest, QuantilesMeanAndMax) {
  Histogram hist("test_quantile_us", "h");
  for (std::uint64_t v = 1; v <= 100; ++v) {
    hist.Record(v);  // 1..100, all in exact or near-exact buckets
  }
  const Histogram::Snapshot snap = hist.Snap();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_DOUBLE_EQ(snap.Mean(), 50.5);
  // Values <= 63 have exact buckets; the p50 observation is 50.
  EXPECT_EQ(snap.Quantile(0.5), 50u);
  EXPECT_EQ(snap.Percentile(1), 1u);
  // 100 lands in the width-2 bucket [100, 101].
  EXPECT_EQ(snap.Max(), 101u);
  EXPECT_EQ(snap.Quantile(1.0), 101u);

  const Histogram::Snapshot empty = Histogram("e", "h").Snap();
  EXPECT_EQ(empty.Quantile(0.99), 0u);
  EXPECT_EQ(empty.Max(), 0u);
  EXPECT_DOUBLE_EQ(empty.Mean(), 0.0);
}

TEST(HistogramSnapshotTest, PercentileWithinRelativeError) {
  // A latency-shaped stream: a quantile is the upper bound of the bucket
  // holding the rank-th sample, so it never undershoots the exact sample and
  // overshoots it by at most 1/32 of its value.
  Histogram hist("test_exponential_us", "h");
  std::mt19937_64 rng(21);
  std::exponential_distribution<double> exponential(1.0 / 20'000.0);
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 100'000; ++i) {
    const auto v = static_cast<std::uint64_t>(exponential(rng));
    values.push_back(v);
    hist.Record(v);
  }
  std::sort(values.begin(), values.end());
  const Histogram::Snapshot snap = hist.Snap();
  for (const double q : {0.5, 0.9, 0.99}) {
    const std::uint64_t exact =
        values[static_cast<std::size_t>(std::ceil(q * values.size())) - 1];
    const std::uint64_t approx = snap.Quantile(q);
    EXPECT_GE(approx, exact) << q;
    EXPECT_LE(approx - exact, exact / 32 + 1) << q;
  }
}

// ---------------------------------------------------------------------------
// Registry semantics.

TEST(RegistryTest, AddIsGetOrCreate) {
  Registry registry;
  auto a = registry.AddCounter("test_total", "h", {{"shard", "0"}});
  auto b = registry.AddCounter("test_total", "h", {{"shard", "0"}});
  auto c = registry.AddCounter("test_total", "h", {{"shard", "1"}});
  EXPECT_EQ(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.Find("test_total", {{"shard", "1"}}).get(), c.get());
  EXPECT_EQ(registry.Find("test_total"), nullptr);
}

TEST(RegistryDeathTest, TypeMismatchAborts) {
  EXPECT_DEATH(
      {
        Registry registry;
        registry.AddCounter("test_mismatch", "h");
        registry.AddGauge("test_mismatch", "h");
      },
      "registered as counter but requested as gauge");
}

TEST(RegistryDeathTest, DuplicateRegisterAborts) {
  EXPECT_DEATH(
      {
        Registry registry;
        registry.AddCounter("test_dup", "h");
        registry.Register(std::make_shared<Counter>("test_dup", "h"));
      },
      "duplicate registration");
}

#if EUNOMIA_LOCK_RANK_CHECKS
// The registry mutex ranks at 950, between the WAL disk locks (940) and the
// leaf band: lazy registration from under a connection send lock (800) or
// the WAL writer lock (930) must pass the rank checker — that is the whole
// point of the dedicated rank.
TEST(RegistryTest, RegistrationIsLegalUnderHotPathLocks) {
  Registry registry;
  sync::Mutex send_mu{"test::conn_send", sync::kRankConnSend};
  {
    sync::MutexLock lock(send_mu);
    registry.AddCounter("test_under_conn_send_total", "h");
  }
  sync::Mutex wal_mu{"test::wal_writer", sync::kRankWalWriter};
  {
    sync::MutexLock lock(wal_mu);
    registry.AddHistogram("test_under_wal_writer_us", "h");
  }
  EXPECT_EQ(registry.size(), 2u);
}
#endif  // EUNOMIA_LOCK_RANK_CHECKS

// ---------------------------------------------------------------------------
// Scrape endpoint round trip.

TEST(MetricsServerTest, ServesMetricsAndHealthz) {
  Registry registry;
  registry.AddCounter("test_http_total", "h")->Add(42);
  MetricsServer server(&registry);
  const std::string address = server.Start("127.0.0.1:0");
  ASSERT_FALSE(address.empty());

  std::string body;
  ASSERT_TRUE(HttpGet(address, "/healthz", &body));
  EXPECT_EQ(body, "ok\n");
  ASSERT_TRUE(HttpGet(address, "/metrics", &body));
  EXPECT_EQ(body, registry.TextExposition());
  EXPECT_EQ(SeriesSum(body, "test_http_total"), 42.0);
  EXPECT_FALSE(HttpGet(address, "/nope", &body));  // 404 -> false

  server.Stop();
  EXPECT_FALSE(HttpGet(address, "/healthz", &body));
  // Stop is idempotent, and a stopped server can be destroyed safely.
  server.Stop();
}

}  // namespace
}  // namespace eunomia::metrics
