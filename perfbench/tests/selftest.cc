// Self-test of the benchmark's own logic; perfbench/run.py runs it after
// every build and refuses to measure when it fails. Exit code 0 = pass.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "perfbench/src/audit.h"
#include "perfbench/src/schedule.h"
#include "perfbench/src/stats.h"
#include "src/georep/runtime/event_loop.h"
#include "src/metrics/histogram.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                     \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, __LINE__, #cond); \
      ++failures;                                                       \
    }                                                                   \
  } while (0)

using namespace perfbench;

std::int64_t Now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void TailNeedsTenSamplesBeyond() {
  CHECK(SamplesBeyond(1000, 0.99) == 10);
  CHECK(SamplesBeyond(999, 0.99) == 9);
  std::vector<double> v;
  for (int i = 0; i < 999; ++i) {
    v.push_back(i);
  }
  CHECK(!TailP99(v).has_value());
  v.push_back(999);
  CHECK(TailP99(v).has_value());
  CHECK(*TailP99(v) > 988 && *TailP99(v) < 990);
  CHECK(Quantile({1, 2, 3, 4}, 0.5) == 2.5);
}

// max_rate_ops_s on a synthetic latency curve: a FIFO server of capacity
// 1M ops/s fed at a fixed offered rate. Below the knee the sustained rate
// is the offered rate and latency stays flat; above it latency grows
// without bound and the sustained rate is the capacity, whatever the
// offered rate.
double SyntheticSustained(double offered, double* last_latency_us) {
  constexpr double kServiceNs = 1'000;  // 1M ops/s
  constexpr std::int64_t kDurationNs = 400'000'000;
  std::vector<Completion> done;
  double free_at = 0;
  for (double t = 0; t < kDurationNs; t += 1e9 / offered) {
    free_at = std::max(free_at, t) + kServiceNs;
    done.push_back({static_cast<std::int64_t>(free_at), 1});
    *last_latency_us = (free_at - t) / 1e3;
  }
  return SustainedRate(done, kDurationNs / 4, kDurationNs);
}

void MaxRateFindsTheKnee() {
  double latency_us = 0;
  const double below = SyntheticSustained(500'000, &latency_us);
  CHECK(below > 495'000 && below < 505'000);
  CHECK(latency_us < 2);
  for (const double offered : {2'000'000.0, 3'000'000.0}) {
    const double above = SyntheticSustained(offered, &latency_us);
    CHECK(above > 990'000 && above < 1'010'000);
    CHECK(latency_us > 100'000);
  }
  CHECK(SustainedRate({{10, 5}}, 10, 10) == 0);
}

// The order_tcp audit: an acked batch missing from the stable stream is a
// violation whether or not the final drain finished; a drain that ran out
// of time is one by itself.
void AuditCatchesGaps() {
  std::vector<BatchOutcome> run(3);
  for (BatchOutcome& b : run) {
    b.n_ops = 4;
    b.sent = true;
    b.acked = true;
    b.stable_ops = 4;
  }
  AuditResult a = AuditStableStream(run, true);
  CHECK(a.violations.empty() && a.attempted == 12 && a.failed == 0);
  run[1].stable_ops = 0;  // acked, never stable
  for (const bool drained : {true, false}) {
    a = AuditStableStream(run, drained);
    CHECK(!a.violations.empty() && a.failed == 4);
  }
  run[1].stable_ops = 3;  // a gap inside the batch
  CHECK(!AuditStableStream(run, true).violations.empty());
  run[1].stable_ops = 4;
  CHECK(!AuditStableStream(run, false).violations.empty());
  run[2].acked = false;  // stabilized but never acked
  CHECK(!AuditStableStream(run, true).violations.empty());
  run[2].acked = true;
  run.push_back({4, false, false, false, 0});  // never sent: not attempted
  a = AuditStableStream(run, true);
  CHECK(a.violations.empty() && a.attempted == 12);
}

void SameSeedSameSchedule() {
  const auto a = MakeOrderSchedule(7, 0, 400'000, 200'000'000, 16, 1'000'000);
  const auto b = MakeOrderSchedule(7, 0, 400'000, 200'000'000, 16, 1'000'000);
  const auto c = MakeOrderSchedule(8, 0, 400'000, 200'000'000, 16, 1'000'000);
  CHECK(!a.empty());
  CHECK(Serialize(a) == Serialize(b));
  CHECK(Serialize(a) != Serialize(c));
  std::uint64_t ops = 0;
  for (const OrderBatch& x : a) {
    ops += x.n_ops;
  }
  CHECK(ops > 76'000 && ops < 84'000);  // 400k ops/s for 0.2 s

  const ZipfKeys zipf(100'000, 0.99);
  GeoMix mix;
  mix.update_fraction = 0.5;
  mix.power_law = true;
  const auto g1 = MakeGeoSchedule(7, 1, 20'000, 500'000'000, 3, mix, &zipf);
  const auto g2 = MakeGeoSchedule(7, 1, 20'000, 500'000'000, 3, mix, &zipf);
  const auto g3 = MakeGeoSchedule(7, 2, 20'000, 500'000'000, 3, mix, &zipf);
  CHECK(g1.size() > 9'000 && g1.size() < 11'000);
  CHECK(Serialize(g1) == Serialize(g2));
  CHECK(Serialize(g1) != Serialize(g3));
}

void WarmupSubtraction() {
  eunomia::metrics::Histogram h("h", "help");
  for (int i = 0; i < 5000; ++i) {
    h.Record(50'000);  // slow warm-up
  }
  const Snapshot warm = h.Snap();
  for (int i = 0; i < 2000; ++i) {
    h.Record(100 + i % 100);
  }
  const Snapshot steady = Subtract(h.Snap(), warm);
  CHECK(steady.count == 2000);
  CHECK(BucketCount(steady) == 2000);
  const double p50 = InterpolatedQuantile(steady, 0.5);
  CHECK(p50 > 140 && p50 < 160);
  CHECK(TailP99(steady).has_value() && *TailP99(steady) < 210);
  CHECK(InterpolatedQuantile(h.Snap(), 0.5) > 40'000);  // unsubtracted: warm-up dominates
}

// Coordinated omission: an op scheduled every 0.5 ms into a real event
// loop; a 50 ms stall is injected at op 100. Charged from the intended
// time, every op scheduled during the stall is late, so the stall must
// own the tail (a closed-loop client would have sent nothing meanwhile
// and recorded one slow op).
void StallShowsInTail() {
  eunomia::geo::rt::EventLoop loop;
  loop.Start();
  constexpr int kOps = 400;
  constexpr std::int64_t kGapNs = 500'000;
  std::vector<std::int64_t> done(kOps, 0);
  const std::int64_t start = Now() + 1'000'000;
  for (int i = 0; i < kOps; ++i) {
    const std::int64_t intended = start + i * kGapNs;
    std::this_thread::sleep_for(std::chrono::nanoseconds(std::max<std::int64_t>(0, intended - Now())));
    if (i == 100) {
      loop.Post([] { std::this_thread::sleep_for(std::chrono::milliseconds(50)); });
    }
    loop.Post([&done, i] { done[i] = Now(); });
  }
  loop.RunBlocking([] {});
  loop.Stop();
  std::vector<double> latency_us;
  for (int i = 0; i < kOps; ++i) {
    latency_us.push_back(static_cast<double>(done[i] - (start + i * kGapNs)) / 1e3);
  }
  int late = 0;
  for (const double l : latency_us) {
    late += l > 20'000 ? 1 : 0;
  }
  CHECK(late >= 10);
  CHECK(Quantile(latency_us, 0.99) > 20'000);
}

}  // namespace

int main() {
  TailNeedsTenSamplesBeyond();
  MaxRateFindsTheKnee();
  SameSeedSameSchedule();
  WarmupSubtraction();
  StallShowsInTail();
  AuditCatchesGaps();
  std::fprintf(stderr, "perfbench selftest: %s\n", failures == 0 ? "pass" : "FAIL");
  return failures == 0 ? 0 : 1;
}
