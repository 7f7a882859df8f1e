// geo_read / geo_write: a 3-DC EunomiaKV deployment, one geo::rt::GeoNode
// per datacenter in this process, linked by epoll TCP on loopback.
//
// Open loop: a seeded Poisson schedule of ops, each sent to a uniformly
// chosen datacenter, goes to an idle session of that datacenter's fixed
// client pool; when every session is busy the op waits for one. Each op is
// timed from its intended issue time to its done callback, so that wait
// counts in its latency. GeoNode injects no WAN delay,
// so remote visibility (each node's VisibilityTracker: payload arrival ->
// visible) is the paper's "added delay" of fig6.
//
// geo_read: 90:10 read:write, uniform keys, in-memory nodes.
// geo_write: 50:50, power-law keys, durable nodes (fsync=interval) on an
// in-memory wal::MemDisk, so the WAL costs its CPU path, not a shared disk.
#include <algorithm>
#include <atomic>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/schedule.h"
#include "perfbench/src/workloads.h"
#include "src/georep/runtime/event_loop.h"
#include "src/georep/runtime/geo_node.h"
#include "src/net/epoll_transport.h"
#include "src/wal/disk.h"

namespace perfbench {

namespace net = eunomia::net;
namespace rt = eunomia::geo::rt;
using eunomia::DatacenterId;

namespace {

constexpr std::uint32_t kDcs = 3;
constexpr std::uint32_t kPartitionsPerDc = 8;
constexpr std::uint32_t kClientsPerDc = 1024;
constexpr std::size_t kValueBytes = 100;
constexpr int kSetups = 21;
constexpr std::int64_t kDrainNs = 10'000'000'000;
// Offered rates in client ops/s over the whole deployment: the reference
// rate, at which every latency is reported, is well below the knee; the
// saturating rate, whose sustained rate is max_rate_ops_s, is well above it.
constexpr double kReadReference = 6'000;
constexpr double kReadSaturating = 400'000;
constexpr double kWriteReference = 4'000;
constexpr double kWriteSaturating = 250'000;

struct OpRec {
  std::atomic<std::int64_t> issue_start_ns{0};
  std::atomic<std::int64_t> issue_end_ns{0};
  std::atomic<std::int64_t> done_ns{0};  // 0: not completed (or no idle session)
};

// A phase's schedule is made in one-second chunks, each a pure function of
// (seed, phase, chunk): all before the reference phase starts, and as the
// generator reaches them in a saturating phase, which falls behind on
// purpose and so never needs most of its offered ops.
constexpr std::int64_t kChunkNs = 1'000'000'000;

struct Phase : PhaseSpec {
  std::size_t index = 0;
  std::vector<GeoOp> ops;
  std::deque<OpRec> recs;  // deque: records never move once issued
  std::int64_t scheduled_ns = 0;  // ops exist for intended times below this
};

// Fixed client pool of one datacenter: ops take an idle session and give
// it back from the done callback (on the node's event loop).
struct SessionPool {
  std::mutex mu;
  std::vector<eunomia::ClientId> idle;
};

class GeoRun {
 public:
  GeoRun(const RunArgs& args, bool write_heavy, Report* report, SpanLog* spans)
      : args_(args), write_heavy_(write_heavy), report_(report), spans_(spans) {
    mix_.update_fraction = write_heavy ? 0.5 : 0.1;
    mix_.power_law = write_heavy;
  }
  ~GeoRun() { Teardown(); }

  int Run();

 private:
  bool Setup(bool metrics_on, std::string* error);
  void Teardown();
  bool ScheduleNextChunk(Phase* phase);
  void RunPhase(std::size_t index);
  bool Issue(Phase* phase, std::size_t i, std::int64_t deadline_ns);
  void Probe();
  bool Quiesce();
  void CheckQuiesced();
  std::vector<double> Latencies(const Phase& p, int kind) const;
  double SustainedRate(const Phase& p) const;
  Snapshot VisibilitySnapshot();

  const RunArgs args_;
  const bool write_heavy_;
  Report* const report_;
  SpanLog* const spans_;
  GeoMix mix_;
  std::unique_ptr<ZipfKeys> zipf_;
  std::vector<Phase> phases_;

  std::unique_ptr<eunomia::metrics::Registry> registry_;
  std::vector<std::unique_ptr<net::EpollTransport>> transports_;
  std::vector<std::unique_ptr<eunomia::wal::MemDisk>> disks_;
  std::vector<std::unique_ptr<rt::GeoNode>> nodes_;
  SessionPool pools_[kDcs];
  std::atomic<std::uint64_t> issued_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::uint64_t payload_dups_ = 0;
  std::uint64_t session_waits_ = 0;  // generator thread only

  // Traced phase: the loop probe's samples.
  std::atomic<bool> probing_{false};
  std::vector<double> loop_delay_us_;
  std::vector<double> stable_lag_us_;
  std::vector<double> receiver_lag_us_;
  std::vector<double> buffered_payloads_;
  std::vector<double> pending_applies_;
};

bool GeoRun::Setup(bool metrics_on, std::string* error) {
  if (metrics_on) {
    registry_ = std::make_unique<eunomia::metrics::Registry>();
  }
  eunomia::geo::GeoConfig config;
  config.num_dcs = kDcs;
  config.partitions_per_dc = kPartitionsPerDc;
  config.servers_per_dc = 1;
  config.batch_interval_us = 1000;
  config.theta_us = 1000;
  config.rho_us = 1000;
  std::vector<std::string> addresses;
  for (DatacenterId m = 0; m < kDcs; ++m) {
    net::EpollTransport::Options to;
    to.num_io_threads = 1;
    transports_.push_back(std::make_unique<net::EpollTransport>(to));
    rt::GeoNode::Options o;
    o.dc = m;
    o.config = config;
    o.metrics = registry_.get();
    if (write_heavy_) {
      disks_.push_back(std::make_unique<eunomia::wal::MemDisk>());
      o.durability_disk = disks_.back().get();
      o.fsync = eunomia::wal::FsyncPolicy::kInterval;
    }
    nodes_.push_back(std::make_unique<rt::GeoNode>(transports_.back().get(), o));
    addresses.push_back(nodes_.back()->Listen("127.0.0.1:0"));
    if (addresses.back().empty()) {
      *error = "dc" + std::to_string(m) + " could not listen";
      return false;
    }
  }
  for (DatacenterId m = 0; m < kDcs; ++m) {
    for (DatacenterId k = 0; k < kDcs; ++k) {
      if (k != m && !nodes_[m]->ConnectPeer(k, addresses[k])) {
        *error = "dc" + std::to_string(m) + " could not dial dc" + std::to_string(k);
        return false;
      }
    }
  }
  for (auto& node : nodes_) {
    node->Start();
  }
  for (DatacenterId m = 0; m < kDcs; ++m) {
    std::lock_guard<std::mutex> lock(pools_[m].mu);
    pools_[m].idle.clear();
    for (std::uint32_t c = 0; c < kClientsPerDc; ++c) {
      pools_[m].idle.push_back(m * 100'000 + c);
    }
  }
  return true;
}

void GeoRun::Teardown() {
  for (auto& node : nodes_) {
    node->Stop();
  }
  nodes_.clear();
  transports_.clear();
  disks_.clear();
}

// Takes an idle session of the op's datacenter, waiting while all are
// busy, and issues the op. False, with nothing sent, once the deadline has
// passed (a saturating phase's end).
bool GeoRun::Issue(Phase* phase, std::size_t i, std::int64_t deadline_ns) {
  const GeoOp& op = phase->ops[i];
  OpRec* rec = &phase->recs[i];
  SessionPool& pool = pools_[op.dc];
  eunomia::ClientId client = 0;
  while (true) {
    if (NowNs() >= deadline_ns) {
      return false;
    }
    {
      std::lock_guard<std::mutex> lock(pool.mu);
      if (!pool.idle.empty()) {
        client = pool.idle.back();
        pool.idle.pop_back();
        break;
      }
    }
    ++session_waits_;
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  issued_.fetch_add(1, std::memory_order_relaxed);
  auto done = [this, rec, &pool, client] {
    rec->done_ns.store(NowNs(), std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(pool.mu);
      pool.idle.push_back(client);
    }
    completed_.fetch_add(1, std::memory_order_release);
  };
  rt::GeoNode& node = *nodes_[op.dc];
  rec->issue_start_ns.store(NowNs(), std::memory_order_relaxed);
  if (op.update) {
    std::string value(kValueBytes, static_cast<char>('a' + i % 26));
    const std::string id = std::to_string(args_.seed) + ":" + std::to_string(i);
    value.replace(0, id.size(), id);
    node.ClientUpdate(client, op.key, std::move(value), std::move(done));
  } else {
    node.ClientRead(client, op.key, std::move(done));
  }
  rec->issue_end_ns.store(NowNs(), std::memory_order_relaxed);
  return true;
}

// Every millisecond, one node in turn: a no-op-sized RunBlocking whose
// round trip is the loop delay, reading the stabilizer and receiver
// frontiers and the receiver queues. Frontiers are in the stride-scaled
// hybrid-clock domain (local us x partitions per DC).
void GeoRun::Probe() {
  rt::EventLoop clock;  // never started: only its shared-epoch Now()
  std::size_t turn = 0;
  while (probing_.load(std::memory_order_acquire)) {
    rt::GeoNode& node = *nodes_[turn++ % kDcs];
    std::uint64_t loop_now = 0;
    eunomia::Timestamp stable = 0;
    eunomia::Timestamp applied_min = ~0ULL;
    std::size_t buffered = 0;
    std::size_t pending = 0;
    const std::int64_t t0 = NowNs();
    node.RunBlocking([&] {
      loop_now = clock.Now();
      stable = node.runtime().eunomia().StableTime();
      const auto& site = node.runtime().receiver().site_time();
      for (DatacenterId d = 0; d < kDcs; ++d) {
        if (d != node.dc()) {
          applied_min = std::min(applied_min, site[d]);
        }
      }
      buffered = node.runtime().BufferedPayloads();
      pending = node.runtime().PendingApplyCount();
    });
    loop_delay_us_.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    const double now_scaled = static_cast<double>(loop_now);
    stable_lag_us_.push_back(now_scaled - static_cast<double>(stable) / kPartitionsPerDc);
    receiver_lag_us_.push_back(now_scaled - static_cast<double>(applied_min) / kPartitionsPerDc);
    buffered_payloads_.push_back(static_cast<double>(buffered));
    pending_applies_.push_back(static_cast<double>(pending));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// Appends the phase's next chunk of ops; false once the phase is covered.
bool GeoRun::ScheduleNextChunk(Phase* phase) {
  if (phase->scheduled_ns >= phase->duration_ns) {
    return false;
  }
  const std::int64_t chunk = phase->scheduled_ns / kChunkNs;
  const std::int64_t length = std::min(kChunkNs, phase->duration_ns - phase->scheduled_ns);
  for (GeoOp op : MakeGeoSchedule(args_.seed, phase->index * 1000 + chunk, phase->rate, length,
                                  kDcs, mix_, zipf_.get())) {
    op.intended_ns += phase->scheduled_ns;
    phase->ops.push_back(op);
    phase->recs.emplace_back();
  }
  phase->scheduled_ns += length;
  return true;
}

void GeoRun::RunPhase(std::size_t index) {
  Phase* phase = &phases_[index];
  phase->index = index;
  while (!phase->saturating && ScheduleNextChunk(phase)) {
  }
  std::thread probe;
  if (phase->traced) {
    probing_.store(true);
    probe = std::thread([this] { Probe(); });
  }
  phase->start_ns = NowNs() + 2'000'000;
  const std::int64_t deadline = phase->saturating ? phase->start_ns + phase->duration_ns
                                                  : std::numeric_limits<std::int64_t>::max();
  // The generator is this thread: it issues every op whose intended time
  // has come, then sleeps until the next one.
  for (std::size_t i = 0; i < phase->ops.size() || ScheduleNextChunk(phase); ++i) {
    SleepUntilNs(phase->start_ns + phase->ops[i].intended_ns);
    if (!Issue(phase, i, deadline)) {
      break;
    }
  }
  const std::int64_t drain_deadline = NowNs() + kDrainNs;
  while (completed_.load(std::memory_order_acquire) < issued_.load(std::memory_order_relaxed) &&
         NowNs() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  if (probe.joinable()) {
    probing_.store(false);
    probe.join();
  }
}

// kind: 0 all ops, 1 reads, 2 updates, 3 gen lag, 4 issue call,
// 5 issue return -> done. Warm-up ops excluded.
std::vector<double> GeoRun::Latencies(const Phase& p, int kind) const {
  std::vector<double> out;
  for (std::size_t i = 0; i < p.ops.size(); ++i) {
    const GeoOp& op = p.ops[i];
    if (op.intended_ns < p.warmup_ns || (kind == 1 && op.update) || (kind == 2 && !op.update)) {
      continue;
    }
    const OpRec& r = p.recs[i];
    const std::int64_t intended = p.start_ns + op.intended_ns;
    const std::int64_t is = r.issue_start_ns.load(std::memory_order_relaxed);
    const std::int64_t ie = r.issue_end_ns.load(std::memory_order_relaxed);
    const std::int64_t done = r.done_ns.load(std::memory_order_relaxed);
    std::int64_t from = intended;
    std::int64_t to = done;
    if (kind == 3) {
      to = is;
    } else if (kind == 4) {
      from = is;
      to = ie;
    } else if (kind == 5) {
      from = ie;
    }
    if (from > 0 && to > 0) {
      out.push_back(static_cast<double>(std::max<std::int64_t>(0, to - from)) / 1e3);
    }
  }
  return out;
}

double GeoRun::SustainedRate(const Phase& p) const {
  std::vector<Completion> done;
  for (std::size_t i = 0; i < p.ops.size(); ++i) {
    const std::int64_t t = p.recs[i].done_ns.load(std::memory_order_relaxed);
    if (t != 0) {
      done.push_back({t, 1});
    }
  }
  return perfbench::SustainedRate(done, p.start_ns + p.warmup_ns, p.start_ns + p.duration_ns);
}

// Every (origin, dest) visibility histogram of every node, merged.
Snapshot GeoRun::VisibilitySnapshot() {
  Snapshot merged;
  merged.buckets.assign(eunomia::metrics::Histogram::kNumBuckets, 0);
  for (auto& node : nodes_) {
    node->RunBlocking([&] {
      for (DatacenterId origin = 0; origin < kDcs; ++origin) {
        if (const auto* h = node->tracker().VisibilityHistogram(origin, node->dc())) {
          Accumulate(&merged, h->Snap());
        }
      }
    });
  }
  return merged;
}

// After the load stops: receiver queues drain to zero and every partition's
// store is identical at every datacenter.
bool GeoRun::Quiesce() {
  const std::int64_t deadline = NowNs() + 10'000'000'000LL;
  while (true) {
    bool drained = true;
    std::vector<std::vector<std::uint64_t>> digests(kDcs);
    for (DatacenterId m = 0; m < kDcs; ++m) {
      rt::GeoNode& node = *nodes_[m];
      node.RunBlocking([&] {
        drained = drained && node.runtime().BufferedPayloads() == 0 &&
                  node.runtime().PendingApplyCount() == 0;
        for (std::uint32_t p = 0; p < kPartitionsPerDc; ++p) {
          std::uint64_t digest = 0;
          node.runtime().StoreAt(p).ForEach([&](eunomia::Key key, const eunomia::geo::GeoVersion& v) {
            digest += Mix64(key ^ Mix64(std::hash<std::string>{}(v.value) ^ Mix64(v.vts.Sum())) ^
                            v.origin);
          });
          digests[m].push_back(digest);
        }
      });
    }
    const bool converged = digests[1] == digests[0] && digests[2] == digests[0];
    if (drained && converged) {
      return true;
    }
    if (NowNs() > deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

// Before a deployment is torn down: it quiesces and converges, its links
// saw no wire errors or send failures; its payload duplicates are counted.
void GeoRun::CheckQuiesced() {
  if (!Quiesce()) {
    report_->Violation("stores did not converge or receiver queues did not drain");
  }
  for (auto& node : nodes_) {
    if (node->wire_errors() != 0 || node->send_failures() != 0) {
      report_->Violation("wire errors or send failures on a node link");
    }
    node->RunBlocking([&] { payload_dups_ += node->runtime().payload_duplicates(); });
  }
}

int GeoRun::Run() {
  if (mix_.power_law) {
    zipf_ = std::make_unique<ZipfKeys>(mix_.num_keys, 0.99);
  }
  const std::vector<PhaseSpec> specs =
      PlanPhases(args_, write_heavy_ ? kWriteReference : kReadReference,
                 write_heavy_ ? kWriteSaturating : kReadSaturating);
  phases_ = std::vector<Phase>(specs.size());  // Phase does not move: records stay put
  for (std::size_t i = 0; i < specs.size(); ++i) {
    static_cast<PhaseSpec&>(phases_[i]) = specs[i];
  }
  report_->Note("generator_threads", "1");
  report_->Note("connections", "12 node-to-node links (2 per directed DC pair); no client sockets");
  report_->Note("clients_per_dc", std::to_string(kClientsPerDc));
  const auto set_up = [this](bool metrics_on) {
    return [this, metrics_on](std::string* error) { return Setup(metrics_on, error); };
  };
  const auto tear_down = [this] { Teardown(); };
  // As in order_tcp: many set-ups for setup_s; the traced run sets up
  // again with the registry on for its traced phase.
  const auto setup_s = MedianSetupSeconds(args_.trace ? 1 : kSetups, set_up(false), tear_down);
  if (!setup_s) {
    return 1;
  }

  // Warm-up is excluded from the trackers' cumulative histograms by
  // subtracting a snapshot taken when the reference warm-up ends.
  Snapshot vis_before;
  std::thread snap([&] {
    SleepUntilNs(NowNs() + 2'000'000 + phases_[0].warmup_ns);
    vis_before = VisibilitySnapshot();
  });
  RunPhase(0);
  snap.join();
  const Snapshot vis = Subtract(VisibilitySnapshot(), vis_before);
  const double peak_rss_mb = PeakRssMb();

  Phase& second = phases_[1];
  LayerCounters traced_before;
  if (second.traced) {
    CheckQuiesced();
    Teardown();
    payload_dups_ = 0;  // georep.payload_dups counts the traced deployment
    if (!MedianSetupSeconds(1, set_up(true), tear_down)) {
      return 1;
    }
    traced_before = LayerCounters::Read();
  }
  RunPhase(1);
  const LayerCounters traced_after = LayerCounters::Read();
  for (const Phase& p : phases_) {
    std::fprintf(stderr, "%s phase rate=%.0f traced=%d: sustained %.0f ops/s\n",
                 args_.workload.c_str(), p.rate, p.traced ? 1 : 0, SustainedRate(p));
  }
  // A saturating phase whose generator never waited for a session measured
  // the generator, not the system.
  report_->Note("session_waits", std::to_string(session_waits_));
  CheckQuiesced();
  Teardown();

  // Attempted: every op issued. Failed: issued but not done by the drain
  // deadline.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const Phase& p : phases_) {
    for (std::size_t j = 0; j < p.ops.size(); ++j) {
      if (p.recs[j].issue_start_ns.load() != 0) {
        ++attempted;
        failed += p.recs[j].done_ns.load() == 0 ? 1 : 0;
      }
    }
  }
  report_->CountOps(attempted, failed);

  const Phase& ref = phases_[0];
  const std::vector<double> all = Latencies(ref, 0);
  const auto op99 = TailP99(all);
  const auto vis99 = TailP99(vis);
  if (!op99 || !vis99) {
    std::fprintf(stderr, "%s: too few samples for a p99 at the reference rate\n",
                 args_.workload.c_str());
    return 1;
  }
  report_->Note("samples_at_reference", std::to_string(all.size()));
  report_->Note("visibility_samples_at_reference", std::to_string(BucketCount(vis)));
  if (!args_.trace) {
    const double max_rate = SustainedRate(second);
    WarnIfUnsaturated(args_.workload.c_str(), second.rate, max_rate);
    report_->Add("setup_s", *setup_s, "s");
    report_->Add("peak_rss_mb", peak_rss_mb, "MB");
    report_->Add("max_rate_ops_s", max_rate, "ops/s");
    report_->Add("op_p50_us", Quantile(all, 0.5), "us");
    report_->Add("visible_p50_us", InterpolatedQuantile(vis, 0.5), "us");
    report_->Add("visible_p90_us", InterpolatedQuantile(vis, 0.9), "us");
    return 0;
  }

  report_->Add("bench.op_p99_us", *op99, "us");
  report_->Add("bench.visible_p99_us", *vis99, "us");
  const Phase& traced = second;
  const std::vector<double> lag = Latencies(traced, 3);
  const double untraced_p50 = Quantile(all, 0.5);
  const double traced_p50 = Quantile(Latencies(traced, 0), 0.5);
  report_->Add("bench.gen_lag_p50_us", Quantile(lag, 0.5), "us");
  report_->Add("bench.gen_lag_p99_us", LayerTail(lag), "us");
  report_->Add("bench.offered_ops_s", traced.rate, "ops/s");
  report_->Add("bench.achieved_ops_s", SustainedRate(traced), "ops/s");
  report_->Add("bench.stage_sum_over_p50",
               Ratio(Quantile(lag, 0.5) + Quantile(Latencies(traced, 4), 0.5) +
                         Quantile(Latencies(traced, 5), 0.5),
                     traced_p50),
               "ratio");
  report_->Add("bench.read_p50_us", Quantile(Latencies(traced, 1), 0.5), "us");
  report_->Add("bench.update_p50_us", Quantile(Latencies(traced, 2), 0.5), "us");
  report_->Add("trace_overhead", Ratio(traced_p50 - untraced_p50, untraced_p50), "ratio");
  report_->Add("georep.loop_delay_p99_us", LayerTail(loop_delay_us_), "us");
  report_->Add("georep.stable_lag_p50_us", Quantile(stable_lag_us_, 0.5), "us");
  report_->Add("georep.receiver_lag_p50_us", Quantile(receiver_lag_us_, 0.5), "us");
  report_->Add("georep.buffered_payloads_p99", Quantile(buffered_payloads_, 0.99), "count");
  report_->Add("georep.pending_applies_p99", Quantile(pending_applies_, 0.99), "count");
  report_->Add("georep.payload_dups", static_cast<double>(payload_dups_), "count");

  const LayerCounters d = traced_after.Since(traced_before);
  double ops = 0;
  double updates = 0;
  std::vector<ReplayOp> stream;
  for (std::size_t i = 0; i < traced.ops.size(); ++i) {
    const GeoOp& op = traced.ops[i];
    ops += traced.recs[i].done_ns.load() != 0 ? 1 : 0;
    if (op.update) {
      updates += 1;
      stream.push_back({op.intended_ns, static_cast<std::uint32_t>(op.key % kPartitionsPerDc),
                        op.key});
    }
    const std::int64_t intended = traced.start_ns + op.intended_ns;
    const OpRec& r = traced.recs[i];
    const char* root = op.update ? "update" : "read";
    spans_->Add(i, root, "", intended, r.done_ns.load());
    spans_->Add(i, "gen_lag", root, intended, r.issue_start_ns.load());
    spans_->Add(i, "georep.issue_call", root, r.issue_start_ns.load(), r.issue_end_ns.load());
    spans_->Add(i, "georep.serve", root, r.issue_end_ns.load(), r.done_ns.load());
  }
  const double window_s = static_cast<double>(traced.duration_ns) / 1e9;
  AddTransportAndWalMetrics(report_, d, ops, updates, window_s);
  using eunomia::net::wire::MsgType;
  report_->Add("georep.meta_bytes_per_update",
               Ratio(static_cast<double>(d.bytes_out[static_cast<int>(MsgType::kGeoMetaBatch)]),
                     updates),
               "B/update");
  report_->Add("georep.payload_bytes_per_update",
               Ratio(static_cast<double>(d.bytes_out[static_cast<int>(MsgType::kGeoPayload)]),
                     updates),
               "B/update");
  ReplayLayers(stream, kPartitionsPerDc, report_);
  return 0;
}

}  // namespace

int RunGeo(const RunArgs& args, bool write_heavy, Report* report, SpanLog* spans) {
  GeoRun run(args, write_heavy, report, spans);
  return run.Run();
}

}  // namespace perfbench
