// order_tcp: the paper's §7.1 service experiment over real sockets.
// 16 partitions, multiplexed over at most nproc client connections, each
// send one hybrid-clock-stamped batch per 1 ms interval to an in-memory
// EunomiaServer (shards sized to the cores) over epoll TCP on loopback.
// The last connection only subscribes to the stable stream: with the
// subscription on a submitting connection, an offered rate above the knee
// hung the system (see README.md).
//
// Every batch is timed from its intended send time: generator lag (intended
// -> SubmitBatch call), the call itself (backpressure wait + encode + send),
// call return -> SubmitAck (seen by tapping the client's connection), and
// SubmitAck -> the subscriber seeing the batch's last op. Every phase ends
// with a drain; the audit then requires the stable stream to equal the
// acked ops exactly.
#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/audit.h"
#include "perfbench/src/schedule.h"
#include "perfbench/src/workloads.h"
#include "src/clock/hybrid_clock.h"
#include "src/net/epoll_transport.h"
#include "src/net/eunomia_client.h"
#include "src/net/eunomia_server.h"

namespace perfbench {

namespace net = eunomia::net;
using eunomia::OpRecord;

namespace {

constexpr std::uint32_t kPartitions = 16;
constexpr std::int64_t kIntervalNs = 1'000'000;
// Offered rates in stabilized ops/s: the reference rate, at which every
// latency is reported, is well below the knee (8-13M measured on 4 cores);
// the saturating rate, whose sustained rate is max_rate_ops_s, is about
// twice the knee.
constexpr double kReferenceRate = 80'000;
constexpr double kSaturatingRate = 24'000'000;
constexpr std::int64_t kDrainNs = 10'000'000'000;
constexpr std::uint64_t kOpBits = 20;  // tag = batch index << kOpBits | op index
constexpr int kSetups = 41;

std::uint64_t KeyOf(std::uint64_t seed, std::uint64_t tag) { return Mix64(seed ^ Mix64(tag)); }

// Per-batch record. Written by the generator (times of the call), the ack
// tap and the subscriber (transport threads); read by the main thread once
// the phase drained.
struct BatchRec {
  std::int64_t intended_ns = 0;
  std::uint32_t partition = 0;
  std::uint32_t n_ops = 0;
  std::atomic<std::int64_t> call_start_ns{0};
  std::atomic<std::int64_t> call_end_ns{0};
  std::atomic<std::int64_t> ack_ns{0};
  std::atomic<std::int64_t> stable_ns{0};
  std::atomic<std::uint32_t> seen{0};
  std::atomic<bool> submit_failed{false};
};

// Sees every SubmitAck a dialed connection receives before the client does
// and reports (dial index, cumulative ops acked). Everything else passes
// through untouched.
class AckTap final : public net::Transport {
 public:
  using OnAck = std::function<void(std::size_t, std::uint64_t)>;
  AckTap(std::unique_ptr<net::Transport> inner, OnAck on_ack)
      : inner_(std::move(inner)), on_ack_(std::move(on_ack)) {}

  std::string Listen(const std::string& address, AcceptHandler handler) override {
    return inner_->Listen(address, std::move(handler));
  }
  std::shared_ptr<net::Connection> Dial(const std::string& address,
                                        net::ConnectionHandler handler) override {
    const std::size_t index = dials_++;
    auto forward = std::move(handler.on_frame);
    handler.on_frame = [index, on_ack = on_ack_, forward = std::move(forward)](
                           net::Connection& c, net::wire::Frame&& f) {
      if (f.type == net::wire::MsgType::kSubmitAck) {
        net::wire::SubmitAckMsg ack;
        if (net::wire::DecodeSubmitAck(f.payload, &ack)) {
          on_ack(index, ack.ops_received);
        }
      }
      forward(c, std::move(f));
    };
    return inner_->Dial(address, std::move(handler));
  }
  void Shutdown() override { inner_->Shutdown(); }

 private:
  std::unique_ptr<net::Transport> inner_;
  OnAck on_ack_;
  std::size_t dials_ = 0;
};

// Send-order ack matching for one connection: the generator publishes
// (cumulative op target, batch index) before each SubmitBatch; the tap
// marks every published batch whose target the cumulative ack covers. A
// new connection counts its acks from zero, so each set-up records the
// ops submitted before it as the base.
struct AckQueue {
  std::vector<std::pair<std::uint64_t, std::uint32_t>> entries;
  std::atomic<std::size_t> published{0};
  std::size_t cursor = 0;           // tap thread only
  std::uint64_t submitted_ops = 0;  // generator thread only
  std::uint64_t ack_base = 0;       // set while no generator runs
};

struct Phase : PhaseSpec {
  std::size_t first = 0;  // batch index range in the run's record array
  std::size_t last = 0;
};

class OrderRun {
 public:
  OrderRun(const RunArgs& args, Report* report, SpanLog* spans)
      : args_(args), report_(report), spans_(spans) {
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    connections_ = std::max<unsigned>(2, std::min<unsigned>(4, nproc));
    submitters_ = connections_ - 1;
    generator_threads_ = std::min<unsigned>(2, submitters_);
    shards_ = std::max<unsigned>(1, nproc / 2);
  }

  int Run();

 private:
  unsigned ConnOf(std::uint32_t partition) const { return partition % submitters_; }
  void Plan();
  bool Setup(bool metrics_on, std::string* error);
  void Teardown();
  void OnAck(std::size_t conn, std::uint64_t ops_received);
  void OnStable(const std::vector<OpRecord>& ops);
  void RunPhase(Phase* phase);
  void Generate(unsigned g, const Phase& phase);
  bool Drain(std::int64_t deadline_ns);
  void SampleGauges();
  std::vector<double> Latencies(const Phase& p, int which) const;
  double SustainedStableRate(const Phase& p) const;
  void CheckConnections();
  void Audit();
  void ReportTraced(const Phase& p, double untraced_stable_p50);

  const RunArgs args_;
  Report* const report_;
  SpanLog* const spans_;
  unsigned connections_ = 4;  // submitters_ submitting + one subscribing
  unsigned submitters_ = 3;
  unsigned generator_threads_ = 2;
  unsigned shards_ = 2;

  std::vector<Phase> phases_;
  std::unique_ptr<BatchRec[]> recs_;
  std::size_t num_recs_ = 0;
  std::vector<std::unique_ptr<AckQueue>> acks_;
  std::vector<eunomia::HybridClock> clocks_ = std::vector<eunomia::HybridClock>(kPartitions);

  std::atomic<std::uint64_t> batches_submitted_{0};
  std::atomic<std::uint64_t> batches_stable_{0};
  bool drained_ = true;  // every drain so far finished before its deadline
  // Subscriber state (its transport thread only, then the main thread).
  eunomia::OpOrderKey last_key_{0, 0};
  bool have_last_ = false;
  std::atomic<bool> record_stable_sizes_{false};
  std::vector<double> stable_batch_sizes_;

  std::unique_ptr<eunomia::metrics::Registry> registry_;
  std::unique_ptr<net::Transport> server_transport_;
  std::unique_ptr<net::EunomiaServer> server_;
  std::unique_ptr<AckTap> client_transport_;
  std::vector<std::unique_ptr<net::EunomiaClient>> clients_;

  // Traced phase: registry gauges sampled every millisecond.
  std::atomic<bool> sampling_{false};
  std::vector<double> occupancy_samples_;
  std::vector<double> merge_depth_samples_;
  double frontier_lag_max_us_ = 0;
};

void OrderRun::Plan() {
  for (const PhaseSpec& spec : PlanPhases(args_, kReferenceRate, kSaturatingRate)) {
    Phase p;
    static_cast<PhaseSpec&>(p) = spec;
    phases_.push_back(p);
  }
  // Every schedule is generated up front: the inputs are a pure function
  // of the seed, whatever happens during the run.
  std::vector<std::vector<OrderBatch>> schedules;
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    schedules.push_back(MakeOrderSchedule(args_.seed, i, phases_[i].rate, phases_[i].duration_ns,
                                          kPartitions, kIntervalNs));
    phases_[i].first = num_recs_;
    num_recs_ += schedules.back().size();
    phases_[i].last = num_recs_;
  }
  recs_ = std::make_unique<BatchRec[]>(num_recs_);
  std::vector<std::size_t> per_conn(connections_, 0);
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    for (std::size_t j = 0; j < schedules[i].size(); ++j) {
      BatchRec& r = recs_[phases_[i].first + j];
      r.intended_ns = schedules[i][j].intended_ns;
      r.partition = schedules[i][j].partition;
      r.n_ops = schedules[i][j].n_ops;
      ++per_conn[ConnOf(r.partition)];
    }
  }
  for (unsigned c = 0; c < connections_; ++c) {
    acks_.push_back(std::make_unique<AckQueue>());
    acks_.back()->entries.resize(per_conn[c]);
  }
}

bool OrderRun::Setup(bool metrics_on, std::string* error) {
  if (metrics_on) {
    registry_ = std::make_unique<eunomia::metrics::Registry>();
  }
  have_last_ = false;  // a new server starts a new stable stream
  for (auto& q : acks_) {
    q->ack_base = q->submitted_ops;
  }
  server_transport_ = std::make_unique<net::EpollTransport>();
  net::EunomiaServer::Options so;
  so.num_partitions = kPartitions;
  so.num_shards = shards_;
  so.metrics = registry_.get();
  server_ = std::make_unique<net::EunomiaServer>(server_transport_.get(), so);
  const std::string address = server_->Start("127.0.0.1:0");
  if (address.empty()) {
    *error = "server did not start";
    return false;
  }
  net::EpollTransport::Options to;
  to.num_io_threads = 1;
  client_transport_ = std::make_unique<AckTap>(
      std::make_unique<net::EpollTransport>(to),
      [this](std::size_t conn, std::uint64_t ops) { OnAck(conn, ops); });
  for (unsigned c = 0; c < connections_; ++c) {
    net::EunomiaClient::Options co;
    if (c == connections_ - 1) {
      co.subscribe = true;
      co.on_stable = [this](const std::vector<OpRecord>& ops) { OnStable(ops); };
    }
    clients_.push_back(std::make_unique<net::EunomiaClient>(client_transport_.get(), address,
                                                            std::move(co)));
    if (!clients_.back()->Connect()) {
      *error = "client " + std::to_string(c) + " did not connect";
      return false;
    }
  }
  return true;
}

void OrderRun::Teardown() {
  for (auto& c : clients_) {
    c->Close();
  }
  if (client_transport_ != nullptr) {
    client_transport_->Shutdown();
  }
  clients_.clear();
  if (server_ != nullptr) {
    server_->Stop();
  }
  server_.reset();
  server_transport_.reset();
  client_transport_.reset();
}

void OrderRun::OnAck(std::size_t conn, std::uint64_t ops_received) {
  if (conn >= acks_.size()) {
    return;
  }
  AckQueue& q = *acks_[conn];
  const std::int64_t now = NowNs();
  const std::size_t published = q.published.load(std::memory_order_acquire);
  while (q.cursor < published && q.entries[q.cursor].first <= q.ack_base + ops_received) {
    recs_[q.entries[q.cursor].second].ack_ns.store(now, std::memory_order_relaxed);
    ++q.cursor;
  }
}

void OrderRun::OnStable(const std::vector<OpRecord>& ops) {
  const std::int64_t now = NowNs();
  if (record_stable_sizes_.load(std::memory_order_relaxed)) {
    stable_batch_sizes_.push_back(static_cast<double>(ops.size()));
  }
  for (const OpRecord& op : ops) {
    const eunomia::OpOrderKey key = eunomia::OrderKeyOf(op);
    if (have_last_ && !(last_key_ < key)) {
      report_->Violation("stable stream out of (ts, partition) order or duplicated");
    }
    last_key_ = key;
    have_last_ = true;
    const std::uint64_t index = op.tag >> kOpBits;
    if (index >= num_recs_) {
      report_->Violation("stable stream carries an op that was never sent");
      continue;
    }
    BatchRec& r = recs_[index];
    if (op.partition != r.partition || op.key != KeyOf(args_.seed, op.tag) ||
        (op.tag & ((1u << kOpBits) - 1)) >= r.n_ops) {
      report_->Violation("stable stream op differs from the submitted op");
      continue;
    }
    const std::uint32_t seen = r.seen.fetch_add(1, std::memory_order_relaxed) + 1;
    if (seen > r.n_ops) {
      report_->Violation("stable stream emitted an op twice");
    } else if (seen == r.n_ops) {
      r.stable_ns.store(now, std::memory_order_relaxed);
      batches_stable_.fetch_add(1, std::memory_order_release);
    }
  }
}

// Sends this generator's share of the phase's batches, each at its
// intended time or as soon after it as the client accepts it. A saturating
// phase falls behind on purpose; its sending stops at the phase end and the
// batches left over are never sent (not attempted).
void OrderRun::Generate(unsigned g, const Phase& phase) {
  const std::int64_t end_ns = phase.start_ns + phase.duration_ns;
  for (std::size_t i = phase.first; i < phase.last; ++i) {
    BatchRec& r = recs_[i];
    const unsigned conn = ConnOf(r.partition);
    if (conn % generator_threads_ != g) {
      continue;
    }
    SleepUntilNs(phase.start_ns + r.intended_ns);
    if (phase.saturating && NowNs() >= end_ns) {
      break;
    }
    net::EunomiaClient& client = *clients_[conn];
    std::vector<OpRecord> ops = client.AcquireBatchBuffer();
    ops.clear();
    ops.reserve(r.n_ops);
    const std::int64_t now = NowNs();
    eunomia::HybridClock& clock = clocks_[r.partition];
    for (std::uint32_t k = 0; k < r.n_ops; ++k) {
      const std::uint64_t tag = (static_cast<std::uint64_t>(i) << kOpBits) | k;
      ops.push_back(OpRecord{clock.TimestampUpdate(static_cast<eunomia::Timestamp>(now / 1000), 0),
                             r.partition, KeyOf(args_.seed, tag), tag});
    }
    AckQueue& q = *acks_[conn];
    q.submitted_ops += r.n_ops;
    const std::size_t slot = q.published.load(std::memory_order_relaxed);
    q.entries[slot] = {q.submitted_ops, static_cast<std::uint32_t>(i)};
    q.published.store(slot + 1, std::memory_order_release);
    r.call_start_ns.store(NowNs(), std::memory_order_relaxed);
    const bool ok = client.SubmitBatch(r.partition, std::move(ops));
    r.call_end_ns.store(NowNs(), std::memory_order_relaxed);
    if (ok) {
      batches_submitted_.fetch_add(1, std::memory_order_release);
    } else {
      r.submit_failed.store(true, std::memory_order_relaxed);
    }
  }
}

// Once the batches are sent, a heartbeat per partition per interval keeps
// the clocks moving so the last batches stabilize. True when every sent
// batch is stable before the deadline.
bool OrderRun::Drain(std::int64_t deadline_ns) {
  while (true) {
    if (batches_stable_.load(std::memory_order_acquire) >=
        batches_submitted_.load(std::memory_order_acquire)) {
      return true;
    }
    const std::int64_t now = NowNs();
    if (now >= deadline_ns) {
      return false;
    }
    for (std::uint32_t p = 0; p < kPartitions; ++p) {
      clients_[ConnOf(p)]->Heartbeat(
          p, clocks_[p].TimestampUpdate(static_cast<eunomia::Timestamp>(now / 1000), 0));
    }
    SleepUntilNs(now + kIntervalNs);
  }
}

void OrderRun::SampleGauges() {
  using eunomia::metrics::Gauge;
  std::vector<std::shared_ptr<Gauge>> occupancy;
  std::vector<std::shared_ptr<Gauge>> lag;
  for (unsigned s = 0; s < shards_; ++s) {
    occupancy.push_back(std::dynamic_pointer_cast<Gauge>(registry_->Find(
        "eunomia_service_ordbuf_occupancy", {{"shard", std::to_string(s)}})));
  }
  for (std::uint32_t p = 0; p < kPartitions; ++p) {
    lag.push_back(std::dynamic_pointer_cast<Gauge>(registry_->Find(
        "eunomia_service_partition_frontier_lag", {{"partition", std::to_string(p)}})));
  }
  const auto merge = std::dynamic_pointer_cast<Gauge>(
      registry_->Find("eunomia_service_merge_queue_depth"));
  while (sampling_.load(std::memory_order_acquire)) {
    std::int64_t occ = 0;
    for (const auto& g : occupancy) {
      occ += g != nullptr ? g->value() : 0;
    }
    occupancy_samples_.push_back(static_cast<double>(occ));
    merge_depth_samples_.push_back(merge != nullptr ? static_cast<double>(merge->value()) : 0.0);
    for (const auto& g : lag) {
      if (g != nullptr) {
        frontier_lag_max_us_ = std::max(frontier_lag_max_us_, static_cast<double>(g->value()));
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void OrderRun::RunPhase(Phase* phase) {
  std::thread sampler;
  if (phase->traced) {
    sampling_.store(true);
    sampler = std::thread([this] { SampleGauges(); });
    record_stable_sizes_.store(true);
  }
  phase->start_ns = NowNs() + 2'000'000;
  std::vector<std::thread> generators;
  for (unsigned g = 0; g < generator_threads_; ++g) {
    generators.emplace_back([this, g, phase] { Generate(g, *phase); });
  }
  for (auto& t : generators) {
    t.join();
  }
  drained_ = Drain(NowNs() + kDrainNs) && drained_;
  if (sampler.joinable()) {
    sampling_.store(false);
    sampler.join();
    record_stable_sizes_.store(false);
  }
}

// which: 0 gen lag, 1 submit call, 2 call end -> ack, 3 ack -> stable,
// 4 intended -> ack, 5 intended -> stable. Warm-up batches excluded.
std::vector<double> OrderRun::Latencies(const Phase& p, int which) const {
  std::vector<double> out;
  for (std::size_t i = p.first; i < p.last; ++i) {
    const BatchRec& r = recs_[i];
    if (r.intended_ns < p.warmup_ns) {
      continue;
    }
    const std::int64_t intended = p.start_ns + r.intended_ns;
    const std::int64_t cs = r.call_start_ns.load(std::memory_order_relaxed);
    const std::int64_t ce = r.call_end_ns.load(std::memory_order_relaxed);
    const std::int64_t ack = r.ack_ns.load(std::memory_order_relaxed);
    const std::int64_t st = r.stable_ns.load(std::memory_order_relaxed);
    std::int64_t from = 0;
    std::int64_t to = 0;
    switch (which) {
      case 0: from = intended; to = cs; break;
      case 1: from = cs; to = ce; break;
      case 2: from = ce; to = ack; break;
      case 3: from = ack; to = st; break;
      case 4: from = intended; to = ack; break;
      default: from = intended; to = st; break;
    }
    if (from > 0 && to > 0) {
      out.push_back(static_cast<double>(std::max<std::int64_t>(0, to - from)) / 1e3);
    }
  }
  return out;
}

double OrderRun::SustainedStableRate(const Phase& p) const {
  std::vector<Completion> stable;
  for (std::size_t i = p.first; i < p.last; ++i) {
    const std::int64_t t = recs_[i].stable_ns.load(std::memory_order_relaxed);
    if (t != 0) {
      stable.push_back({t, recs_[i].n_ops});
    }
  }
  return SustainedRate(stable, p.start_ns + p.warmup_ns, p.start_ns + p.duration_ns);
}

// Before a deployment is torn down: its stream stayed dense and no client
// connection dropped.
void OrderRun::CheckConnections() {
  if (clients_.back()->stream_broken()) {
    report_->Violation("stable stream sequence broke");
  }
  for (const auto& c : clients_) {
    if (c->disconnected()) {
      report_->Violation("a client connection dropped");
    }
  }
}

// Every phase has drained; now the stream must equal the acked ops.
void OrderRun::Audit() {
  std::vector<BatchOutcome> outcomes;
  outcomes.reserve(num_recs_);
  for (std::size_t i = 0; i < num_recs_; ++i) {
    const BatchRec& r = recs_[i];
    BatchOutcome o;
    o.n_ops = r.n_ops;
    o.sent = r.call_start_ns.load() != 0;
    o.submit_failed = r.submit_failed.load();
    o.acked = r.ack_ns.load() != 0;
    o.stable_ops = r.seen.load();
    outcomes.push_back(o);
  }
  const AuditResult audit = AuditStableStream(outcomes, drained_);
  for (const std::string& v : audit.violations) {
    report_->Violation(v);
  }
  report_->CountOps(audit.attempted, audit.failed);
}

void OrderRun::ReportTraced(const Phase& p, double untraced_stable_p50) {
  const std::vector<double> lag = Latencies(p, 0);
  const std::vector<double> call = Latencies(p, 1);
  const std::vector<double> rtt = Latencies(p, 2);
  const std::vector<double> deferred = Latencies(p, 3);
  const std::vector<double> stable = Latencies(p, 5);
  const double stable_p50 = Quantile(stable, 0.5);
  const double stages = Quantile(lag, 0.5) + Quantile(call, 0.5) + Quantile(rtt, 0.5) +
                        Quantile(deferred, 0.5);
  report_->Add("bench.gen_lag_p50_us", Quantile(lag, 0.5), "us");
  report_->Add("bench.gen_lag_p99_us", LayerTail(lag), "us");
  report_->Add("bench.offered_ops_s", p.rate, "ops/s");
  report_->Add("bench.achieved_ops_s", SustainedStableRate(p), "ops/s");
  report_->Add("bench.stage_sum_over_p50", Ratio(stages, stable_p50), "ratio");
  report_->Add("bench.update_p50_us", Quantile(Latencies(p, 4), 0.5), "us");
  report_->Add("net.submit_call_p50_us", Quantile(call, 0.5), "us");
  report_->Add("net.submit_call_p99_us", LayerTail(call), "us");
  report_->Add("net.ack_rtt_p50_us", Quantile(rtt, 0.5), "us");
  report_->Add("net.ack_rtt_p99_us", LayerTail(rtt), "us");
  report_->Add("eunomia.ack_to_stable_p50_us", Quantile(deferred, 0.5), "us");
  report_->Add("eunomia.ack_to_stable_p99_us", LayerTail(deferred), "us");
  report_->Add("eunomia.stable_batch_ops_p50", Quantile(stable_batch_sizes_, 0.5), "ops");
  report_->Add("eunomia.ordbuf_occupancy_p99", Quantile(occupancy_samples_, 0.99), "ops");
  report_->Add("eunomia.merge_queue_depth_p99", Quantile(merge_depth_samples_, 0.99), "ops");
  report_->Add("eunomia.frontier_lag_max_us", frontier_lag_max_us_, "us");
  report_->Add("trace_overhead", Ratio(stable_p50 - untraced_stable_p50, untraced_stable_p50),
               "ratio");
  for (std::size_t i = p.first; i < p.last; ++i) {
    const BatchRec& r = recs_[i];
    const std::int64_t intended = p.start_ns + r.intended_ns;
    const std::int64_t cs = r.call_start_ns.load(std::memory_order_relaxed);
    const std::int64_t ce = r.call_end_ns.load(std::memory_order_relaxed);
    const std::int64_t ack = r.ack_ns.load(std::memory_order_relaxed);
    const std::int64_t st = r.stable_ns.load(std::memory_order_relaxed);
    spans_->Add(i, "batch", "", intended, st);
    spans_->Add(i, "gen_lag", "batch", intended, cs);
    spans_->Add(i, "net.submit_call", "batch", cs, ce);
    spans_->Add(i, "net.ack_wait", "batch", ce, ack);
    spans_->Add(i, "eunomia.stabilize", "batch", ack, st);
  }
}

int OrderRun::Run() {
  Plan();
  report_->Note("generator_threads", std::to_string(generator_threads_));
  report_->Note("connections", std::to_string(connections_));
  report_->Note("server_shards", std::to_string(shards_));
  if (generator_threads_ > std::thread::hardware_concurrency() ||
      connections_ > std::thread::hardware_concurrency()) {
    std::fprintf(stderr, "thread/connection budget exceeds nproc\n");
    return 1;
  }
  const auto set_up = [this](bool metrics_on) {
    return [this, metrics_on](std::string* error) { return Setup(metrics_on, error); };
  };
  const auto tear_down = [this] { Teardown(); };
  // The end-to-end run reports the median of many set-ups; the traced run
  // sets up once with the registry off, and again with it on for the
  // traced phase, so trace_overhead covers the metrics layer.
  const auto setup_s = MedianSetupSeconds(args_.trace ? 1 : kSetups, set_up(false), tear_down);
  if (!setup_s) {
    return 1;
  }
  Phase& ref = phases_[0];
  Phase& second = phases_[1];
  RunPhase(&ref);
  const double peak_rss_mb = PeakRssMb();
  LayerCounters traced_before;
  LayerCounters traced_after;
  Snapshot server_ack_before;
  Snapshot server_ack_after;
  if (second.traced) {
    CheckConnections();
    Teardown();
    if (!MedianSetupSeconds(1, set_up(true), tear_down)) {
      return 1;
    }
    traced_before = LayerCounters::Read();
    server_ack_before = HistogramSnap(*registry_, "eunomia_server_ack_latency_microseconds");
  }
  RunPhase(&second);
  if (second.traced) {
    traced_after = LayerCounters::Read();
    server_ack_after = HistogramSnap(*registry_, "eunomia_server_ack_latency_microseconds");
  }
  for (const Phase& p : phases_) {
    std::fprintf(stderr, "order_tcp phase rate=%.0f traced=%d: sustained %.0f stabilized ops/s\n",
                 p.rate, p.traced ? 1 : 0, SustainedStableRate(p));
  }
  CheckConnections();
  Teardown();
  Audit();

  const std::vector<double> ack = Latencies(ref, 4);
  const std::vector<double> stable = Latencies(ref, 5);
  const auto ack99 = TailP99(ack);
  const auto stable99 = TailP99(stable);
  if (!ack99 || !stable99) {
    std::fprintf(stderr, "order_tcp: too few samples for a p99 at the reference rate\n");
    return 1;
  }
  report_->Note("samples_at_reference", std::to_string(stable.size()));
  if (!args_.trace) {
    const double max_rate = SustainedStableRate(second);
    WarnIfUnsaturated("order_tcp", second.rate, max_rate);
    report_->Add("setup_s", *setup_s, "s");
    report_->Add("peak_rss_mb", peak_rss_mb, "MB");
    report_->Add("max_rate_ops_s", max_rate, "ops/s");
    report_->Add("op_p50_us", Quantile(ack, 0.5), "us");
    report_->Add("visible_p50_us", Quantile(stable, 0.5), "us");
    report_->Add("visible_p90_us", Quantile(stable, 0.9), "us");
    return 0;
  }
  report_->Add("bench.op_p99_us", *ack99, "us");
  report_->Add("bench.visible_p99_us", *stable99, "us");
  ReportTraced(second, Quantile(stable, 0.5));
  const LayerCounters d = traced_after.Since(traced_before);
  const double window_s = static_cast<double>(second.duration_ns) / 1e9;
  double ops = 0;
  for (std::size_t i = second.first; i < second.last; ++i) {
    ops += recs_[i].n_ops;
  }
  AddTransportAndWalMetrics(report_, d, ops, ops, window_s);
  report_->Add("net.server_ack_p50_us",
               InterpolatedQuantile(Subtract(server_ack_after, server_ack_before), 0.5), "us");
  std::vector<ReplayOp> stream;
  for (std::size_t i = second.first; i < second.last; ++i) {
    for (std::uint32_t k = 0; k < recs_[i].n_ops; ++k) {
      stream.push_back({recs_[i].intended_ns, recs_[i].partition,
                        KeyOf(args_.seed, (static_cast<std::uint64_t>(i) << kOpBits) | k)});
    }
  }
  ReplayLayers(stream, kPartitions, report_);
  return 0;
}

}  // namespace

int RunOrderTcp(const RunArgs& args, Report* report, SpanLog* spans) {
  OrderRun run(args, report, spans);
  return run.Run();
}

}  // namespace perfbench
