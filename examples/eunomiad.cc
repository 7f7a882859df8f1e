// eunomiad — the standalone Eunomia service daemon.
//
// Hosts an EunomiaService (or, with --ft, an FtEunomiaService) behind a
// real TCP listener, turning the in-process stabilizer into the networked
// service the paper deploys (§6–§7: partitions connect to Eunomia over
// FIFO links and push batched operations; the stable stream comes back in
// global (ts, partition) order). Remote partitions use net::EunomiaClient.
//
//   eunomiad --port=7777 --partitions=16 --shards=4
//   eunomiad --ft --replicas=3 --partitions=8
//
// Flags:
//   --host=A           listen address       (default 127.0.0.1)
//   --port=N           listen port          (default 7777; 0 = ephemeral)
//   --partitions=N     partitions served    (default 16)
//   --shards=N         stabilizer shards    (default 4, non-FT only)
//   --period-us=N      stabilization fallback period (default 500)
//   --ft               fault-tolerant service (replicated, Alg. 4)
//   --replicas=N       FT replica count     (default 3)
//   --data-dir=PATH    write-ahead-log directory (non-FT only). The service
//                      logs every accepted batch before acking and recovers
//                      from the directory on startup, so a kill -9'd daemon
//                      restarted on the same directory loses no acked op.
//   --fsync=POLICY     commit | interval | off  (default commit; needs
//                      --data-dir)
//   --addr-file=PATH   write the bound address to PATH once listening
//                      (ephemeral-port orchestration, used by --crash-smoke)
//   --metrics-port=N   serve GET /metrics (Prometheus text exposition) and
//                      GET /healthz on --host:N (0 = ephemeral) and register
//                      the service's per-shard/per-partition series
//   --metrics-addr-file=PATH  write the bound metrics address to PATH
//                      (requires --metrics-port; used by --crash-smoke)
//   --smoke            self-drive: bind an ephemeral port, run a small
//                      multi-connection workload through net::EunomiaClient
//                      over real sockets, verify the stable stream arrives
//                      complete and in order, exit 0/1. Used by ctest/CI.
//   --crash-smoke      durability self-test: re-exec this binary as a durable
//                      child server, ack a write wave, SIGKILL the child
//                      mid-run, restart it on the same data dir and verify
//                      every acked op comes back on the stable stream.
//
// The daemon runs until SIGINT/SIGTERM, printing a stats line every few
// seconds (connections, ops received, ops stabilized).
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>
#include "src/common/sync.h"

#include "bench/flags.h"
#include "src/metrics/metrics_server.h"
#include "src/metrics/registry.h"
#include "src/net/eunomia_client.h"
#include "src/net/eunomia_server.h"
#include "src/net/epoll_transport.h"
#include "src/wal/disk.h"
#include "src/wal/log_writer.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

using eunomia::metrics::SeriesSum;

// The ctest/CI smoke path: everything in-process, but every byte crosses a
// real loopback socket. Verifies the end-to-end contract: N connections of
// interleaved batches in, one complete stable stream out, in (ts, partition)
// order.
int RunSmoke(eunomia::net::EunomiaServer::Options options) {
  using namespace eunomia;
  options.num_partitions = 4;
  options.stable_period_us = 200;
  options.metrics = &metrics::Registry::Default();
  metrics::MetricsServer metrics_server;
  const std::string metrics_address = metrics_server.Start("127.0.0.1:0");
  if (metrics_address.empty()) {
    std::fprintf(stderr, "eunomiad --smoke: could not bind a metrics port\n");
    return 1;
  }
  net::EpollTransport transport;
  net::EunomiaServer server(&transport, options);
  const std::string address = server.Start("127.0.0.1:0");
  if (address.empty()) {
    std::fprintf(stderr, "eunomiad --smoke: could not bind a port\n");
    return 1;
  }
  std::printf("eunomiad --smoke: serving on %s, metrics on %s\n",
              address.c_str(), metrics_address.c_str());

  eunomia::sync::Mutex mu{"eunomiad::mu", eunomia::sync::kRankLeaf};
  std::vector<OpRecord> stable;
  net::EunomiaClient::Options sub_options;
  sub_options.subscribe = true;
  sub_options.on_stable = [&](const std::vector<OpRecord>& ops) {
    eunomia::sync::MutexLock lock(mu);
    stable.insert(stable.end(), ops.begin(), ops.end());
  };
  net::EunomiaClient subscriber(&transport, address, sub_options);
  if (!subscriber.Connect()) {
    std::fprintf(stderr, "eunomiad --smoke: subscriber failed to connect\n");
    return 1;
  }

  constexpr std::uint32_t kBatches = 50;
  constexpr std::uint32_t kOpsPerBatch = 100;
  const std::uint64_t total = 4ull * kBatches * kOpsPerBatch;
  std::vector<std::thread> producers;
  std::atomic<bool> ok{true};
  for (std::uint32_t p = 0; p < 4; ++p) {
    producers.emplace_back([&, p] {
      net::EunomiaClient client(&transport, address, {});
      if (!client.Connect()) {
        ok.store(false);
        return;
      }
      for (std::uint32_t b = 0; b < kBatches && ok.load(); ++b) {
        std::vector<OpRecord> batch;
        for (std::uint32_t i = 0; i < kOpsPerBatch; ++i) {
          const Timestamp ts =
              static_cast<Timestamp>(b * kOpsPerBatch + i + 1) * 5 + p;
          batch.push_back(OpRecord{ts, p, ts, b});
        }
        if (!client.SubmitBatch(p, std::move(batch))) {
          ok.store(false);
        }
      }
      client.Heartbeat(p, 1'000'000'000'000ULL);
      if (!client.WaitForAcks()) {
        ok.store(false);
      }
      client.Close();
    });
  }
  for (auto& producer : producers) {
    producer.join();
  }
  // Mid-run scrape: every batch is in, the stable stream may still be
  // draining. The second scrape below must never show a smaller counter.
  std::string scrape1;
  if (!metrics::HttpGet(metrics_address, "/metrics", &scrape1)) {
    std::fprintf(stderr, "eunomiad --smoke: mid-run GET /metrics failed\n");
    return 1;
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (subscriber.stable_ops_received() < total &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  bool ordered = true;
  {
    eunomia::sync::MutexLock lock(mu);
    for (std::size_t i = 1; i < stable.size(); ++i) {
      if (!(OrderKeyOf(stable[i - 1]) < OrderKeyOf(stable[i]))) {
        ordered = false;
      }
    }
  }
  const std::uint64_t received = subscriber.stable_ops_received();
  const bool stream_ok = !subscriber.stream_broken();

  // Self-scrape: the endpoint must serve /healthz and a text exposition in
  // which the key series exist and the counters never moved backwards
  // between the two scrapes.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // a shard tick
  std::string health;
  std::string scrape2;
  bool metrics_ok = metrics::HttpGet(metrics_address, "/healthz", &health) &&
                    health == "ok\n" &&
                    metrics::HttpGet(metrics_address, "/metrics", &scrape2);
  if (metrics_ok) {
    metrics_ok =
        SeriesSum(scrape2, "eunomia_server_ack_latency_microseconds_count") >
            0 &&
        SeriesSum(scrape2, "eunomia_net_frames_in_total") > 0;
    if (!options.fault_tolerant) {
      // Service-level series ride the non-FT path only.
      bool lag_found = false;
      bool occupancy_found = false;
      SeriesSum(scrape2, "eunomia_service_partition_frontier_lag", &lag_found);
      SeriesSum(scrape2, "eunomia_service_ordbuf_occupancy", &occupancy_found);
      metrics_ok =
          metrics_ok && lag_found && occupancy_found &&
          SeriesSum(scrape2, "eunomia_service_ops_stabilized_total") > 0;
    }
    for (const char* counter :
         {"eunomia_service_ops_received_total",
          "eunomia_service_ops_stabilized_total", "eunomia_net_frames_in_total",
          "eunomia_net_bytes_out_total",
          "eunomia_server_ack_latency_microseconds_count"}) {
      metrics_ok =
          metrics_ok && SeriesSum(scrape2, counter) >= SeriesSum(scrape1, counter);
    }
  }

  subscriber.Close();
  server.Stop();
  metrics_server.Stop();
  if (!ok.load() || received != total || !ordered || !stream_ok ||
      !metrics_ok) {
    std::fprintf(stderr,
                 "eunomiad --smoke: FAILED (clients ok=%d, received %llu/%llu, "
                 "ordered=%d, stream intact=%d, metrics ok=%d)\n",
                 ok.load() ? 1 : 0, static_cast<unsigned long long>(received),
                 static_cast<unsigned long long>(total), ordered ? 1 : 0,
                 stream_ok ? 1 : 0, metrics_ok ? 1 : 0);
    return 1;
  }
  std::printf(
      "eunomiad --smoke: OK — %llu ops over %u TCP connections, stable "
      "stream complete and in (ts, partition) order; /metrics served %zu "
      "bytes with key series present and monotone\n",
      static_cast<unsigned long long>(total), 4u, scrape2.size());
  return 0;
}

// ---------------------------------------------------------------------------
// --crash-smoke: the kill -9 end-to-end. The parent re-execs this binary as
// a durable child server (--data-dir on a fresh temp directory,
// --fsync=commit), then:
//
//   1. submits a write wave to partition 0 only and waits for the acks —
//      under fsync=commit an acked batch is on disk. Partition 1 never
//      receives an op or heartbeat, so NOTHING stabilizes: the stable stream
//      stays empty, pre-crash and right after recovery, until the parent
//      says so. That makes the verification race-free — a subscriber
//      connected after the restart cannot miss re-emitted ops.
//   2. starts a churn client hammering more (unacked) batches and SIGKILLs
//      the child mid-stream — a genuine kill -9, no flush, no warning.
//   3. respawns the child on the same data dir, subscribes, and only then
//      heartbeats both partitions past every wave: recovery must re-emit
//      every acked wave-1 op (the WAL is the only place they still exist),
//      followed by a live wave-2 proving the restarted service still serves.
//
// Checks: every acked op arrives, nothing arrives that was never submitted,
// and the stream is strictly (ts, partition) ordered.

std::string SelfExe() {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) {
    return {};
  }
  buf[n] = '\0';
  return buf;
}

pid_t SpawnDurableServer(const std::string& exe, const std::string& data_dir,
                         const std::string& addr_file) {
  const pid_t pid = fork();
  if (pid != 0) {
    return pid;
  }
  prctl(PR_SET_PDEATHSIG, SIGKILL);  // no orphaned servers if the parent dies
  const std::string data_dir_arg = "--data-dir=" + data_dir;
  const std::string addr_file_arg = "--addr-file=" + addr_file;
  const std::string metrics_file_arg =
      "--metrics-addr-file=" + data_dir + "/metrics-address";
  execl(exe.c_str(), exe.c_str(), "--port=0", "--partitions=2",
        "--period-us=200", "--fsync=commit", "--metrics-port=0",
        data_dir_arg.c_str(), addr_file_arg.c_str(),
        metrics_file_arg.c_str(), static_cast<char*>(nullptr));
  _exit(127);
}

// Polls for the child's atomically-renamed address file. Empty on timeout or
// child death.
std::string AwaitAddress(const std::string& addr_file, pid_t child) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline) {
    int status = 0;
    if (waitpid(child, &status, WNOHANG) == child) {
      return {};
    }
    if (std::FILE* f = std::fopen(addr_file.c_str(), "r")) {
      char buf[256] = {};
      const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
      std::fclose(f);
      std::string address(buf, n);
      while (!address.empty() &&
             (address.back() == '\n' || address.back() == '\r')) {
        address.pop_back();
      }
      if (!address.empty()) {
        return address;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return {};
}

// Submits `kBatches` batches to `partition` starting above `base`; records
// every op key into `submitted`. Waits for all acks.
constexpr std::uint32_t kCrashBatches = 10;
constexpr std::uint32_t kCrashOpsPerBatch = 50;

bool SubmitAckedWave(eunomia::net::Transport* transport,
                     const std::string& address, eunomia::PartitionId partition,
                     eunomia::Timestamp base,
                     std::set<eunomia::OpOrderKey>* submitted) {
  using namespace eunomia;
  net::EunomiaClient client(transport, address, {});
  if (!client.Connect()) {
    return false;
  }
  for (std::uint32_t b = 0; b < kCrashBatches; ++b) {
    std::vector<OpRecord> batch;
    for (std::uint32_t i = 0; i < kCrashOpsPerBatch; ++i) {
      const Timestamp ts = base + b * kCrashOpsPerBatch + i + 1;
      batch.push_back(OpRecord{ts, partition, ts, b});
      submitted->insert(OpOrderKey{ts, partition});
    }
    if (!client.SubmitBatch(partition, std::move(batch))) {
      return false;
    }
  }
  const bool acked = client.WaitForAcks();
  client.Close();
  return acked;
}

int RunCrashSmoke() {
  using namespace eunomia;
  const std::string exe = SelfExe();
  if (exe.empty()) {
    std::fprintf(stderr, "eunomiad --crash-smoke: readlink(/proc/self/exe)\n");
    return 1;
  }
  char dir_template[] = "/tmp/eunomiad-crash-XXXXXX";
  if (mkdtemp(dir_template) == nullptr) {
    std::fprintf(stderr, "eunomiad --crash-smoke: mkdtemp failed\n");
    return 1;
  }
  const std::string data_dir = dir_template;
  const std::string addr_file = data_dir + "/address";
  auto cleanup = [&] {
    std::error_code ec;
    std::filesystem::remove_all(data_dir, ec);
  };

  pid_t child = SpawnDurableServer(exe, data_dir, addr_file);
  std::string address = AwaitAddress(addr_file, child);
  if (address.empty()) {
    std::fprintf(stderr, "eunomiad --crash-smoke: child never came up\n");
    cleanup();
    return 1;
  }
  std::printf("eunomiad --crash-smoke: durable child pid %d on %s (%s)\n",
              static_cast<int>(child), address.c_str(), data_dir.c_str());

  // Wave 1: acked ops on partition 0 only. Partition 1 stays silent, so the
  // stable frontier is pinned at 0 until the post-restart heartbeats.
  net::EpollTransport transport;
  std::set<OpOrderKey> wave1;
  if (!SubmitAckedWave(&transport, address, /*partition=*/0, /*base=*/0,
                       &wave1)) {
    std::fprintf(stderr, "eunomiad --crash-smoke: wave 1 failed\n");
    cleanup();
    return 1;
  }

  // Churn: more partition-0 batches in flight, deliberately never awaited —
  // the kill lands mid-stream. Whatever subset reached the log may
  // legitimately reappear after recovery; none of it is *required* to.
  const Timestamp churn_base = 100'000;
  std::set<OpOrderKey> churn;
  std::thread churn_thread([&] {
    net::EunomiaClient client(&transport, address, {});
    if (!client.Connect()) {
      return;
    }
    for (std::uint32_t b = 0; b < kCrashBatches; ++b) {
      std::vector<OpRecord> batch;
      for (std::uint32_t i = 0; i < kCrashOpsPerBatch; ++i) {
        const Timestamp ts = churn_base + b * kCrashOpsPerBatch + i + 1;
        batch.push_back(OpRecord{ts, 0, ts, b});
      }
      if (!client.SubmitBatch(0, std::move(batch))) {
        break;  // expected once the child dies
      }
    }
    client.Close();
  });
  for (std::uint32_t k = 1; k <= kCrashBatches * kCrashOpsPerBatch; ++k) {
    churn.insert(OpOrderKey{churn_base + k, 0});
  }

  kill(child, SIGKILL);
  int status = 0;
  waitpid(child, &status, 0);
  churn_thread.join();
  std::remove(addr_file.c_str());
  const std::string metrics_addr_file = data_dir + "/metrics-address";
  std::remove(metrics_addr_file.c_str());
  std::printf("eunomiad --crash-smoke: killed -9 mid-churn, respawning on the "
              "same data dir\n");

  child = SpawnDurableServer(exe, data_dir, addr_file);
  address = AwaitAddress(addr_file, child);
  if (address.empty()) {
    std::fprintf(stderr,
                 "eunomiad --crash-smoke: child did not recover/restart\n");
    cleanup();
    return 1;
  }

  // Recovery runs in the child's server construction, before it listens: by
  // the time the address files exist its recovery counters are final. Both
  // must be nonzero — wave 1 is on disk and nowhere else.
  bool recovery_counted = false;
  {
    const std::string metrics_address =
        AwaitAddress(metrics_addr_file, child);
    std::string scrape;
    if (!metrics_address.empty() &&
        metrics::HttpGet(metrics_address, "/metrics", &scrape)) {
      recovery_counted =
          SeriesSum(scrape, "eunomia_wal_recovered_records_total") > 0 &&
          SeriesSum(scrape, "eunomia_service_recovered_batches_total") > 0;
    }
  }

  // Subscribe first, release the frontier second: every recovered op is
  // re-emitted after this subscription exists.
  eunomia::sync::Mutex mu{"eunomiad::crash_mu", eunomia::sync::kRankLeaf};
  std::vector<OpRecord> stable;
  net::EunomiaClient::Options sub_options;
  sub_options.subscribe = true;
  sub_options.on_stable = [&](const std::vector<OpRecord>& ops) {
    eunomia::sync::MutexLock lock(mu);
    stable.insert(stable.end(), ops.begin(), ops.end());
  };
  net::EunomiaClient subscriber(&transport, address, sub_options);
  if (!subscriber.Connect()) {
    std::fprintf(stderr, "eunomiad --crash-smoke: subscriber reconnect\n");
    cleanup();
    return 1;
  }

  // Wave 2 (both partitions, above every wave-1/churn ts), then the
  // frontier-releasing heartbeats.
  const Timestamp wave2_base = 2'000'000;
  std::set<OpOrderKey> wave2;
  bool wave2_ok =
      SubmitAckedWave(&transport, address, /*partition=*/0, wave2_base,
                      &wave2) &&
      SubmitAckedWave(&transport, address, /*partition=*/1,
                      wave2_base + 50'000, &wave2);
  {
    net::EunomiaClient beater(&transport, address, {});
    wave2_ok = wave2_ok && beater.Connect();
    if (wave2_ok) {
      beater.Heartbeat(0, 10'000'000);
      beater.Heartbeat(1, 10'000'000);
      wave2_ok = beater.WaitForAcks();
      beater.Close();
    }
  }
  if (!wave2_ok) {
    std::fprintf(stderr, "eunomiad --crash-smoke: wave 2 failed\n");
    cleanup();
    return 1;
  }

  // Everything required must now arrive: wave 1 from the WAL, wave 2 live.
  const std::uint64_t required = wave1.size() + wave2.size();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (subscriber.stable_ops_received() < required &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  bool ordered = true;
  bool only_submitted = true;
  std::set<OpOrderKey> seen;
  {
    eunomia::sync::MutexLock lock(mu);
    for (std::size_t i = 0; i < stable.size(); ++i) {
      const OpOrderKey key = OrderKeyOf(stable[i]);
      if (i > 0 && !(OrderKeyOf(stable[i - 1]) < key)) {
        ordered = false;
      }
      if (wave1.count(key) == 0 && wave2.count(key) == 0 &&
          churn.count(key) == 0) {
        only_submitted = false;
      }
      seen.insert(key);
    }
  }
  auto contains_all = [&seen](const std::set<OpOrderKey>& want) {
    for (const OpOrderKey& key : want) {
      if (seen.count(key) == 0) {
        return false;
      }
    }
    return true;
  };
  const bool wave1_recovered = contains_all(wave1);
  const bool wave2_arrived = contains_all(wave2);
  const bool stream_ok = !subscriber.stream_broken();
  subscriber.Close();
  kill(child, SIGKILL);
  waitpid(child, &status, 0);
  cleanup();

  if (!wave1_recovered || !wave2_arrived || !ordered || !only_submitted ||
      !stream_ok || !recovery_counted) {
    std::fprintf(stderr,
                 "eunomiad --crash-smoke: FAILED (wave1 recovered=%d, wave2=%d,"
                 " ordered=%d, only_submitted=%d, stream intact=%d,"
                 " recovery counters=%d, seen=%zu)\n",
                 wave1_recovered ? 1 : 0, wave2_arrived ? 1 : 0,
                 ordered ? 1 : 0, only_submitted ? 1 : 0, stream_ok ? 1 : 0,
                 recovery_counted ? 1 : 0, seen.size());
    return 1;
  }
  std::printf(
      "eunomiad --crash-smoke: OK — all %zu acked pre-kill ops re-emitted "
      "after kill -9 + recovery (recovery counters nonzero on /metrics), "
      "%zu live ops followed, stream in order\n",
      wave1.size(), wave2.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  eunomia::bench::Flags flags(
      argc, argv,
      {"host", "port", "partitions", "shards", "period-us", "ft", "replicas",
       "data-dir", "fsync", "addr-file", "metrics-port", "metrics-addr-file",
       "smoke", "crash-smoke"});
  if (!flags.ok()) {
    return flags.FailUsage();
  }
  if (flags.Has("crash-smoke")) {
    return RunCrashSmoke();
  }
  eunomia::net::EunomiaServer::Options options;
  options.fault_tolerant = flags.Has("ft");
  options.num_partitions =
      static_cast<std::uint32_t>(flags.GetUint("partitions", 16));
  options.num_shards = static_cast<std::uint32_t>(flags.GetUint("shards", 4));
  options.num_replicas =
      static_cast<std::uint32_t>(flags.GetUint("replicas", 3));
  options.stable_period_us = flags.GetUint("period-us", 500);
  std::unique_ptr<eunomia::wal::PosixDisk> disk;
  const std::string data_dir = flags.Get("data-dir", "");
  if (!data_dir.empty()) {
    if (options.fault_tolerant) {
      std::fprintf(stderr, "--data-dir is not supported with --ft\n");
      return 2;
    }
    disk = std::make_unique<eunomia::wal::PosixDisk>(data_dir);
    if (!disk->ok()) {
      std::fprintf(stderr, "eunomiad: cannot open --data-dir=%s\n",
                   data_dir.c_str());
      return 1;
    }
    options.durability.disk = disk.get();
    if (!eunomia::wal::ParseFsyncPolicy(flags.Get("fsync", "commit"),
                                        &options.durability.fsync)) {
      std::fprintf(stderr, "--fsync must be commit, interval or off (got '%s')\n",
                   flags.Get("fsync", "commit").c_str());
      return 2;
    }
  } else if (flags.Has("fsync")) {
    std::fprintf(stderr, "--fsync requires --data-dir\n");
    return 2;
  }
  if (flags.smoke()) {
    return RunSmoke(options);
  }
  if (flags.Has("metrics-addr-file") && !flags.Has("metrics-port")) {
    std::fprintf(stderr, "--metrics-addr-file requires --metrics-port\n");
    return 2;
  }
  // Before the server is constructed: the hosted service registers its
  // per-shard/per-partition series at construction.
  if (flags.Has("metrics-port")) {
    options.metrics = &eunomia::metrics::Registry::Default();
  }

  const std::string address = flags.Get("host", "127.0.0.1") + ":" +
                              std::to_string(flags.GetUint("port", 7777));
  eunomia::net::EpollTransport transport;
  eunomia::net::EunomiaServer server(&transport, options);
  const std::string bound = server.Start(address);
  if (bound.empty()) {
    std::fprintf(stderr, "eunomiad: could not listen on %s\n", address.c_str());
    return 1;
  }
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  // Temp-then-rename so a polling orchestrator never reads a partial write.
  const auto publish_address = [](const std::string& path,
                                  const std::string& value) {
    const std::string tmp = path + ".tmp";
    if (std::FILE* f = std::fopen(tmp.c_str(), "w")) {
      std::fprintf(f, "%s\n", value.c_str());
      std::fclose(f);
      std::rename(tmp.c_str(), path.c_str());
    }
  };
  eunomia::metrics::MetricsServer metrics_server;
  if (flags.Has("metrics-port")) {
    const std::string metrics_bound = metrics_server.Start(
        flags.Get("host", "127.0.0.1") + ":" +
        std::to_string(flags.GetUint("metrics-port", 0)));
    if (metrics_bound.empty()) {
      std::fprintf(stderr, "eunomiad: could not bind --metrics-port\n");
      server.Stop();
      return 1;
    }
    std::printf("eunomiad: metrics on http://%s/metrics\n",
                metrics_bound.c_str());
    const std::string metrics_addr_file = flags.Get("metrics-addr-file", "");
    if (!metrics_addr_file.empty()) {
      publish_address(metrics_addr_file, metrics_bound);
    }
  }
  const std::string addr_file = flags.Get("addr-file", "");
  if (!addr_file.empty()) {
    publish_address(addr_file, bound);
  }
  std::printf("eunomiad: serving %u partitions on %s (%s%s%s)\n",
              options.num_partitions, bound.c_str(),
              options.fault_tolerant ? "fault-tolerant" : "sharded",
              disk != nullptr ? ", wal fsync=" : "",
              disk != nullptr
                  ? eunomia::wal::FsyncPolicyName(options.durability.fsync)
                  : "");
  std::uint64_t last_stabilized = 0;
  int tick = 0;
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    if (++tick % 25 == 0) {  // every ~5 s
      const std::uint64_t stabilized = server.ops_stabilized();
      std::printf(
          "eunomiad: connections=%llu ops_received=%llu stabilized=%llu "
          "(+%llu)\n",
          static_cast<unsigned long long>(server.connections_accepted()),
          static_cast<unsigned long long>(server.ops_submitted_remote()),
          static_cast<unsigned long long>(stabilized),
          static_cast<unsigned long long>(stabilized - last_stabilized));
      last_stabilized = stabilized;
    }
  }
  std::printf("eunomiad: shutting down\n");
  metrics_server.Stop();
  server.Stop();
  return 0;
}
