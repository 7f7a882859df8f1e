// Integration tests for the networked service over the epoll TCP
// transport (src/net/) on 127.0.0.1: handshake rejection, the ack window,
// shutdown races, the fault-tolerant server, and the end-to-end acceptance
// property — the stable stream received over real TCP sockets is bit-for-bit
// the submitted ops in (ts, partition) order. The transport contract itself
// is pinned by transport_conformance_test.
#include <gtest/gtest.h>
#include "src/common/sync.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "src/net/epoll_transport.h"
#include "src/net/eunomia_client.h"
#include "src/net/eunomia_server.h"
#include "src/net/io_loop.h"
#include "tests/op_stream.h"

namespace eunomia::net {
namespace {

constexpr Timestamp kFarFutureTs = 1'000'000'000'000ULL;
constexpr char kListenAddress[] = "127.0.0.1:0";

bool WaitUntil(const std::function<bool()>& predicate,
               std::chrono::milliseconds budget = std::chrono::seconds(20)) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < deadline) {
    if (predicate()) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return predicate();
}

// Deterministic interleaved workload: `partitions` producer connections
// each submit `batches` batches of `ops_per_batch` ops with per-partition
// strictly increasing timestamps, racing each other; a subscriber records
// the stable stream. Returns the concatenated stream in arrival order.
struct WorkloadResult {
  std::vector<OpRecord> stable;
  bool stream_broken = false;
  bool ok = false;
};

constexpr std::uint32_t kPartitions = 4;
constexpr std::uint32_t kBatches = 25;
constexpr std::uint32_t kOpsPerBatch = 40;

// Op `i` of partition `p`'s batch `b`: timestamps are unique, increase
// within each partition and interleave across partitions.
OpRecord InterleavedOp(std::uint32_t p, std::uint32_t b, std::uint32_t i) {
  const Timestamp ts = static_cast<Timestamp>(b * kOpsPerBatch + i + 1) * 7 + p;
  return OpRecord{ts, p, /*key=*/ts ^ p, /*tag=*/b};
}

WorkloadResult RunInterleavedWorkload(Transport& transport) {
  WorkloadResult result;
  EunomiaServer::Options options;
  options.num_partitions = kPartitions;
  options.num_shards = 2;
  options.stable_period_us = 200;
  EunomiaServer server(&transport, options);
  const std::string address = server.Start(kListenAddress);
  if (address.empty()) {
    return result;
  }

  eunomia::sync::Mutex mu{"net_test::mu", eunomia::sync::kRankLeaf};
  EunomiaClient::Options sub_options;
  sub_options.subscribe = true;
  sub_options.on_stable = [&](const std::vector<OpRecord>& ops) {
    eunomia::sync::MutexLock lock(mu);
    result.stable.insert(result.stable.end(), ops.begin(), ops.end());
  };
  EunomiaClient subscriber(&transport, address, sub_options);
  if (!subscriber.Connect()) {
    return result;
  }

  const std::uint64_t total =
      static_cast<std::uint64_t>(kPartitions) * kBatches * kOpsPerBatch;
  std::atomic<bool> all_ok{true};
  std::vector<std::thread> producers;
  for (std::uint32_t p = 0; p < kPartitions; ++p) {
    producers.emplace_back([&, p] {
      EunomiaClient client(&transport, address, {});
      if (!client.Connect()) {
        all_ok.store(false);
        return;
      }
      for (std::uint32_t b = 0; b < kBatches; ++b) {
        std::vector<OpRecord> batch;
        batch.reserve(kOpsPerBatch);
        for (std::uint32_t i = 0; i < kOpsPerBatch; ++i) {
          batch.push_back(InterleavedOp(p, b, i));
        }
        if (!client.SubmitBatch(p, std::move(batch))) {
          all_ok.store(false);
          return;
        }
        std::this_thread::yield();
      }
      client.Heartbeat(p, kFarFutureTs);
      if (!client.WaitForAcks()) {
        all_ok.store(false);
      }
      client.Close();
    });
  }
  for (auto& producer : producers) {
    producer.join();
  }
  const bool streamed = WaitUntil(
      [&] { return subscriber.stable_ops_received() >= total; });
  result.stream_broken = subscriber.stream_broken();
  subscriber.Close();
  server.Stop();
  result.ok = all_ok.load() && streamed;
  return result;
}

// A task that posts another task leaves the queue non-empty when the loop
// goes back to epoll_wait. The loop must not block with that task queued:
// later cross-thread posts see a non-empty queue and do not write the
// wakeup fd, so a blocked loop would never run either of them.
TEST(IoLoopTest, PostsAfterATaskPostedByATaskStillRun) {
  IoLoop loop("net_test");
  std::atomic<int> ran{0};
  loop.Post([&] { loop.Post([&] { ran.fetch_add(1); }); });
  // Let the loop run the outer task and settle back into epoll_wait.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  loop.Post([&] { ran.fetch_add(1); });
  EXPECT_TRUE(WaitUntil([&] { return ran.load() == 2; },
                        std::chrono::seconds(2)));
  loop.Stop();
}

// The acceptance property: N client connections submitting interleaved
// batches to eunomiad's server over real TCP produce a stable stream that
// is bit-for-bit the submitted ops sorted by (ts, partition). Timestamps are
// unique, so the input alone fixes that stream, with no transport involved.
TEST(NetE2eTest, TcpStableStreamBitForBitMatchesSortedInput) {
  std::vector<OpRecord> expected;
  for (std::uint32_t p = 0; p < kPartitions; ++p) {
    for (std::uint32_t b = 0; b < kBatches; ++b) {
      for (std::uint32_t i = 0; i < kOpsPerBatch; ++i) {
        expected.push_back(InterleavedOp(p, b, i));
      }
    }
  }
  std::sort(expected.begin(), expected.end(),
            [](const OpRecord& a, const OpRecord& b) {
              return OrderKeyOf(a) < OrderKeyOf(b);
            });
  WorkloadResult result;
  {
    EpollTransport transport;
    result = RunInterleavedWorkload(transport);
  }
  ASSERT_TRUE(result.ok);
  EXPECT_FALSE(result.stream_broken);
  // Bit-for-bit: every field of every record, in the same order.
  EXPECT_TRUE(testenv::SameOpStream(result.stable, expected));
}

TEST(NetE2eTest, BackpressureWindowAdmitsEverythingEventually) {
  EpollTransport transport;
  EunomiaServer::Options options;
  options.num_partitions = 1;
  options.stable_period_us = 200;
  EunomiaServer server(&transport, options);
  const std::string address = server.Start(kListenAddress);
  ASSERT_FALSE(address.empty());
  EunomiaClient::Options client_options;
  client_options.max_inflight_ops = 64;  // tiny window: forces ack waits
  EunomiaClient client(&transport, address, client_options);
  ASSERT_TRUE(client.Connect());
  Timestamp ts = 0;
  for (int b = 0; b < 50; ++b) {
    std::vector<OpRecord> batch;
    for (int i = 0; i < 32; ++i) {
      batch.push_back(OpRecord{++ts, 0, 0, 0});
    }
    ASSERT_TRUE(client.SubmitBatch(0, std::move(batch)));
  }
  ASSERT_TRUE(client.WaitForAcks());
  EXPECT_EQ(client.ops_acked(), 50u * 32);
  // Every batch's ack round trip was measured.
  EXPECT_EQ(client.ack_latency_histogram()->count(), 50u);
  client.Heartbeat(0, kFarFutureTs);
  ASSERT_TRUE(WaitUntil([&] { return server.ops_stabilized() >= 50u * 32; }));
  client.Close();
  server.Stop();
}

TEST(NetE2eTest, ProtocolVersionMismatchClosesConnection) {
  EpollTransport transport;
  EunomiaServer::Options options;
  options.num_partitions = 1;
  EunomiaServer server(&transport, options);
  const std::string address = server.Start(kListenAddress);
  ASSERT_FALSE(address.empty());
  std::atomic<bool> closed{false};
  ConnectionHandler handler;
  handler.on_close = [&](Connection&, wire::WireError) { closed.store(true); };
  auto connection = transport.Dial(address, std::move(handler));
  ASSERT_NE(connection, nullptr);
  wire::HelloMsg hello;
  hello.protocol_version = 99;
  connection->SendFrame(wire::MsgType::kHello, wire::EncodeHello(hello));
  EXPECT_TRUE(WaitUntil([&] { return closed.load(); }));
  EXPECT_EQ(server.connections_rejected(), 1u);
  server.Stop();
}

TEST(NetE2eTest, FrameBeforeHelloIsRejected) {
  EpollTransport transport;
  EunomiaServer::Options options;
  options.num_partitions = 1;
  EunomiaServer server(&transport, options);
  const std::string address = server.Start(kListenAddress);
  ASSERT_FALSE(address.empty());
  std::atomic<bool> closed{false};
  ConnectionHandler handler;
  handler.on_close = [&](Connection&, wire::WireError) { closed.store(true); };
  auto connection = transport.Dial(address, std::move(handler));
  ASSERT_NE(connection, nullptr);
  connection->SendFrame(wire::MsgType::kSubmitBatch,
                        wire::EncodeSubmitBatch(0, {OpRecord{1, 0, 0, 0}}));
  EXPECT_TRUE(WaitUntil([&] { return closed.load(); }));
  server.Stop();
}

TEST(NetE2eTest, ServerStopWhileClientsAreSubmitting) {
  EpollTransport transport;
  EunomiaServer::Options options;
  options.num_partitions = 2;
  options.stable_period_us = 200;
  EunomiaServer server(&transport, options);
  const std::string address = server.Start(kListenAddress);
  ASSERT_FALSE(address.empty());
  // Two producers hammer submissions while the main thread stops the
  // server: the disconnect must surface as SubmitBatch returning false,
  // never as a crash or hang (the satellite regression this PR hardens).
  std::vector<std::thread> producers;
  std::atomic<bool> go{true};
  for (std::uint32_t p = 0; p < 2; ++p) {
    producers.emplace_back([&, p] {
      EunomiaClient client(&transport, address, {});
      if (!client.Connect()) {
        return;
      }
      Timestamp ts = 0;
      while (go.load(std::memory_order_relaxed)) {
        std::vector<OpRecord> batch;
        for (int i = 0; i < 16; ++i) {
          batch.push_back(OpRecord{++ts, p, 0, 0});
        }
        if (!client.SubmitBatch(p, std::move(batch))) {
          break;  // server went away — expected
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server.Stop();
  go.store(false);
  for (auto& producer : producers) {
    producer.join();
  }
  SUCCEED();
}

TEST(NetE2eTest, FtServerStabilizesOverTcp) {
  EpollTransport transport;
  EunomiaServer::Options options;
  options.fault_tolerant = true;
  options.num_partitions = 2;
  options.num_replicas = 3;
  options.stable_period_us = 200;
  EunomiaServer server(&transport, options);
  const std::string address = server.Start(kListenAddress);
  ASSERT_FALSE(address.empty());
  EunomiaClient client(&transport, address, {});
  ASSERT_TRUE(client.Connect());
  for (std::uint32_t p = 0; p < 2; ++p) {
    std::vector<OpRecord> batch;
    for (int i = 1; i <= 100; ++i) {
      batch.push_back(OpRecord{static_cast<Timestamp>(i), p, 0, 0});
    }
    ASSERT_TRUE(client.SubmitBatch(p, std::move(batch)));
    client.Heartbeat(p, kFarFutureTs);
  }
  ASSERT_TRUE(WaitUntil([&] { return server.ops_stabilized() >= 200; }));
  client.Close();
  server.Stop();
}

}  // namespace
}  // namespace eunomia::net
