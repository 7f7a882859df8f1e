// Pins the semantics of the production ordered buffer: EunomiaCore (over
// PartitionRunBuffer) must emit a bit-for-bit identical sequence to a
// test-local reference stabilizer built over the paper's §6 red-black tree,
// and over the AVL tree too, under randomized workloads — skewed
// partitions, heartbeat-only partitions, duplicate/non-monotone drops,
// ForceExtractUpTo — and the native services must emit exactly the sorted
// submitted stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/common/random.h"
#include "src/eunomia/core.h"
#include "src/eunomia/service.h"
#include "tests/op_stream.h"
#include "tests/reference/avl_buffer.h"
#include "tests/reference/rbtree_buffer.h"

namespace eunomia {
namespace {

// Algorithm 3 written out directly over a §6 tree buffer, sharing nothing
// with EunomiaCore but the OrderedBuffer concept: a per-partition
// PartitionTime, ops with ts <= PartitionTime dropped, and extraction of
// every op up to (bound, max partition).
template <typename Buffer>
class ReferenceStabilizer {
 public:
  ReferenceStabilizer(std::uint32_t num_partitions, PartitionId first_partition)
      : first_partition_(first_partition),
        ops_(num_partitions, first_partition),
        partition_time_(num_partitions, kTimestampZero) {}

  std::size_t AddBatch(const std::vector<OpRecord>& batch) {
    std::size_t accepted = 0;
    for (const OpRecord& op : batch) {
      Timestamp& time = partition_time_[op.partition - first_partition_];
      if (op.ts <= time) {
        ++monotonicity_violations_;
        continue;
      }
      ops_.Append(OrderKeyOf(op), op);
      time = op.ts;
      ++ops_received_;
      ++accepted;
    }
    return accepted;
  }

  void Heartbeat(PartitionId partition, Timestamp ts) {
    Timestamp& time = partition_time_[partition - first_partition_];
    time = std::max(time, ts);
  }

  Timestamp StableTime() const {
    return *std::min_element(partition_time_.begin(), partition_time_.end());
  }

  std::size_t ProcessStable(std::vector<OpRecord>* out) {
    return ForceExtractUpTo(StableTime(), out);
  }

  std::size_t ForceExtractUpTo(Timestamp bound, std::vector<OpRecord>* out) {
    if (bound == kTimestampZero) {
      return 0;
    }
    const std::size_t n = ops_.ExtractUpTo(
        OpOrderKey{bound, ~PartitionId{0}},
        [&](const OpOrderKey& key, OpRecord&& op) {
          last_emitted_ = key.ts;
          out->push_back(std::move(op));
        });
    ops_emitted_ += n;
    return n;
  }

  std::size_t pending_ops() const { return ops_.size(); }
  Timestamp partition_time(PartitionId p) const {
    return partition_time_[p - first_partition_];
  }
  Timestamp last_emitted() const { return last_emitted_; }
  std::uint64_t ops_received() const { return ops_received_; }
  std::uint64_t ops_emitted() const { return ops_emitted_; }
  std::uint64_t monotonicity_violations() const {
    return monotonicity_violations_;
  }

 private:
  PartitionId first_partition_;
  Buffer ops_;
  std::vector<Timestamp> partition_time_;
  Timestamp last_emitted_ = 0;
  std::uint64_t ops_received_ = 0;
  std::uint64_t ops_emitted_ = 0;
  std::uint64_t monotonicity_violations_ = 0;
};

using RbTreeReference = ReferenceStabilizer<ordbuf::RbTreeBuffer<OpRecord>>;
using AvlReference = ReferenceStabilizer<ordbuf::AvlBuffer<OpRecord>>;

template <typename Reference>
void ExpectSameObservableState(const Reference& reference,
                               const EunomiaCore& core) {
  ASSERT_EQ(reference.pending_ops(), core.pending_ops());
  ASSERT_EQ(reference.StableTime(), core.StableTime());
  ASSERT_EQ(reference.last_emitted(), core.last_emitted());
  ASSERT_EQ(reference.ops_received(), core.ops_received());
  ASSERT_EQ(reference.ops_emitted(), core.ops_emitted());
  ASSERT_EQ(reference.monotonicity_violations(),
            core.monotonicity_violations());
  for (PartitionId p = core.first_partition();
       p < core.first_partition() + core.num_partitions(); ++p) {
    ASSERT_EQ(reference.partition_time(p), core.partition_time(p));
  }
}

// The equivalence property test: drive the production core and both tree
// references through an identical randomized interleaving and require every
// emission — ProcessStable and ForceExtractUpTo alike — to match the
// rbtree reference exactly, op for op, byte for byte.
TEST(OrderedBufferEquivalenceTest, EmissionIsBitForBitIdenticalAcrossBackends) {
  Rng rng(0xE0B0F);
  for (int trial = 0; trial < 12; ++trial) {
    const std::uint32_t partitions =
        1 + static_cast<std::uint32_t>(rng.NextBounded(10));
    const std::uint32_t first_partition =
        static_cast<std::uint32_t>(rng.NextBounded(3)) * 16;
    RbTreeReference rbtree(partitions, first_partition);
    AvlReference avl(partitions, first_partition);
    EunomiaCore core(partitions, first_partition);
    const auto heartbeat_all = [&](PartitionId p, Timestamp ts) {
      rbtree.Heartbeat(p, ts);
      avl.Heartbeat(p, ts);
      core.Heartbeat(p, ts);
    };

    // A random subset of partitions is heartbeat-only: their streams move
    // PartitionTime without ever buffering ops (idle partitions, §3.2).
    std::vector<bool> heartbeat_only(partitions);
    for (std::uint32_t p = 0; p < partitions; ++p) {
      heartbeat_only[p] = rng.NextBool(0.25);
    }
    std::vector<Timestamp> next(partitions, 0);
    std::uint64_t tag = 0;

    for (int step = 0; step < 600; ++step) {
      // Skewed partition pick: min of two uniforms biases toward partition 0.
      const auto local_p = static_cast<std::uint32_t>(
          std::min(rng.NextBounded(partitions), rng.NextBounded(partitions)));
      const PartitionId p = first_partition + local_p;
      const int action = static_cast<int>(rng.NextBounded(100));
      if (action < 55) {
        // A timestamp-ordered batch, optionally poisoned with duplicate and
        // regressing timestamps that every stabilizer must drop identically.
        std::vector<OpRecord> batch;
        const std::uint64_t n = 1 + rng.NextBounded(24);
        for (std::uint64_t i = 0; i < n; ++i) {
          if (!batch.empty() && rng.NextBool(0.1)) {
            OpRecord dup = batch.back();  // duplicate: ts <= PartitionTime
            dup.tag = ++tag;
            batch.push_back(dup);
            continue;
          }
          next[local_p] += 1 + rng.NextBounded(40);
          batch.push_back(OpRecord{next[local_p], p, rng.NextBounded(1000), ++tag});
        }
        if (heartbeat_only[local_p]) {
          heartbeat_all(p, next[local_p]);
        } else {
          const std::size_t accepted = rbtree.AddBatch(batch);
          ASSERT_EQ(avl.AddBatch(batch), accepted);
          ASSERT_EQ(core.AddBatch(batch), accepted);
        }
      } else if (action < 75) {
        next[local_p] += rng.NextBounded(60);
        heartbeat_all(p, next[local_p]);
      } else if (action < 90) {
        std::vector<OpRecord> expect;
        const std::size_t n = rbtree.ProcessStable(&expect);
        std::vector<OpRecord> got_avl;
        ASSERT_EQ(avl.ProcessStable(&got_avl), n);
        ASSERT_TRUE(testenv::SameOpStream(got_avl, expect))
            << "trial " << trial << " step " << step;
        std::vector<OpRecord> got;
        ASSERT_EQ(core.ProcessStable(&got), n);
        ASSERT_TRUE(testenv::SameOpStream(got, expect))
            << "trial " << trial << " step " << step;
      } else {
        // The follower path: the (simulated) leader's notice may exceed the
        // local StableTime — it extracts past silent partitions.
        const Timestamp bound =
            rbtree.StableTime() + rng.NextBounded(2000);
        std::vector<OpRecord> expect;
        const std::size_t n = rbtree.ForceExtractUpTo(bound, &expect);
        std::vector<OpRecord> got_avl;
        ASSERT_EQ(avl.ForceExtractUpTo(bound, &got_avl), n);
        ASSERT_TRUE(testenv::SameOpStream(got_avl, expect))
            << "trial " << trial << " step " << step;
        std::vector<OpRecord> got;
        ASSERT_EQ(core.ForceExtractUpTo(bound, &got), n);
        ASSERT_TRUE(testenv::SameOpStream(got, expect))
            << "trial " << trial << " step " << step;
      }
      ExpectSameObservableState(rbtree, core);
      ExpectSameObservableState(avl, core);
    }

    // Drain completely and require the final emissions to agree too.
    for (std::uint32_t lp = 0; lp < partitions; ++lp) {
      heartbeat_all(first_partition + lp, next[lp] + 1'000'000);
    }
    std::vector<OpRecord> expect;
    rbtree.ProcessStable(&expect);
    std::vector<OpRecord> got_avl;
    avl.ProcessStable(&got_avl);
    ASSERT_TRUE(testenv::SameOpStream(got_avl, expect));
    std::vector<OpRecord> got;
    core.ProcessStable(&got);
    ASSERT_TRUE(testenv::SameOpStream(got, expect));
    ASSERT_EQ(avl.pending_ops(), 0u);
    ASSERT_EQ(core.pending_ops(), 0u);
  }
}

std::vector<OpRecord> SortedByOrderKey(std::vector<OpRecord> ops) {
  std::sort(ops.begin(), ops.end(), [](const OpRecord& a, const OpRecord& b) {
    return OrderKeyOf(a) < OrderKeyOf(b);
  });
  return ops;
}

// The single-shard service emits exactly the submitted ops in
// (ts, partition) order.
TEST(OrderedBufferEquivalenceTest, ServiceEmitsIdenticalSequencePerBackend) {
  constexpr std::uint32_t kPartitions = 6;
  constexpr std::uint64_t kOpsPerPartition = 400;
  EunomiaService::Options options;
  options.num_partitions = kPartitions;
  options.num_shards = 1;
  options.stable_period_us = 100;
  std::vector<OpRecord> emitted;
  options.sink = [&emitted](const std::vector<OpRecord>& batch) {
    emitted.insert(emitted.end(), batch.begin(), batch.end());
  };
  EunomiaService service(options);
  service.Start();
  std::vector<OpRecord> submitted;
  for (std::uint64_t i = 0; i < kOpsPerPartition; ++i) {
    for (PartitionId p = 0; p < kPartitions; ++p) {
      const OpRecord op{(i + 1) * 10 + p, p, p, i};
      submitted.push_back(op);
      std::vector<OpRecord> batch = service.AcquireBatchBuffer();
      batch.push_back(op);
      service.SubmitBatch(p, std::move(batch));
    }
  }
  for (PartitionId p = 0; p < kPartitions; ++p) {
    service.Heartbeat(p, kOpsPerPartition * 10 + 1000);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (service.ops_stabilized() < kOpsPerPartition * kPartitions &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  service.Stop();
  EXPECT_TRUE(
      testenv::SameOpStream(emitted, SortedByOrderKey(std::move(submitted))));
}

// The FT service stabilizes the full stream in (ts, partition) order, and
// the shared-batch fan-out keeps acking per partition.
TEST(OrderedBufferEquivalenceTest, FtServiceStabilizesOnEveryBackend) {
  FtEunomiaService::Options options;
  options.num_partitions = 3;
  options.num_replicas = 3;
  options.stable_period_us = 200;
  // Written by the leader's thread only; read after Stop joins it.
  std::vector<OpRecord> emitted;
  options.sink = [&emitted](const std::vector<OpRecord>& batch) {
    emitted.insert(emitted.end(), batch.begin(), batch.end());
  };
  FtEunomiaService service(options);
  service.Start();
  constexpr std::uint64_t kOps = 200;
  std::vector<OpRecord> submitted;
  for (std::uint64_t i = 0; i < kOps; ++i) {
    for (PartitionId p = 0; p < 3; ++p) {
      const OpRecord op{(i + 1) * 5 + p, p, 0, i};
      submitted.push_back(op);
      service.SubmitBatch(p, {op});
    }
  }
  for (PartitionId p = 0; p < 3; ++p) {
    service.Heartbeat(p, kOps * 5 + 100);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (service.ops_stabilized() < kOps * 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  service.Stop();
  EXPECT_EQ(service.ops_stabilized(), kOps * 3);
  EXPECT_TRUE(
      testenv::SameOpStream(emitted, SortedByOrderKey(std::move(submitted))));
  // The leader must have ingested (and cumulatively acked) every batch to
  // have emitted the full stream. Followers may be mid-drain at Stop, so
  // only the leader's frontier is exact.
  for (PartitionId p = 0; p < 3; ++p) {
    EXPECT_EQ(service.AckOf(0, p), kOps * 5 + p);
  }
}

}  // namespace
}  // namespace eunomia
