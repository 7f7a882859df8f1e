// Fault-tolerant Eunomia replica — Algorithm 4 of the paper.
//
// Each replica e_f embeds an EunomiaCore (Ops_f + PartitionTime_f). Batches
// from partitions may contain duplicates (the ReplicatedSender resends
// everything unacknowledged); NEW_BATCH filters them by comparing against
// PartitionTime_f[p_n] and returns the cumulative ACK for that partition.
//
// Only the current leader runs PROCESS_STABLE and ships ordered updates to
// remote datacenters; it then broadcasts the StableTime so followers can
// discard the ops the leader already processed (Alg. 4 lines 13-15). The
// leader is an optimization, not a correctness requirement: replicas do not
// coordinate, their outputs are deterministic functions of their inputs, so
// any replica can take over mid-stream and at worst re-ship a suffix that
// receivers deduplicate via SiteTime (see src/georep/receiver.h).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/types.h"
#include "src/eunomia/core.h"
#include "src/eunomia/op.h"

namespace eunomia {

class EunomiaReplica {
 public:
  EunomiaReplica(std::uint32_t replica_id, std::uint32_t num_partitions)
      : replica_id_(replica_id), core_(num_partitions) {}

  std::uint32_t replica_id() const { return replica_id_; }

  // NEW_BATCH (Alg. 4 lines 1-5). `batch` must be in timestamp order (the
  // senders guarantee it). Returns PartitionTime_f[p_n] — the cumulative
  // acknowledgement for the sending partition.
  Timestamp NewBatch(std::span<const OpRecord> batch, PartitionId partition) {
    // Re-sent duplicates (ops already seen) form a prefix of the ordered
    // batch — filtered per Alg. 4 line 2 *before* the core, so they are not
    // miscounted as Property 2 violations; the rest bulk-inserts through
    // the hinted run path.
    std::size_t first_new = 0;
    const Timestamp seen = core_.partition_time(partition);
    while (first_new < batch.size() && batch[first_new].ts <= seen) {
      ++first_new;
    }
    if (first_new < batch.size()) {
      core_.AddBatch(batch.subspan(first_new));
    }
    return core_.partition_time(partition);
  }

  void Heartbeat(PartitionId partition, Timestamp ts) {
    core_.Heartbeat(partition, ts);
  }

  // Leader path: PROCESS_STABLE (Alg. 4 lines 6-12). Emits stable ops in
  // order and returns the new StableTime to broadcast to the followers.
  struct StableResult {
    Timestamp stable_time = 0;
    std::size_t emitted = 0;
  };
  StableResult ProcessStable(std::vector<OpRecord>* out) {
    StableResult result;
    result.stable_time = core_.StableTime();
    result.emitted = core_.ProcessStable(out);
    return result;
  }

  // Follower path: STABLE(StableTime) (Alg. 4 lines 13-15) — drop ops the
  // leader already shipped. Followers discard *by the notified bound*, not
  // by recomputing their own StableTime: the leader may have heard from
  // partitions this replica has not, and the notice is authoritative.
  void OnStableNotice(Timestamp stable_time) {
    if (stable_time == 0) {
      return;
    }
    discard_buffer_.clear();
    core_.ForceExtractUpTo(stable_time, &discard_buffer_);
  }

  const EunomiaCore& core() const { return core_; }
  EunomiaCore& core() { return core_; }

 private:
  std::uint32_t replica_id_;
  EunomiaCore core_;
  std::vector<OpRecord> discard_buffer_;
};

}  // namespace eunomia
