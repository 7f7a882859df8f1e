// The environment seam of the geo-replication runtime.
//
// The EunomiaKV protocol is pure logic: all it needs from the outside world
// is a monotonic clock, timers and a handful of typed, asynchronous message
// sends. This interface captures exactly that surface, so one protocol
// implementation runs unchanged under the deterministic discrete-event
// simulator and over real threads and sockets — the FoundationDB split:
// one protocol, a simulated and a real world behind a narrow seam.
//
// Contract every binding must honour (the protocol depends on it):
//   - All calls into a DatacenterRuntime are serialized (the runtime is
//     single-threaded by construction; the binding provides the illusion).
//   - Timers and WAN traffic are asynchronous: a ScheduleAfter callback
//     and a SendRemoteMetadata/SendFrontier/SendPayload delivery run after
//     the caller returns, never reentrantly from inside the call.
//   - The five local hops (ClientHop, RunOnPartition, SendApply,
//     SendMetadataBatch, SendHeartbeat) may instead take effect before the
//     call returns, when the binding charges them no latency: GeoNode runs
//     them inline on its loop thread, the simulator queues them. The
//     runtime makes each such call its last step, and the receiver accepts
//     an apply that completes inside the apply call.
//   - SendMetadataBatch/SendHeartbeat (partition -> local Eunomia) and
//     SendRemoteMetadata/SendFrontier (Eunomia -> one remote receiver) are
//     FIFO per directed channel (§3.1 / §4). SendPayload has no ordering
//     guarantee at all (§5: payloads ship "with no ordering constraints").
//   - Now() is monotonic and in microseconds; bindings may anchor it
//     anywhere (sim time, steady_clock since start).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/types.h"
#include "src/eunomia/op.h"
#include "src/georep/remote_update.h"

namespace eunomia::geo::rt {

class Environment {
 public:
  virtual ~Environment() = default;

  // Monotonic microseconds.
  virtual std::uint64_t Now() const = 0;

  // Timer in datacenter `dc`'s execution context.
  virtual void ScheduleAfter(DatacenterId dc, std::uint64_t delay_us,
                             std::function<void()> fn) = 0;

  // One-way client <-> partition hop inside `dc` (a pure latency; the sim
  // binding charges the intra-DC hop, the real binding runs fn inline).
  virtual void ClientHop(DatacenterId dc, std::function<void()> fn) = 0;

  // Executes fn in partition (dc, partition)'s compute context, charging
  // cost_us of server capacity. priority selects the background lane
  // (remote-update application; see sim::Server::SubmitPriority).
  virtual void RunOnPartition(DatacenterId dc, PartitionId partition,
                              std::uint64_t cost_us, bool priority,
                              std::function<void()> fn) = 0;

  // FIFO link partition (dc, partition) -> dc's Eunomia node. Delivered to
  // DatacenterRuntime::OnMetadataBatch / OnHeartbeat.
  virtual void SendMetadataBatch(DatacenterId dc, PartitionId partition,
                                 std::vector<OpRecord> batch) = 0;
  virtual void SendHeartbeat(DatacenterId dc, PartitionId partition,
                             Timestamp ts) = 0;

  // Charges the Eunomia node for stabilization/extraction work (sim cost
  // model; a no-op for the real binding, where the work simply runs).
  virtual void ChargeEunomia(DatacenterId dc, std::uint64_t cost_us) = 0;

  // FIFO WAN link Eunomia@from -> receiver@to: ordered metadata and the
  // scalar-mode stable-frontier beacon. Delivered to OnRemoteMetadata /
  // OnFrontier at `to`.
  virtual void SendRemoteMetadata(DatacenterId from, DatacenterId to,
                                  std::vector<RemoteUpdate> batch) = 0;
  virtual void SendFrontier(DatacenterId from, DatacenterId to,
                            Timestamp frontier) = 0;

  // Unordered payload fan-out: partition (from, partition) -> its sibling
  // (to, partition). Delivered to OnPayload at `to`.
  virtual void SendPayload(DatacenterId from, DatacenterId to,
                           PartitionId partition, RemotePayload payload) = 0;

  // Local message receiver@dc -> partition (dc, partition): the APPLY
  // go-ahead of Algorithm 5 line 14. Both bindings keep a datacenter's
  // receiver and partitions in one process, so the message may carry a
  // closure.
  virtual void SendApply(DatacenterId dc, PartitionId partition,
                         std::function<void()> fn) = 0;
};

// Globally unique update-id allocation (u.id of §5). The sim binding shares
// one dense allocator across all datacenters (uids 0, 1, 2, ... in install
// order, exactly the pre-runtime behaviour the tests rely on); a real
// deployment gives each datacenter the strided stream uid ≡ dc (mod
// num_dcs), unique without coordination.
class UidAllocator {
 public:
  UidAllocator(std::uint64_t first, std::uint64_t stride)
      : next_(first), stride_(stride == 0 ? 1 : stride) {}

  std::uint64_t Next() {
    const std::uint64_t uid = next_;
    next_ += stride_;
    return uid;
  }

 private:
  std::uint64_t next_;
  std::uint64_t stride_;
};

}  // namespace eunomia::geo::rt
