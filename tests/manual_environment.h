// A geo-runtime Environment driven by hand: timers wait in a queue the test
// drains, the local hops run inline (as GeoNode's do), and nothing crosses
// the WAN — each remote-metadata batch is recorded with the time it was
// sent instead. A partition flush reaches the runtime given to Attach, and
// is dropped without one. Used where a test must place an event between
// two turns.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "src/common/types.h"
#include "src/eunomia/op.h"
#include "src/georep/remote_update.h"
#include "src/georep/runtime/datacenter_runtime.h"
#include "src/georep/runtime/environment.h"

namespace eunomia::testenv {

class ManualEnvironment final : public geo::rt::Environment {
 public:
  void Attach(geo::rt::DatacenterRuntime* runtime) { runtime_ = runtime; }

  struct Shipped {
    std::uint64_t at_us = 0;
    DatacenterId to = 0;
    std::vector<geo::RemoteUpdate> batch;
  };

  std::uint64_t Now() const override { return now_us_; }
  void ScheduleAfter(DatacenterId, std::uint64_t delay_us,
                     std::function<void()> fn) override {
    queue_.emplace(std::make_pair(now_us_ + delay_us, next_seq_++),
                   std::move(fn));
  }
  void ClientHop(DatacenterId, std::function<void()> fn) override { fn(); }
  void RunOnPartition(DatacenterId, PartitionId, std::uint64_t, bool,
                      std::function<void()> fn) override {
    fn();
  }
  void SendMetadataBatch(DatacenterId, PartitionId partition,
                         std::vector<OpRecord> batch,
                         Timestamp frontier) override {
    if (runtime_ != nullptr) {
      runtime_->OnMetadataBatch(partition, batch, frontier);
    }
  }
  void ChargeEunomia(DatacenterId, std::uint64_t) override {}
  void SendRemoteMetadata(DatacenterId, DatacenterId to,
                          std::vector<geo::RemoteUpdate> batch) override {
    shipped_.push_back(Shipped{now_us_, to, std::move(batch)});
  }
  void SendFrontier(DatacenterId, DatacenterId, Timestamp) override {}
  void SendPayload(DatacenterId, DatacenterId, PartitionId,
                   geo::RemotePayload) override {}
  void SendApply(DatacenterId, PartitionId, std::function<void()> fn) override {
    fn();
  }

  // Runs the queued tasks due by now, in (due, seq) order, including the
  // ones they queue with no delay; the clock does not move. Returns how
  // many ran.
  int RunDue() { return AdvanceTo(now_us_); }

  // Moves the clock forward to `t_us`, stopping at each queued task's due
  // time to run it, in (due, seq) order. Returns how many ran.
  int AdvanceTo(std::uint64_t t_us) {
    int ran = 0;
    while (!queue_.empty() && queue_.begin()->first.first <= t_us) {
      now_us_ = std::max(now_us_, queue_.begin()->first.first);
      std::function<void()> fn = std::move(queue_.begin()->second);
      queue_.erase(queue_.begin());
      fn();
      ++ran;
    }
    now_us_ = std::max(now_us_, t_us);
    return ran;
  }

  const std::vector<Shipped>& shipped() const { return shipped_; }

 private:
  std::uint64_t now_us_ = 1'000'000;
  std::uint64_t next_seq_ = 0;
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::function<void()>>
      queue_;
  std::vector<Shipped> shipped_;
  geo::rt::DatacenterRuntime* runtime_ = nullptr;
};

}  // namespace eunomia::testenv
