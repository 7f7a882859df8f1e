// Receiver — Algorithm 5 of the paper.
//
// One receiver per datacenter coordinates the execution of remote updates.
// It keeps a FIFO queue of pending updates per remote datacenter (Queue_m[k])
// and SiteTime_m, a vector recording the latest update applied from each
// origin. An update u from origin k may be forwarded to its responsible
// partition when
//   (i)  all previously received updates from k have been applied (enforced
//        by processing Queue_m[k] in order, one in flight at a time), and
//   (ii) u's causal dependencies are visible locally:
//        SiteTime_m[d] >= u.vts[d] for every d != {m, k}.
// Dependencies on m's own updates need no check — they were created locally —
// and the k entry is covered by the FIFO discipline, exactly as in the paper.
//
// The apply step is asynchronous in the simulator (the partition's server
// queue executes it), so FLUSH is re-driven both periodically (CHECK_PENDING,
// every rho) and whenever an apply completes, which preserves the tail-
// recursive "restart from queue 1" behaviour of Algorithm 5. A binding may
// also complete an apply synchronously, inside the apply call (the real
// node does): the completion's FLUSH then lands inside the running one and
// returns at once, since that pass rescans after every apply it issues —
// a long run of ready updates drains in a loop, not one stack frame per
// applied update.
//
// Duplicate suppression: after an Eunomia leader failover (§3.3) a suffix of
// updates may be shipped twice. Any head with u.vts[k] <= SiteTime_m[k] has
// already been applied and is dropped.
#pragma once

#include <cassert>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "src/common/types.h"
#include "src/georep/remote_update.h"
#include "src/georep/vclock.h"

namespace eunomia::geo {

class Receiver {
 public:
  // apply(update, done): forward `update` to the responsible local partition;
  // invoke `done` once it has been executed there.
  using ApplyFn =
      std::function<void(const RemoteUpdate&, std::function<void()> done)>;

  // scalar_mode: dependency checking for the single-scalar metadata variant
  // (§4): an update's entries all equal its own timestamp, and the check
  // requires every other datacenter's *stable frontier* (beacon, see
  // OnFrontier) to have passed it with the corresponding queue drained —
  // the GentleRain "GST >= u.ts" condition.
  Receiver(DatacenterId self, std::uint32_t num_dcs, ApplyFn apply,
           bool scalar_mode = false)
      : self_(self),
        num_dcs_(num_dcs),
        scalar_mode_(scalar_mode),
        site_time_(num_dcs),
        frontier_(num_dcs, 0),
        queues_(num_dcs),
        in_flight_(num_dcs, false),
        in_flight_ts_(num_dcs, 0),
        apply_(std::move(apply)) {}

  // Stable-frontier beacon from datacenter d's Eunomia: every update from d
  // with timestamp <= `frontier` has already been shipped (FIFO) to us.
  // Only meaningful (and only consulted) in scalar mode.
  void OnFrontier(DatacenterId d, Timestamp frontier) {
    if (d < num_dcs_ && frontier > frontier_[d]) {
      frontier_[d] = frontier;
      Flush();
    }
  }

  // NEW_UPDATE (Alg. 5 lines 1-2).
  void OnRemoteUpdate(RemoteUpdate update) {
    assert(update.origin < num_dcs_ && update.origin != self_);
    queues_[update.origin].push_back(std::move(update));
    Flush();
  }

  // CHECK_PENDING (Alg. 5 lines 3-4) — re-drive the flush; also safe to call
  // at any time.
  void CheckPending() { Flush(); }

  // Crash-recovery bootstrap: restores the applied frontier recorded by a
  // durability snapshot, so the replay of already-applied inbound updates
  // is shed by the head duplicate check instead of re-applied. Only valid
  // on a fresh receiver, before any update has been queued or applied.
  void RestoreSiteTime(const VectorTimestamp& site_time) {
    assert(site_time.size() == num_dcs_);
    assert(applied_ == 0 && PendingCount() == 0);
    site_time_ = site_time;
  }

  const VectorTimestamp& site_time() const { return site_time_; }
  std::size_t PendingCount() const {
    std::size_t n = 0;
    for (const auto& q : queues_) {
      n += q.size();
    }
    return n;
  }
  std::uint64_t applied_count() const { return applied_; }
  std::uint64_t duplicate_count() const { return duplicates_; }
  // Last stable-frontier beacon accepted from datacenter d (scalar mode).
  // Monotone by construction: OnFrontier ignores regressions, which is what
  // makes a restarted origin's low re-announced frontier harmless.
  Timestamp frontier_of(DatacenterId d) const {
    return d < num_dcs_ ? frontier_[d] : 0;
  }

 private:
  bool DepsSatisfied(const RemoteUpdate& u) const {
    for (DatacenterId d = 0; d < num_dcs_; ++d) {
      if (d == self_ || d == u.origin) {
        continue;  // own updates are local; origin order is FIFO-enforced
      }
      if (scalar_mode_) {
        // All of d's updates with ts <= u.vts[d] must be applied: the beacon
        // says they were shipped; the queue/in-flight state says whether we
        // finished applying them. Equal timestamps across origins are
        // causally concurrent (a real dependency's timestamp was observed
        // strictly before the dependent update was stamped), so ties are
        // serialized by datacenter id — without the tie-break, two queue
        // heads carrying the same timestamp block each other forever.
        if (frontier_[d] < u.vts[d]) {
          return false;
        }
        if (in_flight_[d] &&
            (in_flight_ts_[d] < u.vts[d] ||
             (in_flight_ts_[d] == u.vts[d] && d < u.origin))) {
          return false;
        }
        if (!queues_[d].empty()) {
          const Timestamp head_ts = queues_[d].front().vts[d];
          if (head_ts < u.vts[d] ||
              (head_ts == u.vts[d] && d < u.origin)) {
            return false;
          }
        }
      } else if (site_time_[d] < u.vts[d]) {
        return false;
      }
    }
    return true;
  }

  // FLUSH (Alg. 5 lines 5-20), iterative form with at most one apply in
  // flight per origin queue. A nested call can only come from inside
  // apply_ (a synchronous completion), and the running pass rescans after
  // every apply, so it returns at once.
  void Flush() {
    if (flushing_) {
      return;
    }
    flushing_ = true;
    bool progress = true;
    while (progress) {
      progress = false;
      for (DatacenterId k = 0; k < num_dcs_; ++k) {
        if (k == self_ || in_flight_[k] || queues_[k].empty()) {
          continue;
        }
        RemoteUpdate& head = queues_[k].front();
        if (head.vts[k] <= site_time_[k]) {
          // Duplicate from a leader failover re-ship: already applied.
          ++duplicates_;
          queues_[k].pop_front();
          progress = true;
          continue;
        }
        if (!DepsSatisfied(head)) {
          continue;
        }
        in_flight_[k] = true;
        in_flight_ts_[k] = head.vts[k];
        const RemoteUpdate update = head;  // copy: queue may reallocate
        apply_(update, [this, k, ts = update.vts[k]] {
          assert(in_flight_[k]);
          in_flight_[k] = false;
          assert(!queues_[k].empty());
          site_time_[k] = ts;  // Alg. 5 line 16
          queues_[k].pop_front();
          ++applied_;
          Flush();  // Alg. 5 line 18: restart — applying may unblock others
        });
        progress = true;  // keep scanning the other queues
      }
    }
    flushing_ = false;
  }

  DatacenterId self_;
  std::uint32_t num_dcs_;
  bool scalar_mode_;
  VectorTimestamp site_time_;
  std::vector<Timestamp> frontier_;
  std::vector<std::deque<RemoteUpdate>> queues_;
  std::vector<bool> in_flight_;
  std::vector<Timestamp> in_flight_ts_;
  ApplyFn apply_;
  std::uint64_t applied_ = 0;
  std::uint64_t duplicates_ = 0;
  bool flushing_ = false;  // a Flush pass is running
};

}  // namespace eunomia::geo
