#include "src/georep/runtime/chaos/invariants.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <sstream>

namespace eunomia::geo::rt::chaos {
namespace {

// Caps the detail spam of a mass violation (a planted bug can break every
// update) while keeping the full count visible.
class ViolationSink {
 public:
  ViolationSink(std::vector<Violation>* out, std::string invariant,
                std::size_t max_details)
      : out_(out), invariant_(std::move(invariant)), max_details_(max_details) {}

  ~ViolationSink() {
    if (total_ > emitted_) {
      out_->push_back({invariant_, "... and " +
                                       std::to_string(total_ - emitted_) +
                                       " more " + invariant_ + " violations"});
    }
  }

  void Add(const std::string& detail) {
    ++total_;
    if (emitted_ < max_details_) {
      ++emitted_;
      out_->push_back({invariant_, detail});
    }
  }

 private:
  std::vector<Violation>* out_;
  std::string invariant_;
  std::size_t max_details_;
  std::size_t total_ = 0;
  std::size_t emitted_ = 0;
};

// Every update ever installed anywhere, as its origin logged it.
std::vector<RemotePayload> CollectInstallLogs(const ChaosCluster& cluster) {
  std::vector<RemotePayload> all;
  for (DatacenterId o = 0; o < cluster.config().num_dcs; ++o) {
    for (const auto& rec : cluster.env().install_log(o)) {
      all.push_back(rec.payload);
    }
  }
  return all;
}

void CheckConvergence(const ChaosCluster& cluster,
                      const std::vector<RemotePayload>& all,
                      const InvariantOptions& options,
                      std::vector<Violation>* out) {
  ViolationSink sink(out, "convergence", options.max_details_per_invariant);
  // Oracle: fold every installed update under the store's own arbitration.
  // Supersedes is a strict total order, so the fold is order-independent.
  std::map<Key, GeoVersion> oracle;
  for (const RemotePayload& u : all) {
    auto [it, inserted] = oracle.try_emplace(u.key);
    if (inserted || GeoStore::Supersedes(u.vts, u.origin, it->second)) {
      it->second = GeoVersion{u.value, u.vts, u.origin};
    }
  }
  for (DatacenterId dc = 0; dc < cluster.config().num_dcs; ++dc) {
    const DatacenterRuntime* rt = cluster.runtime(dc);
    std::map<Key, GeoVersion> merged;
    for (PartitionId p = 0; p < cluster.config().partitions_per_dc; ++p) {
      rt->StoreAt(p).ForEach([&merged](Key key, const GeoVersion& v) {
        merged[key] = v;
      });
    }
    for (const auto& [key, expected] : oracle) {
      const auto it = merged.find(key);
      std::ostringstream os;
      if (it == merged.end()) {
        os << "dc=" << dc << " key=" << key << " missing (expected value='"
           << expected.value << "' vts=" << expected.vts.ToString() << ")";
        sink.Add(os.str());
        continue;
      }
      const GeoVersion& got = it->second;
      if (got.value != expected.value || !(got.vts == expected.vts) ||
          got.origin != expected.origin) {
        os << "dc=" << dc << " key=" << key << " diverged: got value='"
           << got.value << "' vts=" << got.vts.ToString() << " origin="
           << got.origin << ", expected value='" << expected.value
           << "' vts=" << expected.vts.ToString() << " origin="
           << expected.origin;
        sink.Add(os.str());
      }
    }
    for (const auto& [key, got] : merged) {
      if (oracle.find(key) == oracle.end()) {
        std::ostringstream os;
        os << "dc=" << dc << " key=" << key
           << " present but never logged as installed (value='" << got.value
           << "')";
        sink.Add(os.str());
      }
    }
  }
}

void CheckCausalOrder(const ChaosCluster& cluster,
                      const std::vector<RemotePayload>& all,
                      const InvariantOptions& options,
                      std::vector<Violation>* out) {
  constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();
  ViolationSink never_sink(out, "never-visible",
                           options.max_details_per_invariant);
  ViolationSink causal_sink(out, "causal-order",
                            options.max_details_per_invariant);
  const std::uint32_t num_dcs = cluster.config().num_dcs;
  // Per-origin update indices sorted by the origin's own (unique, scaled)
  // timestamp — the FIFO shipping order.
  std::vector<std::vector<std::size_t>> by_origin(num_dcs);
  for (std::size_t i = 0; i < all.size(); ++i) {
    by_origin[all[i].origin].push_back(i);
  }
  for (auto& idxs : by_origin) {
    std::sort(idxs.begin(), idxs.end(), [&all](std::size_t a, std::size_t b) {
      return all[a].vts[all[a].origin] < all[b].vts[all[b].origin];
    });
  }
  for (DatacenterId dest = 0; dest < num_dcs; ++dest) {
    // Visible time of each update at dest; kNever if it never became
    // visible (itself a violation — every fault heals before the check).
    std::vector<std::uint64_t> vis(all.size(), kNever);
    for (std::size_t i = 0; i < all.size(); ++i) {
      if (all[i].origin == dest) {
        continue;  // local installs are visible at creation
      }
      const auto t = cluster.tracker().VisibleAt(all[i].uid, dest);
      if (t.has_value()) {
        vis[i] = *t;
      } else {
        std::ostringstream os;
        os << "uid=" << all[i].uid << " origin=" << all[i].origin
           << " never became visible at dc=" << dest;
        never_sink.Add(os.str());
      }
    }
    // prefix_max[o][k] = latest visible time among origin o's first k+1
    // updates (in timestamp order). An update u may only be visible once
    // every w from o with w.vts[o] <= u.vts[o] is — so the prefix max up to
    // u's dependency bound must not exceed u's own visible time. With
    // o == u.origin this doubles as the per-origin FIFO check.
    std::vector<std::vector<std::uint64_t>> prefix_max(num_dcs);
    for (DatacenterId o = 0; o < num_dcs; ++o) {
      if (o == dest) {
        continue;
      }
      std::uint64_t running = 0;
      prefix_max[o].reserve(by_origin[o].size());
      for (const std::size_t i : by_origin[o]) {
        running = std::max(running, vis[i]);
        prefix_max[o].push_back(running);
      }
    }
    for (std::size_t i = 0; i < all.size(); ++i) {
      const RemotePayload& u = all[i];
      if (u.origin == dest || vis[i] == kNever) {
        continue;
      }
      for (DatacenterId o = 0; o < num_dcs; ++o) {
        if (o == dest) {
          continue;  // dependencies on dest's own updates are local
        }
        const auto& idxs = by_origin[o];
        // Count of o's updates that are dependencies of u. In vector mode
        // u.vts[o] is the exact timestamp of a real dependency, so the
        // bound is inclusive. In scalar mode u.vts[o] is u's *own*
        // timestamp; the hybrid clock stamps strictly above everything the
        // session observed, so an o-update with the same timestamp is
        // causally concurrent, not a dependency — the bound is strict.
        const auto bound =
            cluster.config().scalar_metadata
                ? std::lower_bound(idxs.begin(), idxs.end(), u.vts[o],
                                   [&all, o](std::size_t j, Timestamp ts) {
                                     return all[j].vts[o] < ts;
                                   })
                : std::upper_bound(idxs.begin(), idxs.end(), u.vts[o],
                                   [&all, o](Timestamp ts, std::size_t j) {
                                     return ts < all[j].vts[o];
                                   });
        const std::size_t count =
            static_cast<std::size_t>(bound - idxs.begin());
        if (count == 0) {
          continue;
        }
        const std::uint64_t dep_vis = prefix_max[o][count - 1];
        if (dep_vis > vis[i]) {
          std::ostringstream os;
          os << "dc=" << dest << ": uid=" << u.uid << " (origin=" << u.origin
             << ", vts=" << u.vts.ToString() << ") visible at t=" << vis[i]
             << " before its dependency from origin=" << o << " (dep visible"
             << (dep_vis == kNever ? " never"
                                   : " at t=" + std::to_string(dep_vis))
             << ")";
          causal_sink.Add(os.str());
        }
      }
    }
  }
}

void CheckQuiescenceAndStaleness(const ChaosCluster& cluster,
                                 const std::vector<RemotePayload>& all,
                                 const InvariantOptions& options,
                                 std::vector<Violation>* out) {
  ViolationSink sink(out, "quiescence", options.max_details_per_invariant);
  ViolationSink stale_sink(out, "staleness",
                           options.max_details_per_invariant);
  const std::uint32_t num_dcs = cluster.config().num_dcs;
  // Max installed timestamp per origin — what every receiver's SiteTime
  // entry must have reached once the world drains.
  std::vector<Timestamp> max_ts(num_dcs, 0);
  for (const RemotePayload& u : all) {
    max_ts[u.origin] = std::max(max_ts[u.origin], u.vts[u.origin]);
  }
  const std::uint64_t stride = cluster.config().partitions_per_dc;
  const std::uint64_t now_scaled = cluster.env().Now() * stride;
  for (DatacenterId dc = 0; dc < num_dcs; ++dc) {
    const DatacenterRuntime* rt = cluster.runtime(dc);
    if (rt == nullptr) {
      sink.Add("dc=" + std::to_string(dc) + " still crashed at check time");
      continue;
    }
    std::ostringstream os;
    if (rt->receiver().PendingCount() != 0) {
      os << "dc=" << dc << " receiver still holds "
         << rt->receiver().PendingCount() << " queued remote updates";
      sink.Add(os.str());
    }
    if (rt->BufferedPayloads() != 0) {
      os.str("");
      os << "dc=" << dc << " still buffers " << rt->BufferedPayloads()
         << " payloads awaiting metadata go-ahead";
      sink.Add(os.str());
    }
    if (rt->PendingApplyCount() != 0) {
      os.str("");
      os << "dc=" << dc << " has " << rt->PendingApplyCount()
         << " go-aheads parked waiting for payloads that never arrived";
      sink.Add(os.str());
    }
    for (DatacenterId k = 0; k < num_dcs; ++k) {
      if (k == dc) {
        continue;
      }
      if (rt->receiver().site_time()[k] != max_ts[k]) {
        os.str("");
        os << "dc=" << dc << " SiteTime[" << k << "]="
           << rt->receiver().site_time()[k] << " but origin " << k
           << " installed up to ts=" << max_ts[k];
        sink.Add(os.str());
      }
    }
    const Timestamp stable = rt->eunomia().StableTime();
    const std::uint64_t staleness_us =
        now_scaled > stable ? (now_scaled - stable) / stride : 0;
    if (staleness_us > options.staleness_bound_us) {
      os.str("");
      os << "dc=" << dc << " stable frontier is " << staleness_us
         << "us behind now (bound " << options.staleness_bound_us << "us)";
      stale_sink.Add(os.str());
    }
  }
}

}  // namespace

std::vector<Violation> CheckInvariants(const ChaosCluster& cluster,
                                       const InvariantOptions& options) {
  std::vector<Violation> out;
  const std::vector<RemotePayload> all = CollectInstallLogs(cluster);
  CheckConvergence(cluster, all, options, &out);
  CheckCausalOrder(cluster, all, options, &out);
  CheckQuiescenceAndStaleness(cluster, all, options, &out);
  return out;
}

}  // namespace eunomia::geo::rt::chaos
