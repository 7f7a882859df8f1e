// The unit of metadata flowing through Eunomia.
//
// With the data/metadata separation of §5, partitions do not send update
// values to Eunomia — only a lightweight record: the update's local
// timestamp, the origin partition, and a unique identifier (the paper uses
// (u.vts[m], Key)). The opaque `tag` lets the embedding system (the
// geo-replication layer, the native benchmark driver, tests) attach its own
// handle without the ordering core knowing about payloads.
#pragma once

#include <compare>
#include <cstdint>
#include <ostream>

#include "src/common/types.h"

namespace eunomia {

struct OpRecord {
  Timestamp ts = 0;          // scalar local timestamp assigned by the partition
  PartitionId partition = 0; // origin partition p_n
  Key key = 0;               // object identifier (part of the unique update id)
  std::uint64_t tag = 0;     // opaque handle for the embedding system

  friend bool operator==(const OpRecord&, const OpRecord&) = default;
  // Readable form for test failures and logs (GoogleTest prints through it).
  friend std::ostream& operator<<(std::ostream& os, const OpRecord& op) {
    return os << "{ts=" << op.ts << " p=" << op.partition << " key=" << op.key
              << " tag=" << op.tag << "}";
  }
};

// Total-order key for the ordered buffer. Property 2 makes (ts, partition)
// unique: one partition never reuses a timestamp, and ties across partitions
// are concurrent updates the paper allows to be processed in any (fixed)
// order — we break them by partition id for determinism.
struct OpOrderKey {
  Timestamp ts = 0;
  PartitionId partition = 0;

  friend bool operator==(const OpOrderKey&, const OpOrderKey&) = default;
  friend auto operator<=>(const OpOrderKey&, const OpOrderKey&) = default;
};

inline OpOrderKey OrderKeyOf(const OpRecord& op) { return {op.ts, op.partition}; }

}  // namespace eunomia
