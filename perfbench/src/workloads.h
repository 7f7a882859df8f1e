// The three workloads and the single-layer replays they share.
#pragma once

#include <cstdint>
#include <vector>

#include "perfbench/src/bench.h"

namespace perfbench {

// Returns 0 when the run finished (correct or not: violations go into the
// report), non-zero when the system could not even be set up.
int RunOrderTcp(const RunArgs& args, Report* report, SpanLog* spans);
int RunGeo(const RunArgs& args, bool write_heavy, Report* report, SpanLog* spans);

// One op of a recorded stream, for the single-layer replays.
struct ReplayOp {
  std::int64_t t_ns = 0;  // when it was (or would have been) submitted
  std::uint32_t partition = 0;
  std::uint64_t key = 0;
};

// Replays the stream, cut into per-partition batches per 1 ms interval,
// through the wire codec (EncodeSubmitBatchFrame, then FrameDecoder::Feed
// + DecodeSubmitBatch) and through a standalone EunomiaCore (AddBatch +
// one Heartbeat per partition per interval, then ProcessStable), and
// reports wire.encode_ns_per_op, wire.decode_ns_per_op,
// core.add_ns_per_op and core.extract_ns_per_op. A replay whose decoded or
// extracted ops differ from the input is a violation.
void ReplayLayers(const std::vector<ReplayOp>& ops, std::uint32_t partitions, Report* report);

}  // namespace perfbench
