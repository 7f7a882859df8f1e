#include <algorithm>
#include <string>

#include "perfbench/src/workloads.h"
#include "src/eunomia/core.h"
#include "src/net/wire.h"

namespace perfbench {

namespace wire = eunomia::net::wire;
using eunomia::OpRecord;

namespace {

constexpr std::int64_t kIntervalNs = 1'000'000;
// Each replay repeats until it has run this long, so short streams still
// give a steady per-op figure.
constexpr std::int64_t kMinReplayNs = 200'000'000;

struct ReplayBatch {
  std::int64_t interval = 0;
  std::uint32_t partition = 0;
  std::vector<OpRecord> ops;
};

std::vector<ReplayBatch> CutBatches(const std::vector<ReplayOp>& stream, std::uint32_t partitions) {
  std::vector<ReplayOp> sorted = stream;
  std::stable_sort(sorted.begin(), sorted.end(), [](const ReplayOp& a, const ReplayOp& b) {
    return a.t_ns / kIntervalNs != b.t_ns / kIntervalNs ? a.t_ns < b.t_ns
                                                        : a.partition < b.partition;
  });
  std::vector<ReplayBatch> out;
  // Timestamps: interval start in ns, made strictly increasing per
  // partition (Property 2), as a partition's hybrid clock would.
  std::vector<eunomia::Timestamp> last(partitions, 0);
  for (const ReplayOp& op : sorted) {
    const std::int64_t interval = op.t_ns / kIntervalNs;
    const std::uint32_t p = op.partition % partitions;
    if (out.empty() || out.back().interval != interval || out.back().partition != p) {
      out.push_back({interval, p, {}});
    }
    const auto ts = std::max<eunomia::Timestamp>(
        last[p] + 1, static_cast<eunomia::Timestamp>(interval * kIntervalNs) + 1);
    last[p] = ts;
    out.back().ops.push_back({ts, p, op.key, out.back().ops.size()});
  }
  return out;
}

}  // namespace

void ReplayLayers(const std::vector<ReplayOp>& stream, std::uint32_t partitions, Report* report) {
  const std::vector<ReplayBatch> batches = CutBatches(stream, partitions);
  std::uint64_t ops = 0;
  for (const ReplayBatch& b : batches) {
    ops += b.ops.size();
  }
  if (ops == 0) {
    report->Violation("replay: empty op stream");
    return;
  }

  // Wire: encode every batch into one byte stream, then decode it back.
  std::string stream_bytes;
  std::uint64_t encoded_ops = 0;
  std::int64_t encode_ns = 0;
  while (encode_ns < kMinReplayNs) {
    stream_bytes.clear();
    std::uint64_t seq = 0;
    const std::int64_t t0 = NowNs();
    for (const ReplayBatch& b : batches) {
      std::string frame = wire::EncodeSubmitBatchFrame(b.partition, b.ops.data(), b.ops.size());
      wire::FinalizeFrameHeader(wire::MsgType::kSubmitBatch, seq++, &frame);
      stream_bytes += frame;
    }
    encode_ns += NowNs() - t0;
    encoded_ops += ops;
  }
  std::uint64_t decoded_ops = 0;
  std::int64_t decode_ns = 0;
  bool decoded_equal = true;
  constexpr std::size_t kChunk = 64 * 1024;
  while (decode_ns < kMinReplayNs) {
    wire::FrameDecoder decoder;
    std::vector<wire::Frame> frames;
    wire::SubmitBatchMsg msg;
    std::size_t next_batch = 0;
    const std::int64_t t0 = NowNs();
    for (std::size_t off = 0; off < stream_bytes.size(); off += kChunk) {
      frames.clear();
      const std::size_t n = std::min(kChunk, stream_bytes.size() - off);
      if (!decoder.Feed(stream_bytes.data() + off, n, &frames)) {
        decoded_equal = false;
        break;
      }
      for (const wire::Frame& f : frames) {
        if (!wire::DecodeSubmitBatch(f.payload, &msg) || next_batch >= batches.size() ||
            msg.ops != batches[next_batch].ops) {
          decoded_equal = false;
        }
        ++next_batch;
      }
    }
    decode_ns += NowNs() - t0;
    decoded_ops += ops;
    if (next_batch != batches.size()) {
      decoded_equal = false;
    }
  }
  if (!decoded_equal) {
    report->Violation("wire replay: decoded batches differ from the encoded ones");
  }

  // Core: per interval, AddBatch every batch of the interval, heartbeat
  // every partition to the interval's end, then ProcessStable.
  std::uint64_t core_ops = 0;
  std::int64_t add_ns = 0;
  std::int64_t extract_ns = 0;
  std::vector<OpRecord> out;
  while (add_ns + extract_ns < kMinReplayNs) {
    eunomia::EunomiaCore core(partitions);
    std::uint64_t emitted = 0;
    eunomia::OpOrderKey last{0, 0};
    bool have_last = false;
    bool ordered = true;
    for (std::size_t i = 0; i < batches.size();) {
      const std::int64_t interval = batches[i].interval;
      const std::int64_t t0 = NowNs();
      for (; i < batches.size() && batches[i].interval == interval; ++i) {
        core.AddBatch(batches[i].ops);
      }
      for (std::uint32_t p = 0; p < partitions; ++p) {
        core.Heartbeat(p, static_cast<eunomia::Timestamp>((interval + 1) * kIntervalNs));
      }
      const std::int64_t t1 = NowNs();
      out.clear();
      core.ProcessStable(&out);
      const std::int64_t t2 = NowNs();
      add_ns += t1 - t0;
      extract_ns += t2 - t1;
      for (const OpRecord& op : out) {
        const eunomia::OpOrderKey key = eunomia::OrderKeyOf(op);
        ordered = ordered && (!have_last || last < key);
        last = key;
        have_last = true;
      }
      emitted += out.size();
    }
    if (!ordered || emitted != ops) {
      report->Violation("core replay: stable output not the ordered input");
      break;
    }
    core_ops += ops;
  }
  report->Add("wire.encode_ns_per_op", Ratio(static_cast<double>(encode_ns), static_cast<double>(encoded_ops)), "ns");
  report->Add("wire.decode_ns_per_op", Ratio(static_cast<double>(decode_ns), static_cast<double>(decoded_ops)), "ns");
  report->Add("core.add_ns_per_op", Ratio(static_cast<double>(add_ns), static_cast<double>(core_ops)), "ns");
  report->Add("core.extract_ns_per_op", Ratio(static_cast<double>(extract_ns), static_cast<double>(core_ops)), "ns");
}

}  // namespace perfbench
