#include "src/net/wire.h"

#include <cassert>

#include "src/common/crc32.h"
#include "src/net/wire_io.h"

namespace eunomia::net::wire {

namespace {

using io::GetU16;
using io::GetU32;
using io::GetU64;
using io::PayloadReader;
using io::PutU16;
using io::PutU32;
using io::PutU64;

// Bulk-encodes `count` ops through a raw cursor (the caller sized the
// buffer); one op is ts u64 | partition u32 | key u64 | tag u64
// (kOpRecordWireBytes). Per-field Put* appends cost a capacity check and a
// call per field, which dominates the frame path at Mops/s rates — the
// cursor stores compile to straight unconditional moves.
char* StoreOps(char* p, const OpRecord* ops, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    io::StoreU64(p, ops[i].ts);
    io::StoreU32(p + 8, ops[i].partition);
    io::StoreU64(p + 12, ops[i].key);
    io::StoreU64(p + 20, ops[i].tag);
    p += kOpRecordWireBytes;
  }
  return p;
}

bool ReadOps(PayloadReader* reader, std::uint32_t count,
             std::vector<OpRecord>* ops) {
  if (reader->remaining() != static_cast<std::size_t>(count) * kOpRecordWireBytes) {
    return false;  // count must match the payload exactly — no trailing bytes
  }
  // The size check above covers the whole array, so the per-op reads skip
  // the PayloadReader's per-field bounds checks (mirror of StoreOps).
  const char* p = reader->cursor();
  ops->resize(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    OpRecord& op = (*ops)[i];
    op.ts = GetU64(p);
    op.partition = GetU32(p + 8);
    op.key = GetU64(p + 12);
    op.tag = GetU64(p + 20);
    p += kOpRecordWireBytes;
  }
  reader->Skip(static_cast<std::size_t>(count) * kOpRecordWireBytes);
  return true;
}

}  // namespace

const char* MsgTypeName(MsgType type) {
  switch (type) {
    case MsgType::kHello: return "hello";
    case MsgType::kHelloAck: return "hello_ack";
    case MsgType::kSubmitBatch: return "submit_batch";
    case MsgType::kHeartbeat: return "heartbeat";
    case MsgType::kSubmitAck: return "submit_ack";
    case MsgType::kSubscribe: return "subscribe";
    case MsgType::kSubscribeAck: return "subscribe_ack";
    case MsgType::kStableBatch: return "stable_batch";
    case MsgType::kGeoHello: return "geo_hello";
    case MsgType::kGeoMetaBatch: return "geo_meta_batch";
    case MsgType::kGeoFrontier: return "geo_frontier";
    case MsgType::kGeoPayload: return "geo_payload";
    case MsgType::kGeoAck: return "geo_ack";
  }
  return "unknown";
}

const char* WireErrorName(WireError error) {
  switch (error) {
    case WireError::kNone: return "none";
    case WireError::kBadMagic: return "bad_magic";
    case WireError::kBadVersion: return "bad_version";
    case WireError::kBadType: return "bad_type";
    case WireError::kBadReserved: return "bad_reserved";
    case WireError::kOversizedPayload: return "oversized_payload";
    case WireError::kBadChecksum: return "bad_checksum";
    case WireError::kBadSequence: return "bad_sequence";
    case WireError::kTruncated: return "truncated";
    case WireError::kMalformedPayload: return "malformed_payload";
  }
  return "unknown";
}

void EncodeFrame(MsgType type, std::uint64_t seq, std::string_view payload,
                 std::string* out) {
  // A frame the receiver is required to reject must never be produced;
  // batch senders chunk at kMaxOpsPerFrame, so hitting this is a bug.
  assert(payload.size() <= kMaxPayloadBytes);
  out->reserve(out->size() + kHeaderBytes + payload.size());
  PutU32(out, kMagic);
  out->push_back(static_cast<char>(kProtocolVersion));
  out->push_back(static_cast<char>(type));
  PutU16(out, 0);  // reserved
  PutU32(out, static_cast<std::uint32_t>(payload.size()));
  PutU32(out, Crc32(payload.data(), payload.size()));
  PutU64(out, seq);
  out->append(payload);
}

void FinalizeFrameHeader(MsgType type, std::uint64_t seq, std::string* frame) {
  assert(frame->size() >= kHeaderBytes);
  assert(frame->size() - kHeaderBytes <= kMaxPayloadBytes);
  char* h = frame->data();
  const char* payload = h + kHeaderBytes;
  const std::size_t payload_len = frame->size() - kHeaderBytes;
  io::StoreU32(h, kMagic);
  h[4] = static_cast<char>(kProtocolVersion);
  h[5] = static_cast<char>(type);
  io::StoreU16(h + 6, 0);  // reserved
  io::StoreU32(h + 8, static_cast<std::uint32_t>(payload_len));
  io::StoreU32(h + 12, Crc32(payload, payload_len));
  io::StoreU64(h + 16, seq);
}

bool FrameDecoder::Feed(const char* data, std::size_t size,
                        std::vector<Frame>* frames) {
  if (error_ != WireError::kNone) {
    return false;
  }
  // Drop the prefix the previous Feed consumed. Deferred to here (rather
  // than compacted before returning) because the payload views handed out
  // by that Feed pointed into it and stay valid until this call.
  if (buffer_pos_ > 0) {
    buffer_.erase(0, buffer_pos_);
    buffer_pos_ = 0;
  }
  if (buffer_.empty()) {
    // Fast path: no carried-over partial frame, so complete frames decode
    // straight out of the caller's buffer (payload views point into it);
    // only the trailing partial frame (if any) is copied into the carry
    // buffer.
    const std::size_t consumed = Parse(data, size, frames);
    if (error_ != WireError::kNone) {
      return false;
    }
    buffer_.append(data + consumed, size - consumed);
    return true;
  }
  buffer_.append(data, size);
  buffer_pos_ = Parse(buffer_.data(), buffer_.size(), frames);
  if (error_ != WireError::kNone) {
    buffer_.clear();
    buffer_pos_ = 0;
    return false;
  }
  return true;
}

std::size_t FrameDecoder::Parse(const char* data, std::size_t size,
                                std::vector<Frame>* frames) {
  std::size_t pos = 0;
  while (size - pos >= kHeaderBytes) {
    const char* h = data + pos;
    if (GetU32(h) != kMagic) {
      error_ = WireError::kBadMagic;
      break;
    }
    if (static_cast<std::uint8_t>(h[4]) != kProtocolVersion) {
      error_ = WireError::kBadVersion;
      break;
    }
    const auto raw_type = static_cast<std::uint8_t>(h[5]);
    if (raw_type < kMinMsgType || raw_type > kMaxMsgType) {
      error_ = WireError::kBadType;
      break;
    }
    if (GetU16(h + 6) != 0) {
      error_ = WireError::kBadReserved;
      break;
    }
    const std::uint32_t payload_len = GetU32(h + 8);
    if (payload_len > kMaxPayloadBytes) {
      // Reject before buffering toward the bogus length: a corrupt prefix
      // must not commit us to a multi-gigabyte read.
      error_ = WireError::kOversizedPayload;
      break;
    }
    if (size - pos < kHeaderBytes + payload_len) {
      break;  // partial frame; wait for more bytes
    }
    const char* payload = h + kHeaderBytes;
    if (Crc32(payload, payload_len) != GetU32(h + 12)) {
      error_ = WireError::kBadChecksum;
      break;
    }
    const std::uint64_t seq = GetU64(h + 16);
    if (seq != next_seq_) {
      error_ = WireError::kBadSequence;
      break;
    }
    ++next_seq_;
    Frame frame;
    frame.type = static_cast<MsgType>(raw_type);
    frame.seq = seq;
    frame.payload = std::string_view(payload, payload_len);
    frames->push_back(frame);
    pos += kHeaderBytes + payload_len;
  }
  return pos;
}

// --- typed messages ----------------------------------------------------------

std::string EncodeHello(const HelloMsg& msg) {
  std::string payload;
  PutU32(&payload, msg.protocol_version);
  PutU32(&payload, msg.num_partitions);
  return payload;
}

bool DecodeHello(std::string_view payload, HelloMsg* msg) {
  PayloadReader reader(payload);
  return reader.U32(&msg->protocol_version) &&
         reader.U32(&msg->num_partitions) && reader.done();
}

std::string EncodeHelloAck(const HelloAckMsg& msg) {
  std::string payload;
  PutU32(&payload, msg.protocol_version);
  PutU32(&payload, msg.num_partitions);
  return payload;
}

bool DecodeHelloAck(std::string_view payload, HelloAckMsg* msg) {
  PayloadReader reader(payload);
  return reader.U32(&msg->protocol_version) &&
         reader.U32(&msg->num_partitions) && reader.done();
}

void AppendSubmitBatch(PartitionId partition, const OpRecord* ops,
                       std::size_t count, std::string* out) {
  assert(count <= kMaxOpsPerFrame);
  const std::size_t base = out->size();
  out->resize(base + 8 + count * kOpRecordWireBytes);
  char* p = out->data() + base;
  io::StoreU32(p, partition);
  io::StoreU32(p + 4, static_cast<std::uint32_t>(count));
  StoreOps(p + 8, ops, count);
}

bool PeekSubmitBatchLastOp(std::string_view payload, OpOrderKey* last) {
  if (payload.size() < 8) {
    return false;
  }
  const std::uint32_t count = GetU32(payload.data() + 4);
  if (count == 0 ||
      payload.size() != 8 + std::size_t{count} * kOpRecordWireBytes) {
    return false;
  }
  const char* op = payload.data() + payload.size() - kOpRecordWireBytes;
  *last = OpOrderKey{GetU64(op), GetU32(op + 8)};
  return true;
}

std::string EncodeSubmitBatch(PartitionId partition, const OpRecord* ops,
                              std::size_t count) {
  std::string payload;
  AppendSubmitBatch(partition, ops, count, &payload);
  return payload;
}

std::string EncodeSubmitBatchFrame(PartitionId partition, const OpRecord* ops,
                                   std::size_t count) {
  // The header hole, then the body behind it, in one allocation.
  std::string frame;
  frame.reserve(kHeaderBytes + 8 + count * kOpRecordWireBytes);
  frame.resize(kHeaderBytes);
  AppendSubmitBatch(partition, ops, count, &frame);
  return frame;
}

bool DecodeSubmitBatch(std::string_view payload, SubmitBatchMsg* msg) {
  PayloadReader reader(payload);
  std::uint32_t count = 0;
  return reader.U32(&msg->partition) && reader.U32(&count) &&
         ReadOps(&reader, count, &msg->ops);
}

std::string EncodeHeartbeat(const HeartbeatMsg& msg) {
  std::string payload;
  PutU32(&payload, msg.partition);
  PutU64(&payload, msg.ts);
  return payload;
}

bool DecodeHeartbeat(std::string_view payload, HeartbeatMsg* msg) {
  PayloadReader reader(payload);
  return reader.U32(&msg->partition) && reader.U64(&msg->ts) && reader.done();
}

std::string EncodeSubmitAck(const SubmitAckMsg& msg) {
  std::string payload;
  PutU64(&payload, msg.ops_received);
  return payload;
}

bool DecodeSubmitAck(std::string_view payload, SubmitAckMsg* msg) {
  PayloadReader reader(payload);
  return reader.U64(&msg->ops_received) && reader.done();
}

std::string EncodeSubscribeAck(const SubscribeAckMsg& msg) {
  std::string payload;
  PutU64(&payload, msg.next_stream_seq);
  return payload;
}

bool DecodeSubscribeAck(std::string_view payload, SubscribeAckMsg* msg) {
  PayloadReader reader(payload);
  return reader.U64(&msg->next_stream_seq) && reader.done();
}

std::string EncodeStableBatch(std::uint64_t stream_seq, const OpRecord* ops,
                              std::size_t count) {
  assert(count <= kMaxOpsPerFrame);
  std::string payload;
  payload.resize(12 + count * kOpRecordWireBytes);
  char* p = payload.data();
  io::StoreU64(p, stream_seq);
  io::StoreU32(p + 8, static_cast<std::uint32_t>(count));
  StoreOps(p + 12, ops, count);
  return payload;
}

std::string EncodeStableBatchFrame(std::uint64_t stream_seq,
                                   const OpRecord* ops, std::size_t count) {
  assert(count <= kMaxOpsPerFrame);
  std::string frame;
  frame.resize(kHeaderBytes + 12 + count * kOpRecordWireBytes);
  char* p = frame.data() + kHeaderBytes;
  io::StoreU64(p, stream_seq);
  io::StoreU32(p + 8, static_cast<std::uint32_t>(count));
  StoreOps(p + 12, ops, count);
  return frame;
}

bool DecodeStableBatch(std::string_view payload, StableBatchMsg* msg) {
  PayloadReader reader(payload);
  std::uint32_t count = 0;
  return reader.U64(&msg->stream_seq) && reader.U32(&count) &&
         ReadOps(&reader, count, &msg->ops);
}

}  // namespace eunomia::net::wire
