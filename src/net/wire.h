// The Eunomia wire format (version 1): how SubmitBatch / Heartbeat / acks /
// the stable-batch stream look as bytes on a transport.
//
// Every message travels as one length-prefixed frame:
//
//   offset  size  field
//   ------  ----  -----------------------------------------------------------
//        0     4  magic 0x45554E4F ("EUNO"), little-endian
//        4     1  protocol version (kProtocolVersion)
//        5     1  message type (MsgType)
//        6     2  reserved, must be 0
//        8     4  payload length in bytes (<= kMaxPayloadBytes)
//       12     4  CRC-32 of the payload
//       16     8  session sequence number
//       24     -  payload
//
// All integers are little-endian regardless of host order. The CRC rejects
// corruption; the bounded payload length rejects a garbage prefix before any
// allocation; the per-direction session sequence number (0, 1, 2, ...)
// enforces the FIFO contract the protocol assumes (§3.1): partitions rely on
// their batches arriving in submission order, so a transport that reorders,
// drops or duplicates frames must be detected as a session error rather than
// silently corrupt stabilization order.
//
// The decoder is incremental (frames may arrive split or coalesced — TCP
// guarantees neither message boundaries nor single-read delivery) and
// poisons itself on the first malformed byte: a framing error is not
// recoverable, the session must be torn down.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/types.h"
#include "src/eunomia/op.h"

namespace eunomia::net::wire {

inline constexpr std::uint32_t kMagic = 0x45554E4Fu;  // "EUNO"
inline constexpr std::uint8_t kProtocolVersion = 1;
inline constexpr std::size_t kHeaderBytes = 24;
// Upper bound on a frame payload. Large enough for ~599k OpRecords per
// batch; small enough that a corrupt length prefix cannot drive a huge
// allocation.
inline constexpr std::uint32_t kMaxPayloadBytes = 16u << 20;

// Serialized OpRecord size, and the largest op count senders may put into
// one SubmitBatch/StableBatch frame (conservatively accounting for the
// larger of the two message headers). Senders chunk bigger batches into
// multiple frames — the receive-side cap is a defense, not a protocol
// limit on batch size.
inline constexpr std::size_t kOpRecordWireBytes = 28;
inline constexpr std::uint32_t kMaxOpsPerFrame =
    (kMaxPayloadBytes - 16) / kOpRecordWireBytes;

enum class MsgType : std::uint8_t {
  kHello = 1,        // client -> server: version check, opens the session
  kHelloAck = 2,     // server -> client: session accepted
  kSubmitBatch = 3,  // client -> server: one partition's op batch
  kHeartbeat = 4,    // client -> server: partition liveness (§4, Alg. 2)
  kSubmitAck = 5,    // server -> client: cumulative ops received (backpressure)
  kSubscribe = 6,    // client -> server: start streaming stable batches
  kSubscribeAck = 7, // server -> client: subscribed; carries the next stream seq
  kStableBatch = 8,  // server -> client: stable ops in (ts, partition) order

  // Geo-replication peer links (one datacenter node to another; payload
  // codecs live with the geo runtime in src/georep/runtime/geo_wire.h).
  kGeoHello = 9,     // link opener: origin DC, deployment shape, link kind
  kGeoMetaBatch = 10, // Eunomia@m -> receiver@k: stabilized metadata, FIFO
  kGeoFrontier = 11, // Eunomia@m -> receiver@k: scalar-mode stable beacon
  kGeoPayload = 12,  // partition (m,p) -> sibling (k,p): one update payload
  kGeoAck = 13,      // receiver@k -> Eunomia@m: durably-applied frontier ack
};

inline constexpr std::uint8_t kMinMsgType = 1;
inline constexpr std::uint8_t kMaxMsgType = 13;

// Stable snake_case name for a message type ("submit_batch"); used as the
// `type` label on the per-type net metrics, so renaming one is a
// dashboard-breaking change.
const char* MsgTypeName(MsgType type);

enum class WireError : std::uint8_t {
  kNone = 0,
  kBadMagic,         // frame does not start with "EUNO"
  kBadVersion,       // protocol version mismatch
  kBadType,          // message type outside [kMinMsgType, kMaxMsgType]
  kBadReserved,      // reserved header bytes not zero
  kOversizedPayload, // length prefix exceeds kMaxPayloadBytes
  kBadChecksum,      // payload CRC mismatch
  kBadSequence,      // session sequence number not the expected successor
  kTruncated,        // stream ended mid-frame (short read / torn connection)
  kMalformedPayload, // payload failed typed decoding
};

const char* WireErrorName(WireError error);

// A decoded frame: type + session sequence + raw payload bytes.
//
// `payload` is a zero-copy view into the decoder's input (the caller's
// receive buffer or the decoder's carry buffer) — valid only until the next
// Feed on the decoder that produced it. Transports dispatch every decoded
// frame before reading again, so handlers may use the payload for the
// duration of on_frame but must copy anything they retain.
struct Frame {
  MsgType type = MsgType::kHello;
  std::uint64_t seq = 0;
  std::string_view payload;
};

// Serializes one frame (header + payload) and appends it to *out.
void EncodeFrame(MsgType type, std::uint64_t seq, std::string_view payload,
                 std::string* out);

// Stamps a complete frame header over the first kHeaderBytes of *frame
// (built by one of the Encode*Frame body builders below): magic, version,
// type, payload length, payload CRC and the session sequence number. Split
// from payload encoding so senders can build the payload once, outside the
// connection's send lock, and stamp the (lock-ordered) sequence number in
// place — no second payload-sized buffer or copy per frame.
void FinalizeFrameHeader(MsgType type, std::uint64_t seq, std::string* frame);

// Incremental frame decoder for one receive direction of a session.
//
// Complete frames are parsed in place from the caller's receive buffer;
// only a trailing partial frame is copied into the carry buffer. A reader
// that hands over whole frames per chunk (the common case under epoll's
// read-until-EAGAIN) therefore never pays an intermediate memcpy of the
// stream.
class FrameDecoder {
 public:
  // Consumes `size` bytes and appends every completed frame to *frames.
  // Returns false once the stream is malformed; error() then names the
  // failure and every further Feed is rejected.
  bool Feed(const char* data, std::size_t size, std::vector<Frame>* frames);

  WireError error() const { return error_; }
  // True while a partial frame is buffered: an EOF in this state is a
  // truncated stream, not a clean close.
  bool mid_frame() const { return buffer_.size() > buffer_pos_; }
  std::uint64_t frames_decoded() const { return next_seq_; }

 private:
  // Parses complete frames from [data, data+size), appending to *frames.
  // Returns the number of bytes consumed; stops at the first partial frame
  // or (setting error_) the first malformed header/payload.
  std::size_t Parse(const char* data, std::size_t size,
                    std::vector<Frame>* frames);

  // Carry buffer for a trailing partial frame. The prefix [0, buffer_pos_)
  // was consumed by the previous Feed but is erased lazily at the start of
  // the next one — compacting immediately would invalidate the payload
  // views just handed out.
  std::string buffer_;
  std::size_t buffer_pos_ = 0;
  std::uint64_t next_seq_ = 0;
  WireError error_ = WireError::kNone;
};

// --- typed messages ----------------------------------------------------------
//
// Encode* builds the payload for SendFrame; Decode* validates and parses a
// received payload (returning false on any structural violation — callers
// must treat that as WireError::kMalformedPayload and drop the session).

struct HelloMsg {
  std::uint32_t protocol_version = kProtocolVersion;
  std::uint32_t num_partitions = 0;  // partitions the client will submit for
};

struct HelloAckMsg {
  std::uint32_t protocol_version = kProtocolVersion;
  std::uint32_t num_partitions = 0;  // partitions the hosted service runs
};

struct SubmitBatchMsg {
  PartitionId partition = 0;
  std::vector<OpRecord> ops;
};

struct HeartbeatMsg {
  PartitionId partition = 0;
  Timestamp ts = 0;
};

struct SubmitAckMsg {
  std::uint64_t ops_received = 0;  // cumulative over the connection
};

struct SubscribeAckMsg {
  std::uint64_t next_stream_seq = 0;
};

struct StableBatchMsg {
  std::uint64_t stream_seq = 0;  // dense per-subscription batch counter
  std::vector<OpRecord> ops;
};

std::string EncodeHello(const HelloMsg& msg);
bool DecodeHello(std::string_view payload, HelloMsg* msg);

std::string EncodeHelloAck(const HelloAckMsg& msg);
bool DecodeHelloAck(std::string_view payload, HelloAckMsg* msg);

// The pointer/count forms exist so senders can chunk a large batch into
// several ≤ kMaxOpsPerFrame frames without copying sub-vectors.
std::string EncodeSubmitBatch(PartitionId partition, const OpRecord* ops,
                              std::size_t count);
// Frame-body builder for the batch hot paths: returns a buffer with
// kHeaderBytes of (zeroed) header hole followed by the encoded payload,
// ready for Connection::SendFrameBody, which fills the hole via
// FinalizeFrameHeader. Byte-for-byte identical on the wire to
// EncodeFrame(EncodeSubmitBatch(...)) — pinned by wire_test — but without
// the second payload-sized allocation and copy.
std::string EncodeSubmitBatchFrame(PartitionId partition, const OpRecord* ops,
                                   std::size_t count);
inline std::string EncodeSubmitBatch(PartitionId partition,
                                     const std::vector<OpRecord>& ops) {
  return EncodeSubmitBatch(partition, ops.data(), ops.size());
}
bool DecodeSubmitBatch(std::string_view payload, SubmitBatchMsg* msg);

std::string EncodeHeartbeat(const HeartbeatMsg& msg);
bool DecodeHeartbeat(std::string_view payload, HeartbeatMsg* msg);

std::string EncodeSubmitAck(const SubmitAckMsg& msg);
bool DecodeSubmitAck(std::string_view payload, SubmitAckMsg* msg);

std::string EncodeSubscribeAck(const SubscribeAckMsg& msg);
bool DecodeSubscribeAck(std::string_view payload, SubscribeAckMsg* msg);

std::string EncodeStableBatch(std::uint64_t stream_seq, const OpRecord* ops,
                              std::size_t count);
// Frame-body builder; see EncodeSubmitBatchFrame.
std::string EncodeStableBatchFrame(std::uint64_t stream_seq,
                                   const OpRecord* ops, std::size_t count);
inline std::string EncodeStableBatch(std::uint64_t stream_seq,
                                     const std::vector<OpRecord>& ops) {
  return EncodeStableBatch(stream_seq, ops.data(), ops.size());
}
bool DecodeStableBatch(std::string_view payload, StableBatchMsg* msg);

}  // namespace eunomia::net::wire
