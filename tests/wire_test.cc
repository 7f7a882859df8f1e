// Tests for the wire format (src/net/wire.h): typed round-trips, a
// randomized property test over OpRecord batches with arbitrary stream
// chunking, and the rejection matrix — corrupt, truncated, oversized and
// out-of-sequence frames must surface as typed errors, never as crashes or
// silently wrong data.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/net/wire.h"

namespace eunomia::net::wire {
namespace {

std::string EncodeOneFrame(MsgType type, std::uint64_t seq,
                           const std::string& payload) {
  std::string bytes;
  EncodeFrame(type, seq, payload, &bytes);
  return bytes;
}

// An owning copy of a decoded frame — Frame::payload is a view into the
// decoder's input, so a helper that outlives the input must copy it.
struct OwnedFrame {
  MsgType type = MsgType::kHello;
  std::uint64_t seq = 0;
  std::string payload;
};

// Feeds `bytes` to a fresh decoder in one call and expects exactly one
// well-formed frame.
OwnedFrame DecodeOneFrame(const std::string& bytes) {
  FrameDecoder decoder;
  std::vector<Frame> frames;
  EXPECT_TRUE(decoder.Feed(bytes.data(), bytes.size(), &frames));
  EXPECT_EQ(frames.size(), 1u);
  EXPECT_FALSE(decoder.mid_frame());
  if (frames.empty()) {
    return OwnedFrame{};
  }
  return OwnedFrame{frames.front().type, frames.front().seq,
                    std::string(frames.front().payload)};
}

std::vector<OpRecord> RandomOps(Rng& rng, std::uint32_t count) {
  std::vector<OpRecord> ops;
  ops.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    ops.push_back(OpRecord{rng.Next(), static_cast<PartitionId>(rng.NextBounded(64)),
                           rng.Next(), rng.Next()});
  }
  return ops;
}

TEST(WireTest, HelloRoundTrip) {
  HelloMsg in;
  in.num_partitions = 42;
  const OwnedFrame frame =
      DecodeOneFrame(EncodeOneFrame(MsgType::kHello, 0, EncodeHello(in)));
  EXPECT_EQ(frame.type, MsgType::kHello);
  HelloMsg out;
  ASSERT_TRUE(DecodeHello(frame.payload, &out));
  EXPECT_EQ(out.protocol_version, kProtocolVersion);
  EXPECT_EQ(out.num_partitions, 42u);
}

TEST(WireTest, HeartbeatAndAcksRoundTrip) {
  HeartbeatMsg hb{7, 123456789};
  HeartbeatMsg hb_out;
  ASSERT_TRUE(DecodeHeartbeat(EncodeHeartbeat(hb), &hb_out));
  EXPECT_EQ(hb_out.partition, 7u);
  EXPECT_EQ(hb_out.ts, 123456789u);

  SubmitAckMsg ack{999};
  SubmitAckMsg ack_out;
  ASSERT_TRUE(DecodeSubmitAck(EncodeSubmitAck(ack), &ack_out));
  EXPECT_EQ(ack_out.ops_received, 999u);

  SubscribeAckMsg sub{17};
  SubscribeAckMsg sub_out;
  ASSERT_TRUE(DecodeSubscribeAck(EncodeSubscribeAck(sub), &sub_out));
  EXPECT_EQ(sub_out.next_stream_seq, 17u);
}

TEST(WireTest, SubmitBatchRoundTripEmptyBatch) {
  SubmitBatchMsg out;
  ASSERT_TRUE(DecodeSubmitBatch(EncodeSubmitBatch(3, {}), &out));
  EXPECT_EQ(out.partition, 3u);
  EXPECT_TRUE(out.ops.empty());
}

// The randomized property: arbitrary batches encoded as a frame stream and
// fed back in random chunk sizes reproduce the exact ops, in order,
// regardless of how the byte stream is split (TCP promises no boundaries).
TEST(WireTest, RandomizedBatchesSurviveArbitraryChunking) {
  Rng rng(20260729);
  for (int round = 0; round < 20; ++round) {
    std::string stream;
    std::vector<SubmitBatchMsg> sent;
    std::uint64_t seq = 0;
    const int num_frames = 1 + static_cast<int>(rng.NextBounded(30));
    for (int f = 0; f < num_frames; ++f) {
      SubmitBatchMsg msg;
      msg.partition = static_cast<PartitionId>(rng.NextBounded(64));
      msg.ops = RandomOps(rng, static_cast<std::uint32_t>(rng.NextBounded(200)));
      EncodeFrame(MsgType::kSubmitBatch, seq++,
                  EncodeSubmitBatch(msg.partition, msg.ops), &stream);
      sent.push_back(std::move(msg));
    }
    FrameDecoder decoder;
    std::vector<Frame> frames;
    std::vector<std::uint64_t> seqs;
    std::vector<SubmitBatchMsg> got_msgs;
    std::size_t pos = 0;
    while (pos < stream.size()) {
      const std::size_t chunk =
          std::min<std::size_t>(1 + rng.NextBounded(977), stream.size() - pos);
      ASSERT_TRUE(decoder.Feed(stream.data() + pos, chunk, &frames));
      // Payload views are valid only until the next Feed — consume each
      // delivery immediately, as a real transport handler does.
      for (const Frame& frame : frames) {
        seqs.push_back(frame.seq);
        SubmitBatchMsg got;
        ASSERT_TRUE(DecodeSubmitBatch(frame.payload, &got));
        got_msgs.push_back(std::move(got));
      }
      frames.clear();
      pos += chunk;
    }
    EXPECT_FALSE(decoder.mid_frame());
    ASSERT_EQ(got_msgs.size(), sent.size());
    for (std::size_t i = 0; i < got_msgs.size(); ++i) {
      EXPECT_EQ(seqs[i], i);
      EXPECT_EQ(got_msgs[i].partition, sent[i].partition);
      ASSERT_EQ(got_msgs[i].ops.size(), sent[i].ops.size());
      EXPECT_EQ(got_msgs[i].ops, sent[i].ops);
    }
  }
}

TEST(WireTest, StableBatchRoundTrip) {
  Rng rng(7);
  const std::vector<OpRecord> ops = RandomOps(rng, 50);
  StableBatchMsg out;
  ASSERT_TRUE(DecodeStableBatch(EncodeStableBatch(11, ops), &out));
  EXPECT_EQ(out.stream_seq, 11u);
  EXPECT_EQ(out.ops, ops);
}

// --- rejection matrix --------------------------------------------------------

TEST(WireTest, CorruptPayloadByteFailsChecksum) {
  Rng rng(13);
  std::string bytes = EncodeOneFrame(MsgType::kSubmitBatch, 0,
                                     EncodeSubmitBatch(1, RandomOps(rng, 20)));
  bytes[kHeaderBytes + 5] ^= 0x40;  // flip one payload bit
  FrameDecoder decoder;
  std::vector<Frame> frames;
  EXPECT_FALSE(decoder.Feed(bytes.data(), bytes.size(), &frames));
  EXPECT_EQ(decoder.error(), WireError::kBadChecksum);
  EXPECT_TRUE(frames.empty());
  // Poisoned: even a valid frame is rejected afterwards.
  const std::string good = EncodeOneFrame(MsgType::kHeartbeat, 0,
                                          EncodeHeartbeat({0, 1}));
  EXPECT_FALSE(decoder.Feed(good.data(), good.size(), &frames));
}

TEST(WireTest, BadMagicRejected) {
  std::string bytes = EncodeOneFrame(MsgType::kHeartbeat, 0,
                                     EncodeHeartbeat({0, 1}));
  bytes[0] = 'X';
  FrameDecoder decoder;
  std::vector<Frame> frames;
  EXPECT_FALSE(decoder.Feed(bytes.data(), bytes.size(), &frames));
  EXPECT_EQ(decoder.error(), WireError::kBadMagic);
}

TEST(WireTest, WrongVersionRejected) {
  std::string bytes = EncodeOneFrame(MsgType::kHeartbeat, 0,
                                     EncodeHeartbeat({0, 1}));
  bytes[4] = static_cast<char>(kProtocolVersion + 1);
  FrameDecoder decoder;
  std::vector<Frame> frames;
  EXPECT_FALSE(decoder.Feed(bytes.data(), bytes.size(), &frames));
  EXPECT_EQ(decoder.error(), WireError::kBadVersion);
}

TEST(WireTest, UnknownTypeRejected) {
  std::string bytes = EncodeOneFrame(MsgType::kHeartbeat, 0,
                                     EncodeHeartbeat({0, 1}));
  bytes[5] = static_cast<char>(0x7f);
  FrameDecoder decoder;
  std::vector<Frame> frames;
  EXPECT_FALSE(decoder.Feed(bytes.data(), bytes.size(), &frames));
  EXPECT_EQ(decoder.error(), WireError::kBadType);
}

TEST(WireTest, OversizedLengthPrefixRejectedBeforeBuffering) {
  // A header whose length prefix exceeds the cap must error immediately —
  // no waiting for (or allocating) gigabytes that will never arrive.
  std::string bytes = EncodeOneFrame(MsgType::kHeartbeat, 0,
                                     EncodeHeartbeat({0, 1}));
  const std::uint32_t huge = kMaxPayloadBytes + 1;
  std::memcpy(&bytes[8], &huge, sizeof(huge));  // little-endian host assumed ok:
  // the test builds the corrupt length with memcpy of a host int; on the
  // (little-endian) CI/dev targets this matches the wire byte order.
  FrameDecoder decoder;
  std::vector<Frame> frames;
  EXPECT_FALSE(decoder.Feed(bytes.data(), kHeaderBytes, &frames));
  EXPECT_EQ(decoder.error(), WireError::kOversizedPayload);
}

TEST(WireTest, ShortReadLeavesDecoderMidFrame) {
  const std::string bytes = EncodeOneFrame(
      MsgType::kSubmitBatch, 0, EncodeSubmitBatch(1, {OpRecord{1, 1, 0, 0}}));
  FrameDecoder decoder;
  std::vector<Frame> frames;
  // Feed everything but the last byte: no frame, no error, mid-frame state
  // (which the transports report as kTruncated when the stream ends here).
  ASSERT_TRUE(decoder.Feed(bytes.data(), bytes.size() - 1, &frames));
  EXPECT_TRUE(frames.empty());
  EXPECT_TRUE(decoder.mid_frame());
  EXPECT_EQ(decoder.error(), WireError::kNone);
  // The missing byte completes the frame.
  ASSERT_TRUE(decoder.Feed(bytes.data() + bytes.size() - 1, 1, &frames));
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_FALSE(decoder.mid_frame());
}

TEST(WireTest, SequenceGapRejected) {
  std::string stream;
  EncodeFrame(MsgType::kHeartbeat, 0, EncodeHeartbeat({0, 1}), &stream);
  EncodeFrame(MsgType::kHeartbeat, 2, EncodeHeartbeat({0, 2}), &stream);  // gap
  FrameDecoder decoder;
  std::vector<Frame> frames;
  EXPECT_FALSE(decoder.Feed(stream.data(), stream.size(), &frames));
  EXPECT_EQ(decoder.error(), WireError::kBadSequence);
  // The in-order prefix was still delivered.
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].seq, 0u);
}

TEST(WireTest, DuplicateSequenceRejected) {
  std::string stream;
  EncodeFrame(MsgType::kHeartbeat, 0, EncodeHeartbeat({0, 1}), &stream);
  EncodeFrame(MsgType::kHeartbeat, 0, EncodeHeartbeat({0, 2}), &stream);
  FrameDecoder decoder;
  std::vector<Frame> frames;
  EXPECT_FALSE(decoder.Feed(stream.data(), stream.size(), &frames));
  EXPECT_EQ(decoder.error(), WireError::kBadSequence);
}

TEST(WireTest, MalformedPayloadsRejectedNotCrashing) {
  // Truncated / padded payloads for every typed decoder.
  HeartbeatMsg hb;
  EXPECT_FALSE(DecodeHeartbeat("", &hb));
  EXPECT_FALSE(DecodeHeartbeat("short", &hb));
  EXPECT_FALSE(DecodeHeartbeat(EncodeHeartbeat({0, 1}) + "x", &hb));

  SubmitBatchMsg sb;
  EXPECT_FALSE(DecodeSubmitBatch("", &sb));
  // Count says 2 ops but only one op's bytes follow.
  std::string payload = EncodeSubmitBatch(1, {OpRecord{1, 1, 2, 3}});
  payload[4] = 2;  // count field (u32 LE at offset 4)
  EXPECT_FALSE(DecodeSubmitBatch(payload, &sb));
  // Trailing junk after the declared ops.
  EXPECT_FALSE(DecodeSubmitBatch(
      EncodeSubmitBatch(1, {OpRecord{1, 1, 2, 3}}) + "junk", &sb));

  StableBatchMsg st;
  EXPECT_FALSE(DecodeStableBatch("", &st));
  HelloMsg hello;
  EXPECT_FALSE(DecodeHello("abc", &hello));
}

// The frame-body builders (header hole + payload, finalized in place) must
// be byte-for-byte what EncodeFrame produces from the payload encoders —
// the copy-free send path may not change a single wire byte.
TEST(WireTest, FrameBodyBuildersMatchEncodeFrame) {
  Rng rng(99);
  const std::vector<OpRecord> ops = RandomOps(rng, 37);

  std::string submit_frame = EncodeSubmitBatchFrame(5, ops.data(), ops.size());
  FinalizeFrameHeader(MsgType::kSubmitBatch, 123, &submit_frame);
  std::string submit_expected;
  EncodeFrame(MsgType::kSubmitBatch, 123, EncodeSubmitBatch(5, ops),
              &submit_expected);
  EXPECT_EQ(submit_frame, submit_expected);

  std::string stable_frame = EncodeStableBatchFrame(42, ops.data(), ops.size());
  FinalizeFrameHeader(MsgType::kStableBatch, 7, &stable_frame);
  std::string stable_expected;
  EncodeFrame(MsgType::kStableBatch, 7, EncodeStableBatch(42, ops),
              &stable_expected);
  EXPECT_EQ(stable_frame, stable_expected);
}

}  // namespace
}  // namespace eunomia::net::wire
