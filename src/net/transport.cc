#include "src/net/transport.h"

#include "src/net/net_metrics.h"

namespace eunomia::net {

namespace {

std::uint64_t NextConnectionId() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

Connection::Connection() : id_(NextConnectionId()) {
  NetMetrics::Get().connections_opened->Increment();
}

Connection::~Connection() {
  NetMetrics::Get().connections_closed->Increment();
}

bool Connection::SendFrame(wire::MsgType type, std::string_view payload) {
  if (closed_.load(std::memory_order_acquire)) {
    return false;
  }
  // Sequence assignment and transmission happen under one lock so the wire
  // order always matches the stamped order — two racing senders can never
  // interleave seq n after n+1 on the byte stream.
  sync::MutexLock lock(send_mu_);
  std::string bytes;
  wire::EncodeFrame(type, send_seq_, payload, &bytes);
  const std::size_t frame_bytes = bytes.size();
  if (!SendBytes(std::move(bytes))) {
    return false;
  }
  ++send_seq_;
  // Every outbound frame goes through here or SendFrameBody, so these are
  // the egress instrumentation points.
  NetMetrics::Get().RecordFrameOut(type, frame_bytes);
  return true;
}

bool Connection::SendFrameBody(wire::MsgType type, std::string frame) {
  if (closed_.load(std::memory_order_acquire)) {
    return false;
  }
  sync::MutexLock lock(send_mu_);
  wire::FinalizeFrameHeader(type, send_seq_, &frame);
  const std::size_t frame_bytes = frame.size();
  if (!SendBytes(std::move(frame))) {
    return false;
  }
  ++send_seq_;
  NetMetrics::Get().RecordFrameOut(type, frame_bytes);
  return true;
}

namespace internal {

bool FrameReceiver::Deliver(Connection& connection,
                            const ConnectionHandler& handler, const char* data,
                            std::size_t size) {
  scratch_.clear();
  const bool ok = decoder_.Feed(data, size, &scratch_);
  // Frames decoded before a mid-buffer error are still valid and FIFO;
  // deliver them, then report the failure. Frames already received may be
  // delivered even after a local Close — like bytes already in a socket
  // buffer, teardown is asynchronous and handlers must tolerate it.
  NetMetrics& nm = NetMetrics::Get();
  for (wire::Frame& frame : scratch_) {
    // Single ingress instrumentation point (the backend delivers through
    // this receiver).
    nm.RecordFrameIn(frame.type, wire::kHeaderBytes + frame.payload.size());
    if (handler.on_frame) {
      handler.on_frame(connection, std::move(frame));
    }
  }
  scratch_.clear();
  return ok;
}

}  // namespace internal
}  // namespace eunomia::net
