// Wire codecs for the geo-replication peer links (message types kGeoHello,
// kGeoMetaBatch, kGeoFrontier, kGeoPayload and kGeoAck of src/net/wire.h;
// the links themselves are PeerLinks'). The metadata link's FIFO order IS
// the §4 "FIFO links between datacenters" assumption, and the scalar
// receiver's beacon-after-batch invariant holds because both travel it; a
// separate payload link keeps a large value from head-of-line-blocking
// metadata (§5). Every link opens with a kGeoHello naming the dialer, the
// deployment shape (which must match the acceptor's) and the link kind.
// All decoders return false on any structural violation; callers drop the
// session.
//
// The geo WAL (GeoDurability) logs these bodies as its records: an install
// or inbound payload is a kGeoPayload body, an inbound metadata batch a
// kGeoMetaBatch body, and the snapshot encodes its vectors with AppendVts.
// So this file and src/net/wire.cc hold the only codecs of updates,
// payloads and vector timestamps.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/types.h"
#include "src/georep/remote_update.h"
#include "src/net/wire.h"
#include "src/net/wire_io.h"

namespace eunomia::geo::rt::wire {

inline constexpr std::uint32_t kMetadataLink = 0;
inline constexpr std::uint32_t kPayloadLink = 1;

// Serialized RemoteUpdate size for a given vector-timestamp width, and the
// largest update count senders may put into one kGeoMetaBatch frame
// (senders chunk bigger stabilizer emissions into consecutive frames on the
// same FIFO link, which preserves the shipping order).
inline constexpr std::size_t RemoteUpdateWireBytes(std::uint32_t num_dcs) {
  return 8 + 8 + 4 + 4 + 4 + 8 * static_cast<std::size_t>(num_dcs);
}
inline constexpr std::size_t MaxGeoUpdatesPerFrame(std::uint32_t num_dcs) {
  return (net::wire::kMaxPayloadBytes - 8) / RemoteUpdateWireBytes(num_dcs);
}

struct GeoHelloMsg {
  std::uint32_t protocol_version = net::wire::kProtocolVersion;
  DatacenterId dc = 0;         // the dialing datacenter
  std::uint32_t num_dcs = 0;   // deployment shape — must match the acceptor
  std::uint32_t partitions = 0;
  std::uint32_t link_kind = kMetadataLink;
  // Metadata link only: the dialer's DURABLY applied frontier of the
  // acceptor's updates; the acceptor's replay skips what lies below. A node
  // without stable storage sends 0 — nothing may be skipped on its behalf.
  std::uint64_t resume_from = 0;
};

struct GeoMetaBatchMsg {
  DatacenterId origin = 0;
  std::vector<RemoteUpdate> updates;
};

struct GeoFrontierMsg {
  DatacenterId origin = 0;
  Timestamp frontier = 0;
};

struct GeoPayloadMsg {
  PartitionId partition = 0;  // the sibling partition responsible for the key
  RemotePayload payload;
};

// Periodic durably-applied ack, sent by datacenter `dc` on its outbound
// metadata link: "of YOUR updates I have durably applied up to `applied`".
// The receiving peer replays to `dc` only above it, and may truncate its
// install WAL once every peer's mark passed. An ack must never let a peer
// skip frames the acker could lose, so `applied` is what the acker has
// synced (GeoDurability::synced_site_time), under every fsync policy.
struct GeoAckMsg {
  DatacenterId dc = 0;          // the acking (sending) datacenter
  std::uint64_t applied = 0;    // durable SiteTime component for the peer
};

// A vector timestamp: width u32, then one u64 per entry. ReadVts rejects a
// zero or implausibly wide vector before allocating.
void AppendVts(std::string* out, const VectorTimestamp& vts);
bool ReadVts(net::wire::io::PayloadReader* reader, VectorTimestamp* vts);

// The deployment-shape check a decoded update must pass before the runtime
// sees it, whether it came off a link (PeerLinks::OnFrame) or out of the
// WAL (GeoDurability): a known origin, an existing partition and a vector
// timestamp of the deployment's width. A metadata batch must also come
// from one origin, its own.
bool FitsDeployment(const RemoteUpdate& update, std::uint32_t num_dcs,
                    std::uint32_t partitions);
bool FitsDeployment(const GeoMetaBatchMsg& msg, std::uint32_t num_dcs,
                    std::uint32_t partitions);
bool FitsDeployment(const GeoPayloadMsg& msg, std::uint32_t num_dcs,
                    std::uint32_t partitions);

std::string EncodeGeoHello(const GeoHelloMsg& msg);
bool DecodeGeoHello(std::string_view payload, GeoHelloMsg* msg);

// Pointer/count form so the stabilizer can chunk without copying sub-vectors.
std::string EncodeGeoMetaBatch(DatacenterId origin, const RemoteUpdate* updates,
                               std::size_t count);
bool DecodeGeoMetaBatch(std::string_view payload, GeoMetaBatchMsg* msg);

std::string EncodeGeoFrontier(const GeoFrontierMsg& msg);
bool DecodeGeoFrontier(std::string_view payload, GeoFrontierMsg* msg);

std::string EncodeGeoPayload(PartitionId partition,
                             const RemotePayload& payload);
bool DecodeGeoPayload(std::string_view payload, GeoPayloadMsg* msg);
// A kGeoPayload body's metadata (uid, key, vts, origin, partition) without
// copying its value: what the install cursor orders a logged install by and
// replays its metadata from.
bool DecodeGeoPayloadUpdate(std::string_view payload, RemoteUpdate* update);

std::string EncodeGeoAck(const GeoAckMsg& msg);
bool DecodeGeoAck(std::string_view payload, GeoAckMsg* msg);

}  // namespace eunomia::geo::rt::wire
