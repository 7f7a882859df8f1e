#include "src/georep/runtime/geo_wire.h"

#include <algorithm>
#include <cassert>

namespace eunomia::geo::rt::wire {

namespace {

using net::wire::io::PayloadReader;
using net::wire::io::PutU32;
using net::wire::io::PutU64;

// Sanity bound on vector-timestamp width: a deployment of more than 256
// datacenters is outside every shape this runtime accepts, so a larger
// width on the wire is treated as a malformed payload before any
// allocation happens.
constexpr std::uint32_t kMaxVectorEntries = 256;

// The fields of a kGeoPayload body in front of its value, and the value's
// length.
bool ReadPayloadHead(PayloadReader* reader, PartitionId* partition,
                     std::uint64_t* uid, Key* key, DatacenterId* origin,
                     VectorTimestamp* vts, std::uint32_t* value_len) {
  return reader->U32(partition) && reader->U64(uid) && reader->U64(key) &&
         reader->U32(origin) && ReadVts(reader, vts) && reader->U32(value_len);
}

}  // namespace

void AppendVts(std::string* out, const VectorTimestamp& vts) {
  PutU32(out, vts.size());
  for (std::uint32_t d = 0; d < vts.size(); ++d) {
    PutU64(out, vts[d]);
  }
}

bool ReadVts(PayloadReader* reader, VectorTimestamp* vts) {
  std::uint32_t len = 0;
  if (!reader->U32(&len) || len == 0 || len > kMaxVectorEntries ||
      reader->remaining() < static_cast<std::size_t>(len) * 8) {
    return false;
  }
  *vts = VectorTimestamp(len);
  for (std::uint32_t d = 0; d < len; ++d) {
    std::uint64_t v = 0;
    if (!reader->U64(&v)) return false;
    (*vts)[d] = v;
  }
  return true;
}

bool FitsDeployment(const RemoteUpdate& update, std::uint32_t num_dcs,
                    std::uint32_t partitions) {
  return update.origin < num_dcs && update.partition < partitions &&
         update.vts.size() == num_dcs;
}

bool FitsDeployment(const GeoMetaBatchMsg& msg, std::uint32_t num_dcs,
                    std::uint32_t partitions) {
  return std::all_of(msg.updates.begin(), msg.updates.end(),
                     [&](const RemoteUpdate& u) {
                       return u.origin == msg.origin &&
                              FitsDeployment(u, num_dcs, partitions);
                     });
}

bool FitsDeployment(const GeoPayloadMsg& msg, std::uint32_t num_dcs,
                    std::uint32_t partitions) {
  return msg.payload.origin < num_dcs && msg.partition < partitions &&
         msg.payload.vts.size() == num_dcs;
}

std::string EncodeGeoHello(const GeoHelloMsg& msg) {
  std::string payload;
  PutU32(&payload, msg.protocol_version);
  PutU32(&payload, msg.dc);
  PutU32(&payload, msg.num_dcs);
  PutU32(&payload, msg.partitions);
  PutU32(&payload, msg.link_kind);
  PutU64(&payload, msg.resume_from);
  return payload;
}

bool DecodeGeoHello(std::string_view payload, GeoHelloMsg* msg) {
  PayloadReader reader(payload);
  return reader.U32(&msg->protocol_version) && reader.U32(&msg->dc) &&
         reader.U32(&msg->num_dcs) && reader.U32(&msg->partitions) &&
         reader.U32(&msg->link_kind) && reader.U64(&msg->resume_from) &&
         reader.done();
}

std::string EncodeGeoMetaBatch(DatacenterId origin, const RemoteUpdate* updates,
                               std::size_t count) {
  std::string payload;
  payload.reserve(8 + (count == 0 ? 0
                                  : count * RemoteUpdateWireBytes(
                                                updates[0].vts.size())));
  PutU32(&payload, origin);
  PutU32(&payload, static_cast<std::uint32_t>(count));
  for (std::size_t i = 0; i < count; ++i) {
    const RemoteUpdate& u = updates[i];
    PutU64(&payload, u.uid);
    PutU64(&payload, u.key);
    PutU32(&payload, u.origin);
    PutU32(&payload, u.partition);
    AppendVts(&payload, u.vts);
  }
  assert(payload.size() <= net::wire::kMaxPayloadBytes);
  return payload;
}

bool DecodeGeoMetaBatch(std::string_view payload, GeoMetaBatchMsg* msg) {
  PayloadReader reader(payload);
  std::uint32_t count = 0;
  if (!reader.U32(&msg->origin) || !reader.U32(&count)) {
    return false;
  }
  // Each update is at least 28 bytes: a count the payload cannot hold is
  // rejected before any reservation.
  if (static_cast<std::size_t>(count) * 28 > reader.remaining()) {
    return false;
  }
  msg->updates.clear();
  msg->updates.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    RemoteUpdate u;
    if (!reader.U64(&u.uid) || !reader.U64(&u.key) || !reader.U32(&u.origin) ||
        !reader.U32(&u.partition) || !ReadVts(&reader, &u.vts)) {
      return false;
    }
    msg->updates.push_back(std::move(u));
  }
  return reader.done();
}

std::string EncodeGeoFrontier(const GeoFrontierMsg& msg) {
  std::string payload;
  PutU32(&payload, msg.origin);
  PutU64(&payload, msg.frontier);
  return payload;
}

bool DecodeGeoFrontier(std::string_view payload, GeoFrontierMsg* msg) {
  PayloadReader reader(payload);
  return reader.U32(&msg->origin) && reader.U64(&msg->frontier) &&
         reader.done();
}

std::string EncodeGeoPayload(PartitionId partition,
                             const RemotePayload& payload) {
  std::string out;
  out.reserve(32 + 8 * payload.vts.size() + payload.value.size());
  PutU32(&out, partition);
  PutU64(&out, payload.uid);
  PutU64(&out, payload.key);
  PutU32(&out, payload.origin);
  AppendVts(&out, payload.vts);
  PutU32(&out, static_cast<std::uint32_t>(payload.value.size()));
  out.append(payload.value);
  assert(out.size() <= net::wire::kMaxPayloadBytes);
  return out;
}

bool DecodeGeoPayload(std::string_view payload, GeoPayloadMsg* msg) {
  PayloadReader reader(payload);
  RemotePayload& p = msg->payload;
  std::uint32_t value_len = 0;
  if (!ReadPayloadHead(&reader, &msg->partition, &p.uid, &p.key, &p.origin,
                       &p.vts, &value_len)) {
    return false;
  }
  return reader.Bytes(value_len, &p.value) && reader.done();
}

bool DecodeGeoPayloadUpdate(std::string_view payload, RemoteUpdate* update) {
  PayloadReader reader(payload);
  std::uint32_t value_len = 0;
  if (!ReadPayloadHead(&reader, &update->partition, &update->uid, &update->key,
                       &update->origin, &update->vts, &value_len)) {
    return false;
  }
  return reader.remaining() == value_len;
}

std::string EncodeGeoAck(const GeoAckMsg& msg) {
  std::string payload;
  PutU32(&payload, msg.dc);
  PutU64(&payload, msg.applied);
  return payload;
}

bool DecodeGeoAck(std::string_view payload, GeoAckMsg* msg) {
  PayloadReader reader(payload);
  return reader.U32(&msg->dc) && reader.U64(&msg->applied) && reader.done();
}

}  // namespace eunomia::geo::rt::wire
