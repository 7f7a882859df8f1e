#include "src/wal/log.h"

#include "src/common/crc32.h"
#include "src/net/wire_io.h"

namespace eunomia::wal {

void BuildRecordHeader(char (&out)[kRecordHeaderBytes], std::uint8_t type,
                       std::string_view payload) {
  // CRC covers the type byte followed by the payload, so a record whose
  // payload survived but whose type byte was mangled still fails closed.
  // Computed incrementally: the covered region is never materialized.
  const std::uint32_t crc =
      Crc32Update(Crc32(&type, 1), payload.data(), payload.size());
  net::wire::io::StoreU32(out, kRecordMagic);
  out[4] = static_cast<char>(type);
  out[5] = out[6] = out[7] = '\0';
  net::wire::io::StoreU32(out + 8, static_cast<std::uint32_t>(payload.size()));
  net::wire::io::StoreU32(out + 12, crc);
}

void AppendRecord(std::string* out, std::uint8_t type,
                  std::string_view payload) {
  char header[kRecordHeaderBytes];
  BuildRecordHeader(header, type, payload);
  out->reserve(out->size() + kRecordHeaderBytes + payload.size());
  out->append(header, kRecordHeaderBytes);
  out->append(payload.data(), payload.size());
}

LogState ScanLog(std::string_view bytes,
                 const std::function<void(const RecordView&)>& visit,
                 std::size_t* valid_prefix) {
  std::size_t offset = 0;
  const auto torn = [&](std::size_t at) {
    if (valid_prefix != nullptr) {
      *valid_prefix = at;
    }
    return at == bytes.size() ? LogState::kClean : LogState::kTornTail;
  };
  while (bytes.size() - offset >= kRecordHeaderBytes) {
    const char* header = bytes.data() + offset;
    if (net::wire::io::GetU32(header) != kRecordMagic ||
        header[5] != 0 || header[6] != 0 || header[7] != 0) {
      return torn(offset);
    }
    const std::uint8_t type = static_cast<std::uint8_t>(header[4]);
    const std::size_t length = net::wire::io::GetU32(header + 8);
    const std::uint32_t crc = net::wire::io::GetU32(header + 12);
    if (length > kMaxRecordBytes ||
        bytes.size() - offset - kRecordHeaderBytes < length) {
      return torn(offset);
    }
    const char* payload = header + kRecordHeaderBytes;
    if (Crc32Update(Crc32(&type, 1), payload, length) != crc) {
      return torn(offset);
    }
    visit(RecordView{type, std::string_view(payload, length),
                     bytes.substr(offset, kRecordHeaderBytes + length)});
    offset += kRecordHeaderBytes + length;
  }
  return torn(offset);
}

LogState ReadLog(std::string_view bytes, std::vector<Record>* records,
                 std::size_t* valid_prefix) {
  return ScanLog(
      bytes,
      [records](const RecordView& view) {
        records->push_back(Record{view.type, std::string(view.payload)});
      },
      valid_prefix);
}

}  // namespace eunomia::wal
