// CRC-32 (IEEE 802.3 polynomial, reflected, as used by zlib) — the one
// checksum in the tree: the wire protocol guards every frame payload with
// it and the WAL guards every record with it.
#pragma once

#include <cstddef>
#include <cstdint>

namespace eunomia {

// Streaming form, zlib-style: `crc` is the finished CRC of the bytes seen so
// far (0 for none), so Crc32(concat(a, b)) == Crc32Update(Crc32(a), b). Lets
// a caller checksum a logical region without materializing it.
std::uint32_t Crc32Update(std::uint32_t crc, const void* data,
                          std::size_t size);

inline std::uint32_t Crc32(const void* data, std::size_t size) {
  return Crc32Update(0, data, size);
}

}  // namespace eunomia
