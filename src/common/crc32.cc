#include "src/common/crc32.h"

#include <array>
#include <cstring>

namespace eunomia {

namespace {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 16>;

// Slice-by-16 tables: table[0] is the classic byte-at-a-time CRC-32 table
// (polynomial 0xEDB88320); table[j][b] gives the CRC contribution of byte b
// placed j positions ahead, so sixteen input bytes fold into the
// accumulator with sixteen independent lookups per iteration — two 8-byte
// halves with no serial dependency between them — instead of a dependency
// chain per byte. Same polynomial, bit-identical results — only the
// throughput changes (every frame payload is checksummed in both directions
// and every WAL record on the commit path).
CrcTables MakeCrcTables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = tables[0][i];
    for (std::size_t j = 1; j < 16; ++j) {
      c = tables[0][c & 0xffu] ^ (c >> 8);
      tables[j][i] = c;
    }
  }
  return tables;
}

}  // namespace

std::uint32_t Crc32Update(std::uint32_t crc, const void* data,
                          std::size_t size) {
  static const CrcTables tables = MakeCrcTables();
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  while (size >= 16) {
    // Little-endian fold: the running CRC mixes into the first 8-byte
    // chunk; the second chunk's lookups are fully independent of it, so
    // the two halves overlap in the pipeline.
    std::uint64_t a;
    std::uint64_t b;
    std::memcpy(&a, p, sizeof(a));
    std::memcpy(&b, p + 8, sizeof(b));
    a ^= crc;
    crc = tables[15][a & 0xffu] ^ tables[14][(a >> 8) & 0xffu] ^
          tables[13][(a >> 16) & 0xffu] ^ tables[12][(a >> 24) & 0xffu] ^
          tables[11][(a >> 32) & 0xffu] ^ tables[10][(a >> 40) & 0xffu] ^
          tables[9][(a >> 48) & 0xffu] ^ tables[8][a >> 56] ^
          tables[7][b & 0xffu] ^ tables[6][(b >> 8) & 0xffu] ^
          tables[5][(b >> 16) & 0xffu] ^ tables[4][(b >> 24) & 0xffu] ^
          tables[3][(b >> 32) & 0xffu] ^ tables[2][(b >> 40) & 0xffu] ^
          tables[1][(b >> 48) & 0xffu] ^ tables[0][b >> 56];
    p += 16;
    size -= 16;
  }
  for (std::size_t i = 0; i < size; ++i) {
    crc = tables[0][(crc ^ p[i]) & 0xffu] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace eunomia
