// Classic Hybrid Logical Clock (Kulkarni et al., OPODIS '14) — reference
// implementation.
//
// The paper cites HLC [24] as the foundation of its hybrid timestamps. The
// production protocol uses the compact scalar form in
// src/clock/hybrid_clock.h; this file keeps the canonical (l, c) pair
// formulation, used by clock_test to check that the scalar form preserves
// HLC's key guarantees (causality capture and bounded divergence from
// physical time when clocks are synchronized).
#pragma once

#include <algorithm>
#include <compare>
#include <cstdint>

namespace eunomia {

struct HlcTimestamp {
  std::uint64_t l = 0;  // physical component (max physical time seen)
  std::uint32_t c = 0;  // logical component

  friend bool operator==(const HlcTimestamp&, const HlcTimestamp&) = default;
  friend std::strong_ordering operator<=>(const HlcTimestamp& a, const HlcTimestamp& b) {
    if (auto cmp = a.l <=> b.l; cmp != 0) {
      return cmp;
    }
    return a.c <=> b.c;
  }
};

class Hlc {
 public:
  // Local or send event at physical time pt.
  HlcTimestamp Tick(std::uint64_t pt) {
    const std::uint64_t old_l = now_.l;
    now_.l = std::max(old_l, pt);
    now_.c = (now_.l == old_l) ? now_.c + 1 : 0;
    return now_;
  }

  // Receive event: merge a remote timestamp at physical time pt.
  HlcTimestamp Merge(std::uint64_t pt, const HlcTimestamp& remote) {
    const std::uint64_t old_l = now_.l;
    now_.l = std::max({old_l, remote.l, pt});
    if (now_.l == old_l && now_.l == remote.l) {
      now_.c = std::max(now_.c, remote.c) + 1;
    } else if (now_.l == old_l) {
      now_.c += 1;
    } else if (now_.l == remote.l) {
      now_.c = remote.c + 1;
    } else {
      now_.c = 0;
    }
    return now_;
  }

  const HlcTimestamp& now() const { return now_; }

 private:
  HlcTimestamp now_;
};

}  // namespace eunomia
