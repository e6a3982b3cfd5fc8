// SWAR (SIMD-within-a-register) byte-scan primitives.
//
// The paper's P5 reaches 2.5 Gbps by widening the datapath to 32 bits and
// classifying four octets per clock. The host-side software stack mirrors the
// same width-scaling idea: these helpers classify eight octets per iteration
// with the classic zero-byte-detect bitmask, so the protocol reference paths
// (stuffing, CRC, framing) stop being the bottleneck of the cycle model.
//
// All predicates are endian-neutral: they only ask "does any byte in this
// word match", never "which bit position", so the same code is correct on
// little- and big-endian hosts. Locating the exact octet is done by a scalar
// re-scan of the (at most eight) flagged bytes.
#pragma once

#include <cstring>

#include "common/types.hpp"
#include "hdlc/accm.hpp"

namespace p5::fastpath {

inline constexpr u64 kSwarOnes = 0x0101010101010101ull;
inline constexpr u64 kSwarHighs = 0x8080808080808080ull;

/// Unaligned 8-byte load (compiles to a single mov on x86/ARM).
[[nodiscard]] inline u64 load_word(const u8* p) {
  u64 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

[[nodiscard]] constexpr u64 broadcast(u8 b) { return kSwarOnes * b; }

/// Non-zero iff any byte of v is 0x00 (Mycroft's zero-byte detector).
[[nodiscard]] constexpr u64 zero_bytes(u64 v) { return (v - kSwarOnes) & ~v & kSwarHighs; }

/// Non-zero iff any byte of v equals b.
[[nodiscard]] constexpr u64 eq_bytes(u64 v, u8 b) { return zero_bytes(v ^ broadcast(b)); }

/// Non-zero iff any byte of v is < bound (valid for bound <= 0x80).
[[nodiscard]] constexpr u64 lt_bytes(u64 v, u8 bound) {
  return (v - broadcast(bound)) & ~v & kSwarHighs;
}

/// Index of the first octet in [i, n) that must be escaped per RFC 1662
/// (flag, escape, or ACCM-selected control character); n if the rest of the
/// buffer is escape-free. Clean 8-byte words are skipped with three SWAR
/// predicates; only words containing a candidate fall back to the exact
/// per-octet Accm check.
[[nodiscard]] inline std::size_t find_next_escape(const u8* p, std::size_t i, std::size_t n,
                                                  const hdlc::Accm& accm) {
  const bool controls = accm.map() != 0;
  while (i < n) {
    while (i + 8 <= n) {
      const u64 v = load_word(p + i);
      u64 m = eq_bytes(v, hdlc::kEscape) | eq_bytes(v, hdlc::kFlag);
      if (controls) m |= lt_bytes(v, 0x20);
      if (m != 0) break;
      i += 8;
    }
    // Either a flagged word (<= 8 candidate octets) or the unaligned tail:
    // resolve exactly, then resume the word loop if none were real escapes
    // (a control octet outside the programmed ACCM map is a false candidate).
    const std::size_t stop = i + 8 < n ? i + 8 : n;
    for (; i < stop; ++i)
      if (accm.must_escape(p[i])) return i;
  }
  return n;
}

}  // namespace p5::fastpath
