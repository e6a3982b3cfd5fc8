// FCS engine: slicing-by-16 tables for any reflected CRC, plus a
// carry-less-multiply (PCLMULQDQ) kernel for FCS-32 on x86-64 hosts.
//
// Slicing-by-16: sixteen interleaved 256-entry tables, sixteen octets per
// iteration — the software analogue of the paper's parallel CRC matrix, which
// widens the hardware FCS unit from one to four bytes per clock. Works for
// any reflected CRC of width <= 32 described by a CrcSpec (both the PPP
// FCS-16 and FCS-32 checks). Table k advances one data byte followed by k
// zero bytes, so by GF(2)-linearity of the shift-register step
//
//   update(S, b0..b15) = T15[(S^b0) & FF] ^ T14[((S>>8)^b1) & FF]
//                      ^ T13[((S>>16)^b2) & FF] ^ T12[((S>>24)^b3) & FF]
//                      ^ T11[b4] ^ ... ^ T0[b15]
//
// The sixteen lookups per iteration are mutually independent, so the loop is
// bound by load throughput, not the 8-byte fold's dependence chain.
//
// Carry-less multiply: the paper computes FCS-32 as one GF(2) matrix step
// per 32-bit word. PCLMULQDQ performs a 64x64-bit GF(2) polynomial product
// in one instruction, so the register can instead be folded forward 64
// octets at a time (four independent 128-bit lanes, each multiplied by
// x^(512±32) mod P) and finally Barrett-reduced to 32 bits (Gopal et al.,
// "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ", Intel
// 2009). update() takes that path for FCS-32 buffers of at least 64 octets
// when CPUID reports PCLMULQDQ; everything else — shorter buffers, FCS-16,
// other hosts, P5_FORCE_SCALAR builds — runs the slicing tables, which stay
// callable as update_tables() for the differential tests (tests/test_crc.cpp
// checks both against the bit-serial golden model).
#pragma once

#include "common/types.hpp"
#include "crc/crc_reference.hpp"
#include "crc/crc_spec.hpp"

namespace p5::fastpath {

class SliceCrc {
 public:
  explicit constexpr SliceCrc(const crc::CrcSpec& spec)
      : spec_(spec), clmul_(spec.width == 32 && spec.poly == crc::kFcs32.poly) {
    for (u32 b = 0; b < 256; ++b) t_[0][b] = crc::bitwise_step(spec, 0, static_cast<u8>(b));
    for (int k = 1; k < 16; ++k)
      for (u32 b = 0; b < 256; ++b) t_[k][b] = (t_[k - 1][b] >> 8) ^ t_[0][t_[k - 1][b] & 0xFFu];
  }

  [[nodiscard]] const crc::CrcSpec& spec() const { return spec_; }

  /// Advance the raw register by one byte (table-driven, for tails and fused
  /// per-octet paths).
  [[nodiscard]] constexpr u32 update_byte(u32 state, u8 b) const {
    return (state >> 8) ^ t_[0][(state ^ b) & 0xFFu];
  }

  /// Advance the raw register over a buffer with the fastest kernel this
  /// host and polynomial allow.
  [[nodiscard]] u32 update(u32 state, BytesView data) const {
    if (clmul_ && data.size() >= kClmulMinBytes) return update_wide(state, data);
    return update_tables(state, data);
  }

  /// The kernel update() dispatches to for buffers of 64 octets or more:
  /// "clmul" or "slice16".
  [[nodiscard]] const char* kernel() const;

  /// Advance the raw register over a buffer, sixteen bytes per iteration.
  [[nodiscard]] u32 update_tables(u32 state, BytesView data) const {
    const u8* p = data.data();
    std::size_t n = data.size();
    while (n >= 16) {
      const u32 a = state ^ (static_cast<u32>(p[0]) | static_cast<u32>(p[1]) << 8 |
                             static_cast<u32>(p[2]) << 16 | static_cast<u32>(p[3]) << 24);
      const u32 b = static_cast<u32>(p[4]) | static_cast<u32>(p[5]) << 8 |
                    static_cast<u32>(p[6]) << 16 | static_cast<u32>(p[7]) << 24;
      const u32 c = static_cast<u32>(p[8]) | static_cast<u32>(p[9]) << 8 |
                    static_cast<u32>(p[10]) << 16 | static_cast<u32>(p[11]) << 24;
      const u32 d = static_cast<u32>(p[12]) | static_cast<u32>(p[13]) << 8 |
                    static_cast<u32>(p[14]) << 16 | static_cast<u32>(p[15]) << 24;
      state = t_[15][a & 0xFFu] ^ t_[14][(a >> 8) & 0xFFu] ^ t_[13][(a >> 16) & 0xFFu] ^
              t_[12][a >> 24] ^ t_[11][b & 0xFFu] ^ t_[10][(b >> 8) & 0xFFu] ^
              t_[9][(b >> 16) & 0xFFu] ^ t_[8][b >> 24] ^ t_[7][c & 0xFFu] ^
              t_[6][(c >> 8) & 0xFFu] ^ t_[5][(c >> 16) & 0xFFu] ^ t_[4][c >> 24] ^
              t_[3][d & 0xFFu] ^ t_[2][(d >> 8) & 0xFFu] ^ t_[1][(d >> 16) & 0xFFu] ^
              t_[0][d >> 24];
      p += 16;
      n -= 16;
    }
    while (n >= 8) {
      const u32 lo = state ^ (static_cast<u32>(p[0]) | static_cast<u32>(p[1]) << 8 |
                              static_cast<u32>(p[2]) << 16 | static_cast<u32>(p[3]) << 24);
      const u32 hi = static_cast<u32>(p[4]) | static_cast<u32>(p[5]) << 8 |
                     static_cast<u32>(p[6]) << 16 | static_cast<u32>(p[7]) << 24;
      state = t_[7][lo & 0xFFu] ^ t_[6][(lo >> 8) & 0xFFu] ^ t_[5][(lo >> 16) & 0xFFu] ^
              t_[4][lo >> 24] ^ t_[3][hi & 0xFFu] ^ t_[2][(hi >> 8) & 0xFFu] ^
              t_[1][(hi >> 16) & 0xFFu] ^ t_[0][hi >> 24];
      p += 8;
      n -= 8;
    }
    for (; n != 0; --n, ++p) state = update_byte(state, *p);
    return state & spec_.mask();
  }

 private:
  /// Shortest buffer the carry-less-multiply kernel takes (one 64-octet fold
  /// block); below it the table loop is faster than the reduction tail.
  static constexpr std::size_t kClmulMinBytes = 64;

  /// FCS-32 over >= kClmulMinBytes: the carry-less-multiply kernel for the
  /// 16-octet-aligned bulk when the host has it, tables for the rest.
  [[nodiscard]] u32 update_wide(u32 state, BytesView data) const;

  crc::CrcSpec spec_;
  bool clmul_;  ///< the spec is the FCS-32 polynomial the kernel's constants encode
  u32 t_[16][256]{};
};

}  // namespace p5::fastpath
