// FCS-32 by carry-less multiplication (PCLMULQDQ): 64-octet folding plus a
// Barrett reduction, after Gopal et al., "Fast CRC Computation for Generic
// Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), in the paper's
// bit-reflected formulation — the PPP FCS-32 shifts LSB first.
//
// The register is carried as a 128-bit polynomial image of the stream. Four
// lanes of 16 octets advance 64 octets per step: each lane's two 64-bit
// halves are multiplied by x^(512+32) and x^(512-32) mod P and the products
// xor-ed into the next block (the +/-32 and the <<1 in the constants absorb
// the reflection and the 32-bit register offset). The lanes then fold into
// one (x^(384±32), x^(256±32), x^(128±32), side by side), any remaining
// 16-octet blocks fold into it, 128 bits fold to 64 (x^96, x^64) and the
// Barrett step with mu = floor(x^64 / P) leaves the 32-bit remainder. Every
// constant is derived below from the polynomial itself.
#include "fastpath/slice_crc.hpp"

#if !defined(P5_FORCE_SCALAR) && defined(__x86_64__) && defined(__GNUC__)
#define P5_CRC_CLMUL 1
#include <immintrin.h>
#else
#define P5_CRC_CLMUL 0
#endif

namespace p5::fastpath {

#if P5_CRC_CLMUL
namespace {

/// FCS-32 generator in normal (MSB-first) form, x^32 term included.
constexpr u64 kPoly = 0x104C11DB7ull;

/// x^n mod P, normal form.
constexpr u64 xpow_mod(unsigned n) {
  u64 r = 1;
  for (unsigned i = 0; i < n; ++i) {
    r <<= 1;
    if (r & (u64{1} << 32)) r ^= kPoly;
  }
  return r;
}

constexpr u64 reflect(u64 v, unsigned bits) {
  u64 r = 0;
  for (unsigned i = 0; i < bits; ++i)
    if (v & (u64{1} << i)) r |= u64{1} << (bits - 1 - i);
  return r;
}

/// Fold multiplier for a distance of n bits, in the reflected domain.
constexpr u64 fold_const(unsigned n) { return reflect(xpow_mod(n), 32) << 1; }

/// floor(x^64 / P): the Barrett constant mu, by long division — one quotient
/// bit per step from x^32 down, `rem` holding the 33-bit window whose top
/// bit is the dividend term x^(32+k).
constexpr u64 barrett_mu() {
  u64 rem = u64{1} << 32;
  u64 q = 0;
  for (int k = 32; k >= 0; --k) {
    if (rem & (u64{1} << 32)) {
      q |= u64{1} << k;
      rem ^= kPoly;
    }
    rem <<= 1;
  }
  return q;
}

/// The multipliers that carry a 128-bit lane `blocks` x 16 octets forward
/// (D = 128 x blocks bits): low half times x^(D+32), high half x^(D-32).
struct FoldPair {
  u64 lo, hi;
};
constexpr FoldPair fold_pair(unsigned blocks) {
  return {fold_const(128 * blocks + 32), fold_const(128 * blocks - 32)};
}

constexpr FoldPair kBy1 = fold_pair(1), kBy2 = fold_pair(2), kBy3 = fold_pair(3),
                   kBy4 = fold_pair(4);
constexpr u64 kK5 = fold_const(64);         // 96 -> 64
constexpr u64 kPolyR = reflect(kPoly, 33);  // P, reflected (33 bits)
constexpr u64 kMuR = reflect(barrett_mu(), 33);

__attribute__((target("pclmul"))) inline __m128i pair(u64 lo, u64 hi) {
  return _mm_set_epi64x(static_cast<long long>(hi), static_cast<long long>(lo));
}
__attribute__((target("pclmul"))) inline __m128i pair(FoldPair k) { return pair(k.lo, k.hi); }

__attribute__((target("pclmul"))) inline __m128i fold(__m128i x, __m128i k, __m128i onto) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), onto);
}

/// n >= 64, n % 16 == 0.
__attribute__((target("pclmul"))) u32 crc32_clmul(u32 state, const u8* p, std::size_t n) {
  const auto load = [](const u8* q) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
  };
  __m128i x1 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x2 = load(p + 16);
  __m128i x3 = load(p + 32);
  __m128i x4 = load(p + 48);
  p += 64;
  n -= 64;

  const __m128i k4 = pair(kBy4);
  for (; n >= 64; p += 64, n -= 64) {
    x1 = fold(x1, k4, load(p));
    x2 = fold(x2, k4, load(p + 16));
    x3 = fold(x3, k4, load(p + 32));
    x4 = fold(x4, k4, load(p + 48));
  }

  // Four lanes into one: each lane jumps straight onto the last (3, 2 and 1
  // blocks ahead), so the multiplies run side by side, not as a chain.
  const __m128i k1 = pair(kBy1);
  x1 = fold(x1, pair(kBy3), fold(x2, pair(kBy2), fold(x3, k1, x4)));
  for (; n >= 16; p += 16, n -= 16) x1 = fold(x1, k1, load(p));

  // 128 -> 64 bits: the low half times x^96, onto the high half; then the
  // low 32 bits times x^64 onto the remaining 64.
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), _mm_clmulepi64_si128(x1, k1, 0x10));
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, low32), pair(kK5, 0), 0x00));

  // Barrett: q = (x1 mod x^32) * mu, r = x1 ^ (q mod x^32) * P.
  const __m128i pmu = pair(kPolyR, kMuR);
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), pmu, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), pmu, 0x00);
  x1 = _mm_xor_si128(x1, q);
  return static_cast<u32>(_mm_cvtsi128_si32(_mm_srli_si128(x1, 4)));
}

bool host_has_clmul() {
  static const bool ok = [] {
    __builtin_cpu_init();  // fcs32() may be first used from a static initializer
    return __builtin_cpu_supports("pclmul") != 0;
  }();
  return ok;
}

}  // namespace

u32 SliceCrc::update_wide(u32 state, BytesView data) const {
  if (host_has_clmul()) {
    const std::size_t bulk = data.size() & ~std::size_t{15};
    state = crc32_clmul(state, data.data(), bulk);
    data = data.subspan(bulk);
  }
  return update_tables(state, data);
}

const char* SliceCrc::kernel() const { return clmul_ && host_has_clmul() ? "clmul" : "slice16"; }

#else

u32 SliceCrc::update_wide(u32 state, BytesView data) const { return update_tables(state, data); }

const char* SliceCrc::kernel() const { return "slice16"; }

#endif

}  // namespace p5::fastpath
