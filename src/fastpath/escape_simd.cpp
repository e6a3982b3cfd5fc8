#include "fastpath/escape_simd.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <cstring>

#include "fastpath/stuff_fast.hpp"

// SIMD tiers are x86-64 only (the portable SWAR/scalar tiers cover everything
// else) and use GCC/Clang target attributes so no global -mavx2 is needed:
// each kernel is compiled for its own ISA and only ever called after CPUID
// dispatch proves the host supports it.
#if !defined(P5_FORCE_SCALAR) && defined(__x86_64__) && defined(__GNUC__)
#define P5_ESCAPE_SIMD 1
#include <immintrin.h>
#else
#define P5_ESCAPE_SIMD 0
#endif

namespace p5::fastpath {

namespace {

// ---------------------------------------------------------------------------
// Group tables. All kernels resolve escapes in 8-octet groups addressed by an
// 8-bit mask, so every per-group decision is one table lookup — the software
// analogue of the paper's byte sorter, which routes an 8-octet word (worst
// case doubled to 16) through a crossbar in one pipeline stage.
// ---------------------------------------------------------------------------

/// Stuff expansion for a group with escape mask m: output slot j of the
/// 16-octet result is either a pass-through octet, the 0x7D marker of an
/// escaped octet, or its xor-0x20 image. Output length = 8 + popcount(m).
struct ExpandTables {
  u8 shuf[256][16];    ///< pshufb source index per output slot (0x80 = zero)
  u8 second[256][16];  ///< 0x20 at escaped-value slots (applied by xor)
  u8 first[256][16];   ///< 0xFF at escape-marker slots (blended to 0x7D)
};

constexpr ExpandTables make_expand_tables() {
  ExpandTables t{};
  for (unsigned m = 0; m < 256; ++m) {
    unsigned j = 0;
    for (unsigned i = 0; i < 8; ++i) {
      if ((m >> i) & 1u) {
        t.shuf[m][j] = static_cast<u8>(i);
        t.first[m][j] = 0xFF;
        ++j;
        t.shuf[m][j] = static_cast<u8>(i);
        t.second[m][j] = hdlc::kXor;
        ++j;
      } else {
        t.shuf[m][j] = static_cast<u8>(i);
        ++j;
      }
    }
    for (; j < 16; ++j) t.shuf[m][j] = 0x80;
  }
  return t;
}

constexpr ExpandTables kExpand = make_expand_tables();

/// Resolve which 0x7D octets of a window (equality mask `b`, up to 64 bits)
/// are escape *markers*, i.e. not themselves escaped by the previous octet —
/// a run of k consecutive 0x7D yields markers at alternate positions, so
/// 7D 7D decodes to 0x5D, not two markers. Branchless: adding each run's
/// start bit carries through the run, which recovers the run extent; the
/// alternation is then start-parity masking. `pending` carries the
/// trailing-marker state across windows (and in: an incoming pending escape
/// consumes octet 0).
struct MarkerResolve {
  u64 markers;  ///< marker octets (dropped by compression)
  u64 escaped;  ///< escaped octets (xor-0x20 and kept)
};

inline MarkerResolve resolve_markers(u64 b, unsigned nbits, unsigned& pending) {
  b &= ~static_cast<u64>(pending);
  const u64 starts = b & ~(b << 1);
  constexpr u64 kEven = 0x5555555555555555ull;
  const u64 even_runs = (b ^ (b + (starts & kEven))) & b;
  const u64 odd_runs = (b ^ (b + (starts & ~kEven))) & b;
  const u64 markers = (even_runs & kEven) | (odd_runs & ~kEven);
  const u64 escaped = (markers << 1) | pending;
  pending = static_cast<unsigned>((markers >> (nbits - 1)) & 1u);
  return {markers, escaped};
}

/// kSpread64[m]: byte i = 0xFF iff bit i of m — turns an escaped-octet mask
/// into an 8-octet xor mask (& 0x20..20).
constexpr std::array<u64, 256> make_spread_table() {
  std::array<u64, 256> t{};
  for (unsigned m = 0; m < 256; ++m) {
    u64 v = 0;
    for (unsigned i = 0; i < 8; ++i)
      if ((m >> i) & 1u) v |= 0xFFull << (8 * i);
    t[m] = v;
  }
  return t;
}

constexpr std::array<u64, 256> kSpread64 = make_spread_table();

/// Destuff compression: drop the marker octets of a group, keep the rest in
/// order. Output length = 8 - popcount(markers).
struct CompressTable {
  u8 shuf[256][16];
};

constexpr CompressTable make_compress_table() {
  CompressTable t{};
  for (unsigned m = 0; m < 256; ++m) {
    unsigned j = 0;
    for (unsigned i = 0; i < 8; ++i)
      if (((m >> i) & 1u) == 0) t.shuf[m][j++] = static_cast<u8>(i);
    for (; j < 16; ++j) t.shuf[m][j] = 0x80;
  }
  return t;
}

constexpr CompressTable kCompress = make_compress_table();

/// Same as kCompress but sourcing the *high* half of a 16-octet window
/// (indices 8..15), so both halves of a window compress from one register.
constexpr CompressTable make_compress_hi_table() {
  CompressTable t{};
  for (unsigned m = 0; m < 256; ++m) {
    unsigned j = 0;
    for (unsigned i = 0; i < 8; ++i)
      if (((m >> i) & 1u) == 0) t.shuf[m][j++] = static_cast<u8>(8 + i);
    for (; j < 16; ++j) t.shuf[m][j] = 0x80;
  }
  return t;
}

constexpr CompressTable kCompressHi = make_compress_hi_table();

/// kShiftUp[k]: pshufb control that moves a register's octets up by k slots
/// (zero-filling below), used to butt the compressed high half against the
/// compressed low half before one merged store.
constexpr std::array<std::array<u8, 16>, 9> make_shift_up_table() {
  std::array<std::array<u8, 16>, 9> t{};
  for (unsigned k = 0; k <= 8; ++k)
    for (unsigned j = 0; j < 16; ++j)
      t[k][j] = j >= k ? static_cast<u8>(j - k) : 0x80;
  return t;
}

constexpr std::array<std::array<u8, 16>, 9> kShiftUp = make_shift_up_table();

// ---------------------------------------------------------------------------
// Exact scalar paths (the kScalar tier, small frames, and vector tails).
// Byte-identical to fastpath::scalar:: by construction.
// ---------------------------------------------------------------------------

void stuff_scalar(Bytes& out, BytesView data, const EscapeClassTables& t) {
  for (const u8 b : data) {
    if (t.cls[b]) {
      out.push_back(hdlc::kEscape);
      out.push_back(static_cast<u8>(b ^ hdlc::kXor));
    } else {
      out.push_back(b);
    }
  }
}

bool destuff_scalar(Bytes& out, BytesView data) {
  bool esc = false;
  for (const u8 b : data) {
    if (esc) {
      out.push_back(static_cast<u8>(b ^ hdlc::kXor));
      esc = false;
    } else if (b == hdlc::kEscape) {
      esc = true;
    } else {
      out.push_back(b);
    }
  }
  return !esc;
}

u32 stuff_crc_scalar(Bytes& out, BytesView data, const EscapeClassTables& t, const SliceCrc& crc,
                     u32 state) {
  for (const u8 b : data) {
    state = crc.update_byte(state, b);
    if (t.cls[b]) {
      out.push_back(hdlc::kEscape);
      out.push_back(static_cast<u8>(b ^ hdlc::kXor));
    } else {
      out.push_back(b);
    }
  }
  return state & crc.spec().mask();
}

inline void add_windows(TierCounters& to, const TierCounters& from) {
  to.clean_windows += from.clean_windows;
  to.sparse_windows += from.sparse_windows;
  to.dense_windows += from.dense_windows;
}

inline void count_window(TierCounters& c, unsigned popcnt) {
  if (popcnt <= 2)
    ++c.sparse_windows;
  else
    ++c.dense_windows;
}

#if P5_ESCAPE_SIMD

/// Stuff `len` octets from `src` into dst at write cursor `w`: the SIMD
/// tiers' scalar leg (tails, and SSE2's flagged windows). Returns the
/// advanced cursor.
inline std::size_t stuff_run(u8* dst, std::size_t w, const u8* src, std::size_t len,
                             const EscapeClassTables& t) {
  for (std::size_t k = 0; k < len; ++k) {
    const u8 b = src[k];
    if (t.cls[b]) {
      dst[w++] = hdlc::kEscape;
      dst[w++] = static_cast<u8>(b ^ hdlc::kXor);
    } else {
      dst[w++] = b;
    }
  }
  return w;
}

/// Destuff counterpart of stuff_run; `pending` carries an escape marker
/// across calls (and across the vector windows around them).
inline std::size_t destuff_run(u8* dst, std::size_t w, const u8* src, std::size_t len,
                               unsigned& pending) {
  for (std::size_t k = 0; k < len; ++k) {
    const u8 b = src[k];
    if (pending) {
      dst[w++] = static_cast<u8>(b ^ hdlc::kXor);
      pending = 0;
    } else if (b == hdlc::kEscape) {
      pending = 1;
    } else {
      dst[w++] = b;
    }
  }
  return w;
}

// ---------------------------------------------------------------------------
// SSE2 tier: vector escape *detection* only (no pshufb), exact scalar emit on
// flagged windows. With a nonzero ACCM the detector over-approximates (all
// control octets flag the window); the scalar emit applies the exact class
// table, so the wire image is still exact.
// ---------------------------------------------------------------------------

inline unsigned detect16_sse2(__m128i v, bool controls) {
  __m128i m = _mm_or_si128(_mm_cmpeq_epi8(v, _mm_set1_epi8(static_cast<char>(hdlc::kFlag))),
                           _mm_cmpeq_epi8(v, _mm_set1_epi8(static_cast<char>(hdlc::kEscape))));
  if (controls)
    m = _mm_or_si128(m, _mm_cmpeq_epi8(_mm_min_epu8(v, _mm_set1_epi8(0x1F)), v));
  return static_cast<unsigned>(_mm_movemask_epi8(m));
}

std::size_t stuff_sse2(u8* dst, const u8* p, std::size_t n, const EscapeClassTables& t,
                       TierCounters& c) {
  std::size_t w = 0;
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + i));
    const unsigned mask = detect16_sse2(v, t.has_controls);
    if (mask == 0) {
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + w), v);
      w += 16;
      ++c.clean_windows;
      continue;
    }
    count_window(c, static_cast<unsigned>(std::popcount(mask)));
    w = stuff_run(dst, w, p + i, 16, t);
  }
  return stuff_run(dst, w, p + i, n - i, t);
}

bool destuff_sse2(u8* dst, const u8* p, std::size_t n, std::size_t& w_out, TierCounters& c) {
  std::size_t w = 0;
  std::size_t i = 0;
  unsigned pending = 0;
  const __m128i escv = _mm_set1_epi8(static_cast<char>(hdlc::kEscape));
  while (i + 16 <= n) {
    const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + i));
    const unsigned mask =
        static_cast<unsigned>(_mm_movemask_epi8(_mm_cmpeq_epi8(v, escv)));
    if (mask == 0 && pending == 0) {
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + w), v);
      w += 16;
      i += 16;
      ++c.clean_windows;
      continue;
    }
    count_window(c, static_cast<unsigned>(std::popcount(mask)));
    // Dirty-window hysteresis: without pshufb the emit is scalar anyway, so
    // skip re-detection for the next few windows — dense streams then pay
    // one vector probe per 64 octets instead of per 16.
    const std::size_t stop = std::min(i + 64, n);
    w = destuff_run(dst, w, p + i, stop - i, pending);
    i = stop;
  }
  w_out = destuff_run(dst, w, p + i, n - i, pending);
  return pending == 0;
}

// ---------------------------------------------------------------------------
// SSSE3 tier: exact vector classification (ACCM nibble tables through pshufb)
// plus branchless table-driven group expand/compress.
// ---------------------------------------------------------------------------

/// Exact per-octet escape classification of a 16-octet window as a movemask.
__attribute__((target("ssse3"))) inline unsigned classify16(__m128i v,
                                                            const EscapeClassTables& t) {
  __m128i m = _mm_or_si128(_mm_cmpeq_epi8(v, _mm_set1_epi8(static_cast<char>(hdlc::kFlag))),
                           _mm_cmpeq_epi8(v, _mm_set1_epi8(static_cast<char>(hdlc::kEscape))));
  if (t.has_controls) {
    const __m128i lo = _mm_loadu_si128(reinterpret_cast<const __m128i*>(t.accm_lo));
    const __m128i hi = _mm_loadu_si128(reinterpret_cast<const __m128i*>(t.accm_hi));
    const __m128i nib = _mm_and_si128(v, _mm_set1_epi8(0x0F));
    const __m128i sel_hi =
        _mm_cmpeq_epi8(_mm_and_si128(v, _mm_set1_epi8(0x10)), _mm_set1_epi8(0x10));
    const __m128i mapped = _mm_or_si128(_mm_andnot_si128(sel_hi, _mm_shuffle_epi8(lo, nib)),
                                        _mm_and_si128(sel_hi, _mm_shuffle_epi8(hi, nib)));
    // Only octets < 0x20 are control candidates; everything else must ignore
    // the (garbage) nibble lookup.
    const __m128i is_ctrl = _mm_cmpeq_epi8(_mm_min_epu8(v, _mm_set1_epi8(0x1F)), v);
    m = _mm_or_si128(m, _mm_and_si128(mapped, is_ctrl));
  }
  return static_cast<unsigned>(_mm_movemask_epi8(m));
}

/// Branchless stuff of one 8-octet group (in the low half of `g`) with escape
/// mask m: pshufb expansion, xor-0x20 at value slots, blend 0x7D at marker
/// slots, one 16-octet store. Returns the advanced write cursor.
__attribute__((target("ssse3"))) inline std::size_t stuff_group(u8* dst, std::size_t w, __m128i g,
                                                                unsigned m) {
  m &= 0xFFu;
  __m128i s =
      _mm_shuffle_epi8(g, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kExpand.shuf[m])));
  s = _mm_xor_si128(s, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kExpand.second[m])));
  const __m128i f = _mm_loadu_si128(reinterpret_cast<const __m128i*>(kExpand.first[m]));
  s = _mm_or_si128(_mm_andnot_si128(f, s),
                   _mm_and_si128(f, _mm_set1_epi8(static_cast<char>(hdlc::kEscape))));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + w), s);
  return w + 8 + static_cast<std::size_t>(std::popcount(m));
}

/// Branchless destuff of a whole 16-octet window given its resolved marker
/// and escaped masks: xor-0x20 every escaped octet in one pass, compress
/// each 8-octet half through its own table, butt the halves together with a
/// variable shift, and emit one merged 16-octet store.
__attribute__((target("ssse3"))) inline std::size_t destuff16(u8* dst, std::size_t w, __m128i g,
                                                              unsigned markers, unsigned escaped) {
  const unsigned m_lo = markers & 0xFFu;
  const unsigned m_hi = (markers >> 8) & 0xFFu;
  const unsigned e_lo = escaped & 0xFFu;
  const unsigned e_hi = (escaped >> 8) & 0xFFu;
  const __m128i x = _mm_and_si128(_mm_set_epi64x(static_cast<long long>(kSpread64[e_hi]),
                                                 static_cast<long long>(kSpread64[e_lo])),
                                  _mm_set1_epi8(hdlc::kXor));
  g = _mm_xor_si128(g, x);
  const __m128i lo_c = _mm_shuffle_epi8(
      g, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kCompress.shuf[m_lo])));
  __m128i hi_c = _mm_shuffle_epi8(
      g, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kCompressHi.shuf[m_hi])));
  const std::size_t len_lo = 8 - static_cast<std::size_t>(std::popcount(m_lo));
  hi_c = _mm_shuffle_epi8(
      hi_c, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kShiftUp[len_lo].data())));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + w), _mm_or_si128(lo_c, hi_c));
  return w + len_lo + 8 - static_cast<std::size_t>(std::popcount(m_hi));
}

__attribute__((target("ssse3"))) std::size_t stuff_ssse3(u8* dst, const u8* p, std::size_t n,
                                                         const EscapeClassTables& t,
                                                         TierCounters& c) {
  std::size_t w = 0;
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + i));
    const unsigned mask = classify16(v, t);
    if (mask == 0) {
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + w), v);
      w += 16;
      ++c.clean_windows;
      continue;
    }
    count_window(c, static_cast<unsigned>(std::popcount(mask)));
    w = stuff_group(dst, w, v, mask);
    w = stuff_group(dst, w, _mm_srli_si128(v, 8), mask >> 8);
  }
  return stuff_run(dst, w, p + i, n - i, t);
}

__attribute__((target("ssse3"))) bool destuff_ssse3(u8* dst, const u8* p, std::size_t n,
                                                    std::size_t& w_out, TierCounters& c) {
  std::size_t w = 0;
  std::size_t i = 0;
  unsigned pending = 0;
  const __m128i escv = _mm_set1_epi8(static_cast<char>(hdlc::kEscape));
  for (; i + 16 <= n; i += 16) {
    const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + i));
    const unsigned mask =
        static_cast<unsigned>(_mm_movemask_epi8(_mm_cmpeq_epi8(v, escv)));
    if (mask == 0 && pending == 0) {
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + w), v);
      w += 16;
      ++c.clean_windows;
      continue;
    }
    count_window(c, static_cast<unsigned>(std::popcount(mask)));
    const MarkerResolve r = resolve_markers(mask, 16, pending);
    w = destuff16(dst, w, v, static_cast<unsigned>(r.markers), static_cast<unsigned>(r.escaped));
  }
  w_out = destuff_run(dst, w, p + i, n - i, pending);
  return pending == 0;
}

// ---------------------------------------------------------------------------
// AVX2 tier: 32-octet windows for detection and clean bulk copies; flagged
// windows fall back to the same 8-octet group kernels (AVX2's win is the
// clean path — group resolution is table-bound either way).
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) inline unsigned classify32(__m256i v,
                                                           const EscapeClassTables& t) {
  __m256i m =
      _mm256_or_si256(_mm256_cmpeq_epi8(v, _mm256_set1_epi8(static_cast<char>(hdlc::kFlag))),
                      _mm256_cmpeq_epi8(v, _mm256_set1_epi8(static_cast<char>(hdlc::kEscape))));
  if (t.has_controls) {
    const __m256i lo = _mm256_broadcastsi128_si256(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(t.accm_lo)));
    const __m256i hi = _mm256_broadcastsi128_si256(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(t.accm_hi)));
    const __m256i nib = _mm256_and_si256(v, _mm256_set1_epi8(0x0F));
    const __m256i sel_hi = _mm256_cmpeq_epi8(_mm256_and_si256(v, _mm256_set1_epi8(0x10)),
                                             _mm256_set1_epi8(0x10));
    const __m256i mapped =
        _mm256_or_si256(_mm256_andnot_si256(sel_hi, _mm256_shuffle_epi8(lo, nib)),
                        _mm256_and_si256(sel_hi, _mm256_shuffle_epi8(hi, nib)));
    const __m256i is_ctrl =
        _mm256_cmpeq_epi8(_mm256_min_epu8(v, _mm256_set1_epi8(0x1F)), v);
    m = _mm256_or_si256(m, _mm256_and_si256(mapped, is_ctrl));
  }
  return static_cast<unsigned>(_mm256_movemask_epi8(m));
}

__attribute__((target("avx2"))) std::size_t stuff_avx2(u8* dst, const u8* p, std::size_t n,
                                                       const EscapeClassTables& t,
                                                       TierCounters& c) {
  std::size_t w = 0;
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i));
    const unsigned mask = classify32(v, t);
    if (mask == 0) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + w), v);
      w += 32;
      ++c.clean_windows;
      continue;
    }
    count_window(c, static_cast<unsigned>(std::popcount(mask)));
    const __m128i lo = _mm256_castsi256_si128(v);
    const __m128i hi = _mm256_extracti128_si256(v, 1);
    w = stuff_group(dst, w, lo, mask);
    w = stuff_group(dst, w, _mm_srli_si128(lo, 8), mask >> 8);
    w = stuff_group(dst, w, hi, mask >> 16);
    w = stuff_group(dst, w, _mm_srli_si128(hi, 8), mask >> 24);
  }
  return stuff_run(dst, w, p + i, n - i, t);
}

__attribute__((target("avx2"))) bool destuff_avx2(u8* dst, const u8* p, std::size_t n,
                                                  std::size_t& w_out, TierCounters& c) {
  std::size_t w = 0;
  std::size_t i = 0;
  unsigned pending = 0;
  const __m256i escv = _mm256_set1_epi8(static_cast<char>(hdlc::kEscape));
  for (; i + 32 <= n; i += 32) {
    const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i));
    const unsigned mask =
        static_cast<unsigned>(_mm256_movemask_epi8(_mm256_cmpeq_epi8(v, escv)));
    if (mask == 0 && pending == 0) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + w), v);
      w += 32;
      ++c.clean_windows;
      continue;
    }
    count_window(c, static_cast<unsigned>(std::popcount(mask)));
    const MarkerResolve r = resolve_markers(mask, 32, pending);
    const auto markers = static_cast<unsigned>(r.markers);
    const auto escaped = static_cast<unsigned>(r.escaped);
    w = destuff16(dst, w, _mm256_castsi256_si128(v), markers, escaped);
    w = destuff16(dst, w, _mm256_extracti128_si256(v, 1), markers >> 16, escaped >> 16);
  }
  w_out = destuff_run(dst, w, p + i, n - i, pending);
  return pending == 0;
}

// ---------------------------------------------------------------------------
// VBMI2 tier (AVX-512 BW/VL/VBMI2 + BMI2): the paper's byte sorter as one
// instruction per window. vpexpandb spreads a flagged stuffing window over
// its output slots and vpcompressb squeezes a destuffing window's markers
// out, so a flagged window costs the same few instructions at any density
// and needs no group tables. Masked loads and stores cover the tails: the
// tier writes nothing past its logical end.
// ---------------------------------------------------------------------------

#define P5_TARGET_VBMI2 __attribute__((target("avx512bw,avx512vl,avx512vbmi2,bmi2,popcnt")))

/// Stuff the first `live` octets of a 32-octet window with escape mask
/// `mask` (bits past `live` clear). Input octet i owns slots 2i and 2i+1 of
/// a 64-slot grid; slot 2i (its marker) exists only when the octet escapes.
/// pdep builds the grid and pext squeezes it onto the output, which yields
/// the value slots — the sorter's control. vpexpandb drops the 0x20-xored
/// octets into those slots over a 0x7D background (the marker slots are the
/// rest, so no separate blend), and one masked store writes the
/// live + popcount(mask) octets of the image.
P5_TARGET_VBMI2 inline std::size_t stuff32_vbmi2(u8* dst, std::size_t w, __m256i v, u32 mask,
                                                 unsigned live) {
  constexpr u64 kEven = 0x5555555555555555ull;
  const u64 grid = _pdep_u64(mask, kEven) | ~kEven;
  const u64 values = _pext_u64(~kEven, grid);
  const __m256i x =
      _mm256_xor_si256(v, _mm256_maskz_mov_epi8(mask, _mm256_set1_epi8(hdlc::kXor)));
  const __m512i out = _mm512_mask_expand_epi8(_mm512_set1_epi8(static_cast<char>(hdlc::kEscape)),
                                              values, _mm512_castsi256_si512(x));
  const unsigned len = live + static_cast<unsigned>(std::popcount(mask));
  _mm512_mask_storeu_epi8(dst + w, _bzhi_u64(~0ull, len), out);
  return w + len;
}

/// One stuff window: a clean one is copied, a flagged one expanded.
P5_TARGET_VBMI2 inline std::size_t window_vbmi2(u8* dst, std::size_t w, __m256i v, unsigned mask,
                                                TierCounters& c) {
  if (mask == 0) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + w), v);
    ++c.clean_windows;
    return w + 32;
  }
  count_window(c, static_cast<unsigned>(std::popcount(mask)));
  return stuff32_vbmi2(dst, w, v, mask, 32);
}

P5_TARGET_VBMI2 std::size_t stuff_vbmi2(u8* dst, const u8* p, std::size_t n,
                                        const EscapeClassTables& t, TierCounters& counters) {
  // Window counts accumulate in registers: the octet stores may alias
  // `counters`, so counting there would chain every window through memory.
  TierCounters c;
  std::size_t w = 0;
  std::size_t i = 0;
  // Two windows per step, so a clean stream pays one branch per 64 octets.
  for (; i + 64 <= n; i += 64) {
    const __m256i lo = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i));
    const __m256i hi = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i + 32));
    const unsigned m_lo = classify32(lo, t);
    const unsigned m_hi = classify32(hi, t);
    if ((m_lo | m_hi) == 0) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + w), lo);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + w + 32), hi);
      w += 64;
      c.clean_windows += 2;
      continue;
    }
    w = window_vbmi2(dst, w, lo, m_lo, c);
    w = window_vbmi2(dst, w, hi, m_hi, c);
  }
  if (i + 32 <= n) {
    const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i));
    w = window_vbmi2(dst, w, v, classify32(v, t), c);
    i += 32;
  }
  if (i < n) {
    // Tail: a masked load zero-fills the missing octets; they classify as
    // clean (or are masked off) and land past `len`, so the store drops them.
    const auto live = static_cast<unsigned>(n - i);
    const u32 in = static_cast<u32>(_bzhi_u64(~0ull, live));
    const __m256i v = _mm256_maskz_loadu_epi8(in, p + i);
    w = stuff32_vbmi2(dst, w, v, classify32(v, t) & in, live);
  }
  add_windows(counters, c);
  return w;
}

/// Destuff one window of `live` octets (64, or fewer in the tail, where the
/// masked load zero-filled the rest) with 0x7D mask `mask`: resolve the
/// markers, xor the octets they escape, vpcompressb the markers out —
/// Escape Detect's realignment — and store exactly the survivors.
P5_TARGET_VBMI2 inline std::size_t destuff64_vbmi2(u8* dst, std::size_t w, __m512i v, u64 mask,
                                                   unsigned live, unsigned& pending) {
  const MarkerResolve r = resolve_markers(mask, live, pending);
  v = _mm512_xor_si512(v, _mm512_maskz_mov_epi8(r.escaped, _mm512_set1_epi8(hdlc::kXor)));
  const __m512i out = _mm512_maskz_compress_epi8(~r.markers, v);
  const unsigned len = live - static_cast<unsigned>(std::popcount(r.markers));
  _mm512_mask_storeu_epi8(dst + w, _bzhi_u64(~0ull, len), out);
  return w + len;
}

P5_TARGET_VBMI2 bool destuff_vbmi2(u8* dst, const u8* p, std::size_t n, std::size_t& w_out,
                                   TierCounters& counters) {
  TierCounters c;  // in registers, as in stuff_vbmi2
  std::size_t w = 0;
  std::size_t i = 0;
  unsigned pending = 0;
  const __m512i escv = _mm512_set1_epi8(static_cast<char>(hdlc::kEscape));
  for (; i + 64 <= n; i += 64) {
    const __m512i v = _mm512_loadu_si512(p + i);
    const u64 mask = _mm512_cmpeq_epi8_mask(v, escv);
    if (mask == 0 && pending == 0) {
      _mm512_storeu_si512(dst + w, v);
      w += 64;
      ++c.clean_windows;
      continue;
    }
    count_window(c, static_cast<unsigned>(std::popcount(mask)));
    w = destuff64_vbmi2(dst, w, v, mask, 64, pending);
  }
  if (i < n) {
    // Zero fill never matches 0x7D, so the tail's mask covers live octets only.
    const auto live = static_cast<unsigned>(n - i);
    const __m512i v = _mm512_maskz_loadu_epi8(_bzhi_u64(~0ull, live), p + i);
    w = destuff64_vbmi2(dst, w, v, _mm512_cmpeq_epi8_mask(v, escv), live, pending);
  }
  add_windows(counters, c);
  w_out = w;
  return pending == 0;
}

#undef P5_TARGET_VBMI2

#endif  // P5_ESCAPE_SIMD

EscapeTier parse_tier(const char* name, EscapeTier fallback) {
  if (std::strcmp(name, "scalar") == 0) return EscapeTier::kScalar;
  if (std::strcmp(name, "swar") == 0) return EscapeTier::kSwar;
  if (std::strcmp(name, "sse2") == 0) return EscapeTier::kSse2;
  if (std::strcmp(name, "ssse3") == 0) return EscapeTier::kSsse3;
  if (std::strcmp(name, "avx2") == 0) return EscapeTier::kAvx2;
  if (std::strcmp(name, "vbmi2") == 0) return EscapeTier::kVbmi2;
  return fallback;
}

}  // namespace

const char* to_string(EscapeTier tier) {
  switch (tier) {
    case EscapeTier::kScalar: return "scalar";
    case EscapeTier::kSwar: return "swar";
    case EscapeTier::kSse2: return "sse2";
    case EscapeTier::kSsse3: return "ssse3";
    case EscapeTier::kAvx2: return "avx2";
    case EscapeTier::kVbmi2: return "vbmi2";
  }
  return "?";
}

EscapeTier detected_tier() {
#if P5_ESCAPE_SIMD
  static const EscapeTier tier = [] {
    if (__builtin_cpu_supports("avx512bw") && __builtin_cpu_supports("avx512vl") &&
        __builtin_cpu_supports("avx512vbmi2") && __builtin_cpu_supports("bmi2"))
      return EscapeTier::kVbmi2;
    if (__builtin_cpu_supports("avx2")) return EscapeTier::kAvx2;
    if (__builtin_cpu_supports("ssse3")) return EscapeTier::kSsse3;
    return EscapeTier::kSse2;  // x86-64 baseline
  }();
  return tier;
#elif defined(P5_FORCE_SCALAR)
  return EscapeTier::kScalar;
#else
  return EscapeTier::kSwar;
#endif
}

EscapeTier best_tier() {
  static const EscapeTier tier = [] {
    EscapeTier t = detected_tier();
    if (const char* env = std::getenv("P5_ESCAPE_TIER")) {
      const EscapeTier wanted = parse_tier(env, t);
      if (static_cast<u8>(wanted) < static_cast<u8>(t)) t = wanted;
    }
    return t;
  }();
  return tier;
}

std::vector<EscapeTier> available_tiers() {
  std::vector<EscapeTier> tiers;
  for (u8 t = 0; t <= static_cast<u8>(detected_tier()); ++t)
    tiers.push_back(static_cast<EscapeTier>(t));
  return tiers;
}

EscapeEngine::EscapeEngine(hdlc::Accm accm, EscapeTier tier) : accm_(accm) {
  tier_ = std::min(tier, detected_tier(),
                   [](EscapeTier a, EscapeTier b) { return static_cast<u8>(a) < static_cast<u8>(b); });
  for (unsigned b = 0; b < 256; ++b)
    tables_.cls[b] = accm.must_escape(static_cast<u8>(b)) ? 1 : 0;
  for (unsigned i = 0; i < 16; ++i) {
    tables_.accm_lo[i] = ((accm.map() >> i) & 1u) ? 0xFF : 0x00;
    tables_.accm_hi[i] = ((accm.map() >> (16 + i)) & 1u) ? 0xFF : 0x00;
  }
  tables_.has_controls = accm.map() != 0;
}

void EscapeEngine::stuff_append(Bytes& out, BytesView data) const {
  const std::size_t n = data.size();
  if (n < kSmallFrameCutoff || tier_ == EscapeTier::kScalar) {
    ++counters_.scalar_calls;
    stuff_scalar(out, data, tables_);
    return;
  }
  if (tier_ == EscapeTier::kSwar) {
    ++counters_.swar_calls;
    fastpath::stuff_append(out, data, accm_);
    return;
  }
#if P5_ESCAPE_SIMD
  ++counters_.simd_calls;
  const std::size_t base = out.size();
  out.resize(base + 2 * n + kStuffSlack);
  u8* dst = out.data() + base;
  std::size_t w = 0;
  switch (tier_) {
    case EscapeTier::kVbmi2: w = stuff_vbmi2(dst, data.data(), n, tables_, counters_); break;
    case EscapeTier::kAvx2: w = stuff_avx2(dst, data.data(), n, tables_, counters_); break;
    case EscapeTier::kSsse3: w = stuff_ssse3(dst, data.data(), n, tables_, counters_); break;
    default: w = stuff_sse2(dst, data.data(), n, tables_, counters_); break;
  }
  out.resize(base + w);
#else
  // tier_ is clamped to detected_tier(), so SIMD tiers are unreachable here.
  ++counters_.swar_calls;
  fastpath::stuff_append(out, data, accm_);
#endif
}

bool EscapeEngine::destuff_append(Bytes& out, BytesView data) const {
  const std::size_t n = data.size();
  if (n < kSmallFrameCutoff || tier_ == EscapeTier::kScalar) {
    ++counters_.scalar_calls;
    return destuff_scalar(out, data);
  }
  if (tier_ == EscapeTier::kSwar) {
    ++counters_.swar_calls;
    return fastpath::destuff_append(out, data);
  }
#if P5_ESCAPE_SIMD
  ++counters_.simd_calls;
  const std::size_t base = out.size();
  out.resize(base + n + kStuffSlack);
  u8* dst = out.data() + base;
  std::size_t w = 0;
  bool ok = false;
  switch (tier_) {
    case EscapeTier::kVbmi2: ok = destuff_vbmi2(dst, data.data(), n, w, counters_); break;
    case EscapeTier::kAvx2: ok = destuff_avx2(dst, data.data(), n, w, counters_); break;
    case EscapeTier::kSsse3: ok = destuff_ssse3(dst, data.data(), n, w, counters_); break;
    default: ok = destuff_sse2(dst, data.data(), n, w, counters_); break;
  }
  out.resize(base + w);
  return ok;
#else
  ++counters_.swar_calls;
  return fastpath::destuff_append(out, data);
#endif
}

u32 EscapeEngine::stuff_crc_append(Bytes& out, BytesView data, const SliceCrc& crc,
                                   u32 state) const {
  const std::size_t n = data.size();
  if (n < kSmallFrameCutoff || tier_ == EscapeTier::kScalar) {
    ++counters_.scalar_calls;
    return stuff_crc_scalar(out, data, tables_, crc, state);
  }
  if (tier_ == EscapeTier::kSwar) {
    ++counters_.swar_calls;
    return fastpath::stuff_crc_append(out, data, accm_, crc, state);
  }
  // SIMD tiers: two vector passes (the dispatched FCS kernel, then stuff) —
  // the FCS covers the *unstuffed* octets, so the passes are independent and
  // each runs at its full word-parallel rate.
  state = crc.update(state, data);
  stuff_append(out, data);
  return state;
}

std::size_t EscapeEngine::count_escapes(BytesView data) const {
  return fastpath::count_escapes(data, accm_);
}

}  // namespace p5::fastpath
