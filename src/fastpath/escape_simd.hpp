// Runtime-dispatched SIMD escape engine: HDLC stuff/destuff kernels that
// stay at or above the scalar baseline at *every* escape density.
//
// The paper's Escape Generate/Detect units keep the hardware pipeline at
// line rate even when one input word expands to eight output octets (the
// byte-sorter crossbar absorbs the expansion). The SWAR software fast path
// had the inverse problem: its skip-scan is superb on escape-free runs but
// regresses below the scalar seed once a quarter of the octets escape,
// because every flagged word falls back to a fresh byte-at-a-time patch.
// This engine closes that gap with compress/expand vector kernels in the
// byte-sorter spirit. The SSSE3/AVX2 tiers find escape positions 16/32
// octets at a time with movemask and expand (stuff) or compact (destuff)
// flagged 8-octet groups branchlessly through pshufb tables indexed by the
// group's escape mask — dense traffic costs a table lookup per group, not a
// branch per octet. The VBMI2 tier is the sorter itself: pdep/pext turn a
// 32-octet window's escape mask into output slot masks and one vpexpandb
// places every octet (stuff); one vpcompressb drops a 64-octet window's
// escape markers (destuff). It needs no tables, and its masked tail stores
// write nothing past the logical end.
//
// Three selection mechanisms stack, so no operating point falls below the
// scalar baseline:
//   * startup dispatch — CPUID picks the widest tier the host supports
//     (VBMI2 > AVX2 > SSSE3 > SSE2 > portable SWAR); P5_ESCAPE_TIER=<name>
//     clamps it down for testing, and -DP5_FORCE_SCALAR compiles the SIMD
//     tiers out entirely;
//   * per-call size gate — frames shorter than one vector window take the
//     exact scalar loop (no setup to amortize);
//   * per-window density adaptation — each vector window's escape mask
//     classifies it as clean (bulk vector copy), sparse, or dense; flagged
//     windows go through the branchless expand/compress, so the worst-case
//     all-escape stream degrades to table lookups (or one vpexpandb /
//     vpcompressb) instead of mispredicted branches.
//
// Per-frame setup (the ACCM-derived classification tables) is hoisted into
// the EscapeEngine constructor; callers that frame continuously (FrameArena,
// the line-card fabric, PppEndpoint) derive it once per ACCM programming,
// not once per frame.
#pragma once

#include <array>
#include <vector>

#include "common/types.hpp"
#include "fastpath/slice_crc.hpp"
#include "hdlc/accm.hpp"

namespace p5::fastpath {

/// Dispatch tiers, widest last. kScalar/kSwar are portable; the rest are
/// x86-only and compiled out under P5_FORCE_SCALAR.
enum class EscapeTier : u8 {
  kScalar = 0,
  kSwar = 1,
  kSse2 = 2,
  kSsse3 = 3,
  kAvx2 = 4,
  kVbmi2 = 5,  ///< AVX-512 BW/VL/VBMI2 + BMI2: vpexpandb / vpcompressb
};

[[nodiscard]] const char* to_string(EscapeTier tier);

/// Widest tier this host's CPU can execute (CPUID, cached after first call).
[[nodiscard]] EscapeTier detected_tier();

/// detected_tier() clamped down by the P5_ESCAPE_TIER environment variable
/// ("scalar", "swar", "sse2", "ssse3", "avx2", "vbmi2"); the startup
/// dispatch result.
[[nodiscard]] EscapeTier best_tier();

/// Every tier that can run on this host, narrowest first (for sweep tests
/// and per-tier bench rows).
[[nodiscard]] std::vector<EscapeTier> available_tiers();

/// Extra octets the vector stores may write past the logical end of an
/// output buffer before it is trimmed (the VBMI2 tier writes none); sizing
/// code must reserve this much beyond the worst-case escape expansion.
inline constexpr std::size_t kStuffSlack = 16;

/// Below this input size the engine takes the scalar loop outright.
inline constexpr std::size_t kSmallFrameCutoff = 16;

/// Dispatch telemetry: how often each call-level tier ran, and the density
/// mix the per-window estimator observed. A window is 16, 32 or 64 octets by
/// tier: SSE2/SSSE3 16, AVX2 32, VBMI2 32 when stuffing and 64 when
/// destuffing. Stuff windows are 32 octets on both wide tiers, so the dense
/// share of stuff windows means the same on either. Plain counters with a
/// single writer — an engine must not be shared across threads (each
/// FrameArena / endpoint / channel owns its own).
struct TierCounters {
  u64 scalar_calls = 0;
  u64 swar_calls = 0;
  u64 simd_calls = 0;
  u64 clean_windows = 0;   ///< escape-free vector windows (bulk-copied)
  u64 sparse_windows = 0;  ///< windows with 1-2 escapes
  u64 dense_windows = 0;   ///< windows with 3+ escapes (branchless expand)
};

/// ACCM-derived classification state, built once per programmed ACCM:
/// a 256-entry exact escape-class table for the scalar paths and two
/// 16-entry nibble tables that let pshufb answer "is this control octet in
/// the map" for a whole vector at once.
struct EscapeClassTables {
  alignas(16) u8 accm_lo[16]{};  ///< 0xFF where ACCM escapes octet 0x00+i
  alignas(16) u8 accm_hi[16]{};  ///< 0xFF where ACCM escapes octet 0x10+i
  std::array<u8, 256> cls{};     ///< exact per-octet must_escape
  bool has_controls = false;     ///< any control octet mapped (accm != 0)
};

class EscapeEngine {
 public:
  explicit EscapeEngine(hdlc::Accm accm, EscapeTier tier = best_tier());

  [[nodiscard]] const hdlc::Accm& accm() const { return accm_; }
  [[nodiscard]] EscapeTier tier() const { return tier_; }

  /// Append the stuffed image of `data` to `out` (byte-identical to the
  /// scalar reference and the SWAR kernels).
  void stuff_append(Bytes& out, BytesView data) const;

  /// Append the destuffed image of `data` (no flags) to `out`; false on a
  /// dangling escape at end of input. ACCM-independent, like the wire.
  [[nodiscard]] bool destuff_append(Bytes& out, BytesView data) const;

  /// Fused framer kernel: advance the FCS over the unstuffed octets and
  /// append the stuffed image in the same call. Returns the new raw state.
  [[nodiscard]] u32 stuff_crc_append(Bytes& out, BytesView data, const SliceCrc& crc,
                                     u32 state) const;

  [[nodiscard]] const TierCounters& counters() const { return counters_; }
  void reset_counters() const { counters_ = {}; }

 private:
  hdlc::Accm accm_;
  EscapeTier tier_;
  EscapeClassTables tables_;
  mutable TierCounters counters_;
};

}  // namespace p5::fastpath
