// SONET/SDH scramblers.
//
// Two distinct scramblers exist in a PPP-over-SONET link (RFC 2615 / GR-253):
//
//  * FrameScrambler — the frame-synchronous section scrambler, PRBS from
//    x^7 + x^6 + 1 reset to all-ones at the first payload byte of each frame.
//    Applied to the whole frame except the first-row framing bytes (A1/A2/J0).
//
//  * SelfSyncScrambler43 — the x^43 + 1 self-synchronous payload scrambler
//    RFC 2615 adds over the SPE payload so that a malicious PPP payload
//    cannot fake long runs of 0s/1s and break downstream clock recovery.
//    Self-synchronous: the descrambler needs no state alignment, it recovers
//    after 43 bits.
//
// Both advance one *octet* per step (table lookup / shift respectively); the
// seed's per-bit loops survive as fastpath::scalar bit-serial references that
// the differential tests compare against.
#pragma once

#include <array>

#include "common/types.hpp"

namespace p5::sonet {

/// Frame-synchronous x^7 + x^6 + 1 scrambler (a keystream generator).
/// Table-driven: one 128-entry state-transition lookup produces 8 keystream
/// bits per step (fastpath/scrambler_tables).
class FrameScrambler {
 public:
  /// Reset to the all-ones seed — done at the start of every frame's
  /// scrambled region.
  void reset() { state_ = 0x7F; }

  /// Next keystream byte (MSB transmitted first).
  [[nodiscard]] u8 next_keystream();

  /// XOR a buffer in place with keystream.
  void apply(Bytes& data, std::size_t begin, std::size_t end);

 private:
  u8 state_ = 0x7F;  ///< 7-bit LFSR state
};

/// Self-synchronous x^43 + 1 scrambler/descrambler (RFC 2615 §6).
///
/// Byte-at-a-time state transition: because the delay is 43 (> 8) bits, none
/// of the bits produced within one octet feed back into that same octet, so
/// the eight delayed bits are simply history bits 42..35 and the whole octet
/// advances with one shift — no per-bit loop.
class SelfSyncScrambler43 {
 public:
  void reset() { history_ = {}; }

  /// Scramble one octet (MSB first): out = in XOR (stream delayed 43 bits),
  /// where the delayed stream is the *output* stream.
  [[nodiscard]] u8 scramble(u8 in) {
    const u8 out = static_cast<u8>(in ^ static_cast<u8>(history_ >> 35));
    history_ = ((history_ << 8) | out) & kMask;
    return out;
  }

  /// Descramble one octet: out = in XOR (received stream delayed 43 bits).
  [[nodiscard]] u8 descramble(u8 in) {
    const u8 out = static_cast<u8>(in ^ static_cast<u8>(history_ >> 35));
    // Self-synchronous: the delay line tracks the *received* (scrambled) bits.
    history_ = ((history_ << 8) | in) & kMask;
    return out;
  }

  [[nodiscard]] Bytes scramble(BytesView data);
  [[nodiscard]] Bytes descramble(BytesView data);

  /// Fused copy+scramble: out[0, in.size()) = scramble(in), one pass where a
  /// copy-then-scramble-in-place pair would take two. `out` may equal
  /// in.data().
  void scramble_into(u8* out, BytesView in);

  /// Zero-allocation variants for hot paths (p5::core::P5SonetLink).
  void scramble_in_place(Bytes& data) { scramble_into(data.data(), data); }
  void descramble_in_place(Bytes& data);

  /// scramble_into() the end of `out`, grown by in.size().
  void scramble_append(Bytes& out, BytesView in);
  /// Fused copy+descramble: replace `out` with descramble(in). The keystream
  /// for descrambling is the *received* stream itself, so the bulk loop has
  /// no loop-carried dependency at all and vectorizes; `out` must not alias
  /// `in`.
  void descramble_to(Bytes& out, BytesView in);

 private:
  static constexpr u64 kMask = (u64{1} << 43) - 1;
  // 43-bit delay line stored in a 64-bit word; bit 42 is the oldest.
  u64 history_ = 0;
};

}  // namespace p5::sonet
