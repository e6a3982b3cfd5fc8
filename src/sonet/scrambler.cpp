#include "sonet/scrambler.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "fastpath/scrambler_tables.hpp"

namespace p5::sonet {

namespace {

// Bulk path for the frame-synchronous scrambler: the x^7+x^6+1 keystream is
// data-independent and, stepping 8 bits per octet over the 127 nonzero LFSR
// states (127 is prime, so the walk visits all of them), repeats every 127
// octets. Applying it is a periodic XOR — precompute one period plus the
// state<->position maps and the per-octet table walk disappears from the
// per-frame cost.
struct FrameKeystream {
  /// XOR run length per inner-loop iteration of apply(). The keystream is
  /// periodic in 127, so replicating the period lets one contiguous XOR span
  /// many periods — long enough for the compiler's vector loop to dominate,
  /// short enough that the replica table stays cache-resident.
  static constexpr std::size_t kRun = 127 * 8;
  std::array<u8, 127> ks{};          ///< keystream from the all-ones seed
  std::array<u8, 128> idx_of{};      ///< LFSR state -> position in the cycle
  std::array<u8, 127> state_of{};    ///< position -> LFSR state
  std::array<u8, 127 + kRun> ext{};  ///< ks replicated: ext[i] = ks[i % 127]
  FrameKeystream() {
    const auto& table = fastpath::frame_scrambler_steps();
    u8 s = 0x7F;
    for (std::size_t i = 0; i < 127; ++i) {
      state_of[i] = s;
      idx_of[s] = static_cast<u8>(i);
      ks[i] = table[s].keystream;
      s = table[s].next;
    }
    for (std::size_t i = 0; i < ext.size(); ++i) ext[i] = ks[i % 127];
  }
};

const FrameKeystream& frame_keystream() {
  static const FrameKeystream k;
  return k;
}

}  // namespace

u8 FrameScrambler::next_keystream() {
  const auto& step = fastpath::frame_scrambler_steps()[state_];
  state_ = step.next;
  return step.keystream;
}

void FrameScrambler::apply(Bytes& data, std::size_t begin, std::size_t end) {
  const std::size_t stop = std::min(end, data.size());
  if (begin >= stop) return;
  const auto& k = frame_keystream();
  const std::size_t pos = k.idx_of[state_];
  u8* d = data.data() + begin;
  const std::size_t n = stop - begin;
  std::size_t idx = pos;
  // The replicated table is valid for kRun octets from any in-period offset,
  // so each iteration XORs a multi-period contiguous run instead of stopping
  // at the period boundary — one vectorized sweep per ~1 KiB.
  for (std::size_t i = 0; i < n;) {
    const std::size_t run = std::min<std::size_t>(FrameKeystream::kRun, n - i);
    const u8* __restrict__ s = k.ext.data() + idx;
    for (std::size_t j = 0; j < run; ++j) d[i + j] = static_cast<u8>(d[i + j] ^ s[j]);
    i += run;
    idx = (idx + run) % 127;
  }
  state_ = k.state_of[(pos + n) % 127];
}

Bytes SelfSyncScrambler43::scramble(BytesView data) {
  Bytes out;
  out.reserve(data.size());
  for (const u8 b : data) out.push_back(scramble(b));
  return out;
}

Bytes SelfSyncScrambler43::descramble(BytesView data) {
  Bytes out;
  out.reserve(data.size());
  for (const u8 b : data) out.push_back(descramble(b));
  return out;
}

// Bulk x^43+1 paths. The 43-bit delay is 5 octets + 3 bits, so the keystream
// octet at position i is a bit-splice of the stream octets at i-6 and i-5:
//   K[i] = (s[i-6] << 5) | (s[i-5] >> 3)
// where s is the *output* stream when scrambling and the *received* stream
// when descrambling (self-synchronous). That turns the serial 64-bit history
// shift — a loop-carried dependency every octet — into plain array reads:
// descrambling has no dependency at all (run backward so the raw lookback
// octets survive in place), scrambling's dependency is 5 octets away, far
// enough for the CPU to overlap iterations. The first 6 octets still splice
// against the pre-call history, and the history register is reconstituted
// from the stream tail afterwards, so state across calls is bit-identical to
// the per-octet path.

namespace {

// Word-at-a-time x^43+1 scramble. Pack eight octets MSB-first into a u64
// (bit 63 = earliest stream bit); the keystream word is the output stream
// delayed 43 bit positions, i.e. the previous word's low 43 bits shifted up
// (w_prev << 21) followed by this word's own top 21 bits (out >> 43). The
// self-reference collapses: out's top 21 bits cannot depend on out itself
// (2*43 > 64), so with t = in ^ (w_prev << 21) the whole word is
//   out = t ^ (t >> 43)
// — a four-op dependence chain per eight octets instead of a store-forward
// per octet. `history_`'s 43 live bits are exactly w_prev's low 43 bits
// (bit 42 oldest in both), so the delay line enters and leaves the loop as
// a plain u64 copy.
inline u64 scramble43_words(u8* d, const u8* s, std::size_t words, u64 w_prev) {
  for (std::size_t k = 0; k < words; ++k) {
    u64 in;
    std::memcpy(&in, s + k * 8, 8);
    in = __builtin_bswap64(in);
    const u64 t = in ^ (w_prev << 21);
    const u64 out = t ^ (t >> 43);
    w_prev = out;
    const u64 be = __builtin_bswap64(out);
    std::memcpy(d + k * 8, &be, 8);
  }
  return w_prev;
}

}  // namespace

void SelfSyncScrambler43::scramble_into(u8* out, BytesView in) {
  // Words stream straight from `in` through the word loop into `out` (no
  // zero-fill, no second pass); the sub-word tail steps octet by octet.
  const std::size_t n = in.size();
  const u8* s = in.data();
  const std::size_t words = n / 8;
  history_ = scramble43_words(out, s, words, history_) & kMask;
  for (std::size_t i = words * 8; i < n; ++i) out[i] = scramble(s[i]);
}

void SelfSyncScrambler43::scramble_append(Bytes& out, BytesView in) {
  const std::size_t base = out.size();
  out.resize(base + in.size());
  scramble_into(out.data() + base, in);
}

void SelfSyncScrambler43::descramble_to(Bytes& out, BytesView in) {
  const std::size_t n = in.size();
  out.resize(n);
  u8* __restrict__ d = out.data();
  const u8* __restrict__ s = in.data();
  if (n < 12) {
    for (std::size_t i = 0; i < n; ++i) d[i] = descramble(s[i]);
    return;
  }
  for (std::size_t i = 0; i < 6; ++i) d[i] = descramble(s[i]);
  // Keystream comes from the raw received octets, untouched in `in`: no
  // loop-carried dependency, so this is a straight-line vector loop.
  for (std::size_t i = 6; i < n; ++i)
    d[i] = static_cast<u8>(s[i] ^ static_cast<u8>((s[i - 6] << 5) | (s[i - 5] >> 3)));
  u64 h = 0;
  for (std::size_t i = n - 6; i < n; ++i) h = (h << 8) | s[i];
  history_ = h & kMask;
}

void SelfSyncScrambler43::descramble_in_place(Bytes& data) {
  const std::size_t n = data.size();
  if (n < 12) {
    for (u8& b : data) b = descramble(b);
    return;
  }
  u8* d = data.data();
  u64 h = 0;
  for (std::size_t i = n - 6; i < n; ++i) h = (h << 8) | d[i];  // raw tail, pre-overwrite
  for (std::size_t i = n; i-- > 6;)
    d[i] = static_cast<u8>(d[i] ^ static_cast<u8>((d[i - 6] << 5) | (d[i - 5] >> 3)));
  for (std::size_t i = 0; i < 6; ++i) d[i] = descramble(d[i]);  // pre-call history
  history_ = h & kMask;
}

}  // namespace p5::sonet
