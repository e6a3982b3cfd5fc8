#include "sonet/spe.hpp"

#include <algorithm>
#include <cstring>

namespace p5::sonet {

namespace {

// TOH byte coordinates (0-indexed rows).
constexpr std::size_t kRowA1A2 = 0;
constexpr std::size_t kRowB1 = 1;
constexpr std::size_t kRowH1 = 3;
constexpr std::size_t kRowB2 = 4;

// Pointer bytes for a frame-aligned SPE (pointer value 0, NDF normal).
constexpr u8 kH1Normal = 0x60;
constexpr u8 kH2Normal = 0x00;
// Concatenation indication for the 2nd..Nth constituent pointers.
constexpr u8 kH1Concat = 0x9B;
constexpr u8 kH2Concat = 0xFF;

constexpr u8 kJ0 = 0x01;

// POH rows within the single path-overhead column.
constexpr std::size_t kPohJ1 = 0;
constexpr std::size_t kPohB3 = 1;
constexpr std::size_t kPohC2 = 2;

}  // namespace

u8 bip8(BytesView data) {
  // XOR is associative and order-free: fold eight octets at a time, then
  // collapse the word — identical parity to the octet loop.
  u64 acc = 0;
  std::size_t i = 0;
  for (; i + 8 <= data.size(); i += 8) {
    u64 w;
    std::memcpy(&w, data.data() + i, 8);
    acc ^= w;
  }
  acc ^= acc >> 32;
  acc ^= acc >> 16;
  acc ^= acc >> 8;
  u8 p = static_cast<u8>(acc);
  for (; i < data.size(); ++i) p ^= data[i];
  return p;
}

SonetFramer::SonetFramer(StsSpec spec, std::function<Bytes(std::size_t)> payload_source)
    : spec_(spec), payload_source_(std::move(payload_source)) {
  P5_EXPECTS(spec.n % 3 == 0 && spec.n >= 3);
}

Bytes SonetFramer::next_frame() {
  const std::size_t cols = spec_.columns();
  const std::size_t toh = spec_.toh_columns();
  const std::size_t stuff = spec_.fixed_stuff_columns();
  Bytes frame(spec_.frame_bytes(), 0);

  auto at = [&](std::size_t row, std::size_t col) -> u8& { return frame[row * cols + col]; };

  // --- Transport overhead ---
  for (std::size_t i = 0; i < spec_.n; ++i) at(kRowA1A2, i) = kA1;
  for (std::size_t i = 0; i < spec_.n; ++i) at(kRowA1A2, spec_.n + i) = kA2;
  at(kRowA1A2, 2 * spec_.n) = kJ0;
  at(kRowB1, 0) = b1_;  // BIP-8 over the previous frame (after scrambling)
  at(kRowH1, 0) = kH1Normal;
  at(kRowH1, spec_.n) = kH2Normal;
  for (std::size_t i = 1; i < spec_.n; ++i) {
    at(kRowH1, i) = kH1Concat;
    at(kRowH1, spec_.n + i) = kH2Concat;
  }

  // --- Path overhead + payload ---
  at(kPohJ1, toh) = 0x89;  // path trace filler octet
  at(kPohB3, toh) = b3_;   // BIP-8 over the previous SPE
  at(kPohC2, toh) = kC2PppScrambled;

  const std::size_t payload_per_row = spec_.payload_columns();
  const Bytes payload = payload_source_(kRows * payload_per_row);
  P5_ENSURES(payload.size() == kRows * payload_per_row);
  for (std::size_t row = 0; row < kRows; ++row)
    std::memcpy(&at(row, toh + 1 + stuff), payload.data() + row * payload_per_row,
                payload_per_row);

  // --- Path BIP-8 for the *next* frame: over this SPE (TOH excluded) ---
  u8 b3 = 0;
  for (std::size_t row = 0; row < kRows; ++row)
    b3 ^= bip8(BytesView(&at(row, toh), cols - toh));
  b3_ = b3;

  // --- Line BIP-8 (B2) over rows 3..8 of this frame pre-scramble ---
  const u8 b2 = bip8(BytesView(&at(kRowH1, 0), (kRows - kRowH1) * cols));
  at(kRowB2, 0) = b2;

  // --- Frame-synchronous scrambling: everything except row-0 TOH ---
  FrameScrambler scr;
  scr.reset();
  scr.apply(frame, toh, frame.size());

  // --- Section BIP-8 for the next frame: over this frame post-scramble ---
  b1_ = bip8(frame);

  ++frames_;
  return frame;
}

SonetDeframer::SonetDeframer(StsSpec spec, std::function<void(BytesView)> payload_sink)
    : spec_(spec), payload_sink_(std::move(payload_sink)) {
  P5_EXPECTS(spec.n % 3 == 0 && spec.n >= 3);
  const std::size_t cols = spec_.columns();
  const std::size_t toh = spec_.toh_columns();
  Bytes ks(spec_.frame_bytes(), 0);  // keystream image of one frame
  FrameScrambler::apply_at(0, ks.data() + toh, ks.data() + toh, ks.size() - toh);
  ks_b1_ = ks[kRowB1 * cols];
  ks_b3_ = ks[kPohB3 * cols + toh];
  for (std::size_t row = 0; row < kRows; ++row)
    ks_spe_parity_ ^= bip8(BytesView(ks.data() + row * cols + toh, cols - toh));
  payload_.resize(spec_.payload_bytes_per_frame());
}

void SonetDeframer::push(u8 octet) {
  window_.push_back(octet);

  if (state_ == State::kHunt) {
    // Slide a frame-sized window until an A1...A1 A2...A2 prefix lines up.
    const std::size_t need = 2 * spec_.n;
    while (window_.size() >= need) {
      bool aligned = true;
      for (std::size_t i = 0; i < spec_.n && aligned; ++i) aligned = window_[i] == kA1;
      for (std::size_t i = 0; i < spec_.n && aligned; ++i)
        aligned = window_[spec_.n + i] == kA2;
      if (aligned) {
        state_ = State::kSync;
        if (ever_synced_) ++stats_.resyncs;
        ever_synced_ = true;
        bad_alignments_ = 0;
        have_b1_ref_ = false;
        break;
      }
      window_.erase(window_.begin());
      ++stats_.discarded_octets;
    }
    if (state_ == State::kHunt) return;
  }

  if (window_.size() >= spec_.frame_bytes()) deframe_window();
}

void SonetDeframer::push(BytesView octets) {
  const std::size_t frame_bytes = spec_.frame_bytes();
  std::size_t i = 0;
  while (i < octets.size()) {
    if (state_ == State::kHunt) {
      // Alignment search stays octet-at-a-time (it is rare and stateful).
      push(octets[i++]);
      continue;
    }
    if (window_.empty() && octets.size() - i >= frame_bytes) {
      const BytesView frame = octets.subspan(i, frame_bytes);
      i += frame_bytes;
      if (!deframe(frame))
        for (const u8 b : frame) push(b);  // loss of frame: re-hunt inside it
      continue;
    }
    // A frame straddling the end of the span: buffer up to its boundary.
    const std::size_t take = std::min(frame_bytes - window_.size(), octets.size() - i);
    window_.insert(window_.end(), octets.begin() + static_cast<std::ptrdiff_t>(i),
                   octets.begin() + static_cast<std::ptrdiff_t>(i + take));
    i += take;
    if (window_.size() >= frame_bytes) deframe_window();
  }
}

void SonetDeframer::deframe_window() {
  if (deframe(window_)) {
    window_.clear();
    return;
  }
  Bytes rehunt;  // loss of frame: re-hunt inside the buffered frame
  rehunt.swap(window_);
  for (const u8 b : rehunt) push(b);
}

bool SonetDeframer::deframe(BytesView frame) {
  const std::size_t cols = spec_.columns();
  const std::size_t toh = spec_.toh_columns();
  const std::size_t stuff = spec_.fixed_stuff_columns();
  const std::size_t payload_per_row = spec_.payload_columns();

  // Alignment check on every frame; two consecutive misses -> loss of frame.
  bool aligned = true;
  for (std::size_t i = 0; i < spec_.n && aligned; ++i) aligned = frame[i] == kA1;
  for (std::size_t i = 0; i < spec_.n && aligned; ++i) aligned = frame[spec_.n + i] == kA2;
  if (!aligned) {
    if (++bad_alignments_ >= 2) {
      state_ = State::kHunt;
      have_b1_ref_ = false;
      return false;
    }
  } else {
    bad_alignments_ = 0;
  }

  // Both parities from the scrambled image: section BIP over the whole
  // frame; path BIP over the SPE, i.e. the frame minus each row's TOH.
  const u8 b1 = bip8(frame);
  u8 b3 = static_cast<u8>(b1 ^ ks_spe_parity_);
  for (std::size_t row = 0; row < kRows; ++row) b3 ^= bip8(frame.subspan(row * cols, toh));

  if (have_b1_ref_ && (frame[kRowB1 * cols] ^ ks_b1_) != expected_b1_) ++stats_.b1_errors;
  expected_b1_ = b1;
  have_b1_ref_ = true;

  // Path BIP over this SPE, checked against the *next* frame's B3.
  if (stats_.frames_in_sync > 0 && (frame[kPohB3 * cols + toh] ^ ks_b3_) != expected_b3_)
    ++stats_.b3_errors;
  expected_b3_ = b3;

  // Descramble the PPP payload (one contiguous run per row) straight out of
  // the frame. The keystream starts after row 0's TOH, at the POH column.
  for (std::size_t row = 0; row < kRows; ++row) {
    const std::size_t at = row * cols + toh + 1 + stuff;
    FrameScrambler::apply_at(at - toh, payload_.data() + row * payload_per_row, frame.data() + at,
                             payload_per_row);
  }

  ++stats_.frames_in_sync;
  payload_sink_(payload_);
  return true;
}

}  // namespace p5::sonet
