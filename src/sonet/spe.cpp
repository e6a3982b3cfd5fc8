#include "sonet/spe.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>

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

/// Collapse eight octet lanes of XOR-folded words into one parity octet.
u8 fold_lanes(u64 acc) {
  acc ^= acc >> 32;
  acc ^= acc >> 16;
  acc ^= acc >> 8;
  return static_cast<u8>(acc);
}

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
  u8 p = fold_lanes(acc);
  for (; i < data.size(); ++i) p ^= data[i];
  return p;
}

/// One STS level's frame image: the frame with a zero payload and zero
/// B1/B2/B3, frame-scrambled. Every real frame is this image xor its payload
/// and parity octets, so the framer copies overhead from it, writes
/// payload ^ image, and derives every BIP from the payload's row parities
/// and the constants below; the deframer descrambles with it the same way.
struct FrameTables {
  explicit FrameTables(const StsSpec& spec);

  Bytes image;
  // Framer constants: parities of the unscrambled overhead and of the image.
  u8 image_parity = 0;     ///< BIP-8 of the whole image (B1 base)
  u8 rows38_parity = 0;    ///< BIP-8 of rows 3..8 before scrambling (B2 base)
  u8 spe_parity = 0;       ///< BIP-8 of the SPE columns before scrambling (B3 base)
  // Deframer constants: the keystream's own parities.
  u8 ks_rows38_parity = 0; ///< keystream BIP-8 over rows 3..8
  u8 ks_spe_parity = 0;    ///< keystream BIP-8 over the SPE columns
};

namespace {

/// out[i] = in[i] ^ ks[i] for n octets; returns the BIP-8 of `in`. The one
/// pass both directions make over the payload.
u8 xor_fold(u8* __restrict__ out, const u8* __restrict__ in, const u8* __restrict__ ks,
            std::size_t n) {
  u64 acc = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    u64 w, k;
    std::memcpy(&w, in + i, 8);
    std::memcpy(&k, ks + i, 8);
    acc ^= w;
    w ^= k;
    std::memcpy(out + i, &w, 8);
  }
  u8 p = fold_lanes(acc);
  for (; i < n; ++i) {
    p ^= in[i];
    out[i] = static_cast<u8>(in[i] ^ ks[i]);
  }
  return p;
}

/// The tables of `spec`'s level, built on first use. Endpoints are built on
/// shard threads, hence the lock; it is taken per framer/deframer
/// construction, never per frame.
const FrameTables& frame_tables(const StsSpec& spec) {
  static std::mutex mu;
  static std::map<unsigned, std::unique_ptr<const FrameTables>> by_level;
  const std::lock_guard<std::mutex> lock(mu);
  std::unique_ptr<const FrameTables>& t = by_level[spec.n];
  if (!t) t = std::make_unique<const FrameTables>(spec);
  return *t;
}

}  // namespace

FrameTables::FrameTables(const StsSpec& spec) {
  const std::size_t n = spec.n;
  const std::size_t cols = spec.columns();
  const std::size_t toh = spec.toh_columns();
  Bytes frame(spec.frame_bytes(), 0);
  auto at = [&](std::size_t row, std::size_t col) -> u8& { return frame[row * cols + col]; };

  // --- Transport overhead ---
  for (std::size_t i = 0; i < n; ++i) at(kRowA1A2, i) = kA1;
  for (std::size_t i = 0; i < n; ++i) at(kRowA1A2, n + i) = kA2;
  at(kRowA1A2, 2 * n) = kJ0;
  at(kRowH1, 0) = kH1Normal;
  at(kRowH1, n) = kH2Normal;
  for (std::size_t i = 1; i < n; ++i) {
    at(kRowH1, i) = kH1Concat;
    at(kRowH1, n + i) = kH2Concat;
  }
  // --- Path overhead ---
  at(kPohJ1, toh) = 0x89;  // path trace filler octet
  at(kPohC2, toh) = kC2PppScrambled;

  // BIP-8 of `f` over rows first..8, from column `col` on: B2's region is
  // rows 3..8, B3's the SPE columns of every row.
  const auto bip = [cols](const Bytes& f, std::size_t first, std::size_t col) {
    u8 p = 0;
    for (std::size_t row = first; row < kRows; ++row)
      p ^= bip8(BytesView(f).subspan(row * cols + col, cols - col));
    return p;
  };
  rows38_parity = bip(frame, kRowH1, 0);
  spe_parity = bip(frame, 0, toh);

  // Frame-synchronous scrambling: everything except row-0 TOH.
  Bytes ks(frame.size(), 0);
  FrameScrambler scr;
  scr.reset();
  scr.apply(ks, toh, ks.size());
  ks_rows38_parity = bip(ks, kRowH1, 0);
  ks_spe_parity = bip(ks, 0, toh);

  image = std::move(frame);
  for (std::size_t i = 0; i < image.size(); ++i) image[i] ^= ks[i];
  image_parity = bip8(image);
}

SonetFramer::SonetFramer(StsSpec spec) : spec_(spec), tables_(nullptr) {
  P5_EXPECTS(spec.n % 3 == 0 && spec.n >= 3);
  tables_ = &frame_tables(spec);
}

SonetFramer::SonetFramer(StsSpec spec, std::function<Bytes(std::size_t)> payload_source)
    : SonetFramer(spec) {
  payload_source_ = std::move(payload_source);
}

void SonetFramer::frame_into(u8* out, BytesView spe) {
  P5_EXPECTS(spe.size() == spec_.payload_bytes_per_frame());
  const FrameTables& t = *tables_;
  const std::size_t cols = spec_.columns();
  const std::size_t toh = spec_.toh_columns();
  const std::size_t overhead = toh + 1 + spec_.fixed_stuff_columns();  // TOH, POH, stuff
  const std::size_t payload_per_row = spec_.payload_columns();

  // Per row: the overhead from the image, then payload ^ keystream, folding
  // the payload's parity (rows 0..2 and 3..8 apart, for B2).
  u8 p02 = 0, p38 = 0;
  for (std::size_t row = 0; row < kRows; ++row) {
    u8* o = out + row * cols;
    const u8* img = t.image.data() + row * cols;
    std::memcpy(o, img, overhead);
    const u8 p = xor_fold(o + overhead, spe.data() + row * payload_per_row, img + overhead,
                          payload_per_row);
    (row < kRowH1 ? p02 : p38) ^= p;
  }
  const u8 payload_parity = static_cast<u8>(p02 ^ p38);

  // The image holds the keystream octet where B1, B2 and B3 go. B2 makes
  // rows 3..8 of this frame even before scrambling.
  const u8 b2 = static_cast<u8>(t.rows38_parity ^ p38);
  out[kRowB1 * cols] ^= b1_;  // BIP-8 over the previous frame (after scrambling)
  out[kRowB2 * cols] ^= b2;
  out[kPohB3 * cols + toh] ^= b3_;  // BIP-8 over the previous SPE

  // For the next frame: B1 over this frame after scrambling (the image xor
  // payload and the three parity octets), B3 over this SPE before it.
  const u8 b1 = static_cast<u8>(t.image_parity ^ payload_parity ^ b1_ ^ b2 ^ b3_);
  b3_ = static_cast<u8>(t.spe_parity ^ payload_parity ^ b3_);
  b1_ = b1;
  ++frames_;
}

Bytes SonetFramer::next_frame() {
  P5_EXPECTS(payload_source_ != nullptr);
  const Bytes payload = payload_source_(spec_.payload_bytes_per_frame());
  P5_ENSURES(payload.size() == spec_.payload_bytes_per_frame());
  Bytes frame(spec_.frame_bytes());
  frame_into(frame.data(), payload);
  return frame;
}

SonetDeframer::SonetDeframer(StsSpec spec, std::function<void(BytesView)> payload_sink)
    : spec_(spec), payload_sink_(std::move(payload_sink)), tables_(nullptr) {
  P5_EXPECTS(spec.n % 3 == 0 && spec.n >= 3);
  tables_ = &frame_tables(spec);
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

  // One pass per row: the overhead's parity, then the payload descrambled
  // into payload_ while its scrambled parity folds. Section BIP (B1) is the
  // whole scrambled frame's; line BIP (B2) over rows 3..8 and path BIP (B3)
  // over the SPE columns hold before scrambling, so their scrambled parity
  // is corrected by the keystream's.
  const FrameTables& t = *tables_;
  const std::size_t overhead = toh + 1 + stuff;
  u8 toh_parity = 0, spe_parity = 0, rows38 = 0;
  for (std::size_t row = 0; row < kRows; ++row) {
    const u8* r = frame.data() + row * cols;
    const u8 toh_p = bip8(BytesView(r, toh));
    const u8 spe_p = static_cast<u8>(
        bip8(BytesView(r + toh, overhead - toh)) ^
        xor_fold(payload_.data() + row * payload_per_row, r + overhead,
                 t.image.data() + row * cols + overhead, payload_per_row));
    toh_parity ^= toh_p;
    spe_parity ^= spe_p;
    if (row >= kRowH1) rows38 ^= static_cast<u8>(toh_p ^ spe_p);
  }
  const u8 b1 = static_cast<u8>(toh_parity ^ spe_parity);
  const u8 b3 = static_cast<u8>(spe_parity ^ t.ks_spe_parity);

  // The image holds the keystream octet over B1 and B3.
  if (have_b1_ref_ && (frame[kRowB1 * cols] ^ t.image[kRowB1 * cols]) != expected_b1_)
    ++stats_.b1_errors;
  expected_b1_ = b1;
  have_b1_ref_ = true;

  if ((rows38 ^ t.ks_rows38_parity) != 0) ++stats_.b2_errors;

  // Path BIP over this SPE, checked against the *next* frame's B3.
  const std::size_t b3_at = kPohB3 * cols + toh;
  if (stats_.frames_in_sync > 0 && (frame[b3_at] ^ t.image[b3_at]) != expected_b3_)
    ++stats_.b3_errors;
  expected_b3_ = b3;

  ++stats_.frames_in_sync;
  payload_sink_(payload_);
  return true;
}

}  // namespace p5::sonet
