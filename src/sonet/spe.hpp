// STS-Nc / SDH VC-4-Xc synchronous payload envelope framer and deframer.
//
// Geometry (GR-253 / G.707), concatenated payloads:
//   * a frame is 9 rows x (90*N) columns, 8 kHz frame rate;
//   * the first 3*N columns of every row are transport overhead (TOH);
//   * one column of path overhead (POH: J1,B3,C2,...) leads the SPE;
//   * concatenation adds N/3 - 1 fixed-stuff columns after the POH;
//   * the rest is payload: PPP's continuous octet stream (RFC 1619/2615).
//
// Modelling choices (documented substitutions, DESIGN.md §2):
//   * the payload pointer (H1/H2) is held at zero — the SPE is frame-aligned
//    and no justification events occur (the paper's P5 sits behind a PHY that
//    presents an already-aligned octet stream);
//   * overhead actually computed: A1/A2 framing, J0 section trace, B1
//     (section BIP-8 over the previous scrambled frame), B2 (one line BIP-8
//     over rows 3..8 of this frame before scrambling), B3 (path BIP-8 over
//     the previous SPE), C2 path signal label (0x16 = PPP with x^43+1
//     scrambling), J1 filler;
//   * remaining overhead bytes transmit as zero.
//
// The frame-synchronous scrambler restarts every frame, so everything but
// the payload and B1/B2/B3 is the same scrambled image in every frame, and
// each parity is a fold of the payload's row parities plus constants of that
// image. Both directions therefore touch each payload octet once: the framer
// writes payload xor keystream while folding its parity, the deframer reads
// it back the same way. The image and its parity constants are built once
// per STS level and shared by every framer and deframer of that level.
//
// Rates: STS-N line rate is N x 51.84 Mbps; STS-48c carries the paper's
// 2.488 Gbps ("2.5 Gbps") and STS-12c the 622 Mbps ("625 Mbps") service.
#pragma once

#include <functional>
#include <optional>

#include "common/check.hpp"
#include "common/types.hpp"
#include "sonet/scrambler.hpp"

namespace p5::sonet {

inline constexpr u8 kA1 = 0xF6;
inline constexpr u8 kA2 = 0x28;
inline constexpr u8 kC2PppScrambled = 0x16;  ///< RFC 2615 path signal label
inline constexpr std::size_t kRows = 9;

struct StsSpec {
  unsigned n;  ///< STS level (3, 12, 48 for concatenated payloads)

  [[nodiscard]] std::size_t columns() const { return 90u * n; }
  [[nodiscard]] std::size_t toh_columns() const { return 3u * n; }
  [[nodiscard]] std::size_t fixed_stuff_columns() const { return n / 3 - 1; }
  [[nodiscard]] std::size_t spe_columns() const { return columns() - toh_columns(); }
  [[nodiscard]] std::size_t payload_columns() const {
    return spe_columns() - 1 /*POH*/ - fixed_stuff_columns();
  }
  [[nodiscard]] std::size_t frame_bytes() const { return kRows * columns(); }
  [[nodiscard]] std::size_t payload_bytes_per_frame() const {
    return kRows * payload_columns();
  }
  [[nodiscard]] double line_rate_mbps() const { return 51.84 * n; }
  [[nodiscard]] double payload_rate_mbps() const {
    return static_cast<double>(payload_bytes_per_frame()) * 8.0 * 8000.0 / 1e6;
  }
};

inline constexpr StsSpec kSts3c{3};
inline constexpr StsSpec kSts12c{12};
inline constexpr StsSpec kSts48c{48};

/// Per-STS-level frame image and parity constants (spe.cpp).
struct FrameTables;

/// Builds successive STS-Nc frames around a PPP octet stream.
class SonetFramer {
 public:
  explicit SonetFramer(StsSpec spec);
  /// Adapter for callers that supply the payload per frame:
  /// `payload_source(n)` must return exactly n octets — PPP guarantees a
  /// continuous stream by inserting inter-frame flag fill.
  SonetFramer(StsSpec spec, std::function<Bytes(std::size_t)> payload_source);

  /// Write the next frame, scrambled and ready for the line, into `out`
  /// (spec().frame_bytes() octets, caller-owned; no prior contents read).
  /// `spe` is this frame's payload after the x^43+1 scrambler, exactly
  /// spec().payload_bytes_per_frame() octets. One pass over the payload,
  /// no allocation.
  void frame_into(u8* out, BytesView spe);

  /// frame_into() a fresh frame around payload_source's next payload (the
  /// adapter constructor only).
  [[nodiscard]] Bytes next_frame();

  [[nodiscard]] const StsSpec& spec() const { return spec_; }
  [[nodiscard]] u64 frames_built() const { return frames_; }

 private:
  StsSpec spec_;
  const FrameTables* tables_;
  std::function<Bytes(std::size_t)> payload_source_;
  u64 frames_ = 0;
  u8 b1_ = 0;  ///< section BIP-8 computed over the previous scrambled frame
  u8 b3_ = 0;  ///< path BIP-8 over the previous SPE
};

struct DeframerStats {
  u64 frames_in_sync = 0;
  u64 resyncs = 0;          ///< HUNT->SYNC transitions after the first
  u64 b1_errors = 0;
  u64 b2_errors = 0;        ///< frames whose rows 3..8 fail their own B2
  u64 b3_errors = 0;
  u64 discarded_octets = 0; ///< octets consumed while hunting
  bool operator==(const DeframerStats&) const = default;
};

/// Recovers frame alignment from a raw octet stream and extracts the PPP
/// payload. States: HUNT (searching A1...A2 pattern) -> SYNC; two consecutive
/// bad alignment words drop back to HUNT, modelling SONET's LOF behaviour.
///
/// In sync, a frame that lies whole inside one pushed span is deframed where
/// it lies: one pass over each row folds the scrambled octets' parity while
/// descrambling the payload into a reused buffer; B1, B2 and B3 follow from
/// those row parities and the shared image's constants. Only frames that
/// straddle a push boundary are assembled in a window first; both paths give
/// identical payloads and stats.
class SonetDeframer {
 public:
  /// `payload_sink` receives each frame's descrambled payload; the view is
  /// valid for the duration of the call.
  SonetDeframer(StsSpec spec, std::function<void(BytesView)> payload_sink);

  void push(BytesView octets);
  void push(u8 octet);

  [[nodiscard]] bool in_sync() const { return state_ == State::kSync; }
  [[nodiscard]] const DeframerStats& stats() const { return stats_; }

 private:
  /// Check and unload one scrambled frame. False when it costs the second
  /// consecutive alignment miss: the deframer is back in HUNT and the caller
  /// re-hunts inside the frame's octets.
  bool deframe(BytesView frame);
  /// deframe() the frame assembled in window_.
  void deframe_window();

  enum class State : u8 { kHunt, kSync };

  StsSpec spec_;
  std::function<void(BytesView)> payload_sink_;
  State state_ = State::kHunt;
  Bytes window_;            ///< a frame straddling push boundaries, or the hunt window
  Bytes payload_;           ///< descrambled payload of the current frame
  bool ever_synced_ = false;
  unsigned bad_alignments_ = 0;
  u8 expected_b1_ = 0;
  u8 expected_b3_ = 0;
  bool have_b1_ref_ = false;
  const FrameTables* tables_;
  DeframerStats stats_;
};

/// BIP-8: even parity per bit position over a span.
[[nodiscard]] u8 bip8(BytesView data);

}  // namespace p5::sonet
