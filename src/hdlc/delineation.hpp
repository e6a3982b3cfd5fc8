// Flag-based frame delineation state machine (RFC 1662 §4.3).
//
// Consumes a raw octet stream (possibly mid-frame at start-up, possibly
// corrupted) and emits frame *content* spans between flags:
//   * consecutive flags / inter-frame fill are skipped;
//   * a 0x7D immediately followed by 0x7E is a transmitter abort — the frame
//     is discarded and counted;
//   * runt fragments (shorter than the minimum FCS+protocol size) are
//     discarded silently, as the RFC requires;
//   * oversize accumulations (no closing flag within max_frame_octets) are
//     discarded and counted, so a broken stream cannot exhaust memory.
//
// This is the golden model the P5 receiver's cycle-accurate delineator is
// verified against, and is also used directly by the software protocol stack.
#pragma once

#include <functional>

#include "common/types.hpp"
#include "hdlc/accm.hpp"

namespace p5::hdlc {

struct DelineatorStats {
  u64 frames = 0;          ///< complete frames delivered
  u64 aborts = 0;          ///< transmitter aborts seen
  u64 runts = 0;           ///< inter-flag fragments too short to be frames
  u64 oversize = 0;        ///< frames dropped for exceeding max_frame_octets
  u64 octets = 0;          ///< raw octets consumed
  bool operator==(const DelineatorStats&) const = default;
};

class Delineator {
 public:
  /// `sink` receives each complete (still-stuffed) frame content, flags
  /// stripped. min_frame applies to the stuffed length.
  explicit Delineator(std::function<void(BytesView)> sink, std::size_t min_frame = 4,
                      std::size_t max_frame_octets = 65536)
      : sink_(std::move(sink)), min_frame_(min_frame), max_frame_(max_frame_octets) {}

  void push(u8 octet);
  /// Bulk push: memchr-scans between flags, with byte-for-byte the same state
  /// transitions and stats as the octet loop. A frame whose opening and
  /// closing flags both lie in `octets` reaches the sink as a view of it;
  /// only a frame straddling a push boundary is accumulated and copied.
  void push(BytesView octets);

  /// Treat the stream as ended: any partial frame is dropped.
  void flush();

  [[nodiscard]] const DelineatorStats& stats() const { return stats_; }
  void reset_stats() { stats_ = DelineatorStats{}; }

 private:
  void end_frame();
  /// Disposition of one closed frame's content (abort, runt, oversize or
  /// delivery), shared by the accumulated and the in-span paths.
  void close(BytesView content, bool overflowed);
  /// Accumulate octets of the open frame, bounded by max_frame_.
  void append(const u8* p, std::size_t n);

  std::function<void(BytesView)> sink_;
  std::size_t min_frame_;
  std::size_t max_frame_;
  Bytes current_;
  bool in_frame_ = false;     ///< saw an opening flag
  bool overflowed_ = false;   ///< current frame exceeded max_frame_
  DelineatorStats stats_;
};

}  // namespace p5::hdlc
