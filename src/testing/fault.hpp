// Deterministic, composable fault injection — the error model every
// robustness suite in this repo shares.
//
// A FaultyLine wraps any octet pipe in the stack and mutates each chunk
// passing through it according to a FaultSpec: independent bit flips at a
// configurable BER, single-octet insert/delete slips, tail truncation, HDLC
// abort injection (0x7D 0x7E overwrite), and SONET pointer-adjustment events
// (a geometry-aware justification slip). Every decision comes from one
// seeded xoshiro stream, so a failing case reproduces from its seed alone.
//
// Insertion points:
//   * under P5SonetLink — P5SonetLink::set_line_tap takes any
//     std::function<void(Bytes&)>; a FaultyLine is directly callable, so
//     `link.set_line_tap(std::ref(fault_ab), std::ref(fault_ba))` puts the
//     model on the line (chunks are whole scrambled SONET frames; a link
//     with no tap has a clean line, and there is no other line model);
//   * under linecard::Channel — `card.channel(i).link().set_line_tap(...)`
//     before the card starts (each direction's FaultyLine is then touched
//     only by that channel's worker, so threaded mode stays race-free);
//   * on a raw HDLC wire stream — apply()/transfer() on the flag-delimited
//     octet stream before feeding it to a receiver. This is the layer where
//     abort_rate is meaningful as an *HDLC abort*; on a scrambled SONET
//     line the same overwrite is simply two corrupted octets.
//
// See TESTING.md for the full error-model reference.
#pragma once

#include <optional>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "sonet/spe.hpp"

namespace p5::testing {

struct FaultSpec {
  /// Independent per-bit flip probability over every octet of the chunk.
  double bit_error_rate = 0.0;
  /// Per-chunk probability of inserting one random octet at a random
  /// position (a byte slip in the fast direction).
  double slip_insert_rate = 0.0;
  /// Per-chunk probability of deleting one octet at a random position.
  double slip_delete_rate = 0.0;
  /// Per-chunk probability of truncating the chunk at a random offset
  /// (models a mid-frame loss of signal).
  double truncate_rate = 0.0;
  /// Per-chunk probability of overwriting two consecutive octets with the
  /// HDLC abort sequence 0x7D 0x7E at a random offset.
  double abort_rate = 0.0;
  /// Per-chunk probability of a SONET pointer-adjustment event: a one-octet
  /// positive (insert) or negative (delete) justification. When `sts` is
  /// set the slip lands just after the H3 octet of the frame, where a real
  /// justification moves payload; otherwise the position is random.
  double pointer_event_rate = 0.0;
  /// Per-chunk probability of dropping the chunk entirely (cleared to zero
  /// length). Models datagram loss on a packet transport; a transport rx
  /// tap treats an emptied chunk as never delivered.
  double drop_rate = 0.0;
  /// Frame geometry for pointer events (set when chunks are SONET frames).
  std::optional<sonet::StsSpec> sts;

  u64 seed = 1;
  /// Faults apply only to the first `active_chunks` chunks; later chunks
  /// pass through clean. Lets a test prove the receiver *recovers* once the
  /// noise stops.
  u64 active_chunks = ~u64{0};

  // --- presets for the common single-class experiments ---
  [[nodiscard]] static FaultSpec clean(u64 seed = 1);
  [[nodiscard]] static FaultSpec ber(double rate, u64 seed = 1);
  [[nodiscard]] static FaultSpec slips(double insert, double del, u64 seed = 1);
  [[nodiscard]] static FaultSpec truncation(double rate, u64 seed = 1);
  [[nodiscard]] static FaultSpec aborts(double rate, u64 seed = 1);
  [[nodiscard]] static FaultSpec pointer_events(double rate, sonet::StsSpec sts, u64 seed = 1);
  [[nodiscard]] static FaultSpec drop(double rate, u64 seed = 1);
};

struct FaultStats {
  u64 chunks = 0;          ///< chunks passed through (clean or not)
  u64 octets = 0;          ///< octets seen
  u64 faulted_chunks = 0;  ///< chunks at least one fault class touched
  u64 bit_flips = 0;
  u64 inserts = 0;
  u64 deletes = 0;
  u64 truncations = 0;
  u64 aborts_injected = 0;
  u64 pointer_events = 0;
  u64 drops = 0;  ///< chunks erased outright

  /// Total individual fault events of any class.
  [[nodiscard]] u64 events() const {
    return bit_flips + inserts + deletes + truncations + aborts_injected + pointer_events +
           drops;
  }
};

class FaultyLine {
 public:
  explicit FaultyLine(const FaultSpec& spec) : spec_(spec), rng_(spec.seed) {}

  /// Mutate one chunk in place (the std::function<void(Bytes&)> shape the
  /// P5SonetLink tap expects — a FaultyLine is directly callable).
  void apply(Bytes& chunk);
  void operator()(Bytes& chunk) { apply(chunk); }

  /// Copying convenience for callers that hold views.
  [[nodiscard]] Bytes transfer(BytesView chunk);

  [[nodiscard]] const FaultStats& stats() const { return stats_; }
  [[nodiscard]] const FaultSpec& spec() const { return spec_; }

 private:
  void flip_bits(Bytes& chunk, bool& touched);

  FaultSpec spec_;
  Xoshiro256 rng_;
  FaultStats stats_;
};

}  // namespace p5::testing
