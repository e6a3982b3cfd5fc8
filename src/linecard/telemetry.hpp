// Per-channel line-card telemetry: the counters an operator's SNMP poll or a
// bench harness wants, updated from the channel's worker thread (each counter
// has exactly one writer) and read from any thread. Updates, snapshot and
// merge follow the one counter model in common/counters.hpp.
//
// Each channel's counter block is cache-line aligned and padded so two
// workers hammering their own counters never share a line (the same false-
// sharing discipline as the SPSC ring indices).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/counters.hpp"
#include "common/spsc_ring.hpp"
#include "common/types.hpp"

namespace p5::linecard {

/// Plain-value copy of one channel's counters (or an aggregate roll-up).
struct ChannelSnapshot {
  u64 frames_in = 0;   ///< descriptors accepted into the channel's link
  u64 frames_out = 0;  ///< datagrams delivered out of the link
  u64 bytes_in = 0;    ///< payload octets in (headers/FCS/flags excluded)
  u64 bytes_out = 0;   ///< payload octets delivered
  u64 fcs_errors = 0;  ///< far-end receiver junk events (FCS/abort/filter/overflow)
  /// Admitted descriptors written off as undeliverable. Loss accounting is
  /// exact: at idle, frames_in == frames_out + frames_lost — every admitted
  /// descriptor is either delivered or counted here, never both.
  u64 frames_lost = 0;
  u64 ring_full_stalls = 0;  ///< descriptor pushes that found a ring/device full
  u64 ingress_hwm = 0;       ///< peak source+fabric ring occupancy observed
  u64 egress_hwm = 0;        ///< peak egress ring (+spill) occupancy observed
  /// Escape-engine dispatch-tier selections for this channel's fabric-side
  /// re-framing: how many stuff/destuff calls ran scalar (small frames),
  /// SWAR, or SIMD. Totals mirrored from the arena engine after each burst.
  u64 escape_scalar = 0;
  u64 escape_swar = 0;
  u64 escape_simd = 0;

  bool operator==(const ChannelSnapshot&) const = default;
  ChannelSnapshot& operator+=(const ChannelSnapshot& o);
};

/// ChannelSnapshot's live mirror; the two occupancy high-water marks merge by
/// max (common/counters.hpp).
using ChannelCounters =
    CounterBlock<ChannelSnapshot, &ChannelSnapshot::ingress_hwm, &ChannelSnapshot::egress_hwm>;

inline ChannelSnapshot& ChannelSnapshot::operator+=(const ChannelSnapshot& o) {
  return ChannelCounters::merge(*this, o);
}

/// Live counters for one channel. Single writer (the channel's worker),
/// any number of readers.
class alignas(kCacheLineBytes) ChannelTelemetry {
  using S = ChannelSnapshot;

 public:
  void on_ingress(std::size_t payload_bytes) {
    c_.add<&S::frames_in>(1);
    c_.add<&S::bytes_in>(payload_bytes);
  }
  void on_egress(std::size_t payload_bytes) {
    c_.add<&S::frames_out>(1);
    c_.add<&S::bytes_out>(payload_bytes);
  }
  void add_fcs_errors(u64 n) {
    if (n) c_.add<&S::fcs_errors>(n);
  }
  void add_frames_lost(u64 n) {
    if (n) c_.add<&S::frames_lost>(n);
  }
  void ring_full_stall() { c_.add<&S::ring_full_stalls>(1); }
  void note_ingress_depth(std::size_t depth) { c_.raise<&S::ingress_hwm>(depth); }
  void note_egress_depth(std::size_t depth) { c_.raise<&S::egress_hwm>(depth); }
  /// Mirror the fabric arena engine's cumulative tier counters (stores, not
  /// adds: the engine already accumulates; single writer = fabric context).
  void set_escape_tiers(u64 scalar, u64 swar, u64 simd) {
    c_.store<&S::escape_scalar>(scalar);
    c_.store<&S::escape_swar>(swar);
    c_.store<&S::escape_simd>(simd);
  }

  /// Consistent point-in-time copy (common/counters.hpp).
  [[nodiscard]] ChannelSnapshot snapshot() const { return c_.snapshot(); }

 private:
  ChannelCounters c_;
};

/// The line card's counter file: one padded block per channel plus an
/// aggregate roll-up (sums for flows, max for high-water marks).
class Telemetry {
 public:
  explicit Telemetry(std::size_t channels);

  [[nodiscard]] std::size_t channels() const { return per_channel_.size(); }
  [[nodiscard]] ChannelTelemetry& channel(std::size_t i) { return *per_channel_[i]; }
  [[nodiscard]] const ChannelTelemetry& channel(std::size_t i) const { return *per_channel_[i]; }
  [[nodiscard]] ChannelSnapshot snapshot(std::size_t i) const;
  [[nodiscard]] ChannelSnapshot aggregate() const;

 private:
  std::vector<std::unique_ptr<ChannelTelemetry>> per_channel_;
};

}  // namespace p5::linecard
