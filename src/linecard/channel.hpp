// One tributary of the line card: a full P5 <-> SDH/SONET <-> P5 link
// (src/p5/sonet_link) plus the SPSC rings that connect it to its traffic
// source and to the MAPOS fabric, and a FrameArena so the fabric-side
// re-framing of its deliveries allocates nothing in steady state.
//
//   source ring  --\                          /--> egress ring --> fabric
//                   >--> P5(A) ~~SONET~~ P5(B)
//   fabric ring --/
//
// All link work happens inside step(), which is designed to be driven two
// ways with identical results:
//   * deterministic mode — the LineCard calls step() round-robin from one
//     thread (tests, byte-exact reproducibility);
//   * threaded mode — a dedicated worker calls step() in a loop.
// A step is one bounded slice: admit at most one descriptor, exchange at
// most one SONET frame in each direction, reap every finished delivery.
#pragma once

#include <deque>
#include <memory>
#include <optional>

#include "hdlc/frame.hpp"
#include "linecard/frame_desc.hpp"
#include "linecard/spsc_ring.hpp"
#include "linecard/telemetry.hpp"
#include "p5/sonet_link.hpp"

namespace p5::linecard {

struct ChannelConfig {
  core::P5Config p5;                    ///< applied to both ends of the link
  sonet::StsSpec sts = sonet::kSts3c;   ///< tributary pipe (STS-3c, -12c, -48c)
  sonet::LineConfig line;               ///< optical line model (seed offset per channel)
  core::DeviceTier tier = core::DeviceTier::kCycle;  ///< datapath tier for both link ends
  std::size_t ring_capacity = 256;      ///< each of source/fabric/egress rings
};

class Channel {
 public:
  Channel(unsigned index, const ChannelConfig& cfg, ChannelTelemetry& telemetry);

  /// One bounded slice of work; returns false when there was nothing to do
  /// (idle channels cost a few ring loads per call, not a SONET exchange).
  bool step();

  /// Nothing queued toward the link and nothing in flight inside it. The
  /// egress ring may still hold frames for the fabric — that is the
  /// fabric's business, not the channel's.
  [[nodiscard]] bool idle() const;

  [[nodiscard]] SpscRing<FrameDesc>& source_ring() { return source_; }
  [[nodiscard]] SpscRing<FrameDesc>& fabric_ring() { return fabric_; }
  [[nodiscard]] SpscRing<FrameDesc>& egress_ring() { return egress_; }

  // Fabric-edge taps for an external transport (transport::Tunnel) that
  // extends the MAPOS fabric across processes: the tunnel plays the fabric's
  // role on these rings, so the SPSC discipline holds as long as nothing
  // else consumes egress_/produces into fabric_ on this channel.
  /// Take one delivered frame off the egress ring (what the fabric would
  /// forward). nullopt when none is waiting.
  [[nodiscard]] std::optional<FrameDesc> egress_take() { return egress_.try_pop(); }
  /// Offer one frame toward this channel's link, exactly as the fabric
  /// would. False = ring full; the caller owns the backpressure decision.
  [[nodiscard]] bool ingress_offer(FrameDesc&& d) { return fabric_.try_push(std::move(d)); }
  /// Frames waiting on the egress ring (approximate, exact at quiescence).
  [[nodiscard]] std::size_t egress_pending() const { return egress_.size_approx(); }

  [[nodiscard]] core::P5SonetLink& link() { return *link_; }
  [[nodiscard]] const core::P5SonetLink& link() const { return *link_; }
  /// Scratch for the fabric's zero-alloc MAPOS encode of this channel's
  /// deliveries. Owned here so each fabric edge has its own arena; touched
  /// only from the fabric context.
  [[nodiscard]] hdlc::FrameArena& arena() { return arena_; }

  [[nodiscard]] unsigned index() const { return index_; }
  /// Saturating: a stale far-end junk notice can otherwise race a real
  /// delivery and briefly over-advance delivered_ under heavy line noise.
  [[nodiscard]] u64 in_flight() const {
    return submitted_ > delivered_ ? submitted_ - delivered_ : 0;
  }
  [[nodiscard]] const ChannelConfig& config() const { return cfg_; }

  /// Where the fabric should forward this channel's deliveries (set by the
  /// LineCard once NSP has assigned addresses; default broadcast).
  void set_egress_dest(u8 address) { egress_dest_ = address; }
  [[nodiscard]] u8 egress_dest() const { return egress_dest_; }

 private:
  void reap();

  unsigned index_;
  ChannelConfig cfg_;
  ChannelTelemetry& tel_;
  std::unique_ptr<core::P5SonetLink> link_;

  SpscRing<FrameDesc> source_;  ///< traffic source -> worker
  SpscRing<FrameDesc> fabric_;  ///< fabric -> worker (frames switched down this tributary)
  SpscRing<FrameDesc> egress_;  ///< worker -> fabric

  hdlc::FrameArena arena_;
  std::optional<FrameDesc> pending_;     ///< admitted but device tx ring was full
  std::deque<FrameDesc> egress_spill_;   ///< egress ring was full; retried first
  /// The link carries protocol+payload only, so each in-flight frame's
  /// fabric destination waits here; deliveries are in-order, pairing is FIFO.
  std::deque<u8> inflight_dest_;
  u8 egress_dest_ = 0xFF;

  u64 submitted_ = 0;
  u64 delivered_ = 0;
  u64 losses_seen_ = 0;      ///< far-end drop counters at last check
  u64 stale_exchanges_ = 0;  ///< exchanges since the last delivery
};

}  // namespace p5::linecard
