#include "linecard/channel.hpp"

namespace p5::linecard {

namespace {

/// SONET exchanges tolerated with traffic in flight but nothing delivered
/// before the in-flight count is written off (line errors eat frames;
/// without this a lossy channel would pump its line forever).
constexpr u64 kFlushBound = 64;

/// Every way the far end can eat a frame without delivering it: receiver
/// dispositions (FCS/abort, address filter, malformed, oversize) plus the
/// shared-memory receive ring dropping a finished frame. Tier-agnostic: both
/// device tiers keep the identical ledger (enforced by the DiffOracle).
u64 far_end_losses(core::P5SonetLink& link) {
  const core::RxCounters c = link.endpoint_b().rx_counters();
  return c.frames_bad + c.addr_filtered + c.malformed + c.oversize +
         link.endpoint_b().rx_overflow_drops();
}

}  // namespace

Channel::Channel(unsigned index, const ChannelConfig& cfg, ChannelTelemetry& telemetry)
    : index_(index),
      cfg_(cfg),
      tel_(telemetry),
      link_(std::make_unique<core::P5SonetLink>(cfg.p5, cfg.sts, cfg.line, cfg.tier)),
      source_(cfg.ring_capacity),
      fabric_(cfg.ring_capacity),
      egress_(cfg.ring_capacity) {
  // Hoist escape-table derivation out of the fabric hot loop: the arena's
  // cached engine is primed here, at construction (config-change time),
  // from the tributary's programmed ACCM — previously the first fabric-side
  // re-frame derived it mid-burst. The cache keys on the ACCM, so an OAM
  // reprogramming still re-derives exactly once.
  (void)arena_.escape_engine(link_->host_escape_engine().accm());
}

bool Channel::step() {
  bool work = false;

  // Retry egress frames the ring rejected on an earlier slice, in order.
  while (!egress_spill_.empty()) {
    if (!egress_.try_push(std::move(egress_spill_.front()))) break;
    egress_spill_.pop_front();
    work = true;
  }

  tel_.note_ingress_depth(source_.size_approx() + fabric_.size_approx());

  // Admit at most one descriptor per slice: sources first (fresh traffic),
  // then frames the fabric switched down this tributary.
  if (!pending_) {
    if (auto d = source_.try_pop()) {
      pending_ = std::move(d);
    } else if (auto d = fabric_.try_pop()) {
      pending_ = std::move(d);
    }
  }
  if (pending_) {
    if (link_->endpoint_a().tx_has_room(pending_->payload.size())) {
      const std::size_t n = pending_->payload.size();
      inflight_dest_.push_back(pending_->fabric_dest ? pending_->fabric_dest : egress_dest_);
      (void)link_->endpoint_a().submit_datagram(pending_->protocol,
                                                std::move(pending_->payload));
      tel_.on_ingress(n);
      ++submitted_;
      pending_.reset();
      work = true;
    } else {
      // Device transmit ring full — hold the descriptor and report the
      // backpressure; the SPSC rings upstream of us fill next.
      tel_.ring_full_stall();
    }
  }

  // Pump the line only while something is actually in flight; an idle
  // channel must not burn a SONET frame's worth of cycle-model time.
  if (in_flight() > 0) {
    link_->exchange_frames(1);
    ++stale_exchanges_;
    work = true;
  }

  reap();

  // Frames the far end junked (line errors, filters, rx-pool overflow) never
  // reach reap(). Note the junk events for telemetry and drop their
  // destination bookkeeping, but do NOT fold them into delivered_: junk
  // events are not 1:1 with lost descriptors (a flipped flag can split one
  // frame into two bad fragments, or merge two frames into one), so counting
  // them as deliveries would corrupt the loss accounting. The write-off
  // below settles the in-flight count exactly instead.
  const u64 losses = far_end_losses(*link_);
  if (losses > losses_seen_) {
    const u64 fresh = losses - losses_seen_;
    tel_.add_fcs_errors(fresh);
    // Best-effort FIFO discard of the junked frames' destinations; with line
    // errors the pairing is approximate, which only misroutes already-lost
    // frames' bookkeeping, never payload bytes.
    for (u64 i = 0; i < fresh && !inflight_dest_.empty(); ++i) inflight_dest_.pop_front();
    losses_seen_ = losses;
  }
  // Loss write-off: once the transmitter has drained and kFlushBound
  // exchanges pass with nothing delivered, whatever is still unaccounted was
  // eaten by the line. submitted_ - delivered_ is then exactly the number of
  // admitted-but-never-delivered descriptors (delivered_ only ever advances
  // in reap()), so frames_lost is exact: frames_in == frames_out +
  // frames_lost once the channel is idle.
  if (in_flight() > 0 && stale_exchanges_ > kFlushBound &&
      !link_->endpoint_a().tx_pending()) {
    tel_.add_frames_lost(in_flight());
    delivered_ = submitted_;
    inflight_dest_.clear();
    stale_exchanges_ = 0;
  }

  return work;
}

void Channel::reap() {
  while (auto rx = link_->endpoint_b().reap_datagram()) {
    ++delivered_;
    stale_exchanges_ = 0;
    tel_.on_egress(rx->payload.size());
    FrameDesc out;
    out.protocol = rx->protocol;
    out.fabric_dest = egress_dest_;
    if (!inflight_dest_.empty()) {
      out.fabric_dest = inflight_dest_.front();
      inflight_dest_.pop_front();
    }
    out.source_channel = index_;
    out.payload = std::move(rx->payload);
    if (!egress_.try_push(std::move(out))) {
      // Ring full: spill locally (unbounded deque) rather than drop — the
      // stall is counted and the spill drains ahead of new deliveries.
      tel_.ring_full_stall();
      egress_spill_.push_back(std::move(out));
    }
    tel_.note_egress_depth(egress_.size_approx() + egress_spill_.size());
  }
}

bool Channel::idle() const {
  return !pending_ && egress_spill_.empty() && in_flight() == 0 && source_.empty() &&
         fabric_.empty();
}

}  // namespace p5::linecard
