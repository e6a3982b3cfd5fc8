#include "p5/sonet_link.hpp"

#include "common/check.hpp"

namespace p5::core {

P5SonetEndpoint::P5SonetEndpoint(const P5Config& cfg, sonet::StsSpec sts)
    : sts_(sts), dev_(std::make_unique<P5>(cfg)), framer_(sts) {
  deframer_ = std::make_unique<sonet::SonetDeframer>(sts, [this](BytesView payload) {
    rx_scratch_.assign(payload.begin(), payload.end());
    scr_rx_.descramble_in_place(rx_scratch_);
    dev_->phy_push_rx(rx_scratch_);
  });
}

Bytes P5SonetEndpoint::pull_frame() {
  Bytes spe = dev_->phy_pull_tx(sts_.payload_bytes_per_frame());
  scr_tx_.scramble_in_place(spe);
  Bytes frame(sts_.frame_bytes());
  framer_.frame_into(frame.data(), spe);
  return frame;
}

void P5SonetEndpoint::push_line(BytesView octets) { deframer_->push(octets); }

bool P5SonetEndpoint::tx_pending() const {
  return dev_->tx_control().pending() > 0 ||
         dev_->tx_frames_closed() < dev_->tx_control().frames_started();
}

P5SonetLink::P5SonetLink(const P5Config& cfg, sonet::StsSpec sts, DeviceTier tier)
    : P5SonetLink(cfg, cfg, sts, tier) {}

P5SonetLink::P5SonetLink(const P5Config& a_cfg, const P5Config& b_cfg, sonet::StsSpec sts,
                         DeviceTier tier)
    : sts_(sts),
      tier_(tier),
      ep_a_(make_sonet_endpoint(tier, a_cfg, sts)),
      ep_b_(make_sonet_endpoint(tier, b_cfg, sts)),
      host_engine_(a_cfg.accm) {}

P5& P5SonetLink::a() {
  P5_EXPECTS(tier_ == DeviceTier::kCycle);
  return static_cast<P5SonetEndpoint&>(*ep_a_).device();
}

P5& P5SonetLink::b() {
  P5_EXPECTS(tier_ == DeviceTier::kCycle);
  return static_cast<P5SonetEndpoint&>(*ep_b_).device();
}

void P5SonetLink::exchange_frames(std::size_t frames) {
  for (std::size_t i = 0; i < frames; ++i) {
    Bytes ab = ep_a_->pull_frame();
    if (tap_ab_) tap_ab_(ab);
    ep_b_->push_line(ab);
    Bytes ba = ep_b_->pull_frame();
    if (tap_ba_) tap_ba_(ba);
    ep_a_->push_line(ba);
  }
}

}  // namespace p5::core
