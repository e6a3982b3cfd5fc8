// Full-stack integration: P5 devices joined by an SDH/SONET path — the
// "IP over SDH/SONET" of the paper's title.
//
//   P5(A).TX -> SPE framer -> scrambled STS-Nc frames -> [line tap]
//            -> deframer -> P5(B).RX          (and the mirror direction)
//
// The x^43+1 self-synchronous payload scrambler (RFC 2615) runs over the
// PPP octet stream inside the SPE. Line errors come from an optional
// per-direction tap — a seeded testing::FaultyLine — which exercises the
// FCS/abort/delineation recovery paths end to end.
//
// The building block is P5SonetEndpoint — ONE end of the link: a P5 device
// plus the framer/deframer/scrambler set that turns its PHY word stream
// into the scrambled STS-Nc octet stream a line carries. P5SonetLink wires
// two endpoints back to back in memory; transport::Tunnel (src/transport)
// binds a single endpoint to a real socket so the far end can live in
// another process.
#pragma once

#include <functional>
#include <memory>

#include "fastpath/escape_simd.hpp"
#include "p5/endpoint.hpp"
#include "p5/p5.hpp"
#include "sonet/scrambler.hpp"
#include "sonet/spe.hpp"

namespace p5::core {

/// One end of a PPP-over-SONET link at the cycle-accurate tier
/// (DeviceTier::kCycle): a P5 device behind the SONET framer/deframer,
/// exposing the tier-agnostic SonetEndpoint surface an external transport
/// binds to.
class P5SonetEndpoint final : public SonetEndpoint {
 public:
  P5SonetEndpoint(const P5Config& cfg, sonet::StsSpec sts);
  P5SonetEndpoint(const P5SonetEndpoint&) = delete;
  P5SonetEndpoint& operator=(const P5SonetEndpoint&) = delete;

  [[nodiscard]] DeviceTier tier() const override { return DeviceTier::kCycle; }

  [[nodiscard]] P5& device() { return *dev_; }
  [[nodiscard]] const P5& device() const { return *dev_; }

  // ---- host-side API (forwarded to the cycle device) ----
  bool submit_datagram(u16 protocol, Bytes payload) override {
    return dev_->submit_datagram(protocol, std::move(payload));
  }
  bool submit_frame(TxRequest req) override { return dev_->submit_frame(std::move(req)); }
  [[nodiscard]] bool tx_has_room(std::size_t payload_bytes) const override {
    return dev_->memory().tx_has_room(payload_bytes);
  }
  [[nodiscard]] std::optional<RxDelivery> reap_datagram() override {
    return dev_->reap_datagram();
  }
  void set_rx_sink(std::function<void(RxDelivery)> sink) override {
    dev_->set_rx_sink(std::move(sink));
  }

  /// Next scrambled SONET frame from the local transmitter — always exactly
  /// sts().frame_bytes() octets, advancing the device clock as the PHY
  /// would. The line never starves: idle cycles produce flag fill.
  [[nodiscard]] Bytes pull_frame() override;

  /// Feed received line octets (whole frames or arbitrary fragments) toward
  /// the local receiver. Frame alignment recovery, descrambling and HDLC
  /// delineation all happen downstream, so a mid-stream attach, a lost
  /// chunk or a reconnect costs a resync, never a crash — the x^43+1
  /// payload scrambler is self-synchronising by construction.
  void push_line(BytesView octets) override;

  void drain_rx() override { dev_->drain_rx(); }

  /// TX gate for paced pullers: true while datagrams are queued in shared
  /// memory or any started frame's closing flag has not yet left
  /// phy_pull_tx — octets still inside the CRC, escape and flag stages or
  /// the PHY spill count as pending.
  [[nodiscard]] bool tx_pending() const override;

  [[nodiscard]] std::size_t tx_queue_depth() const override {
    return dev_->memory().tx_pending();
  }
  [[nodiscard]] u64 frames_pulled() const override { return framer_.frames_built(); }
  [[nodiscard]] bool rx_in_sync() const override { return deframer_->in_sync(); }
  [[nodiscard]] const sonet::DeframerStats& rx_stats() const override {
    return deframer_->stats();
  }
  [[nodiscard]] const sonet::StsSpec& sts() const override { return sts_; }
  [[nodiscard]] RxCounters rx_counters() const override {
    return dev_->rx_control().counters();
  }
  [[nodiscard]] u64 rx_overflow_drops() const override {
    return dev_->memory().stats().rx_dropped;
  }

 private:
  sonet::StsSpec sts_;
  std::unique_ptr<P5> dev_;

  // Zero-alloc scrambling: TX scrambles the pulled chunk in place; RX reuses
  // a scratch buffer whose capacity stabilises after the first SONET frame.
  sonet::SelfSyncScrambler43 scr_tx_, scr_rx_;
  Bytes rx_scratch_;
  sonet::SonetFramer framer_;
  std::unique_ptr<sonet::SonetDeframer> deframer_;
};

class P5SonetLink {
 public:
  P5SonetLink(const P5Config& cfg, sonet::StsSpec sts, DeviceTier tier = DeviceTier::kCycle);
  /// Asymmetric link: distinct configurations per end (e.g. a line-card
  /// tributary whose two ends carry different programmed MAPOS addresses).
  P5SonetLink(const P5Config& a_cfg, const P5Config& b_cfg, sonet::StsSpec sts,
              DeviceTier tier = DeviceTier::kCycle);

  [[nodiscard]] DeviceTier tier() const { return tier_; }

  /// The cycle-level devices. Only valid on a kCycle link — tier-generic
  /// code goes through endpoint_a()/endpoint_b() instead.
  [[nodiscard]] P5& a();
  [[nodiscard]] P5& b();

  /// The endpoints themselves — the attach points transport::Tunnel binds
  /// to a socket (exchange_frames and a socket pump must not drive the same
  /// endpoint concurrently).
  [[nodiscard]] SonetEndpoint& endpoint_a() { return *ep_a_; }
  [[nodiscard]] SonetEndpoint& endpoint_b() { return *ep_b_; }

  /// Host-side software escape engine matching the A end's programmed ACCM:
  /// the dispatch tables are derived once here, at link construction (the
  /// software analogue of the OAM write that loads the P5's Escape Generate
  /// tables), so hosts that pre-frame or cross-check datagrams in software —
  /// the line-card fabric, the differential oracle — never pay table
  /// derivation per frame.
  [[nodiscard]] const fastpath::EscapeEngine& host_escape_engine() const {
    return host_engine_;
  }

  /// Move one SONET frame in each direction (A->B and B->A).
  void exchange_frames(std::size_t frames = 1);

  /// Optional per-direction mutation of each SONET frame between the far
  /// transmitter and the deframer — the line itself, and the one insertion
  /// point for bit errors and other faults (testing::FaultyLine is directly
  /// callable as a tap). Either tap may be empty: a clean line. A tap runs
  /// on whichever thread pumps exchange_frames, so give each direction its
  /// own stateful tap object.
  using LineTap = std::function<void(Bytes&)>;
  void set_line_tap(LineTap a_to_b, LineTap b_to_a) {
    tap_ab_ = std::move(a_to_b);
    tap_ba_ = std::move(b_to_a);
  }

  [[nodiscard]] const sonet::DeframerStats& a_to_b_stats() const { return ep_b_->rx_stats(); }
  [[nodiscard]] const sonet::DeframerStats& b_to_a_stats() const { return ep_a_->rx_stats(); }
  [[nodiscard]] const sonet::StsSpec& sts() const { return sts_; }

 private:
  sonet::StsSpec sts_;
  DeviceTier tier_;
  std::unique_ptr<SonetEndpoint> ep_a_;
  std::unique_ptr<SonetEndpoint> ep_b_;
  fastpath::EscapeEngine host_engine_;  ///< derived once from the A-side ACCM
  LineTap tap_ab_, tap_ba_;
};

}  // namespace p5::core
