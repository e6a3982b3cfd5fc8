// FastP5Endpoint — the production-tier software datapath (DeviceTier::kFast).
//
// The full PPP-over-SONET path as whole-frame batch operations with zero
// per-cycle stepping, built from the kernels the earlier PRs proved out:
//
//   TX: SharedMemory ring -> hdlc::encode_batch_into (FCS — carry-less
//       multiply or slicing-by-16 — + SIMD escape engine, one worst-case
//       reservation per batch; each frame's closing flag included)
//       -> inter-frame flag fill -> x^43+1 self-sync payload scrambler word
//       loop from the encode arena into one reused SPE buffer
//       -> sonet::SonetFramer::frame_into (one pass: overhead from the
//       per-level scrambled image, payload xor keystream, B1/B2/B3 from the
//       payload's row parities)
//   RX: sonet::SonetDeframer (alignment recovery, pointer interpretation,
//       BIP checks; a whole frame in one chunk is deframed in place) ->
//       self-sync descrambler -> hdlc::Delineator (bulk flag scan; frames
//       inside one SPE reach the receiver as views, not copies) -> SIMD
//       destuff -> FCS residue check (carry-less multiply or slicing-by-16)
//       -> header parse / MAPOS address filter -> SharedMemory ring.
//
// It produces and consumes the same SONET chunk byte stream as the
// cycle-accurate P5SonetEndpoint: the SONET layer is literally the same
// SonetFramer/SonetDeframer code, and the PPP layer is the batch encoder
// whose wire images the DiffOracle proves byte-identical to the cycle
// pipeline's. The only freedom the tiers have is *inter-frame flag-fill
// placement* (in the cycle model that encodes pipeline restart latency), so
// equivalence is stated canonically — identical delineated stuffed-frame
// sequences, identical deliveries, identical loss ledgers — and enforced by
// the DiffOracle tier leg, including under FaultSpec corruption.
//
// Receiver dispositions replicate the cycle chain exactly (DESIGN.md §12):
// delineator aborts/runts and FCS/length failures -> frames_bad; then
// content < 4 octets -> malformed; then the MAPOS address filter; then
// payload > MRU -> oversize; deliveries transit shared memory so pool
// exhaustion drops (rx_dropped) are accounted identically.
#pragma once

#include <vector>

#include "hdlc/delineation.hpp"
#include "hdlc/frame.hpp"
#include "p5/endpoint.hpp"
#include "p5/shared_memory.hpp"
#include "sonet/scrambler.hpp"
#include "sonet/spe.hpp"

namespace p5::core {

class FastP5Endpoint final : public SonetEndpoint {
 public:
  FastP5Endpoint(const P5Config& cfg, sonet::StsSpec sts);
  FastP5Endpoint(const FastP5Endpoint&) = delete;
  FastP5Endpoint& operator=(const FastP5Endpoint&) = delete;

  [[nodiscard]] DeviceTier tier() const override { return DeviceTier::kFast; }

  bool submit_datagram(u16 protocol, Bytes payload) override;
  bool submit_frame(TxRequest req) override { return memory_.post_tx(std::move(req)); }
  [[nodiscard]] bool tx_has_room(std::size_t payload_bytes) const override {
    return memory_.tx_has_room(payload_bytes);
  }
  [[nodiscard]] std::optional<RxDelivery> reap_datagram() override { return memory_.reap_rx(); }
  void set_rx_sink(std::function<void(RxDelivery)> sink) override {
    sink_ = std::move(sink);
  }

  [[nodiscard]] Bytes pull_frame() override;
  void push_line(BytesView octets) override;

  /// Exact: the encoder writes each frame's closing flag into tx_wire_, so
  /// once the queue is empty and the wire consumed, the last frame is out.
  [[nodiscard]] bool tx_pending() const override {
    return memory_.tx_pending() > 0 || (tx_wire_is_data_ && tx_head_ < tx_wire_.size());
  }
  [[nodiscard]] std::size_t tx_queue_depth() const override { return memory_.tx_pending(); }
  [[nodiscard]] u64 frames_pulled() const override;
  [[nodiscard]] bool rx_in_sync() const override;
  [[nodiscard]] const sonet::DeframerStats& rx_stats() const override;
  [[nodiscard]] const sonet::StsSpec& sts() const override { return sts_; }
  [[nodiscard]] RxCounters rx_counters() const override;
  [[nodiscard]] u64 rx_overflow_drops() const override {
    return memory_.stats().rx_dropped;
  }

  /// The shared packet memory (same admission/overflow accounting the cycle
  /// device exposes through P5::memory()).
  [[nodiscard]] SharedMemory& memory() { return memory_; }
  [[nodiscard]] const hdlc::DelineatorStats& delineator_stats() const {
    return delineator_.stats();
  }

 private:
  /// Re-point tx_wire_ at fresh stream content: a batch encode of every
  /// queued datagram, or flag fill when the queue is idle.
  void tx_refill();
  /// Delineator sink: one stuffed frame body (flags stripped).
  void on_stuffed_frame(BytesView stuffed);

  P5Config cfg_;
  sonet::StsSpec sts_;
  hdlc::FrameConfig tx_fcfg_;  ///< header/FCS/ACCM from cfg_, MRU unenforced on TX

  SharedMemory memory_;
  std::function<void(RxDelivery)> sink_;

  // --- TX ---
  sonet::SonetFramer framer_;
  sonet::SelfSyncScrambler43 scr_tx_;
  hdlc::FrameArena tx_arena_;
  std::vector<TxRequest> batch_reqs_;       ///< payload storage for the batch views
  std::vector<hdlc::BatchFrame> batch_;
  Bytes idle_fill_;                         ///< one SPE of flag fill
  Bytes tx_spe_;                            ///< the next frame's scrambled SPE payload
  BytesView tx_wire_;                       ///< current stream source (arena or fill)
  bool tx_wire_is_data_ = false;            ///< tx_wire_ holds frames, not idle fill
  std::size_t tx_head_ = 0;                 ///< consumed prefix of tx_wire_

  // --- RX ---
  std::unique_ptr<sonet::SonetDeframer> deframer_;
  sonet::SelfSyncScrambler43 scr_rx_;
  Bytes rx_scratch_;                        ///< descrambled SPE payload
  hdlc::Delineator delineator_;
  fastpath::EscapeEngine rx_engine_;
  Bytes destuffed_;                         ///< scratch for one destuffed frame
  RxCounters rx_counters_;                  ///< malformed/filter/oversize/ok classes
  u64 rx_crc_bad_ = 0;                      ///< FCS/length failures (-> frames_bad)
};

}  // namespace p5::core
