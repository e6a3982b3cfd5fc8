// The P5 device: Transmitter + Receiver + Protocol OAM wired into one
// cycle-accurate pipeline (paper Figure 2).
//
//   TX: TxControl -> TxCrcUnit -> EscapeGenerate -> FlagInserter -> PHY
//   RX: PHY -> FlagDelineator -> EscapeDetect -> RxCrcChecker -> RxControl
//
// The PHY boundary is a pair of word channels; adapters below convert to
// the continuous octet stream SDH/SONET carries. Every inter-stage channel
// is a registered pipeline stage, so first-word latencies and sustained
// words-per-cycle measured on this model are architectural properties, not
// software artefacts.
#pragma once

#include <memory>

#include "p5/config.hpp"
#include "p5/control.hpp"
#include "p5/crc_unit.hpp"
#include "p5/escape_detect.hpp"
#include "p5/escape_generate.hpp"
#include "p5/framer.hpp"
#include "p5/oam.hpp"
#include "p5/shared_memory.hpp"
#include "rtl/simulator.hpp"
#include "rtl/vcd.hpp"

namespace p5::core {

class P5 {
 public:
  explicit P5(const P5Config& cfg);

  // ---- host-side API (the shared-memory / uP interface) ----
  /// Buffer a datagram in shared memory for transmission; false when the
  /// transmit pool/ring is full (the host must back off, like any driver).
  bool submit_datagram(u16 protocol, Bytes payload);
  /// Full-control submission (per-frame Control override for numbered mode).
  bool submit_frame(TxRequest req) { return memory_.post_tx(std::move(req)); }
  /// Without an rx sink, received datagrams accumulate in shared memory and
  /// the host reaps them here (with a sink they are delivered immediately).
  [[nodiscard]] std::optional<RxDelivery> reap_datagram() { return memory_.reap_rx(); }
  [[nodiscard]] SharedMemory& memory() { return memory_; }
  void set_rx_sink(std::function<void(RxDelivery)> sink);
  [[nodiscard]] Oam& oam() { return oam_; }
  [[nodiscard]] const P5Config& config() const { return cfg_; }

  // ---- clock ----
  void step(u64 cycles = 1);
  [[nodiscard]] u64 cycle() const { return sim_.cycle(); }

  /// Attach a VCD waveform writer: registers the pipeline's key signals
  /// (queue occupancies, channel valids, counters) and samples them on
  /// every subsequent step(). Pass nullptr to detach.
  void attach_trace(rtl::VcdWriter* vcd);

  // ---- PHY-side API ----
  /// Pull exactly n transmit octets, advancing the clock as needed (one SPE
  /// payload per SONET frame). The line never starves: idle cycles produce
  /// flag fill.
  [[nodiscard]] Bytes phy_pull_tx(std::size_t n);
  /// Frames whose closing flag phy_pull_tx has handed out. Transparency
  /// keeps 0x7E out of frame content, so a closing flag is exactly a flag
  /// octet that follows a non-flag one on the line.
  [[nodiscard]] u64 tx_frames_closed() const { return tx_frames_closed_; }
  /// Push received octets toward the receiver, advancing the clock so the
  /// pipeline keeps pace with the line (lanes octets per cycle).
  void phy_push_rx(BytesView octets);
  /// Drain the receive pipeline: push any partial word of received octets,
  /// then run until no stage can move a word without more line octets, at
  /// most max_cycles.
  void drain_rx(u64 max_cycles = 10000);

  // ---- introspection for the experiments ----
  [[nodiscard]] const TxControl& tx_control() const { return *tx_control_; }
  [[nodiscard]] const EscapeGenerate& escape_generate() const { return *escape_generate_; }
  [[nodiscard]] const EscapeDetect& escape_detect() const { return *escape_detect_; }
  [[nodiscard]] const FlagInserter& flag_inserter() const { return *flag_inserter_; }
  [[nodiscard]] const FlagDelineator& flag_delineator() const { return *flag_delineator_; }
  [[nodiscard]] const RxCrcChecker& rx_crc() const { return *rx_crc_; }
  [[nodiscard]] const RxControl& rx_control() const { return *rx_control_; }
  [[nodiscard]] TxControl& tx_control() { return *tx_control_; }

 private:
  P5Config cfg_;
  rtl::Simulator sim_;
  Oam oam_;
  SharedMemory memory_;
  bool have_user_sink_ = false;

  // Channels (registered pipeline stages).
  std::unique_ptr<rtl::Fifo<rtl::Word>> tx_c2crc_, tx_crc2esc_, tx_esc2flag_, tx_line_;
  std::unique_ptr<rtl::Fifo<rtl::Word>> rx_line_, rx_flag2esc_, rx_esc2crc_, rx_crc2c_;

  // Modules.
  std::unique_ptr<TxControl> tx_control_;
  std::unique_ptr<TxCrcUnit> tx_crc_;
  std::unique_ptr<EscapeGenerate> escape_generate_;
  std::unique_ptr<FlagInserter> flag_inserter_;
  std::unique_ptr<FlagDelineator> flag_delineator_;
  std::unique_ptr<EscapeDetect> escape_detect_;
  std::unique_ptr<RxCrcChecker> rx_crc_;
  std::unique_ptr<RxControl> rx_control_;

  /// Push rx_spill_ to the line channel as one word.
  void push_rx_word();

  Bytes rx_spill_;  ///< partial word being assembled from pushed octets
  Bytes tx_spill_;  ///< octets popped from the line but not yet pulled
  u64 tx_frames_closed_ = 0;
  bool tx_in_frame_ = false;  ///< the last octet pulled was frame content
  rtl::VcdWriter* vcd_ = nullptr;
};

}  // namespace p5::core
