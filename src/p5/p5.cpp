#include "p5/p5.hpp"

#include <algorithm>
#include <array>

#include "common/check.hpp"

namespace p5::core {

namespace {
constexpr std::size_t kStageDepth = 1;  ///< registered pipeline stage
constexpr std::size_t kLineDepth = 4;   ///< small PHY elastic buffer
/// Cycles without a word on any receive channel after which drain_rx calls
/// the receiver quiescent. A word may sit inside one stage with no channel
/// activity for 2 cycles (Escape Detect's S1 -> S2 -> queue); 8 is margin.
constexpr u64 kRxQuietCycles = 8;
}  // namespace

P5::P5(const P5Config& cfg) : cfg_(cfg), oam_(cfg) {
  P5_EXPECTS(cfg.lanes >= 1 && cfg.lanes <= rtl::Word::kMaxLanes);

  auto mk = [this](const char* name, std::size_t depth) {
    auto f = std::make_unique<rtl::Fifo<rtl::Word>>(name, depth);
    sim_.add_channel(*f);
    return f;
  };
  tx_c2crc_ = mk("tx.c2crc", kStageDepth);
  tx_crc2esc_ = mk("tx.crc2esc", kStageDepth);
  tx_esc2flag_ = mk("tx.esc2flag", kStageDepth);
  tx_line_ = mk("tx.line", kLineDepth);
  rx_line_ = mk("rx.line", kLineDepth);
  rx_flag2esc_ = mk("rx.flag2esc", kStageDepth);
  rx_esc2crc_ = mk("rx.esc2crc", kStageDepth);
  rx_crc2c_ = mk("rx.crc2c", kStageDepth);

  tx_control_ = std::make_unique<TxControl>("tx.control", cfg_, *tx_c2crc_);
  tx_crc_ = std::make_unique<TxCrcUnit>("tx.crc", cfg_, *tx_c2crc_, *tx_crc2esc_);
  escape_generate_ =
      std::make_unique<EscapeGenerate>("tx.escape_generate", cfg_.lanes, *tx_crc2esc_,
                                       *tx_esc2flag_, cfg_.accm);
  flag_inserter_ =
      std::make_unique<FlagInserter>("tx.flag_inserter", cfg_.lanes, *tx_esc2flag_, *tx_line_);

  flag_delineator_ =
      std::make_unique<FlagDelineator>("rx.flag_delineator", cfg_.lanes, *rx_line_,
                                       *rx_flag2esc_);
  escape_detect_ =
      std::make_unique<EscapeDetect>("rx.escape_detect", cfg_.lanes, *rx_flag2esc_, *rx_esc2crc_);
  rx_crc_ = std::make_unique<RxCrcChecker>("rx.crc", cfg_, *rx_esc2crc_, *rx_crc2c_);
  rx_control_ = std::make_unique<RxControl>("rx.control", cfg_, *rx_crc2c_);

  // Evaluation order: sinks before sources, so capacity-1 channels behave
  // as flow-through pipeline registers (see rtl::Fifo's contract).
  sim_.add(*flag_inserter_);
  sim_.add(*escape_generate_);
  sim_.add(*tx_crc_);
  sim_.add(*tx_control_);
  sim_.add(*rx_control_);
  sim_.add(*rx_crc_);
  sim_.add(*escape_detect_);
  sim_.add(*flag_delineator_);

  // Shared packet memory between the host and the datapath (Figure 2).
  tx_control_->set_memory(&memory_);
  tx_control_->set_frame_done_hook([this] { oam_.raise(OamIrq::kTxDone); });
  rx_crc_->set_error_hook([this] { oam_.raise(OamIrq::kRxError); });
  // Default receive path: buffer frames in shared memory until the host
  // reaps them (set_rx_sink switches to immediate delivery).
  rx_control_->set_sink([this](RxDelivery d) {
    oam_.raise(OamIrq::kRxFrame);
    memory_.store_rx(std::move(d));
  });

  // OAM writes reprogram the datapath (the MAPOS address register etc.).
  oam_.set_reconfigure_hook([this](const P5Config& c) {
    cfg_.address = c.address;
    cfg_.control = c.control;
    cfg_.max_payload = c.max_payload;
    cfg_.accm = c.accm;
    tx_control_->set_config(cfg_);
    rx_control_->set_config(cfg_);
    escape_generate_->set_accm(cfg_.accm);
  });

  // OAM counter plumbing.
  oam_.set_counter_source(OamReg::kTxFrames, [this] { return tx_control_->frames_started(); });
  oam_.set_counter_source(OamReg::kTxOctets, [this] { return tx_control_->octets_sent(); });
  oam_.set_counter_source(OamReg::kRxFramesOk,
                          [this] { return rx_control_->counters().frames_ok; });
  oam_.set_counter_source(OamReg::kRxFcsErrors, [this] { return rx_crc_->bad_frames(); });
  oam_.set_counter_source(OamReg::kRxAddrDrops,
                          [this] { return rx_control_->counters().addr_filtered; });
  oam_.set_counter_source(OamReg::kRxAborts,
                          [this] { return flag_delineator_->counters().aborts; });
  oam_.set_counter_source(OamReg::kTxEscapes,
                          [this] { return escape_generate_->escapes_inserted(); });
  oam_.set_counter_source(OamReg::kRxEscapes, [this] { return escape_detect_->escapes_removed(); });
}

void P5::step(u64 cycles) {
  for (u64 i = 0; i < cycles; ++i) {
    sim_.step();
    if (vcd_) vcd_->sample(sim_.cycle());
  }
}

void P5::attach_trace(rtl::VcdWriter* vcd) {
  vcd_ = vcd;
  if (!vcd) return;
  vcd->add_signal("tx_escgen_queue_occ", 8, [this] { return escape_generate_->queue_occupancy(); });
  vcd->add_signal("rx_escdet_queue_occ", 8, [this] { return escape_detect_->queue_occupancy(); });
  vcd->add_signal("tx_line_occ", 4, [this] { return tx_line_->size(); });
  vcd->add_signal("rx_line_occ", 4, [this] { return rx_line_->size(); });
  vcd->add_signal("tx_frames", 16, [this] { return tx_control_->frames_started(); });
  vcd->add_signal("rx_frames_ok", 16, [this] { return rx_control_->counters().frames_ok; });
  vcd->add_signal("tx_escapes", 16, [this] { return escape_generate_->escapes_inserted(); });
  vcd->add_signal("tx_backpressure", 16,
                  [this] { return escape_generate_->backpressure_cycles(); });
  vcd->add_signal("irq", 1, [this] { return oam_.irq_line() ? 1u : 0u; });
}

bool P5::submit_datagram(u16 protocol, Bytes payload) {
  TxRequest req;
  req.protocol = protocol;
  req.payload = std::move(payload);
  return memory_.post_tx(std::move(req));
}

void P5::set_rx_sink(std::function<void(RxDelivery)> sink) {
  have_user_sink_ = true;
  rx_control_->set_sink([this, sink = std::move(sink)](RxDelivery d) {
    oam_.raise(OamIrq::kRxFrame);
    // The frame transits shared memory (accounted), then goes to the host.
    if (memory_.store_rx(std::move(d))) {
      if (auto reaped = memory_.reap_rx()) sink(std::move(*reaped));
    }
  });
}

Bytes P5::phy_pull_tx(std::size_t n) {
  Bytes out;
  out.reserve(n);
  u64 guard = 0;
  while (out.size() < n) {
    if (!tx_spill_.empty()) {
      // Word boundaries need not align with what SONET asks for: consume the
      // spill from the previous pull first.
      const std::size_t take = std::min(n - out.size(), tx_spill_.size());
      out.insert(out.end(), tx_spill_.begin(),
                 tx_spill_.begin() + static_cast<std::ptrdiff_t>(take));
      tx_spill_.erase(tx_spill_.begin(), tx_spill_.begin() + static_cast<std::ptrdiff_t>(take));
      continue;
    }
    if (tx_line_->can_pop()) {
      const rtl::Word w = tx_line_->pop();
      for (std::size_t i = 0; i < w.count(); ++i) tx_spill_.push_back(w.lane(i));
    } else {
      step();
      P5_ASSERT(++guard < 1000000);
    }
  }
  for (const u8 b : out) {
    if (b != hdlc::kFlag) {
      tx_in_frame_ = true;
    } else if (tx_in_frame_) {
      ++tx_frames_closed_;
      tx_in_frame_ = false;
    }
  }
  return out;
}

void P5::phy_push_rx(BytesView octets) {
  for (const u8 b : octets) {
    rx_spill_.push_back(b);
    if (rx_spill_.size() == cfg_.lanes) push_rx_word();
  }
}

void P5::push_rx_word() {
  // Wait for channel space (line-rate pacing), then deliver the word.
  u64 guard = 0;
  while (!rx_line_->can_push()) {
    step();
    P5_ASSERT(++guard < 1000000);
  }
  rx_line_->push(rtl::Word::of(rx_spill_));
  rx_spill_.clear();
  step();
}

void P5::drain_rx(u64 max_cycles) {
  // The line has gone quiet: a partial word goes in as it is. Then run until
  // kRxQuietCycles cycles in a row began with every receive channel empty
  // and pushed nothing into one: what the stages still hold waits for more
  // line octets.
  if (!rx_spill_.empty()) push_rx_word();
  const std::array<const rtl::Fifo<rtl::Word>*, 4> rx = {rx_line_.get(), rx_flag2esc_.get(),
                                                          rx_esc2crc_.get(), rx_crc2c_.get()};
  const auto pushed = [&rx] {
    u64 n = 0;
    for (const auto* f : rx) n += f->total_pushed();
    return n;
  };
  u64 quiet = 0;
  for (u64 i = 0; i < max_cycles && quiet < kRxQuietCycles; ++i) {
    const bool empty = std::all_of(rx.begin(), rx.end(), [](const auto* f) { return f->empty(); });
    const u64 before = pushed();
    step();
    quiet = empty && pushed() == before ? quiet + 1 : 0;
  }
}

}  // namespace p5::core
