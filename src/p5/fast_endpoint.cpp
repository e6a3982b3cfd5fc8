#include "p5/fast_endpoint.hpp"

#include <algorithm>
#include <limits>

#include "crc/crc_table.hpp"
#include "p5/sonet_link.hpp"

namespace p5::core {

const char* to_string(DeviceTier tier) {
  switch (tier) {
    case DeviceTier::kCycle: return "cycle";
    case DeviceTier::kFast: return "fast";
  }
  return "?";
}

std::unique_ptr<SonetEndpoint> make_sonet_endpoint(DeviceTier tier, const P5Config& cfg,
                                                   sonet::StsSpec sts) {
  if (tier == DeviceTier::kFast) return std::make_unique<FastP5Endpoint>(cfg, sts);
  return std::make_unique<P5SonetEndpoint>(cfg, sts);
}

namespace {
hdlc::FrameConfig tx_frame_config(const P5Config& cfg) {
  hdlc::FrameConfig f;
  f.address = cfg.address;
  f.control = cfg.control;
  f.acfc = false;  // the P5 always transmits Address|Control (no ACFC/PFC)
  f.pfc = false;
  f.fcs = cfg.fcs32 ? hdlc::FcsKind::kFcs32 : hdlc::FcsKind::kFcs16;
  f.accm = cfg.accm;
  // The MRU is a *receive* check in the cycle pipeline (TxControl transmits
  // whatever the host posted); lift the encoder's transmit-side assert so
  // oversize submissions produce the same far-end `oversize` disposition.
  f.max_payload = std::numeric_limits<std::size_t>::max() / 4;
  return f;
}

/// Delineation bound for the batch receiver. The cycle pipeline accumulates
/// without limit (backpressure bounds it physically), so this only exists as
/// a memory-safety backstop: scrambled garbage shows a flag octet every ~256
/// positions, making a megabyte flag-free run unreachable, and clean frames
/// are bounded by the 64 KiB transmit pool. Classification parity holds at
/// the bound anyway: an oversize discard lands in frames_bad exactly where
/// the cycle model's guaranteed FCS failure for such a frame would.
constexpr std::size_t kMaxDelineatedFrame = std::size_t{1} << 20;
}  // namespace

FastP5Endpoint::FastP5Endpoint(const P5Config& cfg, sonet::StsSpec sts)
    : cfg_(cfg),
      sts_(sts),
      tx_fcfg_(tx_frame_config(cfg)),
      framer_(sts),
      idle_fill_(sts.payload_bytes_per_frame(), hdlc::kFlag),
      tx_spe_(sts.payload_bytes_per_frame()),
      delineator_([this](BytesView stuffed) { on_stuffed_frame(stuffed); },
                  /*min_frame=*/4, kMaxDelineatedFrame),
      rx_engine_(hdlc::Accm::sonet()) {
  // Prime the TX escape engine (ACCM table derivation) at construction, the
  // same config-change-time hoist the cycle device's OAM write performs.
  (void)tx_arena_.escape_engine(cfg.accm);
  deframer_ = std::make_unique<sonet::SonetDeframer>(sts, [this](BytesView payload) {
    // Fused copy+descramble: one vectorized pass from the SPE payload into
    // the scratch buffer (the x^43+1 keystream is the received stream, so
    // the descramble loop carries no dependency).
    scr_rx_.descramble_to(rx_scratch_, payload);
    delineator_.push(BytesView(rx_scratch_));
  });
}

bool FastP5Endpoint::submit_datagram(u16 protocol, Bytes payload) {
  TxRequest req;
  req.protocol = protocol;
  req.payload = std::move(payload);
  return memory_.post_tx(std::move(req));
}

Bytes FastP5Endpoint::pull_frame() {
  // The SPE payload: the continuous PPP stream (encoded frames back to back)
  // through the x^43+1 scrambler, straight out of the encode arena. Its
  // delay line stays continuous across wire pieces and frames, exactly as on
  // the cycle endpoint's line. When the queue runs dry, flag fill closes
  // this SPE and nothing more: the next burst starts the next frame.
  const std::size_t n = tx_spe_.size();
  for (std::size_t filled = 0; filled < n;) {
    if (tx_head_ >= tx_wire_.size()) tx_refill();
    if (tx_wire_.empty()) {
      // Idle line: continuous flag fill (RFC 1619 octet-synchronous stream).
      scr_tx_.scramble_into(tx_spe_.data() + filled, BytesView(idle_fill_).first(n - filled));
      break;
    }
    const std::size_t take = std::min(n - filled, tx_wire_.size() - tx_head_);
    scr_tx_.scramble_into(tx_spe_.data() + filled, tx_wire_.subspan(tx_head_, take));
    tx_head_ += take;
    filled += take;
  }
  Bytes frame(sts_.frame_bytes());
  framer_.frame_into(frame.data(), tx_spe_);
  return frame;
}

void FastP5Endpoint::push_line(BytesView octets) { deframer_->push(octets); }

u64 FastP5Endpoint::frames_pulled() const { return framer_.frames_built(); }

bool FastP5Endpoint::rx_in_sync() const { return deframer_->in_sync(); }

const sonet::DeframerStats& FastP5Endpoint::rx_stats() const { return deframer_->stats(); }

RxCounters FastP5Endpoint::rx_counters() const {
  // Same ledger the cycle RxControl keeps: every aborted/runted/FCS-failed
  // frame is frames_bad (the delineator marks aborts and runts, the CRC
  // checker junks residue failures — one disposition per delineated frame).
  RxCounters c = rx_counters_;
  const hdlc::DelineatorStats& d = delineator_.stats();
  c.frames_bad = d.aborts + d.runts + d.oversize + rx_crc_bad_;
  return c;
}

void FastP5Endpoint::tx_refill() {
  tx_head_ = 0;
  batch_reqs_.clear();
  while (auto req = memory_.fetch_tx()) batch_reqs_.push_back(std::move(*req));
  if (batch_reqs_.empty()) {
    tx_wire_ = {};  // idle: pull_frame() fills the rest of its SPE with flags
    return;
  }
  batch_.clear();
  batch_.reserve(batch_reqs_.size());
  for (const TxRequest& r : batch_reqs_) {
    hdlc::BatchFrame f;
    f.protocol = r.protocol;
    f.payload = r.payload;
    f.control = r.control;  // numbered-mode override, like the cycle TxControl
    batch_.push_back(f);
  }
  tx_wire_ = hdlc::encode_batch_into(tx_arena_, tx_fcfg_, batch_);
}

void FastP5Endpoint::on_stuffed_frame(BytesView stuffed) {
  destuffed_.clear();
  destuffed_.reserve(stuffed.size() + fastpath::kStuffSlack);
  if (!rx_engine_.destuff_append(destuffed_, stuffed)) {
    // Dangling escape — the delineator classifies trailing escapes as
    // aborts before they reach us, so this is a defensive mirror of the
    // cycle pipeline's junk verdict.
    ++rx_crc_bad_;
    return;
  }
  const std::size_t fcs_len = cfg_.fcs_bytes();
  const crc::TableCrc& crc = cfg_.fcs32 ? crc::fcs32() : crc::fcs16();
  // The cycle RxCrcChecker accepts only frames longer than the FCS whose
  // running remainder lands on the residue.
  if (destuffed_.size() <= fcs_len || !crc.check(destuffed_)) {
    ++rx_crc_bad_;
    return;
  }
  const std::size_t content = destuffed_.size() - fcs_len;
  // Dispositions in the cycle RxControl's order: header length, MAPOS
  // address filter (programmed station or all-stations), MRU.
  if (content < 4) {
    ++rx_counters_.malformed;
    return;
  }
  if (destuffed_[0] != cfg_.address && destuffed_[0] != hdlc::kDefaultAddress) {
    ++rx_counters_.addr_filtered;
    return;
  }
  const std::size_t payload_len = content - 4;
  if (payload_len > cfg_.max_payload) {
    ++rx_counters_.oversize;
    return;
  }
  RxDelivery d;
  d.protocol = get_be16(destuffed_, 2);
  d.control = destuffed_[1];
  d.payload.assign(destuffed_.begin() + 4,
                   destuffed_.begin() + static_cast<std::ptrdiff_t>(content));
  ++rx_counters_.frames_ok;
  // Deliveries transit shared memory (accounted) exactly like the cycle
  // device: pool exhaustion is an rx_dropped, sink or not.
  if (memory_.store_rx(std::move(d))) {
    if (sink_) {
      if (auto reaped = memory_.reap_rx()) sink_(std::move(*reaped));
    }
  }
}

}  // namespace p5::core
