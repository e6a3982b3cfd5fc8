#include "testing/diff_oracle.hpp"

#include <iomanip>
#include <sstream>

#include "common/check.hpp"
#include "fastpath/stuff_fast.hpp"
#include "hdlc/delineation.hpp"
#include "hdlc/stuffing.hpp"
#include "p5/endpoint.hpp"
#include "p5/p5.hpp"
#include "sonet/scrambler.hpp"

namespace p5::testing {

namespace {

std::string hex_octet(u8 b) {
  std::ostringstream o;
  o << "0x" << std::hex << std::setw(2) << std::setfill('0') << static_cast<unsigned>(b);
  return o.str();
}

/// First-divergence diagnosis between two engines' byte streams.
std::string diff_bytes(std::string_view label_a, BytesView a, std::string_view label_b,
                       BytesView b) {
  if (std::equal(a.begin(), a.end(), b.begin(), b.end())) return {};
  std::ostringstream o;
  o << label_a << " (" << a.size() << " octets) != " << label_b << " (" << b.size()
    << " octets)";
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) {
      o << "; first divergence at offset " << i << ": " << hex_octet(a[i]) << " vs "
        << hex_octet(b[i]);
      return o.str();
    }
  }
  o << "; one is a prefix of the other";
  return o.str();
}

constexpr u64 kCyclesPerOctet = 4;  ///< generous bound for either byte sorter
constexpr u64 kCycleSlack = 64;

}  // namespace

// ---- persistent cycle-level rigs --------------------------------------

namespace detail {

struct GenRig {
  rtl::Fifo<rtl::Word> in{"oracle_gen_in", 1};
  rtl::Fifo<rtl::Word> out{"oracle_gen_out", 2};
  core::EscapeGenerate unit;
  rtl::Simulator sim;

  GenRig(unsigned lanes, hdlc::Accm accm) : unit("oracle_gen", lanes, in, out, accm) {
    sim.add(unit);
    sim.add_channel(in);
    sim.add_channel(out);
  }

  /// Stream one frame through; returns nullopt when the unit never emitted
  /// EOF within the cycle budget (itself a reportable failure).
  std::optional<Bytes> run(BytesView content, unsigned lanes) {
    Bytes got;
    std::size_t off = 0;
    bool done = false;
    const u64 budget = kCycleSlack + kCyclesPerOctet * (content.size() + lanes);
    for (u64 cycle = 0; cycle < budget && !done; ++cycle) {
      if (off < content.size() && in.can_push()) {
        const std::size_t n = std::min<std::size_t>(lanes, content.size() - off);
        rtl::Word w = rtl::Word::of(content.subspan(off, n));
        w.sof = off == 0;
        w.eof = off + n >= content.size();
        in.push(w);
        off += n;
      }
      sim.step();
      while (out.can_pop()) {
        const rtl::Word w = out.pop();
        for (std::size_t i = 0; i < w.count(); ++i) got.push_back(w.lane(i));
        if (w.eof) done = true;
      }
    }
    if (!done) return std::nullopt;
    return got;
  }
};

struct DetRig {
  rtl::Fifo<rtl::Word> in{"oracle_det_in", 1};
  rtl::Fifo<rtl::Word> out{"oracle_det_out", 2};
  core::EscapeDetect unit;
  rtl::Simulator sim;

  explicit DetRig(unsigned lanes) : unit("oracle_det", lanes, in, out) {
    sim.add(unit);
    sim.add_channel(in);
    sim.add_channel(out);
  }

  std::optional<DetectStreamResult> run(BytesView stuffed, unsigned lanes) {
    DetectStreamResult res;
    std::size_t off = 0;
    bool done = false;
    const u64 budget = kCycleSlack + kCyclesPerOctet * (stuffed.size() + lanes);
    for (u64 cycle = 0; cycle < budget && !done; ++cycle) {
      if (off < stuffed.size() && in.can_push()) {
        const std::size_t n = std::min<std::size_t>(lanes, stuffed.size() - off);
        rtl::Word w = rtl::Word::of(stuffed.subspan(off, n));
        w.sof = off == 0;
        w.eof = off + n >= stuffed.size();
        in.push(w);
        off += n;
      }
      sim.step();
      while (out.can_pop()) {
        const rtl::Word w = out.pop();
        for (std::size_t i = 0; i < w.count(); ++i) res.data.push_back(w.lane(i));
        if (w.eof) {
          res.abort = w.abort;
          done = true;
        }
      }
    }
    if (!done) return std::nullopt;
    return res;
  }
};

}  // namespace detail

Bytes escape_generate_stream(unsigned lanes, BytesView content, const hdlc::Accm& accm) {
  detail::GenRig rig(lanes, accm);
  auto got = rig.run(content, lanes);
  return got ? std::move(*got) : Bytes{};
}

DetectStreamResult escape_detect_stream(unsigned lanes, BytesView stuffed) {
  detail::DetRig rig(lanes);
  auto got = rig.run(stuffed, lanes);
  return got ? std::move(*got) : DetectStreamResult{};
}

// ---- oracle ------------------------------------------------------------

DiffOracle::DiffOracle(hdlc::FrameConfig cfg, unsigned lanes)
    : cfg_(cfg),
      lanes_(lanes),
      scalar_crc16_(crc::kFcs16),
      scalar_crc32_(crc::kFcs32),
      simd_tx_(cfg.accm),
      simd_rx_(hdlc::Accm::sonet()),
      gen_(std::make_unique<detail::GenRig>(lanes, cfg.accm)),
      det_(std::make_unique<detail::DetRig>(lanes)) {}

DiffOracle::~DiffOracle() = default;

Bytes DiffOracle::scalar_encapsulate(u16 protocol, BytesView payload) const {
  // Independent re-implementation of the header/FCS assembly on purpose:
  // sharing hdlc::encapsulate here would let a framing bug hide from the
  // differential comparison.
  Bytes content;
  if (!cfg_.acfc) {
    content.push_back(cfg_.address);
    content.push_back(cfg_.control);
  }
  if (cfg_.pfc && protocol <= 0xFF && (protocol & 1u)) {
    content.push_back(static_cast<u8>(protocol));
  } else {
    put_be16(content, protocol);
  }
  append(content, payload);
  const bool wide = cfg_.fcs == hdlc::FcsKind::kFcs32;
  const u32 fcs = wide ? scalar_crc32_.crc(content) : scalar_crc16_.crc(content);
  // Least-significant octet first (RFC 1662 §C), both widths.
  for (std::size_t i = 0; i < cfg_.fcs_bytes(); ++i)
    content.push_back(static_cast<u8>(fcs >> (8 * i)));
  return content;
}

DiffOracle::EncodeResult DiffOracle::encode(u16 protocol, BytesView payload) {
  EncodeResult r;
  auto flunk = [&](std::string why) {
    if (r.agree) r.diagnosis = std::move(why);
    r.agree = false;
  };

  // Layer 1: frame content (header + payload + FCS), scalar vs fastpath CRC.
  r.content = scalar_encapsulate(protocol, payload);
  const Bytes content_fast = hdlc::encapsulate(cfg_, protocol, payload);
  if (auto d = diff_bytes("scalar content", r.content, "fastpath content", content_fast);
      !d.empty())
    flunk(std::move(d));

  // Layer 2: stuffed image — scalar vs SWAR (pinned) vs dispatched SIMD
  // engine vs cycle-level Escape Generate.
  r.stuffed = fastpath::scalar::stuff(r.content, cfg_.accm);
  Bytes stuffed_fast;
  stuffed_fast.reserve(2 * r.content.size() + fastpath::kStuffSlack);
  fastpath::stuff_append(stuffed_fast, r.content, cfg_.accm);
  if (auto d = diff_bytes("scalar stuffed", r.stuffed, "SWAR stuffed", stuffed_fast);
      !d.empty())
    flunk(std::move(d));

  Bytes stuffed_simd;
  stuffed_simd.reserve(2 * r.content.size() + fastpath::kStuffSlack);
  simd_tx_.stuff_append(stuffed_simd, r.content);
  if (auto d = diff_bytes("scalar stuffed", r.stuffed,
                          std::string("SIMD(") + fastpath::to_string(simd_tx_.tier()) +
                              ") stuffed",
                          stuffed_simd);
      !d.empty())
    flunk(std::move(d));

  auto stuffed_p5 = gen_->run(r.content, lanes_);
  if (!stuffed_p5) {
    flunk("EscapeGenerate never emitted EOF within the cycle budget");
  } else if (auto d = diff_bytes("scalar stuffed", r.stuffed, "p5 EscapeGenerate", *stuffed_p5);
             !d.empty()) {
    flunk(std::move(d));
  }

  // Layer 3: the fused zero-alloc encoder's whole wire image.
  const BytesView wire = hdlc::encode_into(arena_, cfg_, protocol, payload);
  r.wire.assign(wire.begin(), wire.end());
  if (r.wire.size() < 2 || r.wire.front() != hdlc::kFlag || r.wire.back() != hdlc::kFlag) {
    flunk("fused encoder wire image is not flag-delimited");
  } else if (auto d = diff_bytes("scalar stuffed", r.stuffed, "fused encode_into body",
                                 BytesView(r.wire).subspan(1, r.wire.size() - 2));
             !d.empty()) {
    flunk(std::move(d));
  }
  return r;
}

DiffOracle::DecodeResult DiffOracle::decode(BytesView stuffed) {
  DecodeResult r;
  auto flunk = [&](std::string why) {
    if (r.agree) r.diagnosis = std::move(why);
    r.agree = false;
  };

  auto [scalar_data, scalar_ok] = fastpath::scalar::destuff(stuffed);
  r.recovered = std::move(scalar_data);
  r.ok = scalar_ok;

  Bytes swar_data;
  swar_data.reserve(stuffed.size() + fastpath::kStuffSlack);
  const bool swar_ok = fastpath::destuff_append(swar_data, stuffed);
  if (swar_ok != scalar_ok)
    flunk(std::string("dangling-escape verdicts differ: scalar ") +
          (scalar_ok ? "ok" : "abort") + ", SWAR " + (swar_ok ? "ok" : "abort"));
  if (auto d = diff_bytes("scalar destuffed", r.recovered, "SWAR destuffed", swar_data);
      !d.empty())
    flunk(std::move(d));

  const std::string simd_label = std::string("SIMD(") + fastpath::to_string(simd_rx_.tier()) + ")";
  Bytes simd_data;
  simd_data.reserve(stuffed.size() + fastpath::kStuffSlack);
  const bool simd_ok = simd_rx_.destuff_append(simd_data, stuffed);
  if (simd_ok != scalar_ok)
    flunk(std::string("dangling-escape verdicts differ: scalar ") +
          (scalar_ok ? "ok" : "abort") + ", " + simd_label + " " + (simd_ok ? "ok" : "abort"));
  if (auto d = diff_bytes("scalar destuffed", r.recovered, simd_label + " destuffed", simd_data);
      !d.empty())
    flunk(std::move(d));

  if (stuffed.empty()) return r;  // the byte sorter needs at least one octet
  auto det = det_->run(stuffed, lanes_);
  if (!det) {
    flunk("EscapeDetect never emitted EOF within the cycle budget");
    return r;
  }
  if (det->abort == r.ok)
    flunk(std::string("dangling-escape verdicts differ: scalar ") +
          (scalar_ok ? "ok" : "abort") + ", p5 EscapeDetect " +
          (det->abort ? "abort" : "ok"));
  if (auto d = diff_bytes("scalar destuffed", r.recovered, "p5 EscapeDetect", det->data);
      !d.empty())
    flunk(std::move(d));
  return r;
}

DiffOracle::ReceiveResult DiffOracle::receive(BytesView raw_wire) {
  ReceiveResult r;
  if (cfg_.acfc || cfg_.pfc) {
    r.agree = false;
    r.diagnosis = "receive() requires uncompressed headers (the P5 has no ACFC/PFC)";
    return r;
  }

  // The P5's PHY interface moves whole `lanes`-octet words, so a stream tail
  // shorter than one word would sit in its spill buffer unseen. Pad with
  // inter-frame flag fill to a word boundary — and give the *same* padded
  // image to every engine, so a truncated trailing frame is closed (and then
  // FCS-rejected) identically everywhere.
  Bytes padded(raw_wire.begin(), raw_wire.end());
  while (padded.size() % lanes_) padded.push_back(hdlc::kFlag);
  const BytesView wire(padded);

  // Software stack, parameterised by destuff engine.
  enum class Engine { kScalar, kSwar, kSimd };
  auto software = [&](Engine engine) {
    std::vector<Delivery> good;
    hdlc::Delineator d([&](BytesView f) {
      Bytes data;
      bool ok = false;
      switch (engine) {
        case Engine::kScalar: {
          auto res = fastpath::scalar::destuff(f);
          data = std::move(res.first);
          ok = res.second;
          break;
        }
        case Engine::kSwar:
          data.reserve(f.size() + fastpath::kStuffSlack);
          ok = fastpath::destuff_append(data, f);
          break;
        case Engine::kSimd:
          data.reserve(f.size() + fastpath::kStuffSlack);
          ok = simd_rx_.destuff_append(data, f);
          break;
      }
      if (!ok) return;
      auto parsed = hdlc::parse(cfg_, data);
      if (parsed.ok())
        good.push_back({parsed.frame->protocol, std::move(parsed.frame->payload)});
    });
    d.push(wire);
    return good;
  };
  const std::vector<Delivery> sw_scalar = software(Engine::kScalar);
  const std::vector<Delivery> sw_swar = software(Engine::kSwar);
  const std::vector<Delivery> sw_simd = software(Engine::kSimd);

  // Cycle-accurate receiver: a whole P5 device configured to match.
  core::P5Config pc;
  pc.lanes = lanes_;
  pc.address = cfg_.address;
  pc.control = cfg_.control;
  pc.fcs32 = cfg_.fcs == hdlc::FcsKind::kFcs32;
  pc.max_payload = cfg_.max_payload;
  pc.accm = cfg_.accm;
  core::P5 dev(pc);
  std::vector<Delivery> hw;
  dev.set_rx_sink([&](core::RxDelivery d) { hw.push_back({d.protocol, std::move(d.payload)}); });
  dev.phy_push_rx(wire);
  dev.drain_rx(10000);

  auto compare = [&](const char* label, const std::vector<Delivery>& other) {
    if (sw_scalar == other) return;
    if (!r.agree) return;  // keep the first divergence
    std::ostringstream o;
    o << "scalar engine accepted " << sw_scalar.size() << " frames, " << label << " accepted "
      << other.size();
    const std::size_t n = std::min(sw_scalar.size(), other.size());
    for (std::size_t i = 0; i < n; ++i) {
      if (!(sw_scalar[i] == other[i])) {
        o << "; first divergence at frame " << i;
        break;
      }
    }
    r.agree = false;
    r.diagnosis = o.str();
  };
  compare("SWAR engine", sw_swar);
  compare("dispatched SIMD engine", sw_simd);
  compare("p5 device", hw);
  r.delivered = sw_scalar;
  return r;
}

// ---- fifth leg: whole-endpoint device-tier equivalence ------------------

namespace {

/// Drain a transmit endpoint: interleave submits with pull_frame so the
/// 64-entry device tx ring never wedges, then flush the tail (tx_pending
/// clears with the closing FCS/flag octets still inside the cycle pipeline;
/// three more SONET frames of line time flushes either tier).
Bytes tier_pull_stream(core::SonetEndpoint& ep,
                       std::span<const DiffOracle::TierPacket> packets) {
  Bytes stream;
  for (const auto& p : packets) {
    u64 guard = 0;
    while (!ep.tx_has_room(p.payload.size())) {
      append(stream, ep.pull_frame());
      P5_ASSERT(++guard < (u64{1} << 16));  // payload larger than the tx pool
    }
    core::TxRequest req;
    req.protocol = p.protocol;
    req.payload = p.payload;
    req.control = p.control;
    (void)ep.submit_frame(std::move(req));
  }
  while (ep.tx_pending()) append(stream, ep.pull_frame());
  for (int i = 0; i < 3; ++i) append(stream, ep.pull_frame());
  return stream;
}

/// Reduce a chunk stream to its canonical content: SONET-deframe,
/// descramble, HDLC-delineate. Inter-frame flag fill (where the cycle
/// pipeline's restart latency shows up) and scrambler state cancel out,
/// leaving exactly the stuffed-frame sequence the stream carries.
std::vector<Bytes> tier_canonical_frames(BytesView stream, sonet::StsSpec sts) {
  std::vector<Bytes> frames;
  hdlc::Delineator delin(
      [&frames](BytesView f) { frames.emplace_back(f.begin(), f.end()); },
      /*min_frame=*/4, /*max_frame_octets=*/std::size_t{1} << 20);
  sonet::SelfSyncScrambler43 descr;
  Bytes scratch;
  sonet::SonetDeframer deframer(sts, [&](BytesView payload) {
    scratch.assign(payload.begin(), payload.end());
    descr.descramble_in_place(scratch);
    delin.push(BytesView{scratch});
  });
  deframer.push(stream);
  return frames;
}

/// A receiver of one tier plus everything it reported about a stream.
struct TierRxRig {
  std::unique_ptr<core::SonetEndpoint> ep;
  std::vector<DiffOracle::TierDelivery> got;

  TierRxRig(core::DeviceTier tier, const core::P5Config& cfg, sonet::StsSpec sts)
      : ep(core::make_sonet_endpoint(tier, cfg, sts)) {
    ep->set_rx_sink([this](core::RxDelivery d) {
      got.push_back({d.protocol, d.control, std::move(d.payload)});
    });
  }
  void feed(const std::vector<Bytes>& chunks) {
    for (const Bytes& c : chunks) {
      if (!c.empty()) ep->push_line(c);  // an emptied chunk was dropped in flight
    }
    ep->drain_rx();
  }
  [[nodiscard]] DiffOracle::TierLedger ledger() const {
    return {ep->rx_counters(), ep->rx_overflow_drops(), ep->rx_stats()};
  }
};

std::string tier_delivery_diff(const std::vector<DiffOracle::TierDelivery>& a,
                               const std::vector<DiffOracle::TierDelivery>& b) {
  if (a == b) return {};
  std::ostringstream o;
  o << a.size() << " vs " << b.size() << " deliveries";
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] == b[i]) continue;
    o << "; first divergence at delivery " << i;
    if (a[i].protocol != b[i].protocol) {
      o << " (protocol " << a[i].protocol << " vs " << b[i].protocol << ")";
    } else if (a[i].control != b[i].control) {
      o << " (control " << hex_octet(a[i].control) << " vs " << hex_octet(b[i].control)
        << ")";
    } else {
      o << " (" << diff_bytes("payload a", a[i].payload, "payload b", b[i].payload) << ")";
    }
    break;
  }
  return o.str();
}

std::string tier_ledger_diff(const DiffOracle::TierLedger& a,
                             const DiffOracle::TierLedger& b) {
  std::ostringstream o;
  auto field = [&o](const char* name, u64 x, u64 y) {
    if (x != y) o << (o.tellp() > 0 ? "; " : "") << name << " " << x << " vs " << y;
  };
  field("frames_ok", a.counters.frames_ok, b.counters.frames_ok);
  field("frames_bad", a.counters.frames_bad, b.counters.frames_bad);
  field("addr_filtered", a.counters.addr_filtered, b.counters.addr_filtered);
  field("malformed", a.counters.malformed, b.counters.malformed);
  field("oversize", a.counters.oversize, b.counters.oversize);
  field("rx_overflow_drops", a.rx_overflow_drops, b.rx_overflow_drops);
  field("frames_in_sync", a.deframer.frames_in_sync, b.deframer.frames_in_sync);
  field("resyncs", a.deframer.resyncs, b.deframer.resyncs);
  field("b1_errors", a.deframer.b1_errors, b.deframer.b1_errors);
  field("b2_errors", a.deframer.b2_errors, b.deframer.b2_errors);
  field("b3_errors", a.deframer.b3_errors, b.deframer.b3_errors);
  field("discarded_octets", a.deframer.discarded_octets, b.deframer.discarded_octets);
  return o.str();
}

}  // namespace

DiffOracle::TierEquivalenceResult DiffOracle::tier_equivalence(
    const core::P5Config& cfg, sonet::StsSpec sts, std::span<const TierPacket> packets,
    const FaultSpec* fault) {
  TierEquivalenceResult r;
  auto flunk = [&r](std::string why) {
    if (r.agree) {
      r.agree = false;
      r.diagnosis = std::move(why);
    }
  };

  // Transmit the identical packet sequence through both tiers.
  auto cyc_tx = core::make_sonet_endpoint(core::DeviceTier::kCycle, cfg, sts);
  auto fast_tx = core::make_sonet_endpoint(core::DeviceTier::kFast, cfg, sts);
  const Bytes cyc_stream = tier_pull_stream(*cyc_tx, packets);
  const Bytes fast_stream = tier_pull_stream(*fast_tx, packets);

  // Leg A: canonical wire equality. The raw chunk streams may differ only in
  // inter-frame flag fill (and its knock-on scrambler state); the delineated
  // stuffed-frame sequences must match byte for byte.
  const std::vector<Bytes> cyc_frames = tier_canonical_frames(cyc_stream, sts);
  const std::vector<Bytes> fast_frames = tier_canonical_frames(fast_stream, sts);
  r.canonical_frames = fast_frames.size();
  if (cyc_frames.size() != fast_frames.size()) {
    std::ostringstream o;
    o << "canonical wire: cycle tier carries " << cyc_frames.size()
      << " stuffed frames, fast tier " << fast_frames.size();
    flunk(o.str());
  } else {
    for (std::size_t i = 0; i < cyc_frames.size(); ++i) {
      if (cyc_frames[i] == fast_frames[i]) continue;
      std::ostringstream o;
      o << "canonical wire frame " << i << ": "
        << diff_bytes("cycle tier", cyc_frames[i], "fast tier", fast_frames[i]);
      flunk(o.str());
      break;
    }
  }

  // Chunk each stream the way a transport carries it: whole SONET frames.
  auto chunked = [&sts](const Bytes& s) {
    std::vector<Bytes> chunks;
    const std::size_t n = sts.frame_bytes();
    for (std::size_t off = 0; off < s.size(); off += n) {
      const std::size_t take = std::min(n, s.size() - off);
      chunks.emplace_back(s.begin() + static_cast<std::ptrdiff_t>(off),
                          s.begin() + static_cast<std::ptrdiff_t>(off + take));
    }
    return chunks;
  };
  const std::vector<Bytes> stream_chunks[2] = {chunked(cyc_stream), chunked(fast_stream)};
  const char* stream_names[2] = {"cycle-tier stream", "fast-tier stream"};

  // Leg B: clean cross-decode — each tier's stream into BOTH tiers'
  // receivers; same-stream receiver pairs must agree on every delivery and
  // on the complete loss ledger, and the deliveries must be the submitted
  // packets, exactly.
  for (int s = 0; s < 2; ++s) {
    TierRxRig rc(core::DeviceTier::kCycle, cfg, sts);
    TierRxRig rf(core::DeviceTier::kFast, cfg, sts);
    rc.feed(stream_chunks[s]);
    rf.feed(stream_chunks[s]);
    if (std::string d = tier_delivery_diff(rc.got, rf.got); !d.empty()) {
      flunk(std::string("clean cross-decode of ") + stream_names[s] + ": " + d);
    }
    if (!(rc.ledger() == rf.ledger())) {
      flunk(std::string("clean cross-decode of ") + stream_names[s] +
            " ledgers: " + tier_ledger_diff(rc.ledger(), rf.ledger()));
    }
    if (s == 1) {
      r.delivered = rf.got;
      r.clean_ledger = rf.ledger();
      std::vector<TierDelivery> expected;
      expected.reserve(packets.size());
      for (const auto& p : packets) {
        expected.push_back({p.protocol, p.control.value_or(cfg.control), p.payload});
      }
      if (std::string d = tier_delivery_diff(expected, rf.got); !d.empty()) {
        flunk(std::string("clean deliveries vs submitted packets: ") + d);
      }
    }
  }

  // Leg C: fault parity — corrupt each stream ONCE, then feed the identical
  // corrupted chunks to both tiers' receivers. Junk/abort verdicts, resync
  // points and surviving deliveries must all match. (The two streams are
  // corrupted independently — the noise lands on different octets — so only
  // same-stream receiver pairs are comparable here.)
  if (fault != nullptr) {
    for (int s = 0; s < 2; ++s) {
      FaultyLine line(*fault);
      std::vector<Bytes> noisy = stream_chunks[s];
      for (Bytes& c : noisy) line.apply(c);
      TierRxRig rc(core::DeviceTier::kCycle, cfg, sts);
      TierRxRig rf(core::DeviceTier::kFast, cfg, sts);
      rc.feed(noisy);
      rf.feed(noisy);
      if (std::string d = tier_delivery_diff(rc.got, rf.got); !d.empty()) {
        flunk(std::string("faulted cross-decode of ") + stream_names[s] + ": " + d);
      }
      if (!(rc.ledger() == rf.ledger())) {
        flunk(std::string("faulted cross-decode of ") + stream_names[s] +
              " ledgers: " + tier_ledger_diff(rc.ledger(), rf.ledger()));
      }
      if (s == 1) r.fault_ledger = rf.ledger();
    }
  }
  return r;
}

// ---- VJ header-compression round-trip leg --------------------------------

namespace {

/// Ones-complement sum over `data` (RFC 1071), seeded with `sum`.
u32 ones_sum(BytesView data, u32 sum) {
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) sum += static_cast<u32>((data[i] << 8) | data[i + 1]);
  if (i < data.size()) sum += static_cast<u32>(data[i]) << 8;
  return sum;
}

/// Verify the TCP checksum of a parsed IPv4+TCP datagram (assumes geometry
/// was already validated by the compressor on the way in).
bool tcp_checksum_valid(BytesView datagram) {
  if (datagram.size() < 40) return false;
  const std::size_t ihl = static_cast<std::size_t>(datagram[0] & 0x0F) * 4;
  if (datagram.size() < ihl + 20) return false;
  const std::size_t tcp_len = datagram.size() - ihl;
  // Pseudo-header: src, dst, zero, proto, TCP length.
  u32 sum = 0;
  sum = ones_sum(datagram.subspan(12, 8), sum);  // src + dst
  sum += 6;                                      // zero + protocol
  sum += static_cast<u32>(tcp_len);
  sum = ones_sum(datagram.subspan(ihl), sum);  // TCP header (cksum included) + data
  while (sum >> 16) sum = (sum & 0xFFFF) + (sum >> 16);
  return static_cast<u16>(~sum) == 0;
}

}  // namespace

DiffOracle::VjRoundTripResult DiffOracle::vj_roundtrip(const ppp::vj::VjConfig& cfg,
                                                       std::span<const Bytes> datagrams,
                                                       double drop_chance, u64 seed) {
  using ppp::vj::PacketClass;
  VjRoundTripResult r;
  ppp::vj::Compressor comp(cfg);
  ppp::vj::Decompressor decomp(cfg);
  Xoshiro256 rng(seed);

  const auto flunk = [&r](std::string d) {
    if (r.agree) {
      r.agree = false;
      r.diagnosis = std::move(d);
    }
  };

  // Note: desync is NOT per-connection — a dropped packet that carried a
  // slot *switch* makes the decompressor misapply the next implicit-slot
  // deltas to a different connection's slot, corrupting it too. The honest
  // RFC 1144 §4 guarantee is therefore global: before the first drop every
  // delivery is exact; after any drop a wrong delivery is legal only if the
  // end-to-end TCP checksum catches it.
  bool any_drop = false;

  for (std::size_t i = 0; i < datagrams.size(); ++i) {
    const Bytes& in = datagrams[i];
    ++r.packets;
    const auto out = comp.compress(in);
    if (drop_chance > 0.0 && out.cls == PacketClass::kCompressedTcp && rng.chance(drop_chance)) {
      ++r.dropped_on_wire;
      any_drop = true;
      continue;
    }
    const auto back = decomp.decompress(out.cls, out.packet);
    if (!back) {
      // Tossed: legal only after loss has put the decompressor out of sync.
      if (!any_drop) flunk("packet " + std::to_string(i) + ": tossed on a clean wire");
      continue;
    }
    ++r.delivered;
    if (*back == in) continue;
    ++r.stale_delivered;
    if (!any_drop) {
      flunk("packet " + std::to_string(i) + ": wrong delivery with no loss in flight");
    } else if (out.cls == PacketClass::kUncompressedTcp) {
      // A full-header sync packet reconstructs exactly regardless of state.
      flunk("packet " + std::to_string(i) + ": uncompressed-TCP sync delivered wrong");
    } else if (tcp_checksum_valid(*back)) {
      flunk("packet " + std::to_string(i) +
            ": stale delivery carries a VALID TCP checksum (silent corruption)");
    }
  }

  r.header_bytes_in = comp.stats().header_bytes_in;
  r.header_bytes_out = comp.stats().header_bytes_out;
  return r;
}

}  // namespace p5::testing
