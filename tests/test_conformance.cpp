// Differential conformance: the same seeded packet stream through all four
// datapath engines — scalar reference, SWAR fast path, runtime-dispatched
// SIMD escape engine, cycle-level P5 pipeline — with byte-exact agreement
// enforced at every layer by the DiffOracle. Any failure prints its case
// seed; replay with
//   P5_TEST_SEED=0x... ctest -R <test>      (see TESTING.md)
#include <gtest/gtest.h>

#include "fastpath/escape_simd.hpp"
#include "hdlc/stuffing.hpp"
#include "testing/diff_oracle.hpp"
#include "testing/property.hpp"

namespace p5::testing {
namespace {

// The headline sweep: 100k seeded packets (smoke mode) encoded and decoded
// through every engine, byte-exact end to end. P5_TEST_CASES scales it up
// for soak runs.
TEST(Conformance, HundredThousandPacketSmokeSweep) {
  DiffOracle oracle;  // default framing (FCS-32, uncompressed), 4 lanes
  PropertyOptions opt;
  opt.cases = 100'000;
  opt.seed = 0xC0FFEE01ull;
  opt.min_size = 0;
  opt.max_size = 64;
  const auto res = check_property("conformance_smoke", opt, [&](CaseContext& c) {
    const u16 protocol = gen_protocol(c.rng);
    const Bytes payload = gen_payload(c.rng, c.size);

    const auto enc = oracle.encode(protocol, payload);
    if (!enc.agree) return c.fail("encode: " + enc.diagnosis);

    const auto dec = oracle.decode(enc.stuffed);
    if (!dec.agree) return c.fail("decode: " + dec.diagnosis);
    if (!dec.ok) return c.fail("clean frame flagged as dangling-escape abort");
    if (dec.recovered != enc.content)
      return c.fail("round-trip did not restore the frame content");
  });
  EXPECT_TRUE(res.ok) << res.message;
  EXPECT_GE(res.cases_run, resolved_cases(100'000));
}

// Sweep the programmability knobs: every framing config (ACFC/PFC/FCS/ACCM)
// and datapath width the paper's OAM exposes, fresh oracle per case.
TEST(Conformance, FramingConfigAndLaneWidthSweep) {
  PropertyOptions opt;
  opt.cases = 800;
  opt.seed = 0xC0FFEE02ull;
  opt.min_size = 0;
  opt.max_size = 192;
  constexpr unsigned kLaneChoices[] = {1, 2, 4, 8};
  const auto res = check_property("conformance_configs", opt, [&](CaseContext& c) {
    const hdlc::FrameConfig cfg = gen_frame_config(c.rng);
    const unsigned lanes = kLaneChoices[c.rng.below(4)];
    DiffOracle oracle(cfg, lanes);

    const u16 protocol = gen_protocol(c.rng);
    const Bytes payload = gen_payload(c.rng, c.size);
    const auto enc = oracle.encode(protocol, payload);
    if (!enc.agree) return c.fail("encode: " + enc.diagnosis);
    const auto dec = oracle.decode(enc.stuffed);
    if (!dec.agree) return c.fail("decode: " + dec.diagnosis);
    if (!dec.ok || dec.recovered != enc.content)
      return c.fail("round-trip did not restore the frame content");
  });
  EXPECT_TRUE(res.ok) << res.message;
}

// A stuffed body ending in a bare escape is RFC 1662's invalid sequence;
// every receive engine must call it an abort, and they must agree.
TEST(Conformance, DanglingEscapeVerdictIsUnanimous) {
  DiffOracle oracle;
  PropertyOptions opt;
  opt.cases = 2'000;
  opt.seed = 0xC0FFEE03ull;
  opt.max_size = 96;
  const auto res = check_property("conformance_dangling_escape", opt, [&](CaseContext& c) {
    Bytes stuffed = hdlc::stuff(gen_payload(c.rng, c.size));
    stuffed.push_back(hdlc::kEscape);
    const auto dec = oracle.decode(stuffed);
    if (!dec.agree) return c.fail(dec.diagnosis);
    if (dec.ok) return c.fail("dangling escape was not reported as an abort");
  });
  EXPECT_TRUE(res.ok) << res.message;
}

// Whole clean wire streams — many frames, random inter-frame fill — must
// yield the identical accepted-frame sequence from the software stacks and
// the cycle-accurate P5 receiver, and nothing may be dropped.
TEST(Conformance, CleanMultiFrameStreamsDeliverEverythingEverywhere) {
  DiffOracle oracle;
  PropertyOptions opt;
  opt.cases = 300;
  opt.seed = 0xC0FFEE04ull;
  opt.min_size = 0;
  opt.max_size = 128;
  const auto res = check_property("conformance_receive", opt, [&](CaseContext& c) {
    Bytes wire(1 + c.rng.below(4), hdlc::kFlag);
    std::vector<DiffOracle::Delivery> sent;
    const std::size_t frames = 1 + c.rng.below(8);
    for (std::size_t f = 0; f < frames; ++f) {
      const u16 protocol = gen_protocol(c.rng);
      const Bytes payload = gen_payload(c.rng, c.size);
      append(wire, hdlc::build_wire_frame(oracle.config(), protocol, payload));
      sent.push_back({protocol, payload});
      for (u64 fill = c.rng.below(3); fill > 0; --fill) wire.push_back(hdlc::kFlag);
    }
    const auto rx = oracle.receive(wire);
    if (!rx.agree) return c.fail(rx.diagnosis);
    if (rx.delivered != sent)
      return c.fail("clean stream: delivered " + std::to_string(rx.delivered.size()) +
                    " frames, sent " + std::to_string(sent.size()));
  });
  EXPECT_TRUE(res.ok) << res.message;
}

// The density estimator tiers per 16/32-byte window (clean / sparse /
// dense), so the adversarial input is a frame that flips density mid-frame:
// a clean head followed by an all-escape tail forces the kernel to cross
// from bulk-copy windows into fully-expanding ones (and vice versa) inside
// one frame, with the flip placed on, just before, and just after the
// window boundaries. Every such frame must round-trip byte-exact through
// all four engines.
TEST(Conformance, DensityFlipAdversarialFramesAgreeAcrossAllEngines) {
  DiffOracle oracle;

  std::vector<Bytes> payloads;
  // Flip points straddling the 16B SSE window, the 32B AVX2 window, the 64B
  // SSE2 dirty-window hysteresis run and VBMI2 destuff window, and the SWAR
  // word, inside frames up to a little over two windows past the flip.
  constexpr std::size_t kFlips[] = {1, 7, 8, 15, 16, 17, 31, 32, 33, 63, 64, 65};
  constexpr u8 kDense[] = {hdlc::kFlag, hdlc::kEscape};
  for (const std::size_t flip : kFlips) {
    for (const std::size_t total : {flip + 1, flip + 16, flip + 80}) {
      for (const u8 dense : kDense) {
        // Clean head, dense tail.
        Bytes head_clean(total, 0x42);
        for (std::size_t i = flip; i < total; ++i) head_clean[i] = dense;
        payloads.push_back(std::move(head_clean));
        // Dense head, clean tail.
        Bytes head_dense(total, dense);
        for (std::size_t i = flip; i < total; ++i) head_dense[i] = 0x42;
        payloads.push_back(std::move(head_dense));
      }
      // Alternating 0x7E/0x7D burst tail after a clean head: consecutive
      // escape-class octets exercise the marker-chain resolution.
      Bytes burst(total, 0x13);
      for (std::size_t i = flip; i < total; ++i) burst[i] = (i & 1) ? hdlc::kEscape : hdlc::kFlag;
      payloads.push_back(std::move(burst));
    }
  }

  for (const Bytes& payload : payloads) {
    const auto enc = oracle.encode(0x0021, payload);
    ASSERT_TRUE(enc.agree) << "encode (" << payload.size() << "B): " << enc.diagnosis;
    const auto dec = oracle.decode(enc.stuffed);
    ASSERT_TRUE(dec.agree) << "decode (" << payload.size() << "B): " << dec.diagnosis;
    ASSERT_TRUE(dec.ok);
    ASSERT_EQ(dec.recovered, enc.content) << "round-trip failed at " << payload.size() << "B";
  }
}

// The same adversarial shapes through every tier this host can dispatch
// (scalar, SWAR, SSE2, SSSE3, AVX2, VBMI2 as available): each pinned-tier engine
// must reproduce the scalar reference byte-for-byte on both directions.
TEST(Conformance, DensityFlipFramesAgreeAtEveryDispatchTier) {
  const hdlc::Accm accm = hdlc::Accm::sonet();
  for (const fastpath::EscapeTier tier : fastpath::available_tiers()) {
    fastpath::EscapeEngine eng(accm, tier);
    for (const std::size_t flip : {3u, 16u, 29u, 64u}) {
      for (const u8 fill : {u8(hdlc::kFlag), u8(0x00)}) {
        Bytes payload(flip + 48, fill);
        for (std::size_t i = 0; i < flip; ++i) payload[i] = u8(0x40 + i);

        const Bytes want = fastpath::scalar::stuff(payload, accm);
        Bytes got;
        got.reserve(2 * payload.size() + fastpath::kStuffSlack);
        eng.stuff_append(got, payload);
        ASSERT_EQ(got, want) << "stuff tier " << fastpath::to_string(tier);

        const auto [back, ok] = fastpath::scalar::destuff(want);
        Bytes simd_back;
        simd_back.reserve(want.size() + fastpath::kStuffSlack);
        ASSERT_TRUE(eng.destuff_append(simd_back, want))
            << "destuff verdict, tier " << fastpath::to_string(tier);
        ASSERT_TRUE(ok);
        ASSERT_EQ(simd_back, back) << "destuff tier " << fastpath::to_string(tier);
        ASSERT_EQ(simd_back, payload);
      }
    }
  }
}

// ---- fifth leg: whole-endpoint device-tier equivalence ------------------

// A mixed-density packet batch for the tier-equivalence legs: uniform
// random, escape-saturated (worst case for the SIMD escape engine), clean
// ASCII (zero escapes — the fast path's best case), and byte-noise, with an
// occasional numbered-mode Control override thrown in.
std::vector<DiffOracle::TierPacket> gen_tier_batch(Xoshiro256& rng, std::size_t packets,
                                                   std::size_t max_size) {
  std::vector<DiffOracle::TierPacket> batch;
  batch.reserve(packets);
  for (std::size_t i = 0; i < packets; ++i) {
    DiffOracle::TierPacket p;
    p.protocol = gen_protocol(rng);
    const std::size_t n = rng.below(max_size + 1);
    switch (rng.below(4)) {
      case 0:
        p.payload = gen_payload(rng, n);
        break;
      case 1:  // every octet needs stuffing
        p.payload.resize(n);
        for (auto& b : p.payload) b = rng.below(2) ? hdlc::kFlag : hdlc::kEscape;
        break;
      case 2:  // zero escapes
        p.payload.resize(n);
        for (auto& b : p.payload) b = static_cast<u8>(0x20 + rng.below(95));
        break;
      default:
        p.payload.resize(n);
        for (auto& b : p.payload) b = static_cast<u8>(rng.below(256));
        break;
    }
    if (rng.below(8) == 0) p.control = static_cast<u8>(rng.below(256));
    batch.push_back(std::move(p));
  }
  return batch;
}

// The tentpole guarantee: the batch FastP5Endpoint and the cycle-accurate
// P5SonetEndpoint are interchangeable on the wire. Every case transmits a
// mixed-density batch through both tiers and requires (a) the identical
// delineated stuffed-frame sequence on the SONET path, (b) identical
// deliveries and loss ledgers when each stream is cross-decoded by BOTH
// tiers' receivers, and (c) deliveries that match the submitted packets.
// Together with the fault sweep below this drives ~100k packets through
// whole endpoints of both tiers per run; P5_TEST_CASES scales it for soaks.
TEST(Conformance, DeviceTierEquivalenceCleanSweep) {
  PropertyOptions opt;
  opt.cases = 350;
  opt.seed = 0xC0FFEE10ull;
  opt.min_size = 0;
  opt.max_size = 300;
  constexpr std::size_t kPacketsPerCase = 250;
  u64 packets_run = 0;
  const auto res = check_property("tier_equivalence_clean", opt, [&](CaseContext& c) {
    const core::P5Config cfg;  // stock framing: FCS-32, MAPOS defaults
    const auto batch = gen_tier_batch(c.rng, kPacketsPerCase, std::min(c.size, cfg.max_payload));
    const auto r = DiffOracle::tier_equivalence(cfg, sonet::kSts3c, batch);
    packets_run += batch.size();
    if (!r.agree) return c.fail("tier equivalence: " + r.diagnosis);
    if (r.delivered.size() != batch.size())
      return c.fail("clean run delivered a different packet count than submitted");
    const auto& led = r.clean_ledger;
    if (led.counters.frames_bad + led.counters.addr_filtered + led.counters.malformed +
            led.counters.oversize + led.rx_overflow_drops !=
        0)
      return c.fail("clean run charged the loss ledger");
  });
  EXPECT_TRUE(res.ok) << res.message;
  EXPECT_GE(packets_run, resolved_cases(350) * kPacketsPerCase);
}

// Fault parity: a corrupted chunk stream fed identically to both tiers'
// receivers must produce the identical deliveries, the identical junk/abort
// verdicts and the identical resync points — the ledgers match field for
// field. Sweeps BER, byte slips, HDLC-abort overwrites, truncations,
// pointer-adjustment events and whole-chunk drops.
TEST(Conformance, DeviceTierEquivalenceUnderFaults) {
  PropertyOptions opt;
  opt.cases = 100;
  opt.seed = 0xC0FFEE11ull;
  opt.min_size = 0;
  opt.max_size = 300;
  constexpr std::size_t kPacketsPerCase = 150;
  const auto res = check_property("tier_equivalence_faults", opt, [&](CaseContext& c) {
    const core::P5Config cfg;
    const auto batch = gen_tier_batch(c.rng, kPacketsPerCase, std::min(c.size, cfg.max_payload));
    FaultSpec spec;
    spec.seed = c.seed ^ 0x5EEDull;
    switch (c.rng.below(6)) {
      case 0: spec.bit_error_rate = 1e-5 * static_cast<double>(1 + c.rng.below(20)); break;
      case 1: spec.slip_insert_rate = 0.05; spec.slip_delete_rate = 0.05; break;
      case 2: spec.abort_rate = 0.2; break;
      case 3: spec.truncate_rate = 0.05; break;
      case 4: spec.pointer_event_rate = 0.1; spec.sts = sonet::kSts3c; break;
      default:
        spec.drop_rate = 0.1;
        spec.bit_error_rate = 5e-5;
        break;
    }
    const auto r = DiffOracle::tier_equivalence(cfg, sonet::kSts3c, batch, &spec);
    if (!r.agree) return c.fail("tier equivalence under faults: " + r.diagnosis);
  });
  EXPECT_TRUE(res.ok) << res.message;
}

// The oracle itself must be deterministic: the same base seed replays the
// identical stream (this is what makes P5_TEST_SEED reproduction trustworthy).
TEST(Conformance, SameSeedReplaysTheIdenticalStream) {
  auto run = [](u64 seed) {
    Xoshiro256 rng(seed);
    DiffOracle oracle;
    Bytes transcript;
    for (int i = 0; i < 50; ++i) {
      const auto enc = oracle.encode(gen_protocol(rng), gen_payload(rng, 1 + rng.below(64)));
      append(transcript, enc.wire);
    }
    return transcript;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

}  // namespace
}  // namespace p5::testing
