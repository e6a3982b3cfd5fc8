// Deterministic fault injection over the whole stack: a seeded FaultyLine
// mangles wire streams (bit errors, byte slips, truncation, HDLC aborts,
// SONET pointer events) and every receive engine must (a) agree with every
// other engine, (b) never deliver a corrupted frame as good payload, and
// (c) resynchronise once the noise stops. Failures print their case seed;
// replay with P5_TEST_SEED (see TESTING.md).
#include <gtest/gtest.h>

#include <algorithm>

#include "hdlc/delineation.hpp"
#include "hdlc/frame.hpp"
#include "p5/sonet_link.hpp"
#include "testing/diff_oracle.hpp"
#include "testing/fault.hpp"
#include "testing/property.hpp"

namespace p5::testing {
namespace {

/// Every delivered (protocol, payload) must be one of the sent frames —
/// multiset containment, so a duplicated delivery is also a failure.
bool deliveries_subset_of_sent(const std::vector<DiffOracle::Delivery>& delivered,
                               std::vector<DiffOracle::Delivery> sent) {
  for (const auto& d : delivered) {
    const auto it = std::find(sent.begin(), sent.end(), d);
    if (it == sent.end()) return false;
    sent.erase(it);
  }
  return true;
}

struct WireStream {
  Bytes wire;
  std::vector<DiffOracle::Delivery> sent;
};

WireStream make_stream(const hdlc::FrameConfig& cfg, Xoshiro256& rng, std::size_t frames,
                       std::size_t max_payload) {
  WireStream s;
  s.wire.assign(2, hdlc::kFlag);
  for (std::size_t f = 0; f < frames; ++f) {
    const u16 protocol = gen_protocol(rng);
    const Bytes payload = gen_payload(rng, 1 + rng.below(max_payload));
    append(s.wire, hdlc::build_wire_frame(cfg, protocol, payload));
    s.sent.push_back({protocol, payload});
    for (u64 fill = rng.below(3); fill > 0; --fill) s.wire.push_back(hdlc::kFlag);
  }
  return s;
}

// ---- the FaultyLine itself ---------------------------------------------

TEST(FaultyLineModel, SameSeedProducesIdenticalDamageAndStats) {
  FaultSpec spec;
  spec.bit_error_rate = 1e-3;
  spec.slip_insert_rate = 0.2;
  spec.slip_delete_rate = 0.2;
  spec.truncate_rate = 0.1;
  spec.abort_rate = 0.1;
  spec.seed = 77;
  FaultyLine a(spec), b(spec);
  Xoshiro256 rng(5);
  for (int i = 0; i < 200; ++i) {
    const Bytes chunk = rng.bytes(1 + rng.below(300));
    EXPECT_EQ(a.transfer(chunk), b.transfer(chunk)) << "chunk " << i;
  }
  EXPECT_EQ(a.stats().events(), b.stats().events());
  EXPECT_EQ(a.stats().bit_flips, b.stats().bit_flips);
  EXPECT_GT(a.stats().events(), 0u);
}

TEST(FaultyLineModel, CleanSpecIsAPassThrough) {
  FaultyLine line(FaultSpec::clean());
  Xoshiro256 rng(9);
  for (int i = 0; i < 50; ++i) {
    const Bytes chunk = rng.bytes(rng.below(200));
    EXPECT_EQ(line.transfer(chunk), chunk);
  }
  EXPECT_EQ(line.stats().events(), 0u);
  EXPECT_EQ(line.stats().faulted_chunks, 0u);
  EXPECT_EQ(line.stats().chunks, 50u);
}

TEST(FaultyLineModel, DropPresetErasesWholeChunksAndCountsThem) {
  FaultyLine line(FaultSpec::drop(0.5, 3));
  Xoshiro256 rng(5);
  u64 dropped = 0, passed = 0;
  for (int i = 0; i < 200; ++i) {
    const Bytes chunk = rng.bytes(1 + rng.below(64));
    const Bytes out = line.transfer(chunk);
    if (out.empty()) {
      ++dropped;
    } else {
      EXPECT_EQ(out, chunk);  // a surviving chunk is untouched
      ++passed;
    }
  }
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(passed, 0u);
  EXPECT_EQ(line.stats().drops, dropped);
  EXPECT_EQ(line.stats().faulted_chunks, dropped);
  EXPECT_EQ(line.stats().events(), dropped);
}

TEST(FaultyLineModel, EveryFaultClassIsCountedAndShapedCorrectly) {
  Xoshiro256 rng(11);
  const Bytes chunk = rng.bytes(256);

  FaultyLine slips(FaultSpec::slips(1.0, 0.0, 3));
  EXPECT_EQ(slips.transfer(chunk).size(), chunk.size() + 1);
  EXPECT_EQ(slips.stats().inserts, 1u);

  FaultyLine dels(FaultSpec::slips(0.0, 1.0, 3));
  EXPECT_EQ(dels.transfer(chunk).size(), chunk.size() - 1);
  EXPECT_EQ(dels.stats().deletes, 1u);

  FaultyLine trunc(FaultSpec::truncation(1.0, 3));
  EXPECT_LT(trunc.transfer(chunk).size(), chunk.size());
  EXPECT_EQ(trunc.stats().truncations, 1u);

  FaultyLine abort(FaultSpec::aborts(1.0, 3));
  const Bytes aborted = abort.transfer(chunk);
  EXPECT_EQ(abort.stats().aborts_injected, 1u);
  bool found = false;
  for (std::size_t i = 0; i + 1 < aborted.size(); ++i)
    found |= aborted[i] == hdlc::kEscape && aborted[i + 1] == hdlc::kFlag;
  EXPECT_TRUE(found) << "no 7D 7E abort sequence in the damaged chunk";

  FaultyLine ber(FaultSpec::ber(1.0, 3));
  Bytes inverted = chunk;
  for (u8& b : inverted) b = static_cast<u8>(~b);
  EXPECT_EQ(ber.transfer(chunk), inverted);
  EXPECT_EQ(ber.stats().bit_flips, 8 * chunk.size());
}

TEST(FaultyLineModel, BitFlipCountTracksTheConfiguredRate) {
  // 1 Mbit at BER 1e-3 should see ~1000 flips; the geometric skip-sampler
  // must land in a loose statistical window around that.
  FaultyLine line(FaultSpec::ber(1e-3, 21));
  Bytes chunk(125'000, 0x00);
  line.apply(chunk);
  EXPECT_GT(line.stats().bit_flips, 800u);
  EXPECT_LT(line.stats().bit_flips, 1200u);
  u64 set_bits = 0;
  for (const u8 b : chunk) set_bits += static_cast<u64>(__builtin_popcount(b));
  EXPECT_EQ(set_bits, line.stats().bit_flips) << "flip count must match actual damage";
}

TEST(FaultyLineModel, ActiveChunksBoundsTheNoiseWindow) {
  FaultSpec spec = FaultSpec::ber(1.0, 5);
  spec.active_chunks = 3;
  FaultyLine line(spec);
  Xoshiro256 rng(6);
  for (u64 i = 0; i < 10; ++i) {
    const Bytes chunk = rng.bytes(32);
    const Bytes out = line.transfer(chunk);
    if (i < 3)
      EXPECT_NE(out, chunk) << "chunk " << i << " should be damaged";
    else
      EXPECT_EQ(out, chunk) << "chunk " << i << " should pass clean";
  }
  EXPECT_EQ(line.stats().faulted_chunks, 3u);
}

// ---- corrupted frames are never delivered as good payload ---------------

// The central property: under an arbitrary mix of fault classes, all three
// receive engines agree on the accepted-frame sequence, and every accepted
// frame is one that was actually sent — corruption may *lose* frames but can
// never forge or alter one.
TEST(FaultInjection, NoEngineEverDeliversACorruptedFrame) {
  DiffOracle oracle;
  PropertyOptions opt;
  opt.cases = 250;
  opt.seed = 0xFA017001ull;
  opt.min_size = 4;
  opt.max_size = 160;
  const auto res = check_property("fault_no_silent_corruption", opt, [&](CaseContext& c) {
    auto stream = make_stream(oracle.config(), c.rng, 6, c.size);

    FaultSpec spec;
    spec.seed = c.seed ^ 0xABCDull;
    spec.bit_error_rate = c.rng.chance(0.7) ? (c.rng.chance(0.5) ? 2.5e-3 : 5e-4) : 0.0;
    spec.slip_insert_rate = c.rng.chance(0.3) ? 0.5 : 0.0;
    spec.slip_delete_rate = c.rng.chance(0.3) ? 0.5 : 0.0;
    spec.truncate_rate = c.rng.chance(0.2) ? 0.3 : 0.0;
    spec.abort_rate = c.rng.chance(0.3) ? 0.5 : 0.0;
    FaultyLine line(spec);
    line.apply(stream.wire);

    const auto rx = oracle.receive(stream.wire);
    if (!rx.agree) return c.fail("engines diverged: " + rx.diagnosis);
    if (!deliveries_subset_of_sent(rx.delivered, stream.sent))
      return c.fail("a delivered frame was never sent (silent corruption)");
  });
  EXPECT_TRUE(res.ok) << res.message;
}

// FCS-32 catches every single-bit error: flip any one bit anywhere in the
// frame (delimiters included) and nothing may be delivered, by any engine.
TEST(FaultInjection, AnySingleBitFlipRejectsTheFrameEverywhere) {
  DiffOracle oracle;
  PropertyOptions opt;
  opt.cases = 400;
  opt.seed = 0xFA017002ull;
  opt.min_size = 1;
  opt.max_size = 120;
  const auto res = check_property("fault_single_bit_flip", opt, [&](CaseContext& c) {
    const u16 protocol = gen_protocol(c.rng);
    const Bytes payload = gen_payload(c.rng, c.size);
    const Bytes frame = hdlc::build_wire_frame(oracle.config(), protocol, payload);

    Bytes wire(2, hdlc::kFlag);  // leading fill so a damaged opening flag still opens
    const std::size_t base = wire.size();
    append(wire, frame);
    wire.push_back(hdlc::kFlag);  // trailing fill closes a damaged closing flag

    const std::size_t bit = c.rng.below(8 * frame.size());
    wire[base + bit / 8] ^= static_cast<u8>(1u << (bit % 8));

    const auto rx = oracle.receive(wire);
    if (!rx.agree) return c.fail("engines diverged: " + rx.diagnosis);
    if (!rx.delivered.empty())
      return c.fail("bit " + std::to_string(bit) + " flipped yet " +
                    std::to_string(rx.delivered.size()) + " frame(s) were delivered");
  });
  EXPECT_TRUE(res.ok) << res.message;
}

// An injected transmitter abort (7D 7E) must kill at most the frames it
// lands in and never produce a delivery that was not sent. (An abort that
// happens to land in inter-frame fill legitimately loses nothing, so frame
// loss itself is asserted by the deterministic test below.)
TEST(FaultInjection, InjectedAbortsAreContained) {
  DiffOracle oracle;
  PropertyOptions opt;
  opt.cases = 300;
  opt.seed = 0xFA017003ull;
  opt.min_size = 8;
  opt.max_size = 120;
  const auto res = check_property("fault_abort_injection", opt, [&](CaseContext& c) {
    auto stream = make_stream(oracle.config(), c.rng, 4, c.size);
    FaultSpec spec = FaultSpec::aborts(1.0, c.seed ^ 0x5EEDull);
    FaultyLine line(spec);
    line.apply(stream.wire);

    const auto rx = oracle.receive(stream.wire);
    if (!rx.agree) return c.fail("engines diverged: " + rx.diagnosis);
    if (!deliveries_subset_of_sent(rx.delivered, stream.sent))
      return c.fail("abort injection forged a delivery");
  });
  EXPECT_TRUE(res.ok) << res.message;
}

// Surgical abort: 7D 7E planted mid-body of the middle frame kills exactly
// that frame — its neighbours are delivered untouched by every engine, and
// the delineator actually records the abort.
TEST(FaultInjection, AbortMidFrameKillsExactlyThatFrame) {
  DiffOracle oracle;
  Xoshiro256 rng(0xAB0B7);
  for (int trial = 0; trial < 20; ++trial) {
    Bytes wire(2, hdlc::kFlag);
    std::vector<DiffOracle::Delivery> sent;
    std::vector<std::pair<std::size_t, std::size_t>> spans;
    for (int f = 0; f < 3; ++f) {
      const u16 protocol = gen_protocol(rng);
      const Bytes payload = gen_payload(rng, 16 + rng.below(64));
      const Bytes frame = hdlc::build_wire_frame(oracle.config(), protocol, payload);
      spans.emplace_back(wire.size(), frame.size());
      append(wire, frame);
      sent.push_back({protocol, payload});
    }
    // Overwrite two octets strictly inside the middle frame's body (clear of
    // both its delimiters).
    const auto [start, len] = spans[1];
    const std::size_t pos = start + 2 + rng.below(len - 5);
    wire[pos] = hdlc::kEscape;
    wire[pos + 1] = hdlc::kFlag;

    const auto rx = oracle.receive(wire);
    ASSERT_TRUE(rx.agree) << rx.diagnosis;
    ASSERT_TRUE(deliveries_subset_of_sent(rx.delivered, sent)) << "trial " << trial;
    // Frame 0 and frame 2 must survive; the aborted frame 1 must not.
    EXPECT_NE(std::find(rx.delivered.begin(), rx.delivered.end(), sent[0]), rx.delivered.end());
    EXPECT_NE(std::find(rx.delivered.begin(), rx.delivered.end(), sent[2]), rx.delivered.end());
    EXPECT_EQ(std::find(rx.delivered.begin(), rx.delivered.end(), sent[1]), rx.delivered.end())
        << "aborted frame was delivered (trial " << trial << ")";
  }
}

// Bounded loss window: faults confined to the first chunks of a stream may
// eat frames inside (and one frame beyond, via a destroyed closing flag) the
// noise window, but every later frame must be delivered intact by every
// engine — the delineator's flag hunt guarantees resynchronisation.
TEST(FaultInjection, ReceiversResynchroniseOnceTheNoiseStops) {
  DiffOracle oracle;
  PropertyOptions opt;
  opt.cases = 200;
  opt.seed = 0xFA017004ull;
  opt.min_size = 4;
  opt.max_size = 120;
  const auto res = check_property("fault_resync", opt, [&](CaseContext& c) {
    constexpr std::size_t kFrames = 10;
    constexpr u64 kNoisy = 5;
    FaultSpec spec;
    spec.seed = c.seed ^ 0xF00Dull;
    spec.bit_error_rate = 2e-3;
    spec.slip_insert_rate = 0.4;
    spec.slip_delete_rate = 0.4;
    spec.truncate_rate = 0.3;
    spec.active_chunks = kNoisy;  // chunks 0..4 noisy, 5.. clean
    FaultyLine line(spec);

    Bytes wire;
    std::vector<DiffOracle::Delivery> sent;
    for (std::size_t f = 0; f < kFrames; ++f) {
      const u16 protocol = gen_protocol(c.rng);
      const Bytes payload = gen_payload(c.rng, 1 + c.rng.below(c.size));
      Bytes chunk = hdlc::build_wire_frame(oracle.config(), protocol, payload);
      line.apply(chunk);  // one frame per chunk: the noise window is frames 0..4
      append(wire, chunk);
      sent.push_back({protocol, payload});
    }

    const auto rx = oracle.receive(wire);
    if (!rx.agree) return c.fail("engines diverged: " + rx.diagnosis);
    if (!deliveries_subset_of_sent(rx.delivered, sent))
      return c.fail("silent corruption during resync");
    // Frames kNoisy+1.. are clean AND preceded by a clean closing flag; all
    // of them must have been delivered, in order, as the delivered suffix.
    const std::size_t must = kFrames - kNoisy - 1;
    if (rx.delivered.size() < must)
      return c.fail("only " + std::to_string(rx.delivered.size()) + " frames delivered; the " +
                    std::to_string(must) + " post-noise frames must all survive");
    for (std::size_t i = 0; i < must; ++i) {
      const auto& got = rx.delivered[rx.delivered.size() - must + i];
      if (!(got == sent[kNoisy + 1 + i]))
        return c.fail("post-noise frame " + std::to_string(kNoisy + 1 + i) +
                      " was not delivered intact");
    }
  });
  EXPECT_TRUE(res.ok) << res.message;
}

// ---- faults on the SONET line under a full P5SonetLink ------------------

// The optical-line insertion point: pointer-adjustment slips and bit noise
// on whole scrambled STS-3c frames. The deframer must re-hunt A1/A2 after a
// slip, the self-sync descrambler must re-seed, and once the noise window
// closes every subsequently submitted datagram must flow end to end — with
// no corrupted payload ever surfacing at the far P5.
TEST(FaultInjection, SonetPointerEventsAndBerRecoverEndToEnd) {
  core::P5Config pc;
  pc.lanes = 4;
  core::P5SonetLink link(pc, sonet::kSts3c);

  auto ab = std::make_shared<FaultyLine>([] {
    FaultSpec s = FaultSpec::pointer_events(0.25, sonet::kSts3c, 0x50E7);
    s.bit_error_rate = 1e-5;
    s.active_chunks = 60;
    return s;
  }());
  link.set_line_tap([ab](Bytes& b) { ab->apply(b); }, {});

  std::vector<Bytes> sent, got;
  link.b().set_rx_sink([&](core::RxDelivery d) { got.push_back(std::move(d.payload)); });

  Xoshiro256 rng(0xBADCAB);
  auto submit_burst = [&](int n) {
    for (int i = 0; i < n; ++i) {
      Bytes payload = gen_payload(rng, 32 + rng.below(200));
      ASSERT_TRUE(link.a().submit_datagram(0x0021, payload));
      sent.push_back(std::move(payload));
      link.exchange_frames(2);
    }
  };

  submit_burst(25);             // rides the noisy window (chunks 0..59)
  link.exchange_frames(40);     // burn through the rest of the noise
  ASSERT_GT(ab->stats().pointer_events, 0u) << "the noise window never slipped a pointer";
  const std::size_t survivors = got.size();

  const std::size_t clean_mark = sent.size();
  submit_burst(25);             // clean line from here on
  link.exchange_frames(20);

  // No silent corruption, ever: every delivered payload was submitted.
  for (const Bytes& p : got)
    EXPECT_NE(std::find(sent.begin(), sent.end(), p), sent.end())
        << "a payload was delivered that was never sent";
  // Full recovery: every datagram submitted after the noise stopped arrives.
  ASSERT_GE(got.size(), survivors);
  std::vector<Bytes> after(got.begin() + static_cast<std::ptrdiff_t>(survivors), got.end());
  for (std::size_t i = clean_mark; i < sent.size(); ++i)
    EXPECT_NE(std::find(after.begin(), after.end(), sent[i]), after.end())
        << "post-noise datagram " << i - clean_mark << " was lost";
}

// The same scenario replayed twice must produce byte-identical deliveries
// and identical fault statistics — the whole stack is seed-deterministic.
TEST(FaultInjection, SonetFaultScenarioIsDeterministic) {
  auto run = [] {
    core::P5Config pc;
    core::P5SonetLink link(pc, sonet::kSts3c);
    auto ab = std::make_shared<FaultyLine>([] {
      FaultSpec s = FaultSpec::ber(5e-5, 1234);
      s.slip_insert_rate = 0.05;
      return s;
    }());
    link.set_line_tap([ab](Bytes& b) { ab->apply(b); }, {});
    Bytes transcript;
    link.b().set_rx_sink([&](core::RxDelivery d) { append(transcript, d.payload); });
    Xoshiro256 rng(7);
    for (int i = 0; i < 30; ++i) {
      (void)link.a().submit_datagram(0x0021, rng.bytes(64 + rng.below(128)));
      link.exchange_frames(2);
    }
    link.exchange_frames(20);
    transcript.push_back(static_cast<u8>(ab->stats().events() & 0xFF));
    return transcript;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace p5::testing
