// SDH/SONET substrate tests: scramblers, STS-Nc framer/deframer geometry,
// alignment recovery, BIP error counting and the stochastic line model.
#include <gtest/gtest.h>

#include <deque>

#include "common/md5.hpp"
#include "common/rng.hpp"
#include "p5/endpoint.hpp"
#include "sonet/line.hpp"
#include "sonet/scrambler.hpp"
#include "sonet/spe.hpp"

namespace p5::sonet {
namespace {

// ---- scramblers ----

TEST(FrameScrambler, DeterministicKeystream) {
  FrameScrambler a, b;
  a.reset();
  b.reset();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_keystream(), b.next_keystream());
}

TEST(FrameScrambler, Period127Bits) {
  // x^7+x^6+1 is maximal-length: the keystream repeats every 127 bits.
  FrameScrambler s;
  s.reset();
  Bytes first;
  for (int i = 0; i < 127; ++i) first.push_back(s.next_keystream());
  Bytes second;
  for (int i = 0; i < 127; ++i) second.push_back(s.next_keystream());
  EXPECT_EQ(first, second);
}

TEST(FrameScrambler, ApplyIsInvolution) {
  Xoshiro256 rng(1);
  Bytes data = rng.bytes(270);
  const Bytes orig = data;
  FrameScrambler s;
  s.reset();
  s.apply(data, 9, data.size());
  EXPECT_NE(data, orig);
  FrameScrambler d;
  d.reset();
  d.apply(data, 9, data.size());
  EXPECT_EQ(data, orig);
}

TEST(SelfSync43, RoundTrip) {
  Xoshiro256 rng(2);
  const Bytes in = rng.bytes(1000);
  SelfSyncScrambler43 scr, dscr;
  const Bytes wire = scr.scramble(in);
  EXPECT_NE(wire, in);
  EXPECT_EQ(dscr.descramble(wire), in);
}

TEST(SelfSync43, DescramblerSelfSynchronises) {
  // Start the descrambler mid-stream with unknown state: after 43 bits
  // (6 octets) it must be in sync.
  Xoshiro256 rng(3);
  const Bytes in = rng.bytes(200);
  SelfSyncScrambler43 scr;
  const Bytes wire = scr.scramble(in);

  SelfSyncScrambler43 late;
  Bytes out = late.descramble(BytesView(wire).subspan(50));
  // Compare after the 6-octet resync window.
  for (std::size_t i = 6; i < out.size(); ++i) EXPECT_EQ(out[i], in[50 + i]) << i;
}

TEST(SelfSync43, SingleBitErrorAffectsTwoBits) {
  // Self-synchronous x^43+1: one wire bit error corrupts exactly the
  // corresponding bit and the bit 43 positions later.
  const Bytes in(32, 0x00);
  SelfSyncScrambler43 scr, d1, d2;
  Bytes wire = scr.scramble(in);
  wire[2] ^= 0x01;  // flip one bit
  const Bytes out = d1.descramble(wire);
  int wrong_bits = 0;
  for (std::size_t i = 0; i < out.size(); ++i)
    wrong_bits += __builtin_popcount(out[i] ^ in[i]);
  EXPECT_EQ(wrong_bits, 2);
}

TEST(SelfSync43, BreaksKillerPatterns) {
  // A payload crafted as all-zeroes must not appear as all-zeroes on the
  // wire (the attack RFC 2615 defends against).
  const Bytes zeros(100, 0x00);
  SelfSyncScrambler43 scr;
  // Prime the history with something nonzero, as a live link would be.
  (void)scr.scramble(Bytes{0xA5});
  const Bytes wire = scr.scramble(zeros);
  // With all-zero input the output replays the 43-bit history forever, so
  // the primed ones recur in every 43-bit window: no long zero runs survive.
  std::size_t nonzero = 0, zero_run = 0, longest_run = 0;
  for (const u8 b : wire) {
    if (b) {
      ++nonzero;
      zero_run = 0;
    } else {
      longest_run = std::max(longest_run, ++zero_run);
    }
  }
  EXPECT_GT(nonzero, 20u);
  EXPECT_LE(longest_run, 6u);  // 43 bits < 6 octets
}

// ---- SPE geometry ----

TEST(StsSpec, GeometrySts3c) {
  EXPECT_EQ(kSts3c.columns(), 270u);
  EXPECT_EQ(kSts3c.toh_columns(), 9u);
  EXPECT_EQ(kSts3c.fixed_stuff_columns(), 0u);
  EXPECT_EQ(kSts3c.frame_bytes(), 2430u);
  EXPECT_EQ(kSts3c.payload_columns(), 260u);
  EXPECT_NEAR(kSts3c.line_rate_mbps(), 155.52, 0.01);
}

TEST(StsSpec, GeometrySts48c) {
  EXPECT_EQ(kSts48c.columns(), 4320u);
  EXPECT_EQ(kSts48c.fixed_stuff_columns(), 15u);
  EXPECT_NEAR(kSts48c.line_rate_mbps(), 2488.32, 0.01);
  // Paper: 2.5 Gbps payload channel.
  EXPECT_GT(kSts48c.payload_rate_mbps(), 2300.0);
  EXPECT_LT(kSts48c.payload_rate_mbps(), 2488.32);
}

TEST(StsSpec, PayloadRateBelowLineRate) {
  for (const auto& s : {kSts3c, kSts12c, kSts48c})
    EXPECT_LT(s.payload_rate_mbps(), s.line_rate_mbps());
}

// ---- framer/deframer ----

class PatternSource {
 public:
  explicit PatternSource(u64 seed) : rng_(seed) {}
  Bytes operator()(std::size_t n) {
    Bytes out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const u8 b = rng_.byte();
      out.push_back(b);
      sent_.push_back(b);
    }
    return out;
  }
  Bytes sent_;

 private:
  Xoshiro256 rng_;
};

TEST(Sonet, PayloadSurvivesFramingRoundTrip) {
  PatternSource src(10);
  SonetFramer framer(kSts3c, [&src](std::size_t n) { return src(n); });
  Bytes received;
  SonetDeframer deframer(kSts3c, [&received](BytesView p) {
    received.insert(received.end(), p.begin(), p.end());
  });
  for (int f = 0; f < 5; ++f) deframer.push(framer.next_frame());
  EXPECT_EQ(received, src.sent_);
  EXPECT_TRUE(deframer.in_sync());
  EXPECT_EQ(deframer.stats().frames_in_sync, 5u);
  EXPECT_EQ(deframer.stats().b1_errors, 0u);
  EXPECT_EQ(deframer.stats().b3_errors, 0u);
}

TEST(Sonet, AcquiresSyncFromMisalignedStream) {
  PatternSource src(11);
  SonetFramer framer(kSts3c, [&src](std::size_t n) { return src(n); });
  SonetDeframer deframer(kSts3c, [](BytesView) {});
  // Offset the stream by a partial frame of garbage.
  Xoshiro256 rng(12);
  Bytes garbage = rng.bytes(1000);
  deframer.push(garbage);
  for (int f = 0; f < 4; ++f) deframer.push(framer.next_frame());
  EXPECT_TRUE(deframer.in_sync());
  EXPECT_GE(deframer.stats().frames_in_sync, 3u);
  EXPECT_GT(deframer.stats().discarded_octets, 0u);
}

TEST(Sonet, BitErrorsRaiseBipCounts) {
  PatternSource src(13);
  SonetFramer framer(kSts3c, [&src](std::size_t n) { return src(n); });
  SonetDeframer deframer(kSts3c, [](BytesView) {});
  for (int f = 0; f < 10; ++f) {
    Bytes frame = framer.next_frame();
    if (f == 4) frame[500] ^= 0x08;  // corrupt payload region
    deframer.push(frame);
  }
  EXPECT_TRUE(deframer.in_sync());
  EXPECT_GE(deframer.stats().b1_errors + deframer.stats().b3_errors, 1u);
}

TEST(Sonet, CleanStreamHasNoBipErrorsAtEveryLevel) {
  for (const StsSpec sts : {kSts3c, kSts12c, kSts48c}) {
    PatternSource src(20 + sts.n);
    SonetFramer framer(sts, [&src](std::size_t n) { return src(n); });
    SonetDeframer deframer(sts, [](BytesView) {});
    for (int f = 0; f < 6; ++f) deframer.push(framer.next_frame());
    EXPECT_EQ(deframer.stats().frames_in_sync, 6u) << "STS-" << sts.n << "c";
    EXPECT_EQ(deframer.stats().b1_errors, 0u) << "STS-" << sts.n << "c";
    EXPECT_EQ(deframer.stats().b2_errors, 0u) << "STS-" << sts.n << "c";
    EXPECT_EQ(deframer.stats().b3_errors, 0u) << "STS-" << sts.n << "c";
  }
}

TEST(Sonet, B2CoversRowsThreeToEightOfItsOwnFrame) {
  // B2 (row 4) makes rows 3..8 of its frame even: one flipped octet in row 5
  // is exactly one B2 error; one in row 1 (past B1) is none.
  const auto b2_errors_after_flip = [](std::size_t row, std::size_t col) {
    PatternSource src(21);
    SonetFramer framer(kSts3c, [&src](std::size_t n) { return src(n); });
    SonetDeframer deframer(kSts3c, [](BytesView) {});
    for (int f = 0; f < 6; ++f) {
      Bytes frame = framer.next_frame();
      if (f == 3) frame[row * kSts3c.columns() + col] ^= 0x40;
      deframer.push(frame);
    }
    EXPECT_EQ(deframer.stats().frames_in_sync, 6u);
    return deframer.stats().b2_errors;
  };
  EXPECT_EQ(b2_errors_after_flip(5, 100), 1u);
  EXPECT_EQ(b2_errors_after_flip(5, 2), 1u);  // line overhead, not payload
  EXPECT_EQ(b2_errors_after_flip(1, 100), 0u);
}

TEST(Sonet, C2SignalLabelIsPpp) {
  PatternSource src(14);
  SonetFramer framer(kSts3c, [&src](std::size_t n) { return src(n); });
  Bytes frame = framer.next_frame();
  // Descramble to inspect C2 (row 2, first SPE column).
  FrameScrambler d;
  d.reset();
  d.apply(frame, kSts3c.toh_columns(), frame.size());
  EXPECT_EQ(frame[2 * kSts3c.columns() + kSts3c.toh_columns()], kC2PppScrambled);
}

TEST(Sonet, ScrambledLineHasNoLongZeroRuns) {
  // All-zero payload must still give a transition-rich line signal.
  SonetFramer framer(kSts3c, [](std::size_t n) { return Bytes(n, 0); });
  (void)framer.next_frame();
  const Bytes frame = framer.next_frame();
  std::size_t longest_zero_run = 0, run = 0;
  for (const u8 b : frame) {
    if (b == 0) {
      ++run;
      longest_zero_run = std::max(longest_zero_run, run);
    } else {
      run = 0;
    }
  }
  EXPECT_LT(longest_zero_run, 10u);
}

TEST(Sonet, Sts12cRoundTrip) {
  PatternSource src(15);
  SonetFramer framer(kSts12c, [&src](std::size_t n) { return src(n); });
  Bytes received;
  SonetDeframer deframer(kSts12c, [&received](BytesView p) {
    received.insert(received.end(), p.begin(), p.end());
  });
  for (int f = 0; f < 3; ++f) deframer.push(framer.next_frame());
  EXPECT_EQ(received, src.sent_);
}

TEST(Sonet, DeframerSplitInvariance) {
  // A scrambled line with a garbage prefix, one frame with a corrupted
  // payload octet (B1 and B3 errors), two consecutive frames with a bad
  // A1/A2 word (loss of frame, re-hunt, resync) and one corrupted octet in
  // row 5 (a B2 error), pushed whole, one octet at a time and at seeded
  // random split points: identical payloads, identical stats. Whole and
  // large pushes deframe in place; straddling frames go through the window.
  PatternSource src(16);
  SonetFramer framer(kSts3c, [&src](std::size_t n) { return src(n); });
  Xoshiro256 rng(17);
  Bytes line = rng.bytes(1000);
  for (int f = 0; f < 12; ++f) {
    Bytes frame = framer.next_frame();
    if (f == 3) frame[700] ^= 0x21;
    if (f == 6 || f == 7) frame[1] ^= 0xFF;  // A1
    if (f == 9) frame[5 * kSts3c.columns() + 30] ^= 0x04;
    append(line, frame);
  }
  struct Run {
    std::vector<Bytes> payloads;
    DeframerStats stats;
  };
  const auto run = [&](auto&& feed) {
    Run r;
    SonetDeframer d(kSts3c, [&r](BytesView p) { r.payloads.emplace_back(p.begin(), p.end()); });
    feed(d);
    r.stats = d.stats();
    return r;
  };
  const Run whole = run([&](SonetDeframer& d) { d.push(line); });
  const Run octets = run([&](SonetDeframer& d) {
    for (const u8 b : line) d.push(b);
  });
  const Run split = run([&](SonetDeframer& d) {
    Xoshiro256 cut(18);
    for (std::size_t i = 0; i < line.size();) {
      const std::size_t n =
          std::min<std::size_t>(cut.below(3 * kSts3c.frame_bytes()), line.size() - i);
      d.push(BytesView(line).subspan(i, n));
      i += n;
    }
  });

  EXPECT_EQ(whole.stats, octets.stats);
  EXPECT_EQ(split.stats, octets.stats);
  EXPECT_EQ(whole.payloads, octets.payloads);
  EXPECT_EQ(split.payloads, octets.payloads);
  EXPECT_GT(octets.stats.discarded_octets, 1000u);
  EXPECT_EQ(octets.stats.resyncs, 1u);
  EXPECT_GE(octets.stats.b1_errors, 1u);
  EXPECT_EQ(octets.stats.b2_errors, 1u);
  EXPECT_GE(octets.stats.b3_errors, 1u);
  // Frames 0..6 before the loss of frame (the first bad A1/A2 still
  // delivers), then 8..11 after the resync.
  EXPECT_EQ(octets.stats.frames_in_sync, 11u);
  ASSERT_EQ(octets.payloads.size(), 11u);
  const std::size_t per = kSts3c.payload_bytes_per_frame();
  EXPECT_EQ(octets.payloads[0], Bytes(src.sent_.begin(), src.sent_.begin() + per));
  EXPECT_EQ(octets.payloads[10], Bytes(src.sent_.end() - per, src.sent_.end()));
}

// ---- frame-stream golden digests ----
//
// MD5 over 300 consecutive line frames, B1/B2/B3 and both scramblers
// included. Both device tiers share the framer, so the tier-equivalence
// oracle cannot see a framer change; these digests can.

/// Seeded traffic into `ep`, one frame pulled per step: bursts of 1..4n/3
/// datagrams of 1..1600 octets (about a tenth of them 0x7E/0x7D), half of
/// them followed by an idle stretch of 3..12 frames of flag fill.
std::string endpoint_stream_md5(core::DeviceTier tier, StsSpec sts, std::size_t frames) {
  auto ep = core::make_sonet_endpoint(tier, {}, sts);
  Xoshiro256 rng(0x60D5 + sts.n);
  Md5 md5;
  std::size_t idle = 0;
  for (std::size_t f = 0; f < frames; ++f) {
    if (idle > 0) {
      --idle;
    } else {
      const std::size_t burst = 1 + rng.below(4 * sts.n / 3);
      for (std::size_t d = 0; d < burst; ++d) {
        Bytes payload(1 + rng.below(1600));
        for (u8& b : payload)
          b = rng.below(10) == 0 ? (rng.below(2) ? hdlc::kFlag : hdlc::kEscape) : rng.byte();
        if (!ep->tx_has_room(payload.size())) break;
        EXPECT_TRUE(ep->submit_datagram(0x0021, std::move(payload)));
      }
      if (rng.below(2) == 0) idle = 3 + rng.below(10);
    }
    const Bytes frame = ep->pull_frame();
    EXPECT_EQ(frame.size(), sts.frame_bytes());
    md5.update(frame);
  }
  return md5_hex(md5.finish());
}

TEST(SonetGolden, FastTierSts3c) {
  EXPECT_EQ(endpoint_stream_md5(core::DeviceTier::kFast, kSts3c, 300),
            "391054b8b59bb7fcfca82ad62daecbee");
}

TEST(SonetGolden, FastTierSts12c) {
  EXPECT_EQ(endpoint_stream_md5(core::DeviceTier::kFast, kSts12c, 300),
            "626825040e4959a92e9e94b151440dce");
}

TEST(SonetGolden, FastTierSts48c) {
  EXPECT_EQ(endpoint_stream_md5(core::DeviceTier::kFast, kSts48c, 300),
            "2fa49e9e70b3b87d092faf2e4bcf4ac4");
}

TEST(SonetGolden, CycleTierSts3c) {
  EXPECT_EQ(endpoint_stream_md5(core::DeviceTier::kCycle, kSts3c, 300),
            "605a97bdc917ac71b56bfe7c1bd8e739");
}

TEST(SonetGolden, SupplierAdapterSts3c) {
  PatternSource src(19);
  SonetFramer framer(kSts3c, [&src](std::size_t n) { return src(n); });
  Md5 md5;
  for (int f = 0; f < 300; ++f) md5.update(framer.next_frame());
  EXPECT_EQ(md5_hex(md5.finish()), "0620850ef3e1eac537c7c0ecdb656934");
}

// ---- line model ----

TEST(Line, NoErrorsAtZeroBer) {
  Line line(LineConfig{});
  Xoshiro256 rng(16);
  const Bytes in = rng.bytes(5000);
  EXPECT_EQ(line.transfer(in), in);
  EXPECT_EQ(line.stats().bit_errors, 0u);
}

TEST(Line, MeasuredBerNearConfigured) {
  LineConfig cfg;
  cfg.bit_error_rate = 1e-3;
  cfg.seed = 17;
  Line line(cfg);
  Xoshiro256 rng(18);
  (void)line.transfer(rng.bytes(200000));
  EXPECT_NEAR(line.measured_ber(), 1e-3, 3e-4);
}

TEST(Line, BurstModeClustersErrors) {
  LineConfig cfg;
  cfg.bit_error_rate = 0.0;
  cfg.burst_enter = 0.001;
  cfg.burst_exit = 0.05;
  cfg.burst_error_rate = 0.2;
  cfg.seed = 19;
  Line line(cfg);
  Xoshiro256 rng(20);
  (void)line.transfer(rng.bytes(100000));
  // Errors exist and are clustered: octets-hit should be much smaller than
  // bit_errors would suggest under independence at the same average rate.
  EXPECT_GT(line.stats().bit_errors, 0u);
  EXPECT_GT(static_cast<double>(line.stats().bit_errors) /
                static_cast<double>(line.stats().octets_hit),
            1.2);
}

TEST(Line, DeterministicBySeed) {
  LineConfig cfg;
  cfg.bit_error_rate = 1e-2;
  Line a(cfg), b(cfg);
  Xoshiro256 rng(21);
  const Bytes in = rng.bytes(1000);
  EXPECT_EQ(a.transfer(in), b.transfer(in));
}

}  // namespace
}  // namespace p5::sonet
