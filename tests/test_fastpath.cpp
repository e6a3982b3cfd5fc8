// Differential and property tests for the word-parallel software fast path
// (src/fastpath): every fast kernel must be byte-identical to the seed-era
// scalar reference it replaced, across randomized inputs including all-escape
// payloads and every boundary length 1..16 where SWAR word/tail handling
// changes shape.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "crc/crc_reference.hpp"
#include "crc/crc_table.hpp"
#include "fastpath/scalar_ref.hpp"
#include "fastpath/scrambler_tables.hpp"
#include "fastpath/slice_crc.hpp"
#include "fastpath/stuff_fast.hpp"
#include "fastpath/swar.hpp"
#include "hdlc/frame.hpp"
#include "hdlc/stuffing.hpp"
#include "sonet/scrambler.hpp"

namespace p5::fastpath {
namespace {

using hdlc::Accm;

/// Payload mix that stresses the SWAR scan: escape-free runs, flags, escapes,
/// and control characters in random proportions.
Bytes escape_mix(Xoshiro256& rng, std::size_t len, double density) {
  Bytes p;
  p.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    if (density >= 1.0 || (density > 0.0 && rng.chance(density))) {
      switch (rng.below(3)) {
        case 0: p.push_back(hdlc::kFlag); break;
        case 1: p.push_back(hdlc::kEscape); break;
        default: p.push_back(static_cast<u8>(rng.below(0x20))); break;
      }
    } else {
      p.push_back(rng.byte());
    }
  }
  return p;
}

// ---------------------------------------------------------------- CRC

TEST(SliceCrc, MatchesBitwiseReferenceAllLengths) {
  Xoshiro256 rng(1);
  const SliceCrc s32(crc::kFcs32), s16(crc::kFcs16);
  for (std::size_t len = 0; len <= 64; ++len) {
    const Bytes data = rng.bytes(len);
    EXPECT_EQ(s32.update(crc::kFcs32.init, data), crc::bitwise_update(crc::kFcs32, crc::kFcs32.init, data))
        << "len " << len;
    EXPECT_EQ(s16.update(crc::kFcs16.init, data), crc::bitwise_update(crc::kFcs16, crc::kFcs16.init, data))
        << "len " << len;
  }
}

TEST(SliceCrc, MatchesSeedByteTableOnLargeRandomBuffers) {
  Xoshiro256 rng(2);
  const scalar::ByteTableCrc old32(crc::kFcs32), old16(crc::kFcs16);
  for (int trial = 0; trial < 20; ++trial) {
    const Bytes data = rng.bytes(rng.range(1, 9000));
    EXPECT_EQ(crc::fcs32().crc(data), old32.crc(data));
    EXPECT_EQ(crc::fcs16().crc(data), old16.crc(data));
  }
}

TEST(SliceCrc, IncrementalSplitsAtArbitraryOffsets) {
  // Slicing must be split-transparent: state carried across any boundary
  // (including mid-word) equals the whole-buffer result.
  Xoshiro256 rng(3);
  const Bytes data = rng.bytes(1500);
  const u32 whole = crc::fcs32().update(crc::kFcs32.init, data);
  for (int trial = 0; trial < 50; ++trial) {
    u32 state = crc::kFcs32.init;
    std::size_t off = 0;
    while (off < data.size()) {
      const std::size_t n = std::min<std::size_t>(rng.range(1, 23), data.size() - off);
      state = crc::fcs32().update(state, BytesView(data).subspan(off, n));
      off += n;
    }
    EXPECT_EQ(state, whole);
  }
}

TEST(SliceCrc, ResidueCheckStillHolds) {
  Xoshiro256 rng(4);
  for (int trial = 0; trial < 10; ++trial) {
    Bytes data = rng.bytes(rng.range(1, 300));
    const u32 fcs = crc::fcs32().crc(data);
    for (int i = 0; i < 4; ++i) data.push_back(static_cast<u8>(fcs >> (8 * i)));
    EXPECT_TRUE(crc::fcs32().check(data));
    data[0] ^= 1;
    EXPECT_FALSE(crc::fcs32().check(data));
  }
}

// ---------------------------------------------------------------- SWAR scan

TEST(Swar, PredicatesFlagExactBytes) {
  for (const u8 b : {0x00, 0x01, 0x1F, 0x20, 0x7C, 0x7D, 0x7E, 0x7F, 0x80, 0xFF}) {
    u8 buf[8] = {0x42, 0x42, 0x42, 0x42, 0x42, 0x42, 0x42, 0x42};
    buf[3] = b;
    const u64 v = load_word(buf);
    EXPECT_EQ(eq_bytes(v, hdlc::kEscape) != 0, b == hdlc::kEscape);
    EXPECT_EQ(eq_bytes(v, hdlc::kFlag) != 0, b == hdlc::kFlag);
    EXPECT_EQ(lt_bytes(v, 0x20) != 0, b < 0x20);
  }
}

TEST(Swar, FindNextEscapeMatchesScalarScan) {
  Xoshiro256 rng(5);
  for (const Accm accm : {Accm::sonet(), Accm::async_default(), Accm(0x000A0005u)}) {
    for (int trial = 0; trial < 200; ++trial) {
      const Bytes data = escape_mix(rng, rng.range(0, 64), 0.15);
      std::size_t expected = data.size();
      for (std::size_t i = 0; i < data.size(); ++i)
        if (accm.must_escape(data[i])) {
          expected = i;
          break;
        }
      EXPECT_EQ(find_next_escape(data.data(), 0, data.size(), accm), expected);
    }
  }
}

// ---------------------------------------------------------------- stuffing

class StuffDensity : public ::testing::TestWithParam<double> {};

TEST_P(StuffDensity, SwarStuffByteIdenticalToScalar) {
  const double density = GetParam();
  Xoshiro256 rng(6);
  for (const Accm accm : {Accm::sonet(), Accm::async_default()}) {
    // Every boundary length 1..16, then a spread of larger sizes.
    for (std::size_t len = 1; len <= 16; ++len) {
      const Bytes p = escape_mix(rng, len, density);
      EXPECT_EQ(hdlc::stuff(p, accm), scalar::stuff(p, accm)) << "len " << len;
    }
    for (const std::size_t len : {64u, 255u, 1500u, 9000u}) {
      const Bytes p = escape_mix(rng, len, density);
      const Bytes fast = hdlc::stuff(p, accm);
      EXPECT_EQ(fast, scalar::stuff(p, accm)) << "len " << len;

      // Round trip back through the SWAR destuffer.
      const auto rt = hdlc::destuff(fast);
      EXPECT_TRUE(rt.ok);
      EXPECT_EQ(rt.data, p);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Densities, StuffDensity, ::testing::Values(0.0, 1.0 / 128, 0.25, 1.0));

TEST(Stuff, RandomAccmMasksByteIdenticalToScalar) {
  // The SWAR stuffer takes a different path when the negotiated ACCM maps
  // any control characters (accm.map() != 0): the word scan must then flag
  // bytes < 0x20 and filter them through the mask, not just flag/escape.
  // Fuzz that branch across random masks, plus the two extremes: the empty
  // map (PPP-over-SONET, no controls escaped) and the all-controls map.
  Xoshiro256 rng(20);
  std::vector<Accm> masks = {Accm(0), Accm(0xFFFFFFFFu)};
  for (int i = 0; i < 14; ++i) masks.emplace_back(static_cast<u32>(rng.next()));
  for (const Accm accm : masks) {
    for (int trial = 0; trial < 40; ++trial) {
      // High control-character density so random masks actually get hits.
      const Bytes p = escape_mix(rng, rng.range(0, 300), 0.35);
      const Bytes expected = scalar::stuff(p, accm);

      const Bytes fast = hdlc::stuff(p, accm);
      EXPECT_EQ(fast, expected) << "map 0x" << std::hex << accm.map();

      // The fused CRC+stuff pass shares the same escape scan.
      Bytes fused;
      const u32 state =
          stuff_crc_append(fused, p, accm, crc::fcs32().slicer(), crc::kFcs32.init);
      EXPECT_EQ(fused, expected);
      EXPECT_EQ(state, crc::fcs32().update(crc::kFcs32.init, p));

      // Destuffing is mask-independent; any stuffed stream must round-trip.
      const auto rt = hdlc::destuff(fast);
      EXPECT_TRUE(rt.ok);
      EXPECT_EQ(rt.data, p);
    }
  }
}

TEST(Stuff, AllControlsMaskEscapesEveryControlByte) {
  // Deterministic spot-check at the byte level: with the full map every
  // value below 0x20 is escaped, with the empty map none are.
  Bytes controls;
  for (u8 b = 0; b < 0x20; ++b) controls.push_back(b);
  EXPECT_EQ(hdlc::stuff(controls, Accm(0xFFFFFFFFu)).size(), 2 * controls.size());
  EXPECT_EQ(hdlc::stuff(controls, Accm(0)).size(), controls.size());
  // A one-bit map escapes exactly its own character.
  const Bytes once = hdlc::stuff(controls, Accm(1u << 17));
  EXPECT_EQ(once.size(), controls.size() + 1);
  EXPECT_EQ(once, scalar::stuff(controls, Accm(1u << 17)));
}

TEST(Destuff, MatchesScalarIncludingMalformedInput) {
  Xoshiro256 rng(7);
  for (int trial = 0; trial < 300; ++trial) {
    // Raw random bytes (no flags): arbitrary escape placement, including
    // trailing and doubled escapes.
    Bytes data = escape_mix(rng, rng.range(1, 40), 0.3);
    if (rng.chance(0.3)) data.push_back(hdlc::kEscape);  // force dangling case
    const auto fast = hdlc::destuff(data);
    const auto [ref, ok] = scalar::destuff(data);
    EXPECT_EQ(fast.data, ref);
    EXPECT_EQ(fast.ok, ok);
  }
}

TEST(Stuff, AllEscapePayloadReservesExactly) {
  // The seed under-reserved (size + size/8) and reallocated mid-loop on
  // all-escape payloads; the fast path reserves exactly once.
  const Bytes p(4096, hdlc::kFlag);
  const Bytes out = hdlc::stuff(p);
  EXPECT_EQ(out.size(), 2 * p.size());
}

// ---------------------------------------------------------------- fused framer

std::vector<hdlc::FrameConfig> config_matrix() {
  std::vector<hdlc::FrameConfig> cfgs;
  for (const bool acfc : {false, true})
    for (const bool pfc : {false, true})
      for (const auto fcs : {hdlc::FcsKind::kFcs16, hdlc::FcsKind::kFcs32})
        for (const Accm accm : {Accm::sonet(), Accm::async_default()}) {
          hdlc::FrameConfig cfg;
          cfg.acfc = acfc;
          cfg.pfc = pfc;
          cfg.fcs = fcs;
          cfg.accm = accm;
          cfg.max_payload = 9216;
          cfgs.push_back(cfg);
        }
  return cfgs;
}

TEST(EncodeInto, WireIdenticalToSeedEncapsulateThenStuff) {
  Xoshiro256 rng(8);
  hdlc::FrameArena arena;
  for (const auto& cfg : config_matrix()) {
    for (const u16 protocol : {u16{0x0021}, u16{0xC021}, u16{0x8021}}) {
      for (const std::size_t len : {0u, 1u, 2u, 7u, 8u, 9u, 15u, 16u, 64u, 1500u}) {
        const Bytes payload = escape_mix(rng, len, 0.2);
        // Seed path: encapsulate (header+payload+FCS) then scalar stuff,
        // then flags.
        Bytes expected;
        expected.push_back(hdlc::kFlag);
        append(expected, scalar::stuff(hdlc::encapsulate(cfg, protocol, payload), cfg.accm));
        expected.push_back(hdlc::kFlag);

        const BytesView wire = hdlc::encode_into(arena, cfg, protocol, payload);
        EXPECT_EQ(Bytes(wire.begin(), wire.end()), expected)
            << "len " << len << " proto " << protocol;
      }
    }
  }
}

TEST(EncodeInto, BuildWireFrameStaysEquivalent) {
  Xoshiro256 rng(9);
  hdlc::FrameArena arena;
  hdlc::FrameConfig cfg;
  for (int trial = 0; trial < 50; ++trial) {
    const Bytes payload = escape_mix(rng, rng.range(1, 1500), 0.1);
    const BytesView wire = hdlc::encode_into(arena, cfg, 0x0021, payload);
    EXPECT_EQ(hdlc::build_wire_frame(cfg, 0x0021, payload), Bytes(wire.begin(), wire.end()));
  }
}

TEST(EncodeInto, SteadyStateDoesNotReallocate) {
  Xoshiro256 rng(10);
  hdlc::FrameArena arena;
  hdlc::FrameConfig cfg;
  // Warm the arena with the worst-case frame for this size.
  (void)hdlc::encode_into(arena, cfg, 0x0021, Bytes(1500, hdlc::kFlag));
  const u8* data = arena.wire().data();
  const std::size_t cap = arena.wire().capacity();
  for (int frame = 0; frame < 100; ++frame) {
    const Bytes payload = escape_mix(rng, 1500, 0.3);
    (void)hdlc::encode_into(arena, cfg, 0x0021, payload);
    ASSERT_EQ(arena.wire().data(), data) << "arena reallocated on frame " << frame;
    ASSERT_EQ(arena.wire().capacity(), cap);
  }
}

TEST(StuffCrcAppend, FusedStateMatchesSeparatePasses) {
  Xoshiro256 rng(11);
  for (int trial = 0; trial < 100; ++trial) {
    const Bytes data = escape_mix(rng, rng.range(0, 600), 0.2);
    Bytes fused_out;
    const u32 fused_state = stuff_crc_append(fused_out, data, Accm::sonet(),
                                             crc::fcs32().slicer(), crc::kFcs32.init);
    EXPECT_EQ(fused_out, scalar::stuff(data));
    EXPECT_EQ(fused_state, crc::fcs32().update(crc::kFcs32.init, data));
  }
}

// ---------------------------------------------------------------- scramblers

TEST(FrameScramblerTable, MatchesBitSerialReference) {
  sonet::FrameScrambler fast;
  fast.reset();
  u8 state = 0x7F;
  for (int i = 0; i < 1000; ++i)
    ASSERT_EQ(fast.next_keystream(), scalar::frame_keystream_bitserial(state)) << "byte " << i;
}

TEST(FrameScramblerTable, EveryStateTransitionMatchesBitSerial) {
  const auto& table = frame_scrambler_steps();
  for (u32 s = 0; s < 128; ++s) {
    u8 state = static_cast<u8>(s);
    const u8 out = scalar::frame_keystream_bitserial(state);
    EXPECT_EQ(table[s].keystream, out) << "state " << s;
    EXPECT_EQ(table[s].next, state) << "state " << s;
  }
}

TEST(SelfSync43, ByteParallelMatchesBitSerialBothDirections) {
  Xoshiro256 rng(12);
  sonet::SelfSyncScrambler43 fast_scr, fast_dscr;
  u64 ref_scr = 0, ref_dscr = 0;
  for (int i = 0; i < 5000; ++i) {
    const u8 b = rng.byte();
    ASSERT_EQ(fast_scr.scramble(b), scalar::selfsync_scramble_bitserial(ref_scr, b)) << i;
    ASSERT_EQ(fast_dscr.descramble(b), scalar::selfsync_descramble_bitserial(ref_dscr, b)) << i;
  }
}

TEST(SelfSync43, InPlaceRoundTripAndMidStreamResync) {
  Xoshiro256 rng(13);
  sonet::SelfSyncScrambler43 scr, dscr;
  Bytes data = rng.bytes(2000);
  const Bytes original = data;
  scr.scramble_in_place(data);
  EXPECT_NE(data, original);

  // Descrambler that joins mid-stream recovers after 43 bits (6 octets).
  Bytes tail(data.begin() + 100, data.end());
  dscr.descramble_in_place(tail);
  EXPECT_TRUE(std::equal(tail.begin() + 6, tail.end(), original.begin() + 106));
}

// ---------------------------------------------------------------- escape engine

// Every tier this host can dispatch must be byte-identical to the scalar
// reference on both directions, across densities, ACCMs, and the window
// boundary lengths where the vector kernels switch modes.
TEST(EscapeEngine, EveryAvailableTierMatchesScalarAcrossDensities) {
  Xoshiro256 rng(21);
  for (const EscapeTier tier : available_tiers()) {
    for (const Accm accm : {Accm::sonet(), Accm::async_default()}) {
      const EscapeEngine eng(accm, tier);
      ASSERT_EQ(eng.tier(), tier);
      for (const double density : {0.0, 1.0 / 128, 0.25, 1.0}) {
        for (const std::size_t len :
             {1u, 15u, 16u, 17u, 31u, 32u, 33u, 63u, 64u, 65u, 127u, 128u, 129u, 255u, 1500u}) {
          const Bytes p = escape_mix(rng, len, density);
          const Bytes want = scalar::stuff(p, accm);
          Bytes got;
          got.reserve(2 * p.size() + kStuffSlack);
          eng.stuff_append(got, p);
          ASSERT_EQ(got, want) << to_string(tier) << " stuff len " << len;

          Bytes back;
          back.reserve(got.size() + kStuffSlack);
          ASSERT_TRUE(eng.destuff_append(back, got)) << to_string(tier);
          ASSERT_EQ(back, p) << to_string(tier) << " destuff len " << len;
        }
      }
    }
  }
}

// Dangling-escape verdicts (and the partial output retained before the
// abort) must be tier-independent. Besides random streams ending in a bare
// 0x7D, 0x41 + 0x7E x k stuffs to markers on every odd octet: k = 32 and 64
// put one on octet 63 or 127, so the pending escape crosses a 64-octet
// window, and cutting the last octet leaves the dangling escape on the edge.
TEST(EscapeEngine, DanglingEscapeVerdictMatchesScalarAtEveryTier) {
  Xoshiro256 rng(22);
  std::vector<Bytes> edges;
  for (const std::size_t k : {31u, 32u, 63u, 64u}) {
    Bytes payload{0x41};
    payload.insert(payload.end(), k, hdlc::kFlag);
    edges.push_back(hdlc::stuff(payload));
    edges.push_back(edges.back());
    edges.back().pop_back();
  }
  for (const EscapeTier tier : available_tiers()) {
    const EscapeEngine eng(Accm::sonet(), tier);
    std::vector<Bytes> inputs = edges;
    for (int i = 0; i < 50; ++i) {
      inputs.push_back(hdlc::stuff(escape_mix(rng, rng.below(96), 0.1)));
      inputs.back().push_back(hdlc::kEscape);
    }
    for (const Bytes& stuffed : inputs) {
      const auto [want, want_ok] = scalar::destuff(stuffed);
      Bytes got;
      got.reserve(stuffed.size() + kStuffSlack);
      const bool got_ok = eng.destuff_append(got, stuffed);
      ASSERT_EQ(got_ok, want_ok) << to_string(tier) << " len " << stuffed.size();
      ASSERT_EQ(got, want) << to_string(tier) << " len " << stuffed.size();
    }
  }
}

// The fused stuff+CRC kernel must leave the same CRC state and wire bytes
// as separate passes, at every tier.
TEST(EscapeEngine, FusedStuffCrcMatchesSeparatePassesAtEveryTier) {
  Xoshiro256 rng(23);
  const SliceCrc crc(crc::kFcs32);
  for (const EscapeTier tier : available_tiers()) {
    const EscapeEngine eng(Accm::sonet(), tier);
    for (const std::size_t len : {3u, 17u, 64u, 700u}) {
      const Bytes p = escape_mix(rng, len, 0.2);
      Bytes fused;
      fused.reserve(2 * p.size() + kStuffSlack);
      const u32 state = eng.stuff_crc_append(fused, p, crc, crc::kFcs32.init);
      EXPECT_EQ(state, crc.update(crc::kFcs32.init, p)) << to_string(tier);
      EXPECT_EQ(fused, scalar::stuff(p, Accm::sonet())) << to_string(tier);
    }
  }
}

// Dispatch-tier bookkeeping: sub-cutoff inputs take the scalar path and the
// counters attribute each call to the tier that actually ran.
TEST(EscapeEngine, SmallFrameCutoffRoutesToScalarAndCountersTrack) {
  const EscapeEngine eng(Accm::sonet());
  eng.reset_counters();
  Bytes out;
  const Bytes tiny(kSmallFrameCutoff - 1, 0x7E);
  eng.stuff_append(out, tiny);
  EXPECT_EQ(eng.counters().scalar_calls, 1u);

  const Bytes big(1500, 0x42);
  out.clear();
  out.reserve(2 * big.size() + kStuffSlack);
  eng.stuff_append(out, big);
  const TierCounters& c = eng.counters();
  if (eng.tier() == EscapeTier::kScalar) {
    EXPECT_EQ(c.scalar_calls, 2u);
  } else if (eng.tier() == EscapeTier::kSwar) {
    EXPECT_EQ(c.swar_calls, 1u);
  } else {
    EXPECT_EQ(c.simd_calls, 1u);
    EXPECT_GT(c.clean_windows, 0u);  // the all-clean 1500B frame
  }
}

// Batched framing: the concatenated batch must be frame-for-frame identical
// to the single-frame fused encoder, including per-frame address overrides.
TEST(EscapeEngine, EncodeBatchMatchesPerFrameEncode) {
  Xoshiro256 rng(24);
  hdlc::FrameConfig cfg;
  std::vector<Bytes> payloads;
  std::vector<hdlc::BatchFrame> frames;
  for (int i = 0; i < 12; ++i) {
    payloads.push_back(escape_mix(rng, 1 + rng.below(200), 0.1));
    hdlc::BatchFrame f;
    f.protocol = 0x0021;
    f.payload = payloads.back();
    if (i % 3 == 0) f.address = static_cast<u8>(0x03 + 2 * i);
    frames.push_back(f);
  }

  hdlc::FrameArena batch_arena;
  const BytesView stream = hdlc::encode_batch_into(batch_arena, cfg, frames);

  // Each single-frame image must be the next slice of the batch stream.
  hdlc::FrameArena single_arena;
  std::size_t off = 0;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    hdlc::FrameConfig fcfg = cfg;
    if (frames[i].address) fcfg.address = *frames[i].address;
    const BytesView want = hdlc::encode_into(single_arena, fcfg, frames[i].protocol,
                                             payloads[i]);
    ASSERT_LE(off + want.size(), stream.size()) << "frame " << i;
    ASSERT_TRUE(std::equal(want.begin(), want.end(), stream.begin() + off)) << "frame " << i;
    off += want.size();
  }
  EXPECT_EQ(off, stream.size());
}

}  // namespace
}  // namespace p5::fastpath
