// HDLC-like framing substrate tests: octet stuffing (golden model), frame
// assembly/parse with the paper's programmability knobs, and the flag
// delineation state machine.
#include <gtest/gtest.h>

#include <functional>

#include "common/rng.hpp"
#include "hdlc/accm.hpp"
#include "hdlc/delineation.hpp"
#include "hdlc/frame.hpp"
#include "hdlc/stuffing.hpp"

namespace p5::hdlc {
namespace {

// ---- ACCM ----

TEST(Accm, SonetEscapesOnlyFlagAndEscape) {
  const Accm a = Accm::sonet();
  EXPECT_TRUE(a.must_escape(kFlag));
  EXPECT_TRUE(a.must_escape(kEscape));
  EXPECT_FALSE(a.must_escape(0x00));
  EXPECT_FALSE(a.must_escape(0x1F));
  EXPECT_FALSE(a.must_escape('A'));
}

TEST(Accm, AsyncDefaultEscapesControls) {
  const Accm a = Accm::async_default();
  for (u8 c = 0; c < 0x20; ++c) EXPECT_TRUE(a.must_escape(c)) << int(c);
  EXPECT_FALSE(a.must_escape(0x20));
}

TEST(Accm, SelectiveMap) {
  const Accm a(u32{1} << 0x11);
  EXPECT_TRUE(a.must_escape(0x11));
  EXPECT_FALSE(a.must_escape(0x12));
}

// ---- stuffing ----

TEST(Stuffing, PaperExample) {
  // Paper Section 2: 31 33 7E 96 -> 31 33 7D 5E 96.
  const Bytes in{0x31, 0x33, 0x7E, 0x96};
  const Bytes expect{0x31, 0x33, 0x7D, 0x5E, 0x96};
  EXPECT_EQ(stuff(in), expect);
}

TEST(Stuffing, EscapesTheEscape) {
  const Bytes in{0x7D};
  const Bytes expect{0x7D, 0x5D};
  EXPECT_EQ(stuff(in), expect);
}

TEST(Stuffing, NoFlagsRemain) {
  Xoshiro256 rng(1);
  for (int t = 0; t < 50; ++t) {
    const Bytes out = stuff(rng.bytes(500));
    for (const u8 b : out) EXPECT_NE(b, kFlag);
  }
}

TEST(Stuffing, RoundTripRandom) {
  Xoshiro256 rng(2);
  for (int t = 0; t < 200; ++t) {
    const Bytes in = rng.bytes(rng.range(0, 400));
    const DestuffResult r = destuff(stuff(in));
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.data, in);
  }
}

TEST(Stuffing, RoundTripAllFlags) {
  const Bytes in(64, kFlag);
  const Bytes out = stuff(in);
  EXPECT_EQ(out.size(), 128u);  // every octet doubles
  const DestuffResult r = destuff(out);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.data, in);
}

TEST(Stuffing, RoundTripWithAccm) {
  Xoshiro256 rng(3);
  const Accm accm = Accm::async_default();
  for (int t = 0; t < 50; ++t) {
    const Bytes in = rng.bytes(200);
    const Bytes wire = stuff(in, accm);
    for (const u8 b : wire) EXPECT_FALSE(b < 0x20);  // all controls escaped
    const DestuffResult r = destuff(wire);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.data, in);
  }
}

TEST(Stuffing, ExpansionCountMatches) {
  Xoshiro256 rng(4);
  for (int t = 0; t < 50; ++t) {
    const Bytes in = rng.bytes(300);
    EXPECT_EQ(stuff(in).size(), in.size() + stuffing_expansion(in));
  }
}

TEST(Stuffing, DanglingEscapeFails) {
  const Bytes bad{0x12, 0x7D};
  EXPECT_FALSE(destuff(bad).ok);
}

TEST(Stuffing, EmptyInput) {
  EXPECT_TRUE(stuff({}).empty());
  EXPECT_TRUE(destuff({}).ok);
}

// ---- frames ----

TEST(Frame, EncapsulateDefaultHeader) {
  const FrameConfig cfg;
  const Bytes payload{0xAA, 0xBB};
  const Bytes content = encapsulate(cfg, 0x0021, payload);
  ASSERT_GE(content.size(), 8u);
  EXPECT_EQ(content[0], 0xFF);  // address
  EXPECT_EQ(content[1], 0x03);  // control
  EXPECT_EQ(get_be16(content, 2), 0x0021);
  EXPECT_EQ(content.size(), 2u + 2u + 2u + 4u);  // hdr + proto + payload + fcs32
}

TEST(Frame, ParseRoundTrip) {
  const FrameConfig cfg;
  Xoshiro256 rng(5);
  for (int t = 0; t < 100; ++t) {
    const Bytes payload = rng.bytes(rng.range(0, 1500));
    const Bytes content = encapsulate(cfg, 0x0021, payload);
    const ParseResult r = parse(cfg, content);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.frame->protocol, 0x0021);
    EXPECT_EQ(r.frame->payload, payload);
  }
}

TEST(Frame, Fcs16RoundTrip) {
  FrameConfig cfg;
  cfg.fcs = FcsKind::kFcs16;
  const Bytes content = encapsulate(cfg, 0xC021, Bytes{1, 2, 3});
  const ParseResult r = parse(cfg, content);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.frame->protocol, 0xC021);
}

TEST(Frame, CorruptionDetected) {
  const FrameConfig cfg;
  Bytes content = encapsulate(cfg, 0x0021, Bytes{9, 9, 9});
  content[4] ^= 0x01;
  const ParseResult r = parse(cfg, content);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error, ParseError::kBadFcs);
}

TEST(Frame, MaposAddressFilter) {
  FrameConfig tx_cfg;
  tx_cfg.address = 0x04;  // MAPOS unicast address
  FrameConfig rx_other = tx_cfg;
  rx_other.address = 0x08;
  const Bytes content = encapsulate(tx_cfg, 0x0021, Bytes{1});
  EXPECT_TRUE(parse(tx_cfg, content).ok());
  const ParseResult r = parse(rx_other, content);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error, ParseError::kBadAddress);
}

TEST(Frame, AcfcCompressedHeader) {
  FrameConfig cfg;
  cfg.acfc = true;
  const Bytes content = encapsulate(cfg, 0x0021, Bytes{5, 6});
  EXPECT_EQ(get_be16(content, 0), 0x0021);  // no addr/ctrl
  const ParseResult r = parse(cfg, content);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.frame->payload, (Bytes{5, 6}));
}

TEST(Frame, AcfcReceiverAcceptsUncompressed) {
  FrameConfig tx;
  FrameConfig rx;
  rx.acfc = true;  // ACFC negotiated, peer still sends the header
  const Bytes content = encapsulate(tx, 0x0021, Bytes{7});
  const ParseResult r = parse(rx, content);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.frame->payload, (Bytes{7}));
}

TEST(Frame, PfcSingleOctetProtocol) {
  FrameConfig cfg;
  cfg.pfc = true;
  const Bytes content = encapsulate(cfg, 0x0021, Bytes{});
  // 0x21 is odd -> compressed to one octet.
  EXPECT_EQ(content[2], 0x21);
  const ParseResult r = parse(cfg, content);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.frame->protocol, 0x21);
}

TEST(Frame, TooShortRejected) {
  const FrameConfig cfg;
  const ParseResult r = parse(cfg, Bytes{1, 2, 3});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error, ParseError::kTooShort);
}

TEST(Frame, WireFrameHasFlagsOnlyAtEnds) {
  const FrameConfig cfg;
  Xoshiro256 rng(6);
  const Bytes wire = build_wire_frame(cfg, 0x0021, rng.bytes(100));
  EXPECT_EQ(wire.front(), kFlag);
  EXPECT_EQ(wire.back(), kFlag);
  for (std::size_t i = 1; i + 1 < wire.size(); ++i) EXPECT_NE(wire[i], kFlag);
}

// ---- delineation ----

class Collector {
 public:
  std::vector<Bytes> frames;
  Delineator d{[this](BytesView f) { frames.emplace_back(f.begin(), f.end()); }};
};

TEST(Delineation, SingleFrame) {
  Collector c;
  const FrameConfig cfg;
  c.d.push(build_wire_frame(cfg, 0x0021, Bytes{1, 2, 3, 4}));
  ASSERT_EQ(c.frames.size(), 1u);
  EXPECT_TRUE(parse(cfg, destuff(c.frames[0]).data).ok());
}

TEST(Delineation, BackToBackFramesSharedFlag) {
  Collector c;
  // frame1 | shared flag | frame2
  c.d.push(Bytes{kFlag, 1, 2, 3, 4, 5, kFlag, 6, 7, 8, 9, 10, kFlag});
  ASSERT_EQ(c.frames.size(), 2u);
  EXPECT_EQ(c.frames[0], (Bytes{1, 2, 3, 4, 5}));
  EXPECT_EQ(c.frames[1], (Bytes{6, 7, 8, 9, 10}));
}

TEST(Delineation, InterFrameFillSkipped) {
  Collector c;
  c.d.push(Bytes{kFlag, kFlag, kFlag, 1, 2, 3, 4, 5, kFlag, kFlag});
  EXPECT_EQ(c.frames.size(), 1u);
  EXPECT_EQ(c.d.stats().frames, 1u);
}

TEST(Delineation, LeadingGarbageDiscarded) {
  Collector c;
  c.d.push(Bytes{0xAA, 0xBB, 0xCC, kFlag, 1, 2, 3, 4, 5, kFlag});
  ASSERT_EQ(c.frames.size(), 1u);
  EXPECT_EQ(c.frames[0].size(), 5u);
}

TEST(Delineation, AbortSequenceCounted) {
  Collector c;
  // 0x7D immediately before the closing flag = transmitter abort.
  c.d.push(Bytes{kFlag, 1, 2, 3, 4, kEscape, kFlag});
  EXPECT_EQ(c.frames.size(), 0u);
  EXPECT_EQ(c.d.stats().aborts, 1u);
}

TEST(Delineation, RuntDiscardedSilently) {
  Collector c;
  c.d.push(Bytes{kFlag, 1, 2, kFlag});
  EXPECT_EQ(c.frames.size(), 0u);
  EXPECT_EQ(c.d.stats().runts, 1u);
}

TEST(Delineation, OversizeDropsAndResyncs) {
  Collector cbig;
  Delineator d([&cbig](BytesView f) { cbig.frames.emplace_back(f.begin(), f.end()); }, 4, 64);
  Bytes stream{kFlag};
  for (int i = 0; i < 200; ++i) stream.push_back(0x11);  // runaway frame
  stream.push_back(kFlag);
  stream.insert(stream.end(), {1, 2, 3, 4, 5});
  stream.push_back(kFlag);
  d.push(stream);
  ASSERT_EQ(cbig.frames.size(), 1u);
  EXPECT_EQ(cbig.frames[0], (Bytes{1, 2, 3, 4, 5}));
  EXPECT_EQ(d.stats().oversize, 1u);
}

TEST(Delineation, FlushDropsPartial) {
  Collector c;
  c.d.push(Bytes{kFlag, 1, 2, 3});
  c.d.flush();
  EXPECT_EQ(c.frames.size(), 0u);
  EXPECT_EQ(c.d.stats().runts, 1u);
  // After flush the delineator hunts again.
  c.d.push(Bytes{4, 5, kFlag, 9, 9, 9, 9, 9, kFlag});
  EXPECT_EQ(c.frames.size(), 1u);
}

TEST(Delineation, ManyRandomFramesRecovered) {
  const FrameConfig cfg;
  Xoshiro256 rng(8);
  std::vector<Bytes> sent;
  Bytes stream;
  for (int i = 0; i < 100; ++i) {
    const Bytes payload = rng.bytes(rng.range(1, 300));
    sent.push_back(payload);
    append(stream, build_wire_frame(cfg, 0x0021, payload));
    for (u64 f = rng.below(3); f > 0; --f) stream.push_back(kFlag);
  }
  std::vector<Bytes> got;
  Delineator d([&](BytesView f) {
    const auto r = parse(cfg, destuff(f).data);
    ASSERT_TRUE(r.ok());
    got.push_back(r.frame->payload);
  });
  d.push(stream);
  EXPECT_EQ(got, sent);
}

TEST(Delineation, RecoversAfterCorruption) {
  const FrameConfig cfg;
  Bytes stream = build_wire_frame(cfg, 0x0021, Bytes(50, 0x42));
  stream[10] = kFlag;  // corruption splits the frame
  Bytes clean = build_wire_frame(cfg, 0x0021, Bytes(60, 0x17));
  append(stream, clean);
  int good = 0;
  Delineator d([&](BytesView f) {
    if (parse(cfg, destuff(f).data).ok()) ++good;
  });
  d.push(stream);
  EXPECT_EQ(good, 1);  // the clean frame still gets through
}

/// Everything a Delineator hands out: each sink call's frame and the stats,
/// plus how many frames arrived as views into the pushed stream itself.
struct DelineatorRun {
  std::vector<Bytes> frames;
  DelineatorStats stats;
  std::size_t in_span = 0;
};

TEST(Delineation, SplitInvariance) {
  // Fill, an abort (7D 7E), runts, garbage before the first flag, and frames
  // of exactly max_frame and max_frame + 1 octets, pushed whole, one octet
  // at a time and at seeded random split points: the same frames reach the
  // sink and the stats agree, whichever path (in-span view or accumulated
  // copy) each frame took.
  constexpr std::size_t kMax = 96;
  Xoshiro256 rng(77);
  const auto body = [&](std::size_t n) {
    Bytes b;
    while (b.size() < n) {
      const u8 o = rng.byte();
      if (o != kFlag && o != kEscape) b.push_back(o);
    }
    return b;
  };
  Bytes stream = body(9);  // garbage before the first flag
  for (int round = 0; round < 6; ++round) {
    stream.insert(stream.end(), 1 + rng.below(40), kFlag);  // fill, often a word or more
    append(stream, body(kMax));
    stream.push_back(kFlag);
    append(stream, body(kMax + 1));  // oversize
    stream.push_back(kFlag);
    append(stream, body(1 + rng.below(3)));  // runt
    stream.push_back(kFlag);
    append(stream, body(10 + rng.below(40)));
    stream.push_back(kEscape);  // abort
    stream.push_back(kFlag);
    for (int f = 0; f < 4; ++f) {
      append(stream, body(4 + rng.below(kMax - 4)));
      stream.push_back(kFlag);
    }
  }
  append(stream, body(20));  // left open at the end

  const auto in_stream = [&](const u8* p) {
    const std::less<const u8*> before;
    return !before(p, stream.data()) && before(p, stream.data() + stream.size());
  };
  const auto run = [&](auto&& feed) {
    DelineatorRun r;
    Delineator d([&](BytesView f) {
      r.frames.emplace_back(f.begin(), f.end());
      if (in_stream(f.data())) ++r.in_span;
    }, 4, kMax);
    feed(d);
    r.stats = d.stats();
    return r;
  };
  const DelineatorRun whole = run([&](Delineator& d) { d.push(stream); });
  const DelineatorRun octets = run([&](Delineator& d) {
    for (const u8 b : stream) d.push(b);
  });
  const DelineatorRun split = run([&](Delineator& d) {
    Xoshiro256 cut(78);
    for (std::size_t i = 0; i < stream.size();) {
      const std::size_t n = std::min<std::size_t>(cut.below(2 * kMax), stream.size() - i);
      d.push(BytesView(stream).subspan(i, n));
      i += n;
    }
  });

  EXPECT_EQ(whole.stats, octets.stats);
  EXPECT_EQ(split.stats, octets.stats);
  EXPECT_EQ(whole.frames, octets.frames);
  EXPECT_EQ(split.frames, octets.frames);
  EXPECT_EQ(octets.stats.frames, 6u * 5u);
  EXPECT_EQ(octets.stats.oversize, 6u);
  EXPECT_EQ(octets.stats.runts, 6u);
  EXPECT_EQ(octets.stats.aborts, 6u);
  EXPECT_EQ(octets.stats.octets, stream.size());
  // Pushed whole, every frame lies inside the span and is handed out as a
  // view of it; octet by octet, every frame is accumulated; split pushes mix.
  EXPECT_EQ(whole.in_span, whole.frames.size());
  EXPECT_EQ(octets.in_span, 0u);
  EXPECT_GT(split.in_span, 0u);
  EXPECT_LT(split.in_span, split.frames.size());
}

}  // namespace
}  // namespace p5::hdlc
