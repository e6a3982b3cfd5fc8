// Workload substrate tests: IPv4 codec and the traffic generators that
// drive the throughput/buffer experiments.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "hdlc/accm.hpp"
#include "net/ipv4.hpp"
#include "net/traffic.hpp"

namespace p5::net {
namespace {

TEST(Ipv4, ChecksumKnownVector) {
  // Classic RFC 1071 example words.
  const Bytes data{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  const u16 sum = internet_checksum(data);
  // Verify the defining property instead of a magic constant: appending the
  // checksum makes the total sum 0xFFFF (ones-complement zero).
  Bytes with_sum = data;
  with_sum.push_back(static_cast<u8>(sum >> 8));
  with_sum.push_back(static_cast<u8>(sum));
  EXPECT_EQ(internet_checksum(with_sum), 0u);
}

TEST(Ipv4, BuildParseRoundTrip) {
  Xoshiro256 rng(1);
  for (int t = 0; t < 100; ++t) {
    Ipv4Header h;
    h.tos = rng.byte();
    h.identification = static_cast<u16>(rng.next());
    h.ttl = static_cast<u8>(rng.range(1, 255));
    h.protocol = rng.byte();
    h.src = static_cast<u32>(rng.next());
    h.dst = static_cast<u32>(rng.next());
    const Bytes payload = rng.bytes(rng.range(0, 1480));
    const Bytes dgram = build_datagram(h, payload);
    const auto parsed = parse_datagram(dgram);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->header.src, h.src);
    EXPECT_EQ(parsed->header.dst, h.dst);
    EXPECT_EQ(parsed->header.protocol, h.protocol);
    EXPECT_EQ(parsed->payload, payload);
  }
}

TEST(Ipv4, HeaderCorruptionRejected) {
  const Bytes dgram = build_datagram(Ipv4Header{}, Bytes{1, 2, 3});
  for (std::size_t i = 0; i < kIpv4HeaderBytes; ++i) {
    Bytes bad = dgram;
    bad[i] ^= 0x40;
    // Flipping any header bit must break version, length or checksum.
    EXPECT_FALSE(parse_datagram(bad).has_value()) << "byte " << i;
  }
}

TEST(Ipv4, TruncatedRejected) {
  const Bytes dgram = build_datagram(Ipv4Header{}, Bytes(100, 7));
  EXPECT_FALSE(parse_datagram(BytesView(dgram).subspan(0, 19)).has_value());
}

TEST(Ipv4, TotalLengthHonoured) {
  Bytes dgram = build_datagram(Ipv4Header{}, Bytes{1, 2, 3, 4});
  dgram.push_back(0xEE);  // trailing link-layer padding
  const auto parsed = parse_datagram(dgram);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->payload.size(), 4u);
}

// ---- traffic generators ----

TEST(Traffic, DeterministicAcrossRuns) {
  TrafficSpec spec;
  spec.seed = 99;
  TrafficGenerator a(spec), b(spec);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(a.next_datagram(), b.next_datagram());
}

TEST(Traffic, LengthsWithinBounds) {
  TrafficSpec spec;
  spec.min_len = 64;
  spec.max_len = 256;
  TrafficGenerator gen(spec);
  for (int i = 0; i < 200; ++i) {
    const Bytes d = gen.next_datagram();
    EXPECT_GE(d.size(), 64u);
    EXPECT_LE(d.size(), 256u);
    EXPECT_TRUE(parse_datagram(d).has_value());
  }
}

TEST(Traffic, AsciiPatternHasNoEscapes) {
  TrafficSpec spec;
  spec.pattern = PayloadPattern::kAscii;
  TrafficGenerator gen(spec);
  const Bytes p = gen.payload(5000);
  for (const u8 b : p) {
    EXPECT_NE(b, hdlc::kFlag);
    EXPECT_NE(b, hdlc::kEscape);
  }
}

TEST(Traffic, AllFlagsPattern) {
  TrafficSpec spec;
  spec.pattern = PayloadPattern::kAllFlags;
  TrafficGenerator gen(spec);
  for (const u8 b : gen.payload(100)) EXPECT_EQ(b, hdlc::kFlag);
}

TEST(Traffic, FlagDenseDensityApproximatelyMet) {
  for (const double density : {0.1, 0.5, 0.9}) {
    TrafficSpec spec;
    spec.pattern = PayloadPattern::kFlagDense;
    spec.escape_density = density;
    spec.seed = 7;
    TrafficGenerator gen(spec);
    const Bytes p = gen.payload(20000);
    std::size_t escapes = 0;
    for (const u8 b : p)
      if (b == hdlc::kFlag || b == hdlc::kEscape) ++escapes;
    EXPECT_NEAR(static_cast<double>(escapes) / p.size(), density, 0.03);
  }
}

TEST(Traffic, UniformEscapeDensityIsTwoIn256) {
  TrafficSpec spec;
  spec.seed = 3;
  TrafficGenerator gen(spec);
  const Bytes p = gen.payload(100000);
  std::size_t escapes = 0;
  for (const u8 b : p)
    if (b == hdlc::kFlag || b == hdlc::kEscape) ++escapes;
  EXPECT_NEAR(static_cast<double>(escapes) / p.size(), 2.0 / 256.0, 0.002);
}

TEST(Traffic, IncrementingPatternIsSequential) {
  TrafficSpec spec;
  spec.pattern = PayloadPattern::kIncrementing;
  TrafficGenerator gen(spec);
  const Bytes p = gen.payload(300);
  for (std::size_t i = 1; i < p.size(); ++i)
    EXPECT_EQ(p[i], static_cast<u8>(p[i - 1] + 1));
}

TEST(Traffic, ImixMixesThreeSizes) {
  ImixGenerator gen(5);
  std::size_t n40 = 0, n576 = 0, n1500 = 0;
  for (int i = 0; i < 1200; ++i) {
    const std::size_t len = gen.next_datagram().size();
    if (len == 40) ++n40;
    else if (len == 576) ++n576;
    else if (len == 1500) ++n1500;
    else FAIL() << "unexpected size " << len;
  }
  // 7:4:1 ratio, loose bounds.
  EXPECT_GT(n40, n576);
  EXPECT_GT(n576, n1500);
  EXPECT_GT(n1500, 0u);
}

TEST(Traffic, WorkloadAggregates) {
  TrafficSpec spec;
  spec.min_len = 100;
  spec.max_len = 100;
  const Workload w = make_workload(spec, 10);
  EXPECT_EQ(w.datagrams.size(), 10u);
  EXPECT_EQ(w.total_bytes, 1000u);
}

TEST(Traffic, PatternNames) {
  EXPECT_STREQ(to_string(PayloadPattern::kAllFlags).c_str(), "all-flags");
  EXPECT_STREQ(to_string(PayloadPattern::kUniformRandom).c_str(), "uniform");
}

}  // namespace
}  // namespace p5::net
