// Whole-device and full-stack tests: P5 loopback across datapath widths and
// traffic patterns, OAM register/interrupt integration, and two P5s joined
// by the SONET substrate with and without line errors.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "hdlc/delineation.hpp"
#include "hdlc/frame.hpp"
#include "hdlc/stuffing.hpp"
#include "net/ipv4.hpp"
#include "net/traffic.hpp"
#include "p5/p5.hpp"
#include "p5/sonet_link.hpp"

namespace p5::core {
namespace {

struct LoopbackParam {
  unsigned lanes;
  net::PayloadPattern pattern;
  // gtest names each case after the parameter's bytes (the struct has no
  // printer), so the padding is a zeroed member: left implicit it was never
  // written and the case names changed from run to run.
  u8 pad[3] = {};
  double density = 0;
};

class P5Loopback : public ::testing::TestWithParam<LoopbackParam> {};

TEST_P(P5Loopback, DatagramsSurviveRoundTrip) {
  const auto param = GetParam();
  P5Config cfg;
  cfg.lanes = param.lanes;
  P5 dev(cfg);
  std::vector<RxDelivery> got;
  dev.set_rx_sink([&](RxDelivery d) { got.push_back(std::move(d)); });

  net::TrafficSpec spec;
  spec.pattern = param.pattern;
  spec.escape_density = param.density;
  spec.min_len = 21;
  spec.max_len = 400;
  spec.seed = 17 + param.lanes;
  net::TrafficGenerator gen(spec);

  std::vector<Bytes> sent;
  for (int i = 0; i < 25; ++i) {
    Bytes payload = gen.payload(gen.spec().min_len + i * 7);
    sent.push_back(payload);
    dev.submit_datagram(0x0021, payload);
  }
  for (int k = 0; k < 6000; ++k) dev.phy_push_rx(dev.phy_pull_tx(param.lanes));
  dev.drain_rx(300);

  ASSERT_EQ(got.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(got[i].protocol, 0x0021);
    EXPECT_EQ(got[i].payload, sent[i]) << "datagram " << i;
  }
  EXPECT_EQ(dev.rx_crc().bad_frames(), 0u);
  EXPECT_EQ(dev.escape_generate().escapes_inserted(), dev.escape_detect().escapes_removed());
}

INSTANTIATE_TEST_SUITE_P(
    WidthsAndPatterns, P5Loopback,
    ::testing::Values(
        LoopbackParam{.lanes = 1, .pattern = net::PayloadPattern::kUniformRandom},
        LoopbackParam{.lanes = 2, .pattern = net::PayloadPattern::kUniformRandom},
        LoopbackParam{.lanes = 4, .pattern = net::PayloadPattern::kUniformRandom},
        LoopbackParam{.lanes = 8, .pattern = net::PayloadPattern::kUniformRandom},
        LoopbackParam{.lanes = 4, .pattern = net::PayloadPattern::kAscii},
        LoopbackParam{.lanes = 4, .pattern = net::PayloadPattern::kFlagDense, .density = 0.3},
        LoopbackParam{.lanes = 4, .pattern = net::PayloadPattern::kAllFlags},
        LoopbackParam{.lanes = 1, .pattern = net::PayloadPattern::kAllFlags},
        LoopbackParam{.lanes = 4, .pattern = net::PayloadPattern::kIncrementing}));

TEST(P5System, OamCountersTrackTraffic) {
  P5Config cfg;
  P5 dev(cfg);
  int delivered = 0;
  dev.set_rx_sink([&](RxDelivery) { ++delivered; });
  for (int i = 0; i < 5; ++i) dev.submit_datagram(0x0021, Bytes(50, 0x7E));
  for (int k = 0; k < 1000; ++k) dev.phy_push_rx(dev.phy_pull_tx(4));
  dev.drain_rx(200);

  Oam& oam = dev.oam();
  EXPECT_EQ(oam.read(static_cast<u32>(OamReg::kTxFrames)), 5u);
  EXPECT_EQ(oam.read(static_cast<u32>(OamReg::kRxFramesOk)), 5u);
  EXPECT_EQ(delivered, 5);
  EXPECT_EQ(oam.read(static_cast<u32>(OamReg::kRxFcsErrors)), 0u);
  // 50 flag octets per datagram got escaped.
  EXPECT_EQ(oam.read(static_cast<u32>(OamReg::kTxEscapes)), 250u);
  EXPECT_EQ(oam.read(static_cast<u32>(OamReg::kRxEscapes)), 250u);
}

TEST(P5System, RxFrameInterruptRaised) {
  P5 dev(P5Config{});
  dev.set_rx_sink([](RxDelivery) {});
  dev.oam().write(static_cast<u32>(OamReg::kIntMask),
                  u32{1} << static_cast<u32>(OamIrq::kRxFrame));
  dev.submit_datagram(0x0021, Bytes{1, 2, 3});
  for (int k = 0; k < 200; ++k) dev.phy_push_rx(dev.phy_pull_tx(4));
  dev.drain_rx(100);
  EXPECT_TRUE(dev.oam().irq_line());
  dev.oam().write(static_cast<u32>(OamReg::kIntPending), ~u32{0});
  EXPECT_FALSE(dev.oam().irq_line());
}

TEST(P5System, MaposAddressFilterDropsForeignFrames) {
  // TX programmed with address 0x04, RX expecting 0x08: all frames dropped
  // by the address filter, none delivered.
  P5Config cfg;
  cfg.lanes = 4;
  cfg.address = 0x04;
  P5 tx_dev(cfg);
  P5Config rx_cfg = cfg;
  rx_cfg.address = 0x08;
  P5 rx_dev(rx_cfg);
  int delivered = 0;
  rx_dev.set_rx_sink([&](RxDelivery) { ++delivered; });

  tx_dev.submit_datagram(0x0021, Bytes(30, 1));
  tx_dev.submit_datagram(0x0021, Bytes(30, 2));
  for (int k = 0; k < 500; ++k) rx_dev.phy_push_rx(tx_dev.phy_pull_tx(4));
  rx_dev.drain_rx(100);
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(rx_dev.rx_control().counters().addr_filtered, 2u);
}

TEST(P5System, BackToBackFramesNoInterFrameGapNeeded) {
  P5 dev(P5Config{});
  std::vector<RxDelivery> got;
  dev.set_rx_sink([&](RxDelivery d) { got.push_back(std::move(d)); });
  // Many tiny datagrams back to back stress frame boundary handling.
  for (int i = 0; i < 60; ++i) dev.submit_datagram(0x0021, Bytes{static_cast<u8>(i)});
  for (int k = 0; k < 4000; ++k) dev.phy_push_rx(dev.phy_pull_tx(4));
  dev.drain_rx(200);
  ASSERT_EQ(got.size(), 60u);
  for (int i = 0; i < 60; ++i) EXPECT_EQ(got[i].payload, Bytes{static_cast<u8>(i)});
}

TEST(P5System, ThroughputScalesWithWidth) {
  // Same workload, widths 1 and 4: the 32-bit datapath finishes ~4x sooner
  // in cycles — the paper's 625 Mbps vs 2.5 Gbps at the same clock.
  auto cycles_for = [](unsigned lanes) {
    P5Config cfg;
    cfg.lanes = lanes;
    P5 dev(cfg);
    int done = 0;
    dev.set_rx_sink([&](RxDelivery) { ++done; });
    Xoshiro256 rng(3);
    for (int i = 0; i < 10; ++i) {
      Bytes p;
      for (int j = 0; j < 1000; ++j) {
        u8 b = rng.byte();
        while (b == 0x7E || b == 0x7D) b = rng.byte();
        p.push_back(b);
      }
      dev.submit_datagram(0x0021, p);
    }
    while (done < 10) dev.phy_push_rx(dev.phy_pull_tx(lanes));
    return dev.cycle();
  };
  const u64 c1 = cycles_for(1);
  const u64 c4 = cycles_for(4);
  const double speedup = static_cast<double>(c1) / static_cast<double>(c4);
  EXPECT_GT(speedup, 3.0);
  EXPECT_LT(speedup, 5.0);
}

// ---- hardware/software interoperability ----

TEST(P5Interop, HardwareWireImageParsesWithSoftwareStack) {
  // The P5's transmit octet stream must be a conforming RFC 1662 stream:
  // the *independent* software delineator/destuffer/parser consumes it.
  P5Config cfg;
  cfg.lanes = 4;
  P5 dev(cfg);
  std::vector<Bytes> sent;
  Xoshiro256 rng(41);
  for (int i = 0; i < 10; ++i) {
    Bytes p = rng.bytes(rng.range(1, 300));
    sent.push_back(p);
    dev.submit_datagram(0x0021, p);
  }

  hdlc::FrameConfig sw;
  std::vector<Bytes> got;
  hdlc::Delineator delineator([&](BytesView f) {
    const auto destuffed = hdlc::destuff(f);
    ASSERT_TRUE(destuffed.ok);
    const auto parsed = hdlc::parse(sw, destuffed.data);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.frame->protocol, 0x0021);
    got.push_back(parsed.frame->payload);
  });
  for (int k = 0; k < 2500; ++k) delineator.push(dev.phy_pull_tx(4));
  EXPECT_EQ(got, sent);
}

TEST(P5Interop, SoftwareWireImageReceivedByHardware) {
  // And the converse: frames built by the software stack are accepted by
  // the P5 receive pipeline.
  P5Config cfg;
  cfg.lanes = 4;
  P5 dev(cfg);
  std::vector<RxDelivery> got;
  dev.set_rx_sink([&](RxDelivery d) { got.push_back(std::move(d)); });

  hdlc::FrameConfig sw;
  Xoshiro256 rng(42);
  Bytes stream(8, hdlc::kFlag);  // idle fill preamble
  std::vector<Bytes> sent;
  for (int i = 0; i < 10; ++i) {
    Bytes p = rng.bytes(rng.range(1, 300));
    sent.push_back(p);
    append(stream, hdlc::build_wire_frame(sw, 0x0021, p));
  }
  while (stream.size() % 4) stream.push_back(hdlc::kFlag);
  dev.phy_push_rx(stream);
  dev.drain_rx(300);

  ASSERT_EQ(got.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(got[i].protocol, 0x0021);
    EXPECT_EQ(got[i].payload, sent[i]);
  }
}

TEST(P5Interop, BroadcastAddressAcceptedByAllStations) {
  // A frame addressed 0xFF (all-stations) passes every MAPOS filter.
  P5Config cfg;
  cfg.lanes = 4;
  cfg.address = 0x04;  // station with a unicast address
  P5 dev(cfg);
  int delivered = 0;
  dev.set_rx_sink([&](RxDelivery) { ++delivered; });

  hdlc::FrameConfig bcast;
  bcast.address = 0xFF;
  Bytes stream(4, hdlc::kFlag);
  append(stream, hdlc::build_wire_frame(bcast, 0x0021, Bytes{1, 2, 3, 4, 5}));
  while (stream.size() % 4) stream.push_back(hdlc::kFlag);
  dev.phy_push_rx(stream);
  dev.drain_rx(100);
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(dev.rx_control().counters().addr_filtered, 0u);
}

// ---- full stack over SONET ----

TEST(SonetStack, CleanLineDeliversEverything) {
  P5Config cfg;
  cfg.lanes = 4;
  P5SonetLink link(cfg, sonet::kSts3c, sonet::LineConfig{});
  std::vector<Bytes> got_b;
  link.b().set_rx_sink([&](RxDelivery d) { got_b.push_back(std::move(d.payload)); });
  std::vector<Bytes> got_a;
  link.a().set_rx_sink([&](RxDelivery d) { got_a.push_back(std::move(d.payload)); });

  net::TrafficGenerator gen(net::TrafficSpec{});
  std::vector<Bytes> sent_a, sent_b;
  for (int i = 0; i < 15; ++i) {
    Bytes da = gen.next_datagram();
    Bytes db = gen.next_datagram();
    sent_a.push_back(da);
    sent_b.push_back(db);
    link.a().submit_datagram(0x0021, da);
    link.b().submit_datagram(0x0021, db);
  }
  link.exchange_frames(40);
  link.a().drain_rx(500);
  link.b().drain_rx(500);

  EXPECT_EQ(got_b, sent_a);
  EXPECT_EQ(got_a, sent_b);
  EXPECT_EQ(link.a_to_b_stats().b1_errors, 0u);
  EXPECT_TRUE(link.a_to_b_stats().frames_in_sync >= 40u);
}

TEST(SonetStack, DatagramsAreRealIpv4) {
  P5Config cfg;
  P5SonetLink link(cfg, sonet::kSts3c, sonet::LineConfig{});
  int valid = 0;
  link.b().set_rx_sink([&](RxDelivery d) {
    if (net::parse_datagram(d.payload)) ++valid;
  });
  net::ImixGenerator gen(9);
  for (int i = 0; i < 10; ++i) link.a().submit_datagram(0x0021, gen.next_datagram());
  link.exchange_frames(60);
  link.b().drain_rx(500);
  EXPECT_EQ(valid, 10);
}

TEST(SonetStack, NoisyLineErrorsAreCountedNotDelivered) {
  P5Config cfg;
  sonet::LineConfig noisy;
  noisy.bit_error_rate = 2e-5;
  noisy.seed = 77;
  P5SonetLink link(cfg, sonet::kSts3c, noisy);
  std::vector<Bytes> delivered;
  link.b().set_rx_sink([&](RxDelivery d) { delivered.push_back(std::move(d.payload)); });

  std::vector<Bytes> sent;
  Xoshiro256 rng(5);
  for (int i = 0; i < 60; ++i) {
    Bytes p = rng.bytes(600);
    sent.push_back(p);
    link.a().submit_datagram(0x0021, p);
  }
  link.exchange_frames(80);
  link.b().drain_rx(500);

  // Some frames must be lost to FCS errors at this BER, none corrupted.
  EXPECT_GT(link.line_ab_stats().bit_errors, 0u);
  EXPECT_LT(delivered.size(), sent.size());
  const u64 bad = link.b().rx_crc().bad_frames() +
                  link.b().flag_delineator().counters().aborts +
                  link.b().flag_delineator().counters().runts;
  EXPECT_GT(bad, 0u);
  // Every delivered payload is bit-exact (FCS-32 let nothing corrupt slip).
  std::size_t si = 0;
  for (const Bytes& d : delivered) {
    while (si < sent.size() && sent[si] != d) ++si;
    EXPECT_LT(si, sent.size()) << "delivered datagram not among sent (corruption)";
    ++si;
  }
}

TEST(SonetStack, Sts48cCarriesGigabitPayload) {
  // One STS-48c frame carries ~37k payload octets at 8 kHz: 2.4 Gbps.
  P5Config cfg;
  P5SonetLink link(cfg, sonet::kSts48c, sonet::LineConfig{});
  int got = 0;
  link.b().set_rx_sink([&](RxDelivery) { ++got; });
  Xoshiro256 rng(6);
  for (int i = 0; i < 20; ++i) link.a().submit_datagram(0x0021, rng.bytes(1400));
  link.exchange_frames(3);
  link.b().drain_rx(500);
  EXPECT_EQ(got, 20);
  EXPECT_NEAR(link.sts().payload_rate_mbps(), 2396.0, 15.0);
}

}  // namespace
}  // namespace p5::core
