// Shared packet memory tests (paper Figure 2): descriptor rings, pool
// accounting, backpressure toward the host, the reap-based receive path,
// and the TxDone / RxError interrupt plumbing.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "hdlc/frame.hpp"
#include "hdlc/stuffing.hpp"
#include "p5/p5.hpp"
#include "p5/shared_memory.hpp"

namespace p5::core {
namespace {

TxRequest make_req(std::size_t bytes, u8 fill = 0x42) {
  TxRequest r;
  r.protocol = 0x0021;
  r.payload.assign(bytes, fill);
  return r;
}

TEST(SharedMemory, PostFetchFifoOrder) {
  SharedMemory mem;
  ASSERT_TRUE(mem.post_tx(make_req(10, 1)));
  ASSERT_TRUE(mem.post_tx(make_req(20, 2)));
  EXPECT_EQ(mem.tx_pending(), 2u);
  EXPECT_EQ(mem.tx_bytes_used(), 30u);
  auto a = mem.fetch_tx();
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->payload[0], 1);
  auto b = mem.fetch_tx();
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->payload[0], 2);
  EXPECT_FALSE(mem.fetch_tx().has_value());
  EXPECT_EQ(mem.tx_bytes_used(), 0u);
}

TEST(SharedMemory, TxPoolExhaustionRejects) {
  SharedMemory mem;
  EXPECT_TRUE(mem.post_tx(make_req(SharedMemory::kPoolBytes - 40)));
  EXPECT_FALSE(mem.post_tx(make_req(60)));  // 20 octets past the pool
  EXPECT_EQ(mem.stats().tx_rejected, 1u);
  EXPECT_TRUE(mem.post_tx(make_req(40)));   // exactly full
  (void)mem.fetch_tx();
  EXPECT_TRUE(mem.post_tx(make_req(60)));  // space reclaimed
}

TEST(SharedMemory, TxRingExhaustionRejects) {
  SharedMemory mem;
  for (std::size_t i = 0; i < SharedMemory::kRingEntries; ++i)
    EXPECT_TRUE(mem.post_tx(make_req(1)));
  EXPECT_FALSE(mem.post_tx(make_req(1)));
  EXPECT_EQ(mem.stats().tx_rejected, 1u);
}

TEST(SharedMemory, RxDropCountedWhenFull) {
  SharedMemory mem;
  RxDelivery d;
  d.payload = {1, 2, 3};
  for (std::size_t i = 0; i < SharedMemory::kRingEntries; ++i) EXPECT_TRUE(mem.store_rx(d));
  EXPECT_FALSE(mem.store_rx(d));
  EXPECT_EQ(mem.stats().rx_dropped, 1u);
  ASSERT_TRUE(mem.reap_rx().has_value());
  EXPECT_TRUE(mem.store_rx(d));
}

TEST(SharedMemory, PeakWatermarksTracked) {
  SharedMemory mem;
  (void)mem.post_tx(make_req(100));
  (void)mem.post_tx(make_req(50));
  (void)mem.fetch_tx();
  EXPECT_EQ(mem.stats().tx_peak_bytes, 150u);
  EXPECT_EQ(mem.tx_bytes_used(), 50u);
}

// ---- through the device ----

TEST(P5Memory, ReapPathWithoutSink) {
  P5Config cfg;
  cfg.lanes = 4;
  P5 dev(cfg);  // no rx sink: frames accumulate in shared memory
  dev.submit_datagram(0x0021, Bytes{1, 2, 3});
  dev.submit_datagram(0x0021, Bytes{4, 5, 6});
  for (int k = 0; k < 400; ++k) dev.phy_push_rx(dev.phy_pull_tx(4));
  dev.drain_rx(200);

  EXPECT_EQ(dev.memory().rx_pending(), 2u);
  auto a = dev.reap_datagram();
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->payload, (Bytes{1, 2, 3}));
  auto b = dev.reap_datagram();
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->payload, (Bytes{4, 5, 6}));
  EXPECT_FALSE(dev.reap_datagram().has_value());
}

TEST(P5Memory, SubmitBackpressureWhenPoolFull) {
  P5Config cfg;
  cfg.lanes = 4;
  P5 dev(cfg);
  // Fill the 64 KiB default transmit pool with 1500-byte datagrams.
  int accepted = 0;
  while (dev.submit_datagram(0x0021, Bytes(1500, 0x11))) ++accepted;
  EXPECT_GT(accepted, 30);
  EXPECT_LT(accepted, 64);
  EXPECT_GE(dev.memory().stats().tx_rejected, 1u);
  // Draining the transmitter frees the pool.
  for (int k = 0; k < 2000 && dev.tx_control().pending() > 0; ++k)
    (void)dev.phy_pull_tx(4);
  EXPECT_TRUE(dev.submit_datagram(0x0021, Bytes(1500, 0x22)));
}

TEST(P5Memory, TxDoneInterrupt) {
  P5 dev(P5Config{});
  dev.oam().write(static_cast<u32>(OamReg::kIntMask),
                  u32{1} << static_cast<u32>(OamIrq::kTxDone));
  dev.submit_datagram(0x0021, Bytes{1, 2, 3});
  for (int k = 0; k < 100; ++k) (void)dev.phy_pull_tx(4);
  EXPECT_TRUE(dev.oam().irq_line());
  dev.oam().write(static_cast<u32>(OamReg::kIntPending), ~u32{0});
  EXPECT_FALSE(dev.oam().irq_line());
}

TEST(P5Memory, RxErrorInterruptOnBadFcs) {
  P5Config cfg;
  cfg.lanes = 4;
  P5 dev(cfg);
  dev.oam().write(static_cast<u32>(OamReg::kIntMask),
                  u32{1} << static_cast<u32>(OamIrq::kRxError));

  hdlc::FrameConfig sw;
  Bytes wire(4, hdlc::kFlag);
  Bytes frame = hdlc::build_wire_frame(sw, 0x0021, Bytes{9, 9, 9, 9, 9});
  frame[5] ^= 0x40;  // corrupt the content
  append(wire, frame);
  while (wire.size() % 4) wire.push_back(hdlc::kFlag);
  dev.phy_push_rx(wire);
  dev.drain_rx(200);

  EXPECT_GE(dev.rx_crc().bad_frames(), 1u);
  EXPECT_TRUE(dev.oam().irq_line());
}

TEST(P5Memory, StatsFlowThroughDevice) {
  P5 dev(P5Config{});
  std::vector<RxDelivery> got;
  dev.set_rx_sink([&](RxDelivery d) { got.push_back(std::move(d)); });
  for (int i = 0; i < 8; ++i) dev.submit_datagram(0x0021, Bytes(100, static_cast<u8>(i)));
  for (int k = 0; k < 1500; ++k) dev.phy_push_rx(dev.phy_pull_tx(4));
  dev.drain_rx(200);
  EXPECT_EQ(got.size(), 8u);
  const auto& st = dev.memory().stats();
  EXPECT_EQ(st.tx_posted, 8u);
  EXPECT_EQ(st.tx_completed, 8u);
  EXPECT_EQ(st.rx_stored, 8u);
  EXPECT_EQ(st.rx_reaped, 8u);  // immediately reaped into the sink
  EXPECT_EQ(dev.memory().tx_bytes_used(), 0u);
  EXPECT_EQ(dev.memory().rx_bytes_used(), 0u);
}

}  // namespace
}  // namespace p5::core
