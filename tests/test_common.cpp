// Tests for the shared substrate: byte helpers, PRNG, contract checks,
// hex dumps, the two-phase FIFO / simulator kernel, and the counter model
// (common/counters.hpp) behind every live telemetry class.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/check.hpp"
#include "common/hexdump.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "linecard/telemetry.hpp"
#include "ppp/broker.hpp"
#include "rtl/fifo.hpp"
#include "rtl/simulator.hpp"
#include "rtl/word.hpp"
#include "server/tenant.hpp"
#include "transport/stats.hpp"

namespace p5 {
namespace {

TEST(Types, BigEndianRoundTrip) {
  Bytes b;
  put_be16(b, 0xC021);
  put_be32(b, 0xDEADBEEF);
  ASSERT_EQ(b.size(), 6u);
  EXPECT_EQ(get_be16(b, 0), 0xC021);
  EXPECT_EQ(get_be32(b, 2), 0xDEADBEEFu);
}

TEST(Types, LittleEndian32) {
  Bytes b;
  put_le32(b, 0x11223344);
  EXPECT_EQ(b[0], 0x44);
  EXPECT_EQ(b[3], 0x11);
  EXPECT_EQ(get_le32(b, 0), 0x11223344u);
}

TEST(Rng, DeterministicForSameSeed) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, RangeBounds) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const u64 v = rng.range(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, ChanceExtremes) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceApproximatesProbability) {
  Xoshiro256 rng(123);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    if (rng.chance(0.25)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

TEST(Check, ExpectsThrowsOnViolation) {
  EXPECT_THROW(P5_EXPECTS(false), ContractViolation);
  EXPECT_NO_THROW(P5_EXPECTS(true));
}

TEST(Hexdump, LineFormat) {
  const Bytes b{0x7E, 0xFF, 0x03};
  EXPECT_EQ(hex_line(b), "7e ff 03");
}

TEST(Hexdump, LineCap) {
  const Bytes b{1, 2, 3, 4, 5};
  EXPECT_EQ(hex_line(b, 2), "01 02 ...");
}

TEST(Hexdump, DumpContainsAscii) {
  const Bytes b{'H', 'i', 0x00};
  const std::string d = hex_dump(b);
  EXPECT_NE(d.find("|Hi.|"), std::string::npos);
}

// ---- rtl kernel ----

TEST(Word, PushAndFlags) {
  rtl::Word w;
  w.push(0x11);
  w.push(0x22);
  w.sof = true;
  EXPECT_EQ(w.count(), 2u);
  EXPECT_EQ(w.lane(0), 0x11);
  EXPECT_EQ(w.lane(1), 0x22);
  EXPECT_NE(w.to_string().find("SOF"), std::string::npos);
}

TEST(Word, OfRejectsOversize) {
  Bytes big(rtl::Word::kMaxLanes + 1, 0);
  EXPECT_THROW((void)rtl::Word::of(big), ContractViolation);
}

TEST(Word, Equality) {
  rtl::Word a = rtl::Word::of(Bytes{1, 2});
  rtl::Word b = rtl::Word::of(Bytes{1, 2});
  EXPECT_EQ(a, b);
  b.eof = true;
  EXPECT_FALSE(a == b);
}

TEST(Fifo, PushPopWithinCycle) {
  rtl::Fifo<int> f("f", 2);
  EXPECT_TRUE(f.can_push());
  f.push(1);
  EXPECT_TRUE(f.empty());  // not visible until commit
  f.commit();
  ASSERT_TRUE(f.can_pop());
  EXPECT_EQ(f.front(), 1);
  EXPECT_EQ(f.pop(), 1);
  EXPECT_FALSE(f.can_pop());  // pending pop hides the item
  f.commit();
  EXPECT_TRUE(f.empty());
}

TEST(Fifo, FlowThroughCapacityOne) {
  // Consumer pops then producer pushes in the same cycle: a capacity-1 FIFO
  // sustains one token per cycle.
  rtl::Fifo<int> f("f", 1);
  f.push(0);
  f.commit();
  for (int cycle = 1; cycle < 10; ++cycle) {
    ASSERT_TRUE(f.can_pop());
    EXPECT_EQ(f.pop(), cycle - 1);
    ASSERT_TRUE(f.can_push());  // space freed by the pending pop
    f.push(cycle);
    f.commit();
  }
}

TEST(Fifo, CapacityRespectedWithoutPop) {
  rtl::Fifo<int> f("f", 1);
  f.push(1);
  f.commit();
  EXPECT_FALSE(f.can_push());
}

TEST(Fifo, PeakOccupancyTracked) {
  rtl::Fifo<int> f("f", 4);
  f.push(1);
  f.push(2);
  f.push(3);
  f.commit();
  EXPECT_EQ(f.peak_occupancy(), 3u);
  (void)f.pop();
  f.commit();
  EXPECT_EQ(f.peak_occupancy(), 3u);
  EXPECT_EQ(f.total_pushed(), 3u);
}

class CounterModule final : public rtl::Module {
 public:
  explicit CounterModule(rtl::Fifo<int>& out) : rtl::Module("counter"), out_(out) {}
  void eval() override {
    if (out_.can_push()) out_.push(n_);
  }
  void commit() override { ++n_; }

 private:
  rtl::Fifo<int>& out_;
  int n_ = 0;
};

TEST(Simulator, ModulesAndChannelsCommitTogether) {
  rtl::Fifo<int> ch("ch", 8);
  CounterModule m(ch);
  rtl::Simulator sim;
  sim.add(m);
  sim.add_channel(ch);
  sim.run(5);
  EXPECT_EQ(sim.cycle(), 5u);
  EXPECT_EQ(ch.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(ch.pop(), i);
}

TEST(Simulator, RunUntilPredicate) {
  rtl::Fifo<int> ch("ch", 100);
  CounterModule m(ch);
  rtl::Simulator sim;
  sim.add(m);
  sim.add_channel(ch);
  const u64 cycles = sim.run_until([&] { return ch.size() >= 3; }, 1000);
  EXPECT_EQ(cycles, 3u);
}

template <class Fn>
void repeat(int times, Fn&& fn) {
  for (int i = 0; i < times; ++i) fn();
}

// Every named event lands in its own field: each event is driven with an
// amount (or a repeat count) that no other event uses, so an event wired to
// the wrong field shows up as two wrong fields.
TEST(CounterBlock, ChannelEventsLandInTheirFields) {
  linecard::ChannelTelemetry tel;
  tel.on_ingress(1000);
  repeat(2, [&] { tel.on_egress(700); });
  tel.add_fcs_errors(3);
  tel.add_frames_lost(4);
  repeat(5, [&] { tel.ring_full_stall(); });
  tel.note_ingress_depth(6);
  tel.note_ingress_depth(2);
  tel.note_egress_depth(7);
  tel.note_egress_depth(1);
  tel.set_escape_tiers(1, 1, 1);
  tel.set_escape_tiers(8, 9, 10);
  const linecard::ChannelSnapshot s = tel.snapshot();
  EXPECT_EQ(s.frames_in, 1u);
  EXPECT_EQ(s.frames_out, 2u);
  EXPECT_EQ(s.bytes_in, 1000u);
  EXPECT_EQ(s.bytes_out, 1400u);
  EXPECT_EQ(s.fcs_errors, 3u);
  EXPECT_EQ(s.frames_lost, 4u);
  EXPECT_EQ(s.ring_full_stalls, 5u);
  EXPECT_EQ(s.ingress_hwm, 6u);  // the peak, not the last depth or the sum
  EXPECT_EQ(s.egress_hwm, 7u);
  EXPECT_EQ(s.escape_scalar, 8u);  // mirrored totals: the last store wins
  EXPECT_EQ(s.escape_swar, 9u);
  EXPECT_EQ(s.escape_simd, 10u);
}

TEST(CounterBlock, TransportEventsLandInTheirFields) {
  transport::TransportTelemetry tel;
  repeat(3, [&] { tel.on_send_enqueued(100); });
  repeat(2, [&] { tel.on_sent(90); });
  tel.add_frames_lost(1);
  repeat(4, [&] { tel.on_received(50); });
  repeat(5, [&] { tel.rx_drop(); });
  repeat(6, [&] { tel.on_connect(false); });
  repeat(7, [&] { tel.on_connect(true); });
  repeat(8, [&] { tel.on_disconnect(); });
  repeat(9, [&] { tel.backoff_wait(); });
  repeat(11, [&] { tel.backpressure_stall(); });
  tel.note_queue_depth(4096);
  tel.note_queue_depth(1024);
  repeat(12, [&] { tel.proto_error(); });
  repeat(13, [&] { tel.tx_syscall(); });
  repeat(14, [&] { tel.rx_syscall(); });
  repeat(15, [&] { tel.pool_recycled(); });
  const transport::TransportSnapshot s = tel.snapshot();
  EXPECT_EQ(s.frames_in, 3u);
  EXPECT_EQ(s.bytes_in, 300u);
  EXPECT_EQ(s.frames_out, 2u);
  EXPECT_EQ(s.bytes_out, 180u);
  EXPECT_EQ(s.frames_lost, 1u);
  EXPECT_EQ(s.frames_rcvd, 4u);
  EXPECT_EQ(s.bytes_rcvd, 200u);
  EXPECT_EQ(s.rx_drops, 5u);
  EXPECT_EQ(s.connects, 6u);
  EXPECT_EQ(s.reconnects, 7u);
  EXPECT_EQ(s.disconnects, 8u);
  EXPECT_EQ(s.backoff_waits, 9u);
  EXPECT_EQ(s.backpressure_stalls, 11u);
  EXPECT_EQ(s.send_queue_hwm, 4096u);
  EXPECT_EQ(s.proto_errors, 12u);
  EXPECT_EQ(s.tx_syscalls, 13u);
  EXPECT_EQ(s.rx_syscalls, 14u);
  EXPECT_EQ(s.pool_recycled, 15u);
  EXPECT_TRUE(s.ledger_exact());  // 3 in == 2 out + 1 lost
  tel.on_send_enqueued(100);      // one chunk still queued
  EXPECT_FALSE(tel.snapshot().ledger_exact());
}

TEST(CounterBlock, TenantEventsLandInTheirFields) {
  server::TenantTelemetry tel;
  repeat(14, [&] { tel.on_dgram_in(100); });
  repeat(2, [&] { tel.on_echoed(10); });
  repeat(3, [&] { tel.on_uplinked(30); });
  repeat(4, [&] { tel.on_sunk(50); });
  tel.add_dgrams_lost(5);
  tel.add_ring_dropped(6);
  repeat(7, [&] { tel.on_admitted(); });
  repeat(8, [&] { tel.on_rejected(); });
  repeat(9, [&] { tel.on_session_closed(); });
  repeat(10, [&] { tel.on_policed(1500); });
  const server::TenantSnapshot s = tel.snapshot();
  EXPECT_EQ(s.dgrams_in, 14u);
  EXPECT_EQ(s.bytes_in, 1400u);
  EXPECT_EQ(s.dgrams_echoed, 2u);
  EXPECT_EQ(s.bytes_echoed, 20u);
  EXPECT_EQ(s.dgrams_uplinked, 3u);
  EXPECT_EQ(s.bytes_uplinked, 90u);
  EXPECT_EQ(s.dgrams_sunk, 4u);
  EXPECT_EQ(s.bytes_sunk, 200u);
  EXPECT_EQ(s.dgrams_lost, 5u);
  EXPECT_EQ(s.dgrams_ring_dropped, 6u);
  EXPECT_EQ(s.sessions_admitted, 7u);
  EXPECT_EQ(s.sessions_rejected, 8u);
  EXPECT_EQ(s.sessions_closed, 9u);
  EXPECT_EQ(s.chunks_policed, 10u);
  EXPECT_EQ(s.bytes_policed, 15000u);
  EXPECT_TRUE(s.ledger_exact());  // 14 in == 2 + 3 + 4 out + 5 lost
}

// operator+= sums flow counters and takes the max of high-water marks, with
// the larger mark on either side of the merge.
TEST(CounterBlock, MergeSumsFlowsAndKeepsThePeakOfHighWaterMarks) {
  using linecard::ChannelSnapshot;
  ChannelSnapshot ch{1, 2, 3, 4, 5, 6, 7, /*ingress_hwm=*/80, /*egress_hwm=*/9, 10, 11, 12};
  ch += ChannelSnapshot{10, 20, 30, 40, 50, 60, 70, /*ingress_hwm=*/8, /*egress_hwm=*/90,
                        100, 110, 120};
  EXPECT_EQ(ch.ingress_hwm, 80u);
  EXPECT_EQ(ch.egress_hwm, 90u);
  EXPECT_EQ(ch, (ChannelSnapshot{11, 22, 33, 44, 55, 66, 77, 80, 90, 110, 121, 132}));

  using transport::TransportSnapshot;
  TransportSnapshot tx{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14,
                       /*send_queue_hwm=*/1500, 16, 17, 18, 19};
  const TransportSnapshot more{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120, 140,
                               /*send_queue_hwm=*/150, 160, 170, 180, 190};
  tx += more;
  EXPECT_EQ(tx.send_queue_hwm, 1500u);
  EXPECT_EQ(tx, (TransportSnapshot{11, 22, 33, 44, 55, 66, 77, 88, 99, 110, 121, 132, 154,
                                   1500, 176, 187, 198, 209}));
  TransportSnapshot deeper{};
  deeper.send_queue_hwm = 9000;
  tx += deeper;
  EXPECT_EQ(tx.send_queue_hwm, 9000u);

  // The tenant books and the broker ledger are all flow counters.
  server::TenantSnapshot tenant{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15};
  tenant += server::TenantSnapshot{15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
  EXPECT_EQ(tenant, (server::TenantSnapshot{16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16,
                                            16, 16}));
  ppp::broker::SessionLedger ledger{5, 3, 1, 1, 2, 4, 1};
  ledger += ppp::broker::SessionLedger{10, 6, 2, 2, 0, 1, 2};
  EXPECT_EQ(ledger.started, 15u);
  EXPECT_EQ(ledger.negotiated, 9u);
  EXPECT_EQ(ledger.failed, 3u);
  EXPECT_EQ(ledger.abandoned, 3u);
  EXPECT_EQ(ledger.rejected_half_open, 2u);
  EXPECT_EQ(ledger.renegotiations, 5u);
  EXPECT_EQ(ledger.auth_failures, 3u);
  EXPECT_TRUE(ledger.closed());
}

// A reader snapshots while one writer updates: every field a reader sees
// only grows, and once the writer is joined the snapshot is its exact totals.
TEST(CounterBlock, SnapshotsDuringWritesEndAtTheWritersTotals) {
  constexpr u64 kSends = 20000;
  transport::TransportTelemetry tel;
  std::atomic<bool> reading{false}, done{false};
  std::thread writer([&] {
    while (!reading.load(std::memory_order_acquire)) std::this_thread::yield();
    for (u64 i = 1; i <= kSends; ++i) {
      tel.on_sent(64);
      tel.tx_syscall();
      tel.note_queue_depth(i % 1000);
    }
    done.store(true, std::memory_order_release);
  });
  transport::TransportSnapshot prev{};
  bool monotonic = true;
  reading.store(true, std::memory_order_release);
  do {
    const transport::TransportSnapshot cur = tel.snapshot();
    monotonic = monotonic && cur.frames_out >= prev.frames_out &&
                cur.bytes_out >= prev.bytes_out && cur.tx_syscalls >= prev.tx_syscalls &&
                cur.send_queue_hwm >= prev.send_queue_hwm;
    prev = cur;
  } while (!done.load(std::memory_order_acquire));
  writer.join();
  EXPECT_TRUE(monotonic);
  transport::TransportSnapshot want{};
  want.frames_out = kSends;
  want.bytes_out = 64 * kSends;
  want.tx_syscalls = kSends;
  want.send_queue_hwm = 999;
  EXPECT_EQ(tel.snapshot(), want);
}

}  // namespace
}  // namespace p5
