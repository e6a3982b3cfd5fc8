// linecard::LineCard — the multi-channel runtime.
//
//  * Determinism: a 4-channel line card driven single-threaded via step()
//    delivers, per channel, byte-identical frames to four independently-run
//    P5SonetLink instances fed the same payloads (the acceptance criterion).
//  * MAPOS fabric: NSP address assignment, uplink aggregation, hairpin
//    channel-to-channel switching, fabric statistics.
//  * Telemetry: per-channel counters, aggregate roll-up, backpressure
//    stalls, high-water marks.
//  * Threaded mode: workers + fabric thread deliver everything exactly once
//    with clean start/stop (run under -fsanitize=thread to prove racefree).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "linecard/linecard.hpp"
#include "net/mapos.hpp"
#include "testing/fault.hpp"

namespace p5::linecard {
namespace {

/// Mixed traffic: mostly random octets with a sprinkling of flags/escapes so
/// stuffing and delineation actually work for a living.
Bytes test_payload(Xoshiro256& rng, std::size_t len) {
  Bytes p;
  p.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    if (rng.chance(0.08))
      p.push_back(rng.chance(0.5) ? u8{0x7E} : u8{0x7D});
    else
      p.push_back(rng.byte());
  }
  return p;
}

std::vector<std::vector<Bytes>> make_traffic(unsigned channels, std::size_t frames, u64 seed) {
  std::vector<std::vector<Bytes>> traffic(channels);
  for (unsigned c = 0; c < channels; ++c) {
    Xoshiro256 rng(seed + c);
    for (std::size_t f = 0; f < frames; ++f)
      traffic[c].push_back(test_payload(rng, rng.range(40, 1500)));
  }
  return traffic;
}

/// Reference drive: one standalone P5SonetLink fed the same payloads the
/// line-card channel gets, pumped until everything is delivered.
std::vector<Bytes> drive_standalone(const ChannelConfig& cc, const std::vector<Bytes>& payloads) {
  core::P5SonetLink link(cc.p5, cc.sts, cc.tier);
  for (const Bytes& p : payloads) EXPECT_TRUE(link.a().submit_datagram(0x0021, p));
  std::vector<Bytes> out;
  for (int guard = 0; guard < 10000 && out.size() < payloads.size(); ++guard) {
    link.exchange_frames(1);
    while (auto d = link.b().reap_datagram()) out.push_back(std::move(d->payload));
  }
  return out;
}

TEST(LineCard, NspAssignsThePortAddresses) {
  LineCardConfig cfg;
  cfg.channels = 3;
  LineCard lc(cfg);
  for (unsigned i = 0; i < 3; ++i)
    EXPECT_EQ(lc.channel_address(i), net::mapos_port_address(i)) << "channel " << i;
  EXPECT_EQ(lc.uplink_address(), net::mapos_port_address(3));
  EXPECT_EQ(lc.fabric_stats().nsp_assignments, 4u);
}

TEST(LineCard, DeterministicStepMatchesStandaloneLinksByteForByte) {
  constexpr unsigned kChannels = 4;
  constexpr std::size_t kFrames = 8;
  const auto traffic = make_traffic(kChannels, kFrames, 1234);

  LineCardConfig cfg;
  cfg.channels = kChannels;
  LineCard lc(cfg);

  std::vector<std::vector<Bytes>> uplinked(kChannels);
  lc.set_uplink_sink([&](unsigned ch, const net::MaposNode::Received& r) {
    EXPECT_EQ(r.protocol, 0x0021);
    uplinked[ch].push_back(r.payload);
  });

  for (unsigned c = 0; c < kChannels; ++c)
    for (const Bytes& p : traffic[c]) {
      FrameDesc d;
      d.payload = p;
      ASSERT_TRUE(lc.inject(c, std::move(d)));
    }

  const u64 steps = lc.run_until_idle();
  EXPECT_GT(steps, kFrames);  // really did run the round-robin schedule

  for (unsigned c = 0; c < kChannels; ++c) {
    // The line card must deliver exactly what an independently-run link
    // with the same config delivers.
    const auto reference = drive_standalone(cfg.channel, traffic[c]);
    ASSERT_EQ(reference.size(), kFrames) << "standalone link did not deliver, channel " << c;
    ASSERT_EQ(uplinked[c].size(), kFrames) << "line card did not deliver, channel " << c;
    for (std::size_t f = 0; f < kFrames; ++f)
      EXPECT_EQ(uplinked[c][f], reference[f]) << "channel " << c << " frame " << f;
  }

  // Determinism across runs: a second identical line card produces the
  // identical uplink stream.
  LineCard lc2(cfg);
  std::vector<std::vector<Bytes>> uplinked2(kChannels);
  lc2.set_uplink_sink([&](unsigned ch, const net::MaposNode::Received& r) {
    uplinked2[ch].push_back(r.payload);
  });
  for (unsigned c = 0; c < kChannels; ++c)
    for (const Bytes& p : traffic[c]) {
      FrameDesc d;
      d.payload = p;
      ASSERT_TRUE(lc2.inject(c, std::move(d)));
    }
  (void)lc2.run_until_idle();
  EXPECT_EQ(uplinked2, uplinked);
}

TEST(LineCard, TelemetryCountsEveryFrameAndByte) {
  constexpr unsigned kChannels = 2;
  constexpr std::size_t kFrames = 6;
  const auto traffic = make_traffic(kChannels, kFrames, 77);

  LineCardConfig cfg;
  cfg.channels = kChannels;
  LineCard lc(cfg);
  lc.set_uplink_sink([](unsigned, const net::MaposNode::Received&) {});

  std::vector<u64> bytes(kChannels, 0);
  for (unsigned c = 0; c < kChannels; ++c)
    for (const Bytes& p : traffic[c]) {
      bytes[c] += p.size();
      FrameDesc d;
      d.payload = p;
      ASSERT_TRUE(lc.inject(c, std::move(d)));
    }
  (void)lc.run_until_idle();

  for (unsigned c = 0; c < kChannels; ++c) {
    const ChannelSnapshot s = lc.telemetry().snapshot(c);
    EXPECT_EQ(s.frames_in, kFrames);
    EXPECT_EQ(s.frames_out, kFrames);
    EXPECT_EQ(s.bytes_in, bytes[c]);
    EXPECT_EQ(s.bytes_out, bytes[c]);
    EXPECT_EQ(s.fcs_errors, 0u);
    EXPECT_GE(s.ingress_hwm, 1u);  // frames were queued ahead of the link
  }
  const ChannelSnapshot agg = lc.telemetry().aggregate();
  EXPECT_EQ(agg.frames_out, kChannels * kFrames);
  EXPECT_EQ(agg.bytes_out, bytes[0] + bytes[1]);

  // Every uplink frame crossed the fabric as a unicast forward.
  EXPECT_EQ(lc.fabric_stats().frames_forwarded, kChannels * kFrames);
  EXPECT_EQ(lc.fabric_stats().fcs_dropped, 0u);
}

TEST(LineCard, HairpinSwitchesBetweenChannels) {
  // A frame injected on channel 0 addressed to channel 1's MAPOS address
  // must traverse channel 0's link, cross the fabric, traverse channel 1's
  // link, and only then reach the uplink tagged as channel 1.
  LineCardConfig cfg;
  cfg.channels = 2;
  LineCard lc(cfg);

  std::vector<std::pair<unsigned, Bytes>> uplinked;
  lc.set_uplink_sink([&](unsigned ch, const net::MaposNode::Received& r) {
    uplinked.emplace_back(ch, r.payload);
  });

  Xoshiro256 rng(5);
  const Bytes payload = test_payload(rng, 256);
  FrameDesc d;
  d.fabric_dest = lc.channel_address(1);
  d.payload = payload;
  ASSERT_TRUE(lc.inject(0, std::move(d)));
  (void)lc.run_until_idle();

  ASSERT_EQ(uplinked.size(), 1u);
  EXPECT_EQ(uplinked[0].first, 1u);  // emerged from channel 1
  EXPECT_EQ(uplinked[0].second, payload);
  EXPECT_EQ(lc.telemetry().snapshot(0).frames_out, 1u);
  EXPECT_EQ(lc.telemetry().snapshot(1).frames_in, 1u);
  EXPECT_EQ(lc.fabric_stats().frames_forwarded, 2u);  // ch0->ch1, ch1->uplink
}

TEST(LineCard, SourceRingBackpressureIsCountedAndNonDestructive) {
  LineCardConfig cfg;
  cfg.channels = 1;
  cfg.channel.ring_capacity = 4;
  LineCard lc(cfg);
  lc.set_uplink_sink([](unsigned, const net::MaposNode::Received&) {});

  Xoshiro256 rng(9);
  unsigned accepted = 0;
  for (int i = 0; i < 6; ++i) {
    FrameDesc d;
    d.payload = test_payload(rng, 64);
    if (lc.inject(0, std::move(d))) ++accepted;
  }
  EXPECT_EQ(accepted, 4u);  // ring capacity
  EXPECT_GE(lc.telemetry().snapshot(0).ring_full_stalls, 2u);

  (void)lc.run_until_idle();
  EXPECT_EQ(lc.telemetry().snapshot(0).frames_out, 4u);  // accepted frames all arrive
}

TEST(Channel, EgressSpillKeepsOrderWhenFabricLags) {
  // Drive a Channel directly and let its egress ring (capacity 2) overflow
  // by not draining it: deliveries must spill, count stalls, and drain in
  // order once the consumer catches up.
  ChannelTelemetry tel;
  ChannelConfig cc;
  cc.ring_capacity = 2;
  Channel ch(0, cc, tel);

  constexpr std::size_t kFrames = 5;
  std::size_t fed = 0;
  for (int guard = 0; guard < 5000 && tel.snapshot().frames_out < kFrames; ++guard) {
    if (fed < kFrames) {
      FrameDesc d;
      d.payload = Bytes{static_cast<u8>(fed), 1, 2, 3};
      if (ch.source_ring().try_push(std::move(d))) ++fed;
    }
    ch.step();
  }
  ASSERT_EQ(tel.snapshot().frames_out, kFrames);
  EXPECT_GE(tel.snapshot().ring_full_stalls, 1u);  // the spill engaged
  EXPECT_GE(tel.snapshot().egress_hwm, 3u);        // beyond the ring's capacity

  std::vector<u8> order;
  for (int guard = 0; guard < 100 && order.size() < kFrames; ++guard) {
    while (auto d = ch.egress_ring().try_pop()) order.push_back(d->payload[0]);
    ch.step();  // flushes the spill into the freed slots
  }
  ASSERT_EQ(order.size(), kFrames);
  for (std::size_t i = 0; i < kFrames; ++i) EXPECT_EQ(order[i], i);
}

TEST(LineCard, LossAccountingIsExactUnderFaultyLines) {
  // Four tributaries, each with a seeded FaultyLine on its A->B optical
  // direction. Whatever the line eats, the telemetry must account for every
  // single non-delivered descriptor: at idle, frames_in == frames_out +
  // frames_lost per channel — no double count, no leak — and every frame
  // that does reach the uplink is byte-identical to one that was injected.
  constexpr unsigned kChannels = 4;
  constexpr std::size_t kFrames = 30;
  const auto traffic = make_traffic(kChannels, kFrames, 20260806);

  LineCardConfig cfg;
  cfg.channels = kChannels;
  cfg.channel.ring_capacity = 64;
  LineCard lc(cfg);

  // Taps go in before any traffic moves; each direction gets its own
  // stateful FaultyLine (kept alive in this scope for the stats read-back).
  std::vector<std::unique_ptr<testing::FaultyLine>> lines;
  for (unsigned c = 0; c < kChannels; ++c) {
    testing::FaultSpec spec = testing::FaultSpec::ber(3e-5, 0x10C0 + c);
    spec.slip_delete_rate = 0.02;  // occasional pointer-style byte slip
    lines.push_back(std::make_unique<testing::FaultyLine>(spec));
    lc.channel(c).link().set_line_tap(
        [line = lines.back().get()](Bytes& b) { line->apply(b); }, {});
  }

  std::vector<u64> uplinked(kChannels, 0);
  lc.set_uplink_sink([&](unsigned ch, const net::MaposNode::Received& r) {
    ++uplinked[ch];
    // No silent corruption through the fabric either: the payload must be
    // one of the frames injected on that channel.
    EXPECT_NE(std::find(traffic[ch].begin(), traffic[ch].end(), r.payload), traffic[ch].end())
        << "channel " << ch << " delivered a payload that was never injected";
  });

  for (unsigned c = 0; c < kChannels; ++c)
    for (const Bytes& p : traffic[c]) {
      FrameDesc d;
      d.payload = p;
      ASSERT_TRUE(lc.inject(c, std::move(d)));
    }
  (void)lc.run_until_idle();

  u64 total_lost = 0;
  for (unsigned c = 0; c < kChannels; ++c) {
    const ChannelSnapshot s = lc.telemetry().snapshot(c);
    EXPECT_EQ(s.frames_in, kFrames) << "channel " << c;
    EXPECT_EQ(s.frames_out, uplinked[c]) << "channel " << c;
    // The exact-accounting invariant.
    EXPECT_EQ(s.frames_in, s.frames_out + s.frames_lost)
        << "channel " << c << ": " << s.frames_out << " delivered + " << s.frames_lost
        << " written off != " << s.frames_in << " admitted";
    EXPECT_GT(lines[c]->stats().events(), 0u) << "channel " << c << " line was never noisy";
    total_lost += s.frames_lost;
  }

  const ChannelSnapshot agg = lc.telemetry().aggregate();
  EXPECT_EQ(agg.frames_in, u64{kChannels} * kFrames);
  EXPECT_EQ(agg.frames_in, agg.frames_out + agg.frames_lost);
  EXPECT_EQ(agg.frames_lost, total_lost);
  // With these seeds the noise really bites — and the card still delivers.
  EXPECT_GT(agg.frames_lost, 0u) << "fault injection never cost a frame; raise the BER";
  EXPECT_GT(agg.frames_out, 0u) << "the card delivered nothing at all";
}

TEST(LineCard, ThreadedModeDeliversEverythingExactlyOnce) {
  constexpr unsigned kChannels = 4;
  constexpr std::size_t kFrames = 24;
  const auto traffic = make_traffic(kChannels, kFrames, 4321);

  LineCardConfig cfg;
  cfg.channels = kChannels;
  cfg.channel.ring_capacity = 8;  // force real backpressure on the sources
  LineCard lc(cfg);

  std::atomic<u64> received{0};
  std::vector<u64> frames_per_channel(kChannels, 0);  // fabric thread only
  std::vector<u64> bytes_per_channel(kChannels, 0);
  lc.set_uplink_sink([&](unsigned ch, const net::MaposNode::Received& r) {
    ++frames_per_channel[ch];
    bytes_per_channel[ch] += r.payload.size();
    received.fetch_add(1, std::memory_order_release);
  });

  lc.start();
  EXPECT_TRUE(lc.running());
  // Feed all channels from this thread (the single source producer),
  // blocking when a ring fills.
  for (std::size_t f = 0; f < kFrames; ++f)
    for (unsigned c = 0; c < kChannels; ++c) {
      FrameDesc d;
      d.payload = traffic[c][f];
      lc.inject_blocking(c, std::move(d));
    }

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (received.load(std::memory_order_acquire) < kChannels * kFrames &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  lc.stop();
  EXPECT_FALSE(lc.running());

  ASSERT_EQ(received.load(), kChannels * kFrames) << "timed out waiting for deliveries";
  u64 expected_bytes = 0, counted_bytes = 0;
  for (unsigned c = 0; c < kChannels; ++c) {
    EXPECT_EQ(frames_per_channel[c], kFrames) << "channel " << c;
    const ChannelSnapshot s = lc.telemetry().snapshot(c);
    EXPECT_EQ(s.frames_in, kFrames);
    EXPECT_EQ(s.frames_out, kFrames);
    EXPECT_EQ(s.fcs_errors, 0u);
    for (const Bytes& p : traffic[c]) expected_bytes += p.size();
    counted_bytes += bytes_per_channel[c];
  }
  EXPECT_EQ(counted_bytes, expected_bytes);
  EXPECT_EQ(lc.telemetry().aggregate().frames_out, kChannels * kFrames);

  // Idempotent / clean restart after a full stop.
  lc.start();
  lc.stop();
}

}  // namespace
}  // namespace p5::linecard
