// transport:: — the epoll socket layer that carries P5 SONET streams
// between real processes.
//
//  * EventLoop: deterministic manual-time timers, readiness dispatch,
//    thread-safe post()/stop() (run under -fsanitize=thread).
//  * StreamConn: 10k mixed-size frames echoed over loopback TCP, byte-exact
//    and in order; write-queue watermark refuses frames instead of
//    ballooning.
//  * Tunnel: a socketed P5SonetEndpoint pair delivers byte-for-byte what a
//    directly wired P5SonetLink delivers, with zero CRC/BIP errors;
//    kill-and-reconnect runs the backoff ladder and keeps the loss
//    invariant frames_in == frames_out + frames_lost exact; UDP datagram
//    loss (testing::FaultSpec::drop as the rx tap) costs resyncs, never
//    corrupt deliveries; a linecard::Channel's fabric edge bridges across
//    the socket; the backoff budget fails closed; an oversize length prefix
//    is a protocol error, not a wait for gigabytes.
//
// The tunnel tests run at both device tiers: the TcpDelivery/Udp pairs pin
// DeviceTier::kCycle and DeviceTier::kFast in twin tests, and the
// kill/reconnect, channel-bridge and drain tests run their body once per
// tier.
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "linecard/channel.hpp"
#include "linecard/telemetry.hpp"
#include "p5/sonet_link.hpp"
#include "testing/fault.hpp"
#include "transport/conn.hpp"
#include "transport/event_loop.hpp"
#include "transport/tunnel.hpp"

namespace p5::transport {
namespace {

constexpr core::DeviceTier kBothTiers[] = {core::DeviceTier::kCycle, core::DeviceTier::kFast};

/// Mixed traffic with flags/escapes sprinkled in, index stamped up front so
/// any delivery identifies the datagram it came from.
Bytes stamped_payload(Xoshiro256& rng, u32 index, std::size_t len) {
  Bytes p;
  p.reserve(len + 4);
  put_be32(p, index);
  for (std::size_t i = 0; i < len; ++i) {
    if (rng.chance(0.08))
      p.push_back(rng.chance(0.5) ? u8{0x7E} : u8{0x7D});
    else
      p.push_back(rng.byte());
  }
  return p;
}

// ---------------------------------------------------------------- EventLoop

TEST(TransportEventLoop, ManualTimeFiresTimersOnlyWhenAdvanced) {
  EventLoop loop;
  loop.enable_manual_time();
  int fired_a = 0, fired_b = 0;
  loop.add_timer(10, [&] { ++fired_a; });
  const auto id_b = loop.add_timer(20, [&] { ++fired_b; });
  loop.run_once();
  EXPECT_EQ(fired_a, 0);
  loop.advance_time(10);
  loop.run_once();
  EXPECT_EQ(fired_a, 1);
  EXPECT_EQ(fired_b, 0);
  loop.cancel_timer(id_b);
  loop.advance_time(100);
  loop.run_once();
  EXPECT_EQ(fired_b, 0);
  EXPECT_EQ(loop.pending_timers(), 0u);
}

// Readiness dispatch on the loop's one backend, epoll (the case keeps its
// established name).
TEST(TransportEventLoop, PollBackendDispatchesReadiness) {
  EventLoop loop;
  int pipe_fds[2];
  ASSERT_EQ(::pipe(pipe_fds), 0);
  Fd rd(pipe_fds[0]), wr(pipe_fds[1]);
  ASSERT_TRUE(set_nonblocking(rd.get()));
  int reads = 0;
  loop.add_fd(rd.get(), kReadable, [&](u32 events) {
    EXPECT_TRUE(events & kReadable);
    char buf[8];
    while (::read(rd.get(), buf, sizeof(buf)) > 0) ++reads;
  });
  loop.run_once();
  EXPECT_EQ(reads, 0);
  ASSERT_EQ(::write(wr.get(), "x", 1), 1);
  loop.run_once(100);
  EXPECT_EQ(reads, 1);
  loop.remove_fd(rd.get());
  ASSERT_EQ(::write(wr.get(), "y", 1), 1);
  loop.run_once();
  EXPECT_EQ(reads, 1);  // a removed fd dispatches nothing
}

TEST(TransportEventLoop, PostAndStopAreThreadSafe) {
  EventLoop loop;
  std::atomic<int> ran{0};
  std::thread runner([&] { loop.run(); });
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(loop.post([&] { ran.fetch_add(1, std::memory_order_relaxed); }));
  }
  while (ran.load(std::memory_order_relaxed) < 100) std::this_thread::yield();
  loop.stop();
  runner.join();
  EXPECT_EQ(ran.load(), 100);
  EXPECT_TRUE(loop.stopped());
}

TEST(TransportEventLoop, PostAfterStopIsObservablyDropped) {
  EventLoop loop;
  loop.stop();
  bool ran = false;
  EXPECT_FALSE(loop.post([&] { ran = true; }));  // rejected, nothing enqueued
  loop.run_once();  // only the self-pipe wake drain may dispatch here
  EXPECT_EQ(loop.drain_posted(), 0u);
  EXPECT_FALSE(ran);
}

// The shutdown-ordering contract (event_loop.hpp): a post() racing stop()
// either runs before run() returns or returns false. Producer threads hammer
// post() while the main thread stops the loop mid-stream; every accepted
// task must have executed once the runner joins — none stranded, no
// deadlock, no double-run.
TEST(TransportEventLoop, PostRacingStopRunsOrIsDropped) {
  for (int round = 0; round < 8; ++round) {
    EventLoop loop;
    std::atomic<int> ran{0};
    std::atomic<int> accepted{0};
    std::atomic<bool> go{false};
    std::thread runner([&] { loop.run(); });
    constexpr int kProducers = 4;
    constexpr int kPostsEach = 200;
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        for (int i = 0; i < kPostsEach; ++i) {
          if (loop.post([&] { ran.fetch_add(1, std::memory_order_relaxed); })) {
            accepted.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    go.store(true, std::memory_order_release);
    while (accepted.load(std::memory_order_relaxed) < kProducers * kPostsEach / 4) {
      std::this_thread::yield();
    }
    loop.stop();  // races the still-running producers
    for (auto& t : producers) t.join();
    runner.join();
    EXPECT_EQ(ran.load(), accepted.load()) << "round " << round;
    EXPECT_FALSE(loop.post([] {}));  // stays rejected after shutdown
  }
}

TEST(TransportEventLoop, DrainPostedCoversCustomDrivers) {
  // A custom driver (a server shard) loops run_once() on its own stop flag;
  // drain_posted() after the flag trips gives it the same no-stranded-task
  // guarantee run() has. Tasks posted from within a drained task also run.
  EventLoop loop;
  int ran = 0;
  ASSERT_TRUE(loop.post([&] {
    ++ran;
    ASSERT_TRUE(loop.post([&] { ++ran; }));  // nested re-post, pre-stop
  }));
  EXPECT_EQ(loop.drain_posted(), 2u);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(loop.drain_posted(), 0u);
}

// --------------------------------------------------------------- StreamConn

struct LoopbackPair {
  EventLoop& loop;
  Fd listen_fd;
  std::unique_ptr<StreamConn> client, server;

  LoopbackPair(EventLoop& loop_ref, TransportTelemetry& ctel, TransportTelemetry& stel,
               ConnConfig ccfg = {}, ConnConfig scfg = {})
      : loop(loop_ref) {
    listen_fd = tcp_listen(SocketAddr{"127.0.0.1", 0});
    EXPECT_TRUE(listen_fd.valid());
    loop.add_fd(listen_fd.get(), kReadable, [this, &stel, scfg](u32) {
      Fd c = tcp_accept(listen_fd.get());
      if (!c.valid()) return;
      server = std::make_unique<StreamConn>(loop, stel, scfg, std::move(c), false);
    });
    bool in_progress = false;
    Fd c = tcp_connect(SocketAddr{"127.0.0.1", local_port(listen_fd.get())}, in_progress);
    EXPECT_TRUE(c.valid());
    client = std::make_unique<StreamConn>(loop, ctel, ccfg, std::move(c), in_progress);
    for (int guard = 0; guard < 1000 && (!server || !client->open()); ++guard) loop.run_once(10);
    EXPECT_TRUE(server && client->open() && server->open());
  }
  ~LoopbackPair() {
    if (listen_fd.valid()) loop.remove_fd(listen_fd.get());
  }
};

TEST(TransportStream, Echo10kMixedFramesByteExact) {
  EventLoop loop;
  TransportTelemetry ctel, stel;
  // The echo side gets a deep watermark: its outflow is gated by the
  // client's reads, not by its own flow control.
  ConnConfig scfg;
  scfg.send_watermark_bytes = 64 * 1024 * 1024;
  LoopbackPair pair(loop, ctel, stel, {}, scfg);
  // Server echoes every frame straight back.
  pair.server->set_on_frames([&](std::span<const BytesView> burst) {
    for (const BytesView& v : burst) ASSERT_TRUE(pair.server->send_frame(v));
  });

  constexpr std::size_t kFrames = 10000;
  Xoshiro256 rng(7);
  std::vector<Bytes> sent;
  sent.reserve(kFrames);
  for (u32 i = 0; i < kFrames; ++i)
    sent.push_back(stamped_payload(rng, i, rng.range(1, 1800)));

  std::vector<Bytes> echoed;
  echoed.reserve(kFrames);
  pair.client->set_on_frames([&](std::span<const BytesView> burst) {
    for (const BytesView& v : burst) echoed.emplace_back(v.begin(), v.end());
  });

  std::size_t next = 0;
  for (int guard = 0; guard < 200000 && echoed.size() < kFrames; ++guard) {
    while (next < kFrames && pair.client->send_frame(sent[next])) ++next;
    loop.run_once(10);
  }
  ASSERT_EQ(echoed.size(), kFrames);
  for (std::size_t i = 0; i < kFrames; ++i) ASSERT_EQ(echoed[i], sent[i]) << "frame " << i;

  const TransportSnapshot c = ctel.snapshot();
  EXPECT_EQ(c.frames_in, kFrames);
  EXPECT_EQ(c.frames_out, kFrames);
  EXPECT_EQ(c.frames_lost, 0u);
  EXPECT_EQ(c.frames_rcvd, kFrames);
  EXPECT_EQ(c.proto_errors, 0u);
}

TEST(TransportStream, WatermarkRefusesFramesAndLossIsExactOnClose) {
  EventLoop loop;
  TransportTelemetry tel;
  // Peer never accepts: the kernel completes the handshake into the listen
  // backlog, then its buffers fill and the write queue hits the watermark.
  Fd listen_fd = tcp_listen(SocketAddr{"127.0.0.1", 0});
  ASSERT_TRUE(listen_fd.valid());
  bool in_progress = false;
  Fd c = tcp_connect(SocketAddr{"127.0.0.1", local_port(listen_fd.get())}, in_progress);
  ASSERT_TRUE(c.valid());
  ConnConfig cfg;
  cfg.send_watermark_bytes = 16 * 1024;
  StreamConn conn(loop, tel, cfg, std::move(c), in_progress);
  for (int guard = 0; guard < 1000 && !conn.open(); ++guard) loop.run_once(10);
  ASSERT_TRUE(conn.open());

  const Bytes chunk(2048, 0xAB);
  std::size_t accepted = 0;
  for (int guard = 0; guard < 100000; ++guard) {
    if (!conn.send_frame(chunk)) break;
    ++accepted;
  }
  EXPECT_FALSE(conn.writable());
  EXPECT_GT(conn.queued_frames(), 0u);
  conn.close();
  const TransportSnapshot s = tel.snapshot();
  EXPECT_EQ(s.frames_in, accepted);
  EXPECT_EQ(s.frames_in, s.frames_out + s.frames_lost);  // queue term is zero
  EXPECT_GT(s.frames_lost, 0u);
  EXPECT_GT(s.send_queue_hwm, 0u);
}

TEST(TransportStream, OversizeLengthPrefixIsProtoErrorAndClose) {
  EventLoop loop;
  TransportTelemetry tel;
  Fd listen_fd = tcp_listen(SocketAddr{"127.0.0.1", 0});
  ASSERT_TRUE(listen_fd.valid());
  bool in_progress = false;
  Fd raw = tcp_connect(SocketAddr{"127.0.0.1", local_port(listen_fd.get())}, in_progress);
  ASSERT_TRUE(raw.valid());
  pollfd pfd{raw.get(), POLLOUT, 0};
  ASSERT_EQ(::poll(&pfd, 1, 5000), 1);
  Fd accepted;
  for (int guard = 0; guard < 1000 && !accepted.valid(); ++guard) {
    accepted = tcp_accept(listen_fd.get());
    if (!accepted.valid()) ::usleep(1000);
  }
  ASSERT_TRUE(accepted.valid());

  StreamConn conn(loop, tel, {}, std::move(accepted), /*connecting=*/false);
  std::vector<Bytes> got;
  bool closed = false;
  conn.set_on_frames([&](std::span<const BytesView> burst) {
    for (const BytesView& v : burst) got.emplace_back(v.begin(), v.end());
  });
  conn.set_on_closed([&] { closed = true; });

  // One valid 3-octet chunk, then a prefix announcing 4 GiB.
  const Bytes wire = {0x00, 0x00, 0x00, 0x03, 0x01, 0x02, 0x03, 0xFF, 0xFF, 0xFF, 0xFF};
  ASSERT_EQ(::send(raw.get(), wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));
  for (int guard = 0; guard < 1000 && !closed; ++guard) loop.run_once(10);

  EXPECT_TRUE(closed);
  EXPECT_FALSE(conn.open());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], (Bytes{0x01, 0x02, 0x03}));
  const TransportSnapshot s = tel.snapshot();
  EXPECT_EQ(s.frames_rcvd, 1u);
  EXPECT_EQ(s.proto_errors, 1u);
}

// ------------------------------------------------------------------- Tunnel

struct TunnelHarness {
  EventLoop loop;
  std::unique_ptr<core::SonetEndpoint> ep_a, ep_b;
  std::unique_ptr<Tunnel> tun_a, tun_b;  // a listens, b connects

  TunnelHarness(core::DeviceTier tier, bool udp, TunnelConfig extra = {})
      : ep_a(core::make_sonet_endpoint(tier, {}, sonet::kSts3c)),
        ep_b(core::make_sonet_endpoint(tier, {}, sonet::kSts3c)) {
    TunnelConfig ca = extra;
    ca.listen = true;
    ca.udp = udp;
    ca.port = 0;
    tun_a = std::make_unique<Tunnel>(loop, TunnelBinding::endpoint(*ep_a), ca);
    tun_a->start();
    TunnelConfig cb = extra;
    cb.listen = false;
    cb.udp = udp;
    cb.port = tun_a->bound_port();
    cb.seed = extra.seed + 1;
    tun_b = std::make_unique<Tunnel>(loop, TunnelBinding::endpoint(*ep_b), cb);
    tun_b->start();
  }

  void pump(int timeout_ms = 1) {
    tun_a->pump();
    tun_b->pump();
    loop.run_once(timeout_ms);
  }
};

/// Reference: the same payloads through a directly wired in-memory link.
std::vector<Bytes> direct_deliveries(const std::vector<Bytes>& payloads) {
  core::P5SonetLink link({}, sonet::kSts3c, {});
  for (const Bytes& p : payloads) EXPECT_TRUE(link.a().submit_datagram(0x0021, p));
  std::vector<Bytes> out;
  for (int guard = 0; guard < 10000 && out.size() < payloads.size(); ++guard) {
    link.exchange_frames(1);
    while (auto d = link.b().reap_datagram()) out.push_back(std::move(d->payload));
  }
  return out;
}

/// TCP echo at a given device tier: socketed deliveries must match a
/// directly wired cycle-level P5SonetLink byte for byte (for the fast tier
/// this is also a cross-tier equivalence check over a real socket).
void tcp_echo_byte_exact(core::DeviceTier tier) {
  constexpr std::size_t kDatagrams = 40;
  Xoshiro256 rng(11);
  std::vector<Bytes> payloads;
  for (u32 i = 0; i < kDatagrams; ++i)
    payloads.push_back(stamped_payload(rng, i, rng.range(40, 400)));

  TunnelHarness h(tier, /*udp=*/false);
  for (const Bytes& p : payloads) ASSERT_TRUE(h.ep_b->submit_datagram(0x0021, p));

  std::vector<Bytes> delivered;
  for (int guard = 0; guard < 20000 && delivered.size() < kDatagrams; ++guard) {
    h.pump();
    while (auto d = h.ep_a->reap_datagram()) delivered.push_back(std::move(d->payload));
  }
  ASSERT_EQ(delivered.size(), kDatagrams);
  EXPECT_EQ(delivered, direct_deliveries(payloads));

  // Zero CRC/BIP errors across the socketed path.
  EXPECT_EQ(h.ep_a->rx_counters().frames_bad, 0u);
  EXPECT_EQ(h.ep_a->rx_stats().b3_errors, 0u);
  EXPECT_EQ(h.ep_a->rx_stats().resyncs, 0u);
  EXPECT_TRUE(h.ep_a->rx_in_sync());

  // Chunk accounting is exact on both sides of the wire.
  const TransportSnapshot sa = h.tun_a->stats(), sb = h.tun_b->stats();
  EXPECT_EQ(sb.frames_lost, 0u);
  EXPECT_EQ(sb.frames_in, sb.frames_out);
  EXPECT_EQ(sa.frames_rcvd, sb.frames_out);
  EXPECT_EQ(sa.rx_drops, 0u);
  EXPECT_EQ(sb.connects, 1u);
  EXPECT_EQ(sb.reconnects, 0u);
}

TEST(TransportTunnel, TcpDeliveryByteExactVsDirectWiringZeroCrcErrors) {
  tcp_echo_byte_exact(core::DeviceTier::kCycle);
}

TEST(TransportTunnel, FastTierTcpDeliveryByteExactVsCycleDirectWiring) {
  tcp_echo_byte_exact(core::DeviceTier::kFast);
}

TEST(TransportTunnel, KillAndReconnectRunsBackoffAndKeepsLossInvariant) {
  for (const core::DeviceTier tier : kBothTiers) {
    SCOPED_TRACE(core::to_string(tier));
    TunnelConfig extra;
    extra.backoff_initial_ms = 1;
    extra.backoff_max_ms = 8;
    extra.seed = 21;
    TunnelHarness h(tier, /*udp=*/false, extra);

    Xoshiro256 rng(13);
    std::vector<Bytes> payloads;
    for (u32 i = 0; i < 30; ++i) payloads.push_back(stamped_payload(rng, i, rng.range(40, 300)));

    std::map<u32, Bytes> delivered;
    std::size_t submitted = 0;
    bool killed = false;
    int settle = 0;
    for (int guard = 0; guard < 20000; ++guard) {
      if (h.tun_b->established() && submitted < payloads.size()) {
        if (h.ep_b->submit_datagram(0x0021, payloads[submitted])) ++submitted;
      }
      h.pump();
      // Sever mid-stream once traffic is moving, then let the ladder recover.
      if (!killed && h.tun_a->stats().frames_rcvd > 2) {
        h.tun_b->kill_connection();
        killed = true;
      }
      while (auto d = h.ep_a->reap_datagram()) {
        ASSERT_GE(d->payload.size(), 4u);
        delivered[get_be32(d->payload, 0)] = d->payload;
      }
      // Everything submitted, reconnected, TX quiesced: give the tail a few
      // hundred slices to flush, then stop.
      if (submitted == payloads.size() && killed && h.tun_b->stats().reconnects >= 1 &&
          h.tun_b->established() && !h.ep_b->tx_pending()) {
        if (++settle > 300) break;
      } else {
        settle = 0;
      }
    }
    ASSERT_TRUE(killed);
    EXPECT_GE(delivered.size(), 10u);  // the outage eats some, never most

    const TransportSnapshot sb = h.tun_b->stats();
    EXPECT_EQ(sb.connects, 1u);
    EXPECT_GE(sb.reconnects, 1u);
    EXPECT_GE(sb.backoff_waits, 1u);
    EXPECT_GE(sb.disconnects, 1u);
    // Exact chunk accounting across the outage: at quiescence every accepted
    // chunk is either out or counted lost.
    EXPECT_EQ(sb.frames_in, sb.frames_out + sb.frames_lost);
    // Whatever made it through is byte-exact (CRC junked anything torn).
    for (const auto& [idx, p] : delivered) {
      ASSERT_LT(idx, payloads.size());
      EXPECT_EQ(p, payloads[idx]);
    }
    EXPECT_TRUE(h.tun_b->established());

  }
}

/// UDP with a 40% chunk-drop tap at a given device tier: losses cost
/// resyncs and junked frames, never corrupt deliveries.
void udp_tolerates_datagram_loss(core::DeviceTier tier) {
  TunnelHarness h(tier, /*udp=*/true);
  // 40% chunk loss over ~20 data-carrying chunks: some datagrams certainly
  // die, some certainly survive (deterministic tap stream, seed 31).
  testing::FaultyLine drops(testing::FaultSpec::drop(0.4, 31));
  h.tun_a->set_rx_tap(std::ref(drops));  // losses on the B->A direction

  Xoshiro256 rng(17);
  std::vector<Bytes> payloads;
  for (u32 i = 0; i < 60; ++i)
    payloads.push_back(stamped_payload(rng, i, rng.range(400, 1200)));

  std::map<u32, Bytes> delivered;
  std::size_t submitted = 0;
  int settle = 0;
  for (int guard = 0; guard < 20000; ++guard) {
    if (submitted < payloads.size() &&
        h.ep_b->submit_datagram(0x0021, payloads[submitted]))
      ++submitted;
    h.pump();
    while (auto d = h.ep_a->reap_datagram()) {
      ASSERT_GE(d->payload.size(), 4u);
      delivered[get_be32(d->payload, 0)] = d->payload;
    }
    if (submitted == payloads.size() && !h.ep_b->tx_pending()) {
      if (++settle > 300) break;
    } else {
      settle = 0;
    }
  }

  // The tap really dropped chunks, some datagrams still got through, and
  // every one that did is byte-exact — the self-sync scrambler plus HDLC
  // CRC turn datagram loss into clean gaps, never corrupt deliveries.
  EXPECT_GT(drops.stats().drops, 0u);
  EXPECT_GT(delivered.size(), 0u);
  EXPECT_LT(delivered.size(), payloads.size());
  for (const auto& [idx, p] : delivered) {
    ASSERT_LT(idx, payloads.size());
    EXPECT_EQ(p, payloads[idx]);
  }
  // A dropped chunk tears the HDLC frame spanning it; the FCS catches every
  // tear and junks it (frames_bad) instead of delivering garbage.
  EXPECT_GT(h.ep_a->rx_counters().frames_bad, 0u);

  // Datagram accounting: everything B sent was either received by A's
  // tunnel or vanished in the (loss-free loopback) kernel path — and the
  // tap's drops happened after frames_rcvd counted them.
  const TransportSnapshot sa = h.tun_a->stats(), sb = h.tun_b->stats();
  EXPECT_EQ(sb.frames_in, sb.frames_out + sb.frames_lost);
  EXPECT_LE(sa.frames_rcvd, sb.frames_out);
}

TEST(TransportTunnel, UdpToleratesInjectedDatagramLoss) {
  udp_tolerates_datagram_loss(core::DeviceTier::kCycle);
}

TEST(TransportTunnel, FastTierUdpToleratesFortyPercentDatagramLoss) {
  udp_tolerates_datagram_loss(core::DeviceTier::kFast);
}

TEST(TransportTunnel, ChannelBindingBridgesFabricAcrossTheSocket) {
  for (const core::DeviceTier tier : kBothTiers) {
    SCOPED_TRACE(core::to_string(tier));
    EventLoop loop;
    linecard::ChannelTelemetry tel_a, tel_b;
    linecard::ChannelConfig cc;
    cc.tier = tier;
    linecard::Channel ch_a(0, cc, tel_a), ch_b(1, cc, tel_b);

    TunnelConfig ca;
    ca.listen = true;
    ca.port = 0;
    Tunnel tun_a(loop, TunnelBinding::channel(ch_a), ca);
    tun_a.start();

    // B side: deliveries out of ch_b's link are consumed by the test itself,
    // so the tunnel only feeds the fabric ring (one-way bridge).
    TunnelBinding b_bind = TunnelBinding::channel(ch_b);
    b_bind.pull = nullptr;
    b_bind.ready = nullptr;
    TunnelConfig cb;
    cb.port = tun_a.bound_port();
    Tunnel tun_b(loop, std::move(b_bind), cb);
    tun_b.start();

    Xoshiro256 rng(19);
    std::vector<Bytes> payloads;
    for (u32 i = 0; i < 12; ++i) payloads.push_back(stamped_payload(rng, i, rng.range(40, 200)));
    for (const Bytes& p : payloads) {
      linecard::FrameDesc d;
      d.fabric_dest = 0x41;
      d.payload = p;
      ASSERT_TRUE(ch_a.source_ring().try_push(std::move(d)));
    }

    std::vector<linecard::FrameDesc> arrived;
    for (int guard = 0; guard < 60000 && arrived.size() < payloads.size(); ++guard) {
      tun_a.pump();
      tun_b.pump();
      loop.run_once(1);
      while (auto d = ch_b.egress_ring().try_pop()) arrived.push_back(std::move(*d));
    }
    ASSERT_EQ(arrived.size(), payloads.size());
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      EXPECT_EQ(arrived[i].payload, payloads[i]);
      EXPECT_EQ(arrived[i].source_channel, 1);  // re-stamped by ch_b's ingress
    }
    EXPECT_EQ(tun_a.stats().frames_out, payloads.size());
    EXPECT_EQ(tun_b.stats().rx_drops, 0u);

  }
}

TEST(TransportTunnel, DrainFlushesThenCloses) {
  for (const core::DeviceTier tier : kBothTiers) {
    SCOPED_TRACE(core::to_string(tier));
    TunnelHarness h(tier, /*udp=*/false);
    for (int guard = 0; guard < 2000 && !h.tun_b->established(); ++guard) h.pump();
    ASSERT_TRUE(h.tun_b->established());
    h.tun_b->request_drain();
    for (int guard = 0; guard < 2000 && !h.tun_b->finished(); ++guard) h.pump();
    EXPECT_EQ(h.tun_b->state(), TunnelState::kClosed);
    const TransportSnapshot sb = h.tun_b->stats();
    EXPECT_EQ(sb.frames_in, sb.frames_out + sb.frames_lost);
    EXPECT_EQ(sb.frames_lost, 0u);

  }
}

TEST(TransportTunnel, TxPendingHoldsUntilTheLastClosingFlag) {
  // The endpoint binding pulls only while tx_pending() holds, so that alone
  // must carry every octet of a burst, up to its last closing flag, to the
  // far end, and then clear. Bursts of two datagrams whose second length
  // sweeps the burst's end across an SPE boundary.
  for (const core::DeviceTier tier : kBothTiers) {
    SCOPED_TRACE(core::to_string(tier));
    auto near = core::make_sonet_endpoint(tier, {}, sonet::kSts3c);
    auto far = core::make_sonet_endpoint(tier, {}, sonet::kSts3c);
    for (int i = 0; i < 2; ++i) far->push_line(near->pull_frame());
    Xoshiro256 rng(31);
    u32 index = 0;
    for (std::size_t len = 1000; len < 1300; len += 3) {
      const std::vector<Bytes> burst = {stamped_payload(rng, index, 1100),
                                        stamped_payload(rng, index + 1, len)};
      index += 2;
      for (const Bytes& p : burst) ASSERT_TRUE(near->submit_datagram(0x0021, p));
      for (std::size_t frames = 0; near->tx_pending(); ++frames) {
        ASSERT_LT(frames, 4u) << "tx_pending() never cleared";
        far->push_line(near->pull_frame());
      }
      far->drain_rx();
      for (const Bytes& p : burst) {
        auto d = far->reap_datagram();
        ASSERT_TRUE(d.has_value()) << "burst with a " << len << "-octet second datagram";
        EXPECT_EQ(d->payload, p);
      }
      EXPECT_FALSE(far->reap_datagram().has_value());
    }
    EXPECT_EQ(far->rx_counters().frames_bad, 0u);
  }
}

TEST(TransportTunnel, NoFrameIsPulledOnceABurstHasDrained) {
  // Every frame a tunnel pulls is pulled while tx_pending() holds: after a
  // burst's last closing flag, not one frame of pure flag fill.
  for (const core::DeviceTier tier : kBothTiers) {
    SCOPED_TRACE(core::to_string(tier));
    EventLoop loop;
    auto ep_a = core::make_sonet_endpoint(tier, {}, sonet::kSts3c);
    auto ep_b = core::make_sonet_endpoint(tier, {}, sonet::kSts3c);
    TunnelConfig ca;
    ca.listen = true;
    Tunnel tun_a(loop, TunnelBinding::endpoint(*ep_a), ca);
    tun_a.start();
    std::size_t gated = 0;  // frames pulled while tx_pending() held
    TunnelBinding b = TunnelBinding::endpoint(*ep_b);
    b.pull = [inner = b.pull, &ep = *ep_b, &gated] {
      if (ep.tx_pending()) ++gated;
      return inner();
    };
    TunnelConfig cb;
    cb.port = tun_a.bound_port();
    Tunnel tun_b(loop, std::move(b), cb);
    tun_b.start();
    const auto pump = [&] {
      tun_a.pump();
      tun_b.pump();
      loop.run_once(1);
    };
    for (int guard = 0; guard < 2000 && !tun_b.established(); ++guard) pump();
    ASSERT_TRUE(tun_b.established());

    Xoshiro256 rng(41);
    u32 sent = 0, delivered = 0;
    for (int burst = 0; burst < 6; ++burst) {
      for (u64 n = 1 + rng.below(8); n > 0; --n)
        ASSERT_TRUE(ep_b->submit_datagram(0x0021, stamped_payload(rng, sent++, rng.range(1, 1400))));
      for (int guard = 0; guard < 5000 && (delivered < sent || ep_b->tx_pending()); ++guard) {
        pump();
        while (ep_a->reap_datagram()) ++delivered;
      }
      ASSERT_EQ(delivered, sent);
      for (int i = 0; i < 20; ++i) pump();  // idle: nothing to pull
      EXPECT_GT(gated, 0u);
      EXPECT_EQ(ep_b->frames_pulled(), gated) << "after burst " << burst;
    }
    EXPECT_EQ(tun_b.stats().frames_out, gated);
    EXPECT_EQ(ep_a->rx_counters().frames_bad, 0u);
  }
}

TEST(TransportTunnel, BackoffBudgetFailsClosed) {
  // Find a port with nobody behind it.
  u16 dead_port;
  {
    Fd probe = tcp_listen(SocketAddr{"127.0.0.1", 0});
    ASSERT_TRUE(probe.valid());
    dead_port = local_port(probe.get());
  }
  EventLoop loop;
  core::P5SonetEndpoint ep({}, sonet::kSts3c);
  TunnelConfig cfg;
  cfg.port = dead_port;
  cfg.backoff_initial_ms = 2;
  cfg.backoff_max_ms = 8;
  cfg.backoff_budget_ms = 30;
  Tunnel tun(loop, TunnelBinding::endpoint(ep), cfg);
  tun.start();
  for (int guard = 0; guard < 5000 && !tun.finished(); ++guard) {
    tun.pump();
    loop.run_once(1);
  }
  EXPECT_EQ(tun.state(), TunnelState::kFailed);
  const TransportSnapshot s = tun.stats();
  EXPECT_GE(s.backoff_waits, 1u);
  EXPECT_EQ(s.connects, 0u);
}

TEST(TransportTunnel, BackpressureStallsAreCounted) {
  // A listener that never accepts: the client's write queue fills at the
  // kernel's pace and the pump defers, counting stalls while chunks stay in
  // the binding instead of ballooning the socket queue.
  EventLoop loop;
  Fd blackhole = tcp_listen(SocketAddr{"127.0.0.1", 0});
  ASSERT_TRUE(blackhole.valid());

  TunnelBinding firehose;
  firehose.pull = [] { return Bytes(2048, 0x5A); };
  firehose.ready = [] { return true; };
  firehose.push_batch = [](std::span<const BytesView> burst) { return burst.size(); };

  TunnelConfig cfg;
  cfg.port = local_port(blackhole.get());
  cfg.conn.send_watermark_bytes = 16 * 1024;
  Tunnel tun(loop, std::move(firehose), cfg);
  tun.start();
  for (int guard = 0; guard < 20000 && tun.stats().backpressure_stalls == 0; ++guard) {
    tun.pump();
    loop.run_once(0);
  }
  const TransportSnapshot mid = tun.stats();
  EXPECT_GT(mid.backpressure_stalls, 0u);
  EXPECT_GT(mid.send_queue_hwm, 0u);

  // Hard kill: the queued remainder is charged as lost, exactly.
  tun.kill_connection();
  loop.run_once(1);
  const TransportSnapshot s = tun.stats();
  EXPECT_EQ(s.frames_in, s.frames_out + s.frames_lost);
  EXPECT_GT(s.frames_lost, 0u);
}

}  // namespace
}  // namespace p5::transport
