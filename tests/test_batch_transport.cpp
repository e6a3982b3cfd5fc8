// Batched zero-copy transport: the ChunkPool + scatter-gather I/O layer.
//
//  * Partial sendmsg: a tiny SO_SNDBUF forces the kernel to cut writes mid
//    chunk and mid iovec; the resume cursor must keep the byte stream exact
//    across thousands of mixed-size frames.
//  * ChunkPool lifetime: recycle-after-close, bounded free list, and the
//    pool-dies-first path (refs outliving their pool self-free) — the ASan
//    leg of the suite proves no leak and no double-free either way.
//  * recvmmsg: a burst of mixed-size datagrams lands in fewer syscalls than
//    frames, byte-exact.
//  * Equivalence oracle: a fast-tier TCP tunnel pair under every fault
//    class against a leg with no sockets — the same endpoints, paced pull
//    and seeded tap, with chunks handed across in memory. Delivered
//    payloads, endpoint RX ledgers and chunk counts must agree, proving the
//    socket carrier (batching included) is an observational no-op.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.hpp"
#include "p5/fast_endpoint.hpp"
#include "testing/fault.hpp"
#include "transport/chunk_pool.hpp"
#include "transport/conn.hpp"
#include "transport/event_loop.hpp"
#include "transport/socket.hpp"
#include "transport/tunnel.hpp"

namespace p5::transport {
namespace {

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

// ------------------------------------------------------------- partial writev

TEST(BatchTransport, PartialSendmsgResumesMidIovecUnderTinySndbuf) {
  EventLoop loop;
  TransportTelemetry ctel, stel;

  Fd listen_fd = tcp_listen(SocketAddr{"127.0.0.1", 0});
  ASSERT_TRUE(listen_fd.valid());
  ConnConfig ccfg;
  ccfg.so_sndbuf_bytes = 4096;  // kernel-minimum territory: every flush is partial
  ccfg.send_watermark_bytes = 64 * 1024 * 1024;
  std::unique_ptr<StreamConn> server;
  loop.add_fd(listen_fd.get(), kReadable, [&](u32) {
    Fd c = tcp_accept(listen_fd.get());
    if (!c.valid()) return;
    server = std::make_unique<StreamConn>(loop, stel, ConnConfig{}, std::move(c), false);
  });
  bool in_progress = false;
  Fd c = tcp_connect(SocketAddr{"127.0.0.1", local_port(listen_fd.get())}, in_progress);
  ASSERT_TRUE(c.valid());
  StreamConn client(loop, ctel, ccfg, std::move(c), in_progress);
  for (int guard = 0; guard < 1000 && (!server || !client.open()); ++guard) loop.run_once(10);
  ASSERT_TRUE(server && client.open());

  // Mixed sizes around and past the SNDBUF so the kernel's cut lands at
  // arbitrary offsets: first-iovec-partial, mid-iovec, and exact-boundary.
  constexpr std::size_t kFrames = 3000;
  Xoshiro256 rng(41);
  std::vector<Bytes> sent;
  sent.reserve(kFrames);
  for (u32 i = 0; i < kFrames; ++i) sent.push_back(stamped_payload(rng, i, rng.range(1, 6000)));

  std::vector<Bytes> got;
  got.reserve(kFrames);
  server->set_on_frames([&](std::span<const BytesView> burst) {
    for (const BytesView& v : burst) got.emplace_back(v.begin(), v.end());
  });

  std::size_t next = 0;
  for (int guard = 0; guard < 200000 && got.size() < kFrames; ++guard) {
    while (next < kFrames && client.send_frame(sent[next])) ++next;
    client.flush();
    loop.run_once(5);
  }
  ASSERT_EQ(got.size(), kFrames);
  for (std::size_t i = 0; i < kFrames; ++i) ASSERT_EQ(got[i], sent[i]) << "frame " << i;

  const TransportSnapshot cs = ctel.snapshot();
  EXPECT_EQ(cs.frames_in, kFrames);
  EXPECT_EQ(cs.frames_out, kFrames);
  EXPECT_EQ(cs.frames_lost, 0u);
  // The whole point of the batch: several frames per sendmsg even while the
  // kernel keeps truncating writes.
  ASSERT_GT(cs.tx_syscalls, 0u);
  EXPECT_LT(cs.tx_syscalls, kFrames);
  EXPECT_GT(cs.frames_per_syscall(), 1.0);
  loop.remove_fd(listen_fd.get());
}

// ----------------------------------------------------------------- ChunkPool

TEST(BatchTransport, PoolRecyclesChunksAndBoundsTheFreeList) {
  ChunkPool pool(nullptr);
  constexpr std::size_t kMax = ChunkPool::kMaxFree;
  constexpr std::size_t kExtra = 4;

  std::vector<ChunkRef> held;
  for (std::size_t i = 0; i < kMax + kExtra; ++i) {
    ChunkRef r = pool.acquire(128);
    r.data().assign(64, u8(i));
    held.push_back(std::move(r));
  }
  ChunkPool::Counters c = pool.counters();
  EXPECT_EQ(c.allocated, kMax + kExtra);
  EXPECT_EQ(c.recycled, 0u);
  EXPECT_EQ(c.outstanding, kMax + kExtra);

  held.clear();  // kMaxFree go to the free list, the rest are freed (bounded list)
  c = pool.counters();
  EXPECT_EQ(c.outstanding, 0u);

  for (std::size_t i = 0; i < kMax; ++i) held.push_back(pool.acquire(128));
  c = pool.counters();
  EXPECT_EQ(c.allocated, kMax + kExtra);  // served from the free list, no new heap
  EXPECT_EQ(c.recycled, kMax);
  EXPECT_EQ(c.outstanding, kMax);

  // Oversize buffers are trimmed on release instead of pinning capacity.
  const std::size_t oversize = 2 * ChunkPool::kRetainCapacity;
  ChunkRef big = pool.acquire(oversize);
  big.data().resize(oversize);
  big.reset();
  ChunkRef again = pool.acquire(16);
  EXPECT_LE(again.data().capacity(), ChunkPool::kRetainCapacity + 16);
}

TEST(BatchTransport, ChunksOutlivingTheirPoolSelfFree) {
  // A queued chunk can outlive its pool (tunnel teardown racing a deferred
  // close). The shared core keeps late releases safe: they free instead of
  // recycling. ASan across this test proves no leak and no double-free.
  std::vector<ChunkRef> survivors;
  {
    ChunkPool pool(nullptr);
    for (int i = 0; i < 3; ++i) {
      ChunkRef r = pool.acquire(256);
      r.data().assign(200, u8(0x5A + i));
      survivors.push_back(std::move(r));
    }
    EXPECT_EQ(pool.counters().outstanding, 3u);
  }  // pool dies first
  for (auto& r : survivors) {
    ASSERT_TRUE(bool(r));
    EXPECT_EQ(r.data().size(), 200u);
  }
  survivors.clear();  // late releases hit the closed core and self-free
}

TEST(BatchTransport, PoolRecyclesAcrossConnClose) {
  // Conn churn against one shared pool: buffers released by a closing conn
  // are served to the next one instead of round-tripping the heap.
  EventLoop loop;
  TransportTelemetry tel;
  ChunkPool pool(&tel);
  const Bytes frame(512, 0xCD);
  for (int round = 0; round < 3; ++round) {
    Fd listen_fd = tcp_listen(SocketAddr{"127.0.0.1", 0});
    ASSERT_TRUE(listen_fd.valid());
    loop.add_fd(listen_fd.get(), kReadable, [&](u32) { (void)tcp_accept(listen_fd.get()); });
    bool in_progress = false;
    Fd c = tcp_connect(SocketAddr{"127.0.0.1", local_port(listen_fd.get())}, in_progress);
    ASSERT_TRUE(c.valid());
    auto conn =
        std::make_unique<StreamConn>(loop, tel, ConnConfig{}, std::move(c), in_progress, &pool);
    for (int guard = 0; guard < 1000 && !conn->open(); ++guard) loop.run_once(10);
    ASSERT_TRUE(conn->open());
    for (int i = 0; i < 32; ++i) ASSERT_TRUE(conn->send_frame(frame));
    conn->close();  // still-queued chunks release into the live pool
    conn.reset();
    loop.remove_fd(listen_fd.get());
  }
  const ChunkPool::Counters c = pool.counters();
  EXPECT_EQ(c.outstanding, 0u);
  EXPECT_GT(c.recycled, 0u);
  EXPECT_LT(c.allocated, 3u * 32u);  // later rounds ran on recycled buffers
  EXPECT_EQ(tel.snapshot().pool_recycled, c.recycled);
}

// ------------------------------------------------------------------ recvmmsg

TEST(BatchTransport, RecvmmsgDrainsMixedSizeBurstInFewerSyscallsThanFrames) {
  EventLoop loop;
  TransportTelemetry stel, rtel;
  const ConnConfig cfg;

  Fd srv = udp_bind(SocketAddr{"127.0.0.1", 0});
  ASSERT_TRUE(srv.valid());
  const u16 port = local_port(srv.get());
  DgramConn receiver(loop, rtel, cfg, std::move(srv), /*learn_peer=*/true);
  Fd cli = udp_connect(SocketAddr{"127.0.0.1", port});
  ASSERT_TRUE(cli.valid());
  DgramConn sender(loop, stel, cfg, std::move(cli), /*learn_peer=*/false);

  constexpr std::size_t kDgrams = 64;
  Xoshiro256 rng(91);
  std::vector<Bytes> sent;
  // Mixed sizes, but the total stays well under the default SO_RCVBUF so the
  // staged burst survives loopback intact (the test asserts zero loss).
  for (u32 i = 0; i < kDgrams; ++i) sent.push_back(stamped_payload(rng, i, rng.range(1, 2000)));

  std::vector<Bytes> got;
  receiver.set_on_frames([&](std::span<const BytesView> burst) {
    for (const BytesView& v : burst) got.emplace_back(v.begin(), v.end());
  });

  // Stage + flush the whole burst before the receiver runs once: the
  // datagrams pile up in the socket so recvmmsg really sees full batches.
  for (const Bytes& p : sent) ASSERT_TRUE(sender.send_frame(p));
  sender.flush();
  for (int guard = 0; guard < 1000 && got.size() < kDgrams; ++guard) loop.run_once(10);

  ASSERT_EQ(got.size(), kDgrams);  // loopback UDP: loss-free in practice
  for (std::size_t i = 0; i < kDgrams; ++i) ASSERT_EQ(got[i], sent[i]) << "dgram " << i;

  const TransportSnapshot ss = stel.snapshot(), rs = rtel.snapshot();
  EXPECT_EQ(ss.frames_in, kDgrams);
  EXPECT_EQ(ss.frames_in, ss.frames_out + ss.frames_lost);
  EXPECT_LT(ss.tx_syscalls, kDgrams);  // sendmmsg batched the staged burst
  EXPECT_EQ(rs.frames_rcvd, kDgrams);
  EXPECT_LT(rs.rx_syscalls, kDgrams);  // recvmmsg drained several per call
  EXPECT_GT(rs.frames_per_syscall(), 1.0);
}

// --------------------------------------------------- socket-vs-direct oracle

/// What one oracle leg observed. B's endpoint sends; A's receives through
/// the seeded tap.
struct LegResult {
  std::map<u32, Bytes> delivered;
  u64 frames_ok = 0;
  u64 frames_bad = 0;
  u64 chunks = 0;  ///< chunks B's binding pulled onto the carrier
  u64 faults = 0;  ///< FaultyLine events injected into A's RX
};

/// The fixed burst both legs carry. It is posted up front (the device TX
/// pool holds it), so both legs pull the identical chunk sequence and the
/// seeded tap makes the identical per-chunk decisions.
std::vector<Bytes> oracle_payloads() {
  Xoshiro256 rng(57);
  std::vector<Bytes> payloads;
  for (u32 i = 0; i < 40; ++i) payloads.push_back(stamped_payload(rng, i, rng.range(200, 900)));
  return payloads;
}

struct LegEndpoints {
  std::unique_ptr<core::SonetEndpoint> a = make();
  std::unique_ptr<core::SonetEndpoint> b = make();

  static std::unique_ptr<core::SonetEndpoint> make() {
    return core::make_sonet_endpoint(core::DeviceTier::kFast, {}, sonet::kSts3c);
  }
  void submit(const std::vector<Bytes>& payloads) {
    for (const Bytes& p : payloads) EXPECT_TRUE(b->submit_datagram(0x0021, p));
  }
  void reap(LegResult& r) {
    while (auto d = a->reap_datagram()) {
      if (d->payload.size() >= 4) r.delivered[get_be32(d->payload, 0)] = d->payload;
    }
  }
  void finish(LegResult& r, const testing::FaultyLine& line,
              const std::vector<Bytes>& payloads) {
    const core::RxCounters rc = a->rx_counters();
    r.frames_ok = rc.frames_ok;
    r.frames_bad = rc.frames_bad;
    r.faults = line.stats().events();
    for (const auto& [idx, p] : r.delivered) {
      EXPECT_LT(idx, payloads.size());
      EXPECT_EQ(p, payloads[idx]) << "corrupt delivery " << idx;
    }
  }
};

/// Socket leg: a fast-tier TCP tunnel pair with `spec` as A's rx tap.
LegResult run_socket_leg(const testing::FaultSpec& spec, const std::vector<Bytes>& payloads) {
  EventLoop loop;
  LegEndpoints eps;
  TunnelConfig ca;
  ca.listen = true;
  ca.port = 0;
  Tunnel tun_a(loop, TunnelBinding::endpoint(*eps.a), ca);
  tun_a.start();
  TunnelConfig cb = ca;
  cb.listen = false;
  cb.port = tun_a.bound_port();
  cb.seed = ca.seed + 1;
  Tunnel tun_b(loop, TunnelBinding::endpoint(*eps.b), cb);
  tun_b.start();

  testing::FaultyLine line(spec);
  tun_a.set_rx_tap(std::ref(line));

  LegResult r;
  eps.submit(payloads);
  int settle = 0;
  for (int guard = 0; guard < 20000 && settle <= 200; ++guard) {
    tun_a.pump();
    tun_b.pump();
    loop.run_once(1);
    eps.reap(r);
    settle = eps.b->tx_pending() ? 0 : settle + 1;
  }
  eps.finish(r, line, payloads);

  // Per-leg invariants: exact chunk ledgers on both ends, no chunk lost on
  // TCP, and the scatter-gather flush carried several chunks per syscall.
  const TransportSnapshot tx = tun_b.stats(), rx = tun_a.stats();
  EXPECT_TRUE(tx.ledger_exact());
  EXPECT_TRUE(rx.ledger_exact());
  EXPECT_EQ(tx.frames_lost, 0u);
  EXPECT_EQ(rx.frames_rcvd, tx.frames_out);
  EXPECT_LT(tx.tx_syscalls, tx.frames_out);
  r.chunks = tx.frames_in;
  return r;
}

/// Direct leg: the same endpoints, paced pull, seeded tap and RX hook, with
/// no sockets — each slice's chunks are handed across in memory as one
/// burst.
LegResult run_direct_leg(const testing::FaultSpec& spec, const std::vector<Bytes>& payloads) {
  LegEndpoints eps;
  const TunnelBinding tx = TunnelBinding::endpoint(*eps.b);
  const TunnelBinding rx = TunnelBinding::endpoint(*eps.a);
  testing::FaultyLine line(spec);
  const std::size_t frames_per_pump = TunnelConfig{}.frames_per_pump;

  LegResult r;
  eps.submit(payloads);
  std::vector<Bytes> slice;
  std::vector<BytesView> burst;
  do {
    slice.clear();
    while (slice.size() < frames_per_pump) {
      Bytes chunk = tx.pull();
      if (chunk.empty()) break;
      slice.push_back(std::move(chunk));
    }
    r.chunks += slice.size();
    burst.clear();
    for (Bytes& chunk : slice) {
      line(chunk);
      if (!chunk.empty()) burst.emplace_back(chunk);  // an emptied chunk was dropped
    }
    EXPECT_EQ(rx.push_batch(burst), burst.size());
    eps.reap(r);
  } while (!slice.empty());
  eps.finish(r, line, payloads);
  return r;
}

/// The oracle: the socket carrier must be observationally equivalent to the
/// direct hand-over under this fault class. Returns the faults injected.
u64 expect_equivalent_to_direct(const testing::FaultSpec& spec) {
  const std::vector<Bytes> payloads = oracle_payloads();
  const LegResult sock = run_socket_leg(spec, payloads);
  const LegResult direct = run_direct_leg(spec, payloads);

  // Identical deliveries, datagram for datagram.
  EXPECT_EQ(sock.delivered.size(), direct.delivered.size());
  EXPECT_EQ(sock.delivered, direct.delivered);
  // Identical endpoint RX disposition ledger.
  EXPECT_EQ(sock.frames_ok, direct.frames_ok);
  EXPECT_EQ(sock.frames_bad, direct.frames_bad);
  // Identical chunk count across the carrier (grouping is the only freedom
  // the socket has; it must never create or destroy chunks), and so the
  // identical seeded fault sequence.
  EXPECT_GT(sock.chunks, 0u);
  EXPECT_EQ(sock.chunks, direct.chunks);
  EXPECT_EQ(sock.faults, direct.faults);
  return sock.faults;
}

TEST(BatchTransport, EquivalentToDirectOnCleanLine) {
  EXPECT_EQ(expect_equivalent_to_direct(testing::FaultSpec::clean(5)), 0u);
}

TEST(BatchTransport, EquivalentToDirectUnderBitErrors) {
  EXPECT_GT(expect_equivalent_to_direct(testing::FaultSpec::ber(2e-5, 7)), 0u);
}

TEST(BatchTransport, EquivalentToDirectUnderOctetSlips) {
  EXPECT_GT(expect_equivalent_to_direct(testing::FaultSpec::slips(0.3, 0.3, 11)), 0u);
}

TEST(BatchTransport, EquivalentToDirectUnderTruncation) {
  EXPECT_GT(expect_equivalent_to_direct(testing::FaultSpec::truncation(0.3, 13)), 0u);
}

TEST(BatchTransport, EquivalentToDirectUnderHdlcAborts) {
  EXPECT_GT(expect_equivalent_to_direct(testing::FaultSpec::aborts(0.3, 17)), 0u);
}

TEST(BatchTransport, EquivalentToDirectUnderChunkDrops) {
  EXPECT_GT(expect_equivalent_to_direct(testing::FaultSpec::drop(0.3, 19)), 0u);
}

}  // namespace
}  // namespace p5::transport
