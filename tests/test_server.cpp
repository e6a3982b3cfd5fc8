// server:: — the sharded multi-tenant TunnelServer (ctest -L server).
//
//   * Determinism: the same client scenario through 1, 2 and 4 shards under
//     enable_manual_time delivers the identical payload multiset with exact
//     tenant ledgers — shard count is a capacity knob, never a behaviour
//     knob.
//   * Cross-shard handoff: every datagram offered to the uplink is emitted
//     exactly once or counted lost (ring-full / staging overflow), and the
//     per-tenant ledger dgrams_in == echoed + uplinked + sunk + lost holds
//     exactly once the server stops.
//   * Admission: max_sessions rejections and the server-wide cap are
//     accounted per tenant; the byte-rate policer drops chunks, not
//     connections; hello-based tenancy binds and rejects identically.
//   * Churn: kill/reconnect waves to 1k+ accepts (P5_SERVER_CHURN overrides
//     the target) leave zero leaked sessions and balanced books.
//   * Threaded: run()/stop() under live echo traffic, TSan/ASan clean.
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <map>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "p5/endpoint.hpp"
#include "server/hello.hpp"
#include "server/server.hpp"
#include "testing/property.hpp"
#include "transport/tunnel.hpp"

namespace p5::server {
namespace {

using transport::EventLoop;
using transport::Fd;
using transport::SocketAddr;
using transport::TransportSnapshot;
using transport::Tunnel;
using transport::TunnelBinding;
using transport::TunnelConfig;

Bytes stamped_payload(u32 client, u32 seq, std::size_t len, Xoshiro256& rng) {
  Bytes p;
  p.reserve(len);
  put_be32(p, client);
  put_be32(p, seq);
  while (p.size() < len) p.push_back(static_cast<u8>(rng.next()));
  return p;
}

/// One fast-tier tunnel client on a (shared) loop.
struct Client {
  std::unique_ptr<core::SonetEndpoint> ep;
  std::unique_ptr<Tunnel> tun;

  Client(EventLoop& loop, u16 port)
      : ep(core::make_sonet_endpoint(core::DeviceTier::kFast, {}, sonet::kSts3c)) {
    TunnelConfig c;
    c.listen = false;
    c.port = port;
    tun = std::make_unique<Tunnel>(loop, TunnelBinding::endpoint(*ep), c);
    tun->start();
  }
};

/// Deterministic co-driver: one manual-time client loop + a manual-time
/// server, advanced in lockstep 1 ms per iteration.
struct DetDriver {
  TunnelServer& srv;
  EventLoop& cloop;
  std::vector<Client*> clients;

  void iterate(int n = 1) {
    for (int i = 0; i < n; ++i) {
      cloop.run_once(0);
      for (Client* c : clients) c->tun->pump();
      srv.step();
      srv.advance_time(1);
      cloop.advance_time(1);
    }
  }

  bool drive_until(int guard, const std::function<bool()>& done) {
    for (int g = 0; g < guard; ++g) {
      if (done()) return true;
      iterate();
    }
    return done();
  }
};

// ---- raw-socket helpers (clients that speak the chunk framing directly) --

Fd raw_connect(u16 port) {
  bool in_progress = false;
  Fd fd = transport::tcp_connect(SocketAddr{"127.0.0.1", port}, in_progress);
  return fd;
}

/// Write `buf` whole (already chunk-framed), retrying short writes.
void raw_send(int fd, BytesView buf) {
  std::size_t off = 0;
  while (off < buf.size()) {
    const ssize_t n = ::send(fd, buf.data() + off, buf.size() - off, 0);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
    } else if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
      ::usleep(200);
    } else {
      return;  // peer closed us; the test asserts on the server's counters
    }
  }
}

/// Append one length-prefixed chunk to `buf` (the stream framing).
void frame_chunk(Bytes& buf, BytesView payload) {
  put_be32(buf, static_cast<u32>(payload.size()));
  append(buf, payload);
}

void raw_send_chunk(int fd, BytesView payload) {
  Bytes buf;
  frame_chunk(buf, payload);
  raw_send(fd, buf);
}

/// True when the peer has closed (EOF observed); false while still open.
bool raw_saw_eof(int fd) {
  pollfd p{fd, POLLIN, 0};
  if (::poll(&p, 1, 0) <= 0) return false;
  if (p.revents & (POLLERR | POLLHUP)) return true;
  char buf[256];
  const ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
  return n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK);
}

// ----------------------------------------------------------- determinism

struct EchoRunResult {
  std::vector<Bytes> delivered;  ///< every echoed payload, all clients
  TenantSnapshot tenant;
  u64 accepts = 0;
};

EchoRunResult run_echo_scenario(std::size_t shards) {
  constexpr u32 kClients = 6;
  constexpr u32 kPerClient = 8;

  ServerConfig cfg;
  cfg.shards = shards;
  cfg.listeners = {{0, 42u}};
  cfg.route = RouteMode::kEcho;
  TunnelServer srv(cfg);
  srv.enable_manual_time();
  EXPECT_TRUE(srv.start());

  EventLoop cloop;
  cloop.enable_manual_time();
  std::vector<std::unique_ptr<Client>> clients;
  DetDriver drv{srv, cloop, {}};

  // Sequential establishment keeps the accept order — and with it the
  // round-robin shard assignment — identical for every shard count.
  for (u32 i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<Client>(cloop, srv.port()));
    drv.clients.push_back(clients.back().get());
    EXPECT_TRUE(drv.drive_until(4000, [&] { return clients.back()->tun->established(); }));
  }

  std::vector<std::vector<Bytes>> sent(kClients);
  for (u32 c = 0; c < kClients; ++c) {
    Xoshiro256 rng(1000 + c);
    for (u32 s = 0; s < kPerClient; ++s) {
      sent[c].push_back(stamped_payload(c, s, 64 + 16 * (s % 5), rng));
      EXPECT_TRUE(clients[c]->ep->submit_datagram(0x0021, sent[c].back()));
    }
  }

  EchoRunResult res;
  std::vector<std::vector<Bytes>> got(kClients);
  drv.drive_until(20000, [&] {
    std::size_t total = 0;
    for (u32 c = 0; c < kClients; ++c) {
      while (auto d = clients[c]->ep->reap_datagram()) got[c].push_back(std::move(d->payload));
      total += got[c].size();
    }
    return total >= kClients * kPerClient;
  });

  for (u32 c = 0; c < kClients; ++c) {
    EXPECT_EQ(got[c], sent[c]) << "client " << c << " shards " << shards;
    for (Bytes& b : got[c]) res.delivered.push_back(std::move(b));
  }
  res.tenant = srv.tenant_stats(42);
  res.accepts = srv.accepts();
  std::sort(res.delivered.begin(), res.delivered.end());
  srv.stop();
  return res;
}

TEST(ServerShard, DeterministicShardCountInvariance) {
  const EchoRunResult one = run_echo_scenario(1);
  ASSERT_EQ(one.delivered.size(), 48u);
  EXPECT_EQ(one.accepts, 6u);
  EXPECT_EQ(one.tenant.dgrams_in, 48u);
  EXPECT_EQ(one.tenant.dgrams_echoed, 48u);
  EXPECT_EQ(one.tenant.dgrams_lost, 0u);
  EXPECT_TRUE(one.tenant.ledger_exact());

  for (std::size_t shards : {2u, 4u}) {
    const EchoRunResult n = run_echo_scenario(shards);
    // Shard count is capacity, not behaviour: identical payload multiset,
    // identical ledger.
    EXPECT_EQ(n.delivered, one.delivered) << shards << " shards";
    EXPECT_EQ(n.tenant, one.tenant) << shards << " shards";
  }
}

// ------------------------------------------------- cross-shard handoff

TEST(ServerUplink, CrossShardHandoffExactlyOnceLedger) {
  constexpr u32 kClients = 4;
  constexpr u32 kPerClient = 24;

  ServerConfig cfg;
  cfg.shards = 2;
  cfg.listeners = {{0, 7u}};
  cfg.route = RouteMode::kUplink;
  TunnelServer srv(cfg);
  srv.enable_manual_time();
  ASSERT_TRUE(srv.start());

  std::set<std::pair<u32, u32>> seen;  // (client, seq) — exactly-once check
  u64 dup = 0;
  srv.uplink().set_sink([&](u32 tenant, u16, BytesView payload) {
    EXPECT_EQ(tenant, 7u);
    ASSERT_GE(payload.size(), 8u);
    if (!seen.emplace(get_be32(payload, 0), get_be32(payload, 4)).second) ++dup;
  });

  EventLoop cloop;
  cloop.enable_manual_time();
  std::vector<std::unique_ptr<Client>> clients;
  DetDriver drv{srv, cloop, {}};
  for (u32 i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<Client>(cloop, srv.port()));
    drv.clients.push_back(clients.back().get());
    ASSERT_TRUE(drv.drive_until(4000, [&] { return clients.back()->tun->established(); }));
  }

  Xoshiro256 rng(7);
  for (u32 c = 0; c < kClients; ++c) {
    for (u32 s = 0; s < kPerClient; ++s) {
      ASSERT_TRUE(clients[c]->ep->submit_datagram(0x0021, stamped_payload(c, s, 120, rng)));
    }
  }

  drv.drive_until(20000, [&] { return seen.size() >= kClients * kPerClient; });
  EXPECT_EQ(seen.size(), kClients * kPerClient);
  EXPECT_EQ(dup, 0u);

  srv.stop();  // flushes any staged residue into the lost column
  const TenantSnapshot t = srv.tenant_stats(7);
  EXPECT_EQ(t.dgrams_in, kClients * kPerClient);
  EXPECT_EQ(t.dgrams_uplinked, seen.size());
  EXPECT_TRUE(t.ledger_exact()) << "in=" << t.dgrams_in << " out=" << t.dgrams_out()
                                << " lost=" << t.dgrams_lost;
}

TEST(ServerUplink, StagingOverflowIsCountedLostNeverSilent) {
  ServerConfig cfg;
  cfg.shards = 1;
  cfg.listeners = {{0, 9u}};
  cfg.route = RouteMode::kUplink;
  cfg.uplink_stage_frames = 4;   // tiny staging bound
  cfg.uplink_budget_bytes = 1;   // smaller than any datagram: nothing emits
  TunnelServer srv(cfg);
  srv.enable_manual_time();
  ASSERT_TRUE(srv.start());

  EventLoop cloop;
  cloop.enable_manual_time();
  Client cl(cloop, srv.port());
  DetDriver drv{srv, cloop, {&cl}};
  ASSERT_TRUE(drv.drive_until(4000, [&] { return cl.tun->established(); }));

  Xoshiro256 rng(9);
  constexpr u32 kSent = 32;
  for (u32 s = 0; s < kSent; ++s) {
    ASSERT_TRUE(cl.ep->submit_datagram(0x0021, stamped_payload(0, s, 100, rng)));
  }
  drv.drive_until(8000, [&] { return srv.tenant_stats(9).dgrams_in >= kSent; });

  srv.stop();
  const TenantSnapshot t = srv.tenant_stats(9);
  EXPECT_EQ(t.dgrams_in, kSent);
  EXPECT_EQ(t.dgrams_uplinked, 0u);  // the 1-byte budget never covers a frame
  EXPECT_EQ(t.dgrams_lost, kSent);   // overflowed staging + flushed residue
  EXPECT_TRUE(t.ledger_exact());
}

TEST(ServerBooks, DeviceRxRingDropsAreBookedAgainstTheTenant) {
  // One burst decodes more datagrams than the endpoint's 64-entry RX ring
  // holds before the session reaps: the overflow shows in the tenant's
  // books as dgrams_ring_dropped, while dgrams_in and the ledger keep
  // meaning what was reaped.
  ServerConfig cfg;
  cfg.shards = 1;
  cfg.listeners = {{0, 12u}};
  cfg.route = RouteMode::kSink;
  TunnelServer srv(cfg);
  srv.enable_manual_time();
  ASSERT_TRUE(srv.start());

  // The whole burst, pre-encoded: idle fill around 200 datagrams, so the
  // far deframer and descrambler lock on inside flags.
  constexpr u64 kOffered = 200;
  auto enc = core::make_sonet_endpoint(core::DeviceTier::kFast, {}, sonet::kSts3c);
  Bytes burst;
  const auto add_chunk = [&] { frame_chunk(burst, enc->pull_frame()); };
  add_chunk();
  add_chunk();
  Xoshiro256 rng(12);
  for (u32 s = 0; s < kOffered; ++s) {
    while (!enc->tx_has_room(100)) add_chunk();
    ASSERT_TRUE(enc->submit_datagram(0x0021, stamped_payload(0, s, 100, rng)));
  }
  while (enc->tx_pending()) add_chunk();
  add_chunk();
  add_chunk();
  ASSERT_LT(burst.size(), 64u * 1024);  // one read slice: one burst

  Fd fd = raw_connect(srv.port());
  for (int g = 0; g < 100; ++g) {
    srv.step();
    srv.advance_time(1);
  }
  ASSERT_EQ(srv.sessions_active(), 1u);
  raw_send(fd.get(), burst);
  for (int g = 0; g < 300; ++g) {
    srv.step();
    srv.advance_time(1);
  }

  u64 device_drops = 0;
  srv.shard(0).for_each_session(
      [&](Session& s) { device_drops += s.endpoint()->rx_overflow_drops(); });
  const TenantSnapshot t = srv.tenant_stats(12);
  EXPECT_GT(t.dgrams_ring_dropped, 0u);
  EXPECT_EQ(t.dgrams_ring_dropped, device_drops);
  EXPECT_EQ(t.dgrams_in + t.dgrams_ring_dropped, kOffered);
  EXPECT_EQ(t.dgrams_sunk, t.dgrams_in);
  EXPECT_TRUE(t.ledger_exact());
  EXPECT_EQ(srv.tenant_aggregate().dgrams_ring_dropped, t.dgrams_ring_dropped);
  srv.stop();
}

// ----------------------------------------------------------- admission

TEST(ServerAdmission, MaxTunnelsRejectionAccounting) {
  ServerConfig cfg;
  cfg.shards = 2;
  cfg.listeners = {{0, 5u}};
  TunnelServer srv(cfg);
  TenantConfig tc;
  tc.id = 5;
  tc.max_sessions = 2;
  srv.register_tenant(tc);
  srv.enable_manual_time();
  ASSERT_TRUE(srv.start());

  std::vector<Fd> conns;
  for (int i = 0; i < 5; ++i) conns.push_back(raw_connect(srv.port()));
  for (int g = 0; g < 200; ++g) {
    srv.step();
    srv.advance_time(1);
  }

  EXPECT_EQ(srv.accepts(), 5u);
  EXPECT_EQ(srv.sessions_active(), 2u);
  const TenantSnapshot t = srv.tenant_stats(5);
  EXPECT_EQ(t.sessions_admitted, 2u);
  EXPECT_EQ(t.sessions_rejected, 3u);

  // Exactly the three rejected sockets see EOF.
  int eofs = 0;
  for (auto& fd : conns) eofs += raw_saw_eof(fd.get()) ? 1 : 0;
  EXPECT_EQ(eofs, 3);
  srv.stop();
}

TEST(ServerAdmission, ServerWideCapRejectsAcrossTenants) {
  ServerConfig cfg;
  cfg.shards = 2;
  cfg.listeners = {{0, 1u}, {0, 2u}};
  cfg.max_sessions_total = 3;
  TunnelServer srv(cfg);
  srv.enable_manual_time();
  ASSERT_TRUE(srv.start());

  std::vector<Fd> conns;
  for (int i = 0; i < 3; ++i) conns.push_back(raw_connect(srv.port(0)));
  for (int i = 0; i < 2; ++i) conns.push_back(raw_connect(srv.port(1)));
  for (int g = 0; g < 200; ++g) {
    srv.step();
    srv.advance_time(1);
  }

  EXPECT_EQ(srv.sessions_active(), 3u);
  const TenantSnapshot agg = srv.tenant_aggregate();
  EXPECT_EQ(agg.sessions_admitted, 3u);
  EXPECT_EQ(agg.sessions_rejected, 2u);
  srv.stop();
}

TEST(ServerAdmission, RateCapPolicesChunksNotConnections) {
  ServerConfig cfg;
  cfg.shards = 1;
  cfg.listeners = {{0, 3u}};
  cfg.route = RouteMode::kSink;
  TunnelServer srv(cfg);
  TenantConfig tc;
  tc.id = 3;
  tc.rx_bytes_per_s = 8 * 1024;  // ~3 SONET chunks/s
  tc.rx_burst_bytes = 8 * 1024;
  srv.register_tenant(tc);
  srv.enable_manual_time();
  ASSERT_TRUE(srv.start());

  EventLoop cloop;
  cloop.enable_manual_time();
  Client cl(cloop, srv.port());
  DetDriver drv{srv, cloop, {&cl}};
  ASSERT_TRUE(drv.drive_until(4000, [&] { return cl.tun->established(); }));

  Xoshiro256 rng(3);
  u32 seq = 0;
  // Offer far beyond the cap: top the TX ring back up every iteration.
  drv.drive_until(2000, [&] {
    while (cl.ep->tx_has_room(200) && seq < 4000) {
      if (!cl.ep->submit_datagram(0x0021, stamped_payload(0, seq, 180, rng))) break;
      ++seq;
    }
    return srv.tenant_stats(3).chunks_policed >= 10;
  });

  const TenantSnapshot t = srv.tenant_stats(3);
  EXPECT_GE(t.chunks_policed, 10u);
  EXPECT_GT(t.bytes_policed, 0u);
  EXPECT_GT(t.dgrams_in, 0u);             // the connection kept carrying traffic
  EXPECT_EQ(t.sessions_closed, 0u);       // policing shapes, never disconnects
  EXPECT_EQ(srv.sessions_active(), 1u);
  EXPECT_TRUE(cl.tun->established());
  srv.stop();
}

// ------------------------------------------------------------- fairness

TEST(ServerFairness, DrrSharesUplinkEvenlyUnderUnequalOfferedLoad) {
  ServerConfig cfg;
  cfg.shards = 2;
  cfg.listeners = {{0, 1u}, {0, 2u}};
  cfg.route = RouteMode::kUplink;
  cfg.uplink_budget_bytes = 800;  // the bottleneck: ~4 frames per step
  cfg.uplink_stage_frames = 64;
  cfg.drr_quantum_bytes = 400;
  TunnelServer srv(cfg);
  srv.enable_manual_time();
  ASSERT_TRUE(srv.start());

  EventLoop cloop;
  cloop.enable_manual_time();
  Client heavy(cloop, srv.port(0));  // tenant 1: offers ~3x
  Client light(cloop, srv.port(1));  // tenant 2
  DetDriver drv{srv, cloop, {&heavy, &light}};
  ASSERT_TRUE(drv.drive_until(4000, [&] {
    return heavy.tun->established() && light.tun->established();
  }));

  Xoshiro256 rng(17);
  u32 hs = 0, ls = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    for (int k = 0; k < 6; ++k) {
      if (heavy.ep->tx_has_room(200)) {
        (void)heavy.ep->submit_datagram(0x0021, stamped_payload(1, hs++, 180, rng));
      }
    }
    for (int k = 0; k < 3; ++k) {  // still above its DRR fair share
      if (light.ep->tx_has_room(200)) {
        (void)light.ep->submit_datagram(0x0021, stamped_payload(2, ls++, 180, rng));
      }
    }
    drv.iterate();
  }

  const u64 a = srv.tenant_stats(1).bytes_uplinked;
  const u64 b = srv.tenant_stats(2).bytes_uplinked;
  ASSERT_GT(a, 0u);
  ASSERT_GT(b, 0u);
  // Equal quanta => near-equal egress shares while both stay backlogged,
  // despite the 3x offered-load imbalance.
  const double ratio = static_cast<double>(std::min(a, b)) / static_cast<double>(std::max(a, b));
  EXPECT_GT(ratio, 0.7) << "uplinked bytes heavy=" << a << " light=" << b;
  srv.stop();
}

// ---------------------------------------------------------------- hello

TEST(ServerHello, HelloBindsTenantAndRejectsOverCap) {
  ServerConfig cfg;
  cfg.shards = 1;
  cfg.listeners = {{0, std::nullopt}};  // tenancy from the hello chunk
  TunnelServer srv(cfg);
  TenantConfig tc;
  tc.id = 77;
  tc.max_sessions = 1;
  srv.register_tenant(tc);
  srv.enable_manual_time();
  ASSERT_TRUE(srv.start());

  Fd first = raw_connect(srv.port());
  Fd second = raw_connect(srv.port());
  for (int g = 0; g < 100; ++g) {
    srv.step();
    srv.advance_time(1);
  }
  raw_send_chunk(first.get(), hello_chunk(77));
  raw_send_chunk(second.get(), hello_chunk(77));
  for (int g = 0; g < 300; ++g) {
    srv.step();
    srv.advance_time(1);
  }

  EXPECT_EQ(srv.sessions_active(), 1u);
  const TenantSnapshot t = srv.tenant_stats(77);
  EXPECT_EQ(t.sessions_admitted, 1u);
  EXPECT_EQ(t.sessions_rejected, 1u);
  EXPECT_FALSE(raw_saw_eof(first.get()));
  EXPECT_TRUE(raw_saw_eof(second.get()));
  srv.stop();
}

TEST(ServerHello, MalformedFirstChunkIsProtoErrorAndClose) {
  ServerConfig cfg;
  cfg.shards = 1;
  cfg.listeners = {{0, std::nullopt}};
  TunnelServer srv(cfg);
  srv.enable_manual_time();
  ASSERT_TRUE(srv.start());

  Fd fd = raw_connect(srv.port());
  for (int g = 0; g < 100; ++g) {
    srv.step();
    srv.advance_time(1);
  }
  const Bytes junk = {0xDE, 0xAD, 0xBE, 0xEF, 0x00};
  raw_send_chunk(fd.get(), junk);
  for (int g = 0; g < 300; ++g) {
    srv.step();
    srv.advance_time(1);
  }

  EXPECT_EQ(srv.sessions_active(), 0u);
  EXPECT_GE(srv.transport_stats().proto_errors, 1u);
  EXPECT_TRUE(raw_saw_eof(fd.get()));
  srv.stop();
}

// ----------------------------------------------------- churn (real time)

TEST(ServerChurn, KillReconnectChurnLeavesExactLedgers) {
  const std::size_t target = testing::env_u64("P5_SERVER_CHURN").value_or(1000);

  ServerConfig cfg;
  cfg.shards = 4;
  cfg.listeners = {{0, 6u}};
  cfg.route = RouteMode::kEcho;
  TunnelServer srv(cfg);
  ASSERT_TRUE(srv.start());
  srv.run();  // threaded: 4 shard threads churning against this thread

  // Waves of raw connections (accept/admit/sweep churn) plus one long-lived
  // echo client proving traffic keeps flowing throughout.
  EventLoop cloop;
  Client echo(cloop, srv.port());
  for (int g = 0; g < 2000 && !echo.tun->established(); ++g) {
    echo.tun->pump();
    cloop.run_once(1);
  }
  ASSERT_TRUE(echo.tun->established());

  Xoshiro256 rng(6);
  u32 seq = 0;
  std::size_t echoed = 0;
  const std::size_t wave = 50;
  const std::size_t max_waves = (target / wave) * 4 + 8;
  for (std::size_t w = 0; w < max_waves && srv.accepts() < target + 1; ++w) {
    std::vector<Fd> conns;
    conns.reserve(wave);
    for (std::size_t i = 0; i < wave; ++i) conns.push_back(raw_connect(srv.port()));
    // Interleave echo traffic while the wave connects and dies.
    for (int g = 0; g < 40; ++g) {
      if (echo.ep->tx_has_room(200)) {
        (void)echo.ep->submit_datagram(0x0021, stamped_payload(0, seq++, 120, rng));
      }
      echo.tun->pump();
      cloop.run_once(1);
      while (echo.ep->reap_datagram()) ++echoed;
    }
    conns.clear();  // the kill: every socket in the wave drops at once
  }

  // Drain: stop submitting, let the echo tail flush, then let the server
  // sweep the dead waves.
  for (int g = 0; g < 2000 && srv.sessions_active() > 1; ++g) {
    echo.tun->pump();
    cloop.run_once(1);
    while (echo.ep->reap_datagram()) ++echoed;
  }
  EXPECT_LE(srv.sessions_active(), 1u);  // only the echo client survives
  EXPECT_GT(echoed, 0u);

  srv.stop();
  const TenantSnapshot t = srv.tenant_stats(6);
  EXPECT_GE(srv.accepts(), target);
  EXPECT_TRUE(t.ledger_exact()) << "in=" << t.dgrams_in << " out=" << t.dgrams_out()
                                << " lost=" << t.dgrams_lost;
  // Transport chunk ledger, summed across all four shards: every accepted
  // chunk was written or counted lost when its conn died.
  const TransportSnapshot ts = srv.transport_stats();
  EXPECT_EQ(ts.frames_in, ts.frames_out + ts.frames_lost);
  u64 overflows = 0;
  for (std::size_t s = 0; s < srv.shard_count(); ++s) overflows += srv.shard(s).adoption_overflows();
  EXPECT_EQ(ts.connects + overflows, srv.accepts());
}

// ------------------------------------------------------------- threaded

TEST(ServerThreaded, RunStopUnderLiveEchoTraffic) {
  ServerConfig cfg;
  cfg.shards = 2;
  cfg.listeners = {{0, 8u}};
  cfg.route = RouteMode::kEcho;
  TunnelServer srv(cfg);
  ASSERT_TRUE(srv.start());
  srv.run();

  EventLoop cloop;
  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < 4; ++i) clients.push_back(std::make_unique<Client>(cloop, srv.port()));
  for (int g = 0; g < 4000; ++g) {
    bool all = true;
    for (auto& c : clients) {
      c->tun->pump();
      all = all && c->tun->established();
    }
    cloop.run_once(1);
    if (all) break;
  }

  Xoshiro256 rng(8);
  u32 seq = 0;
  std::size_t echoed = 0;
  for (int g = 0; g < 4000 && echoed < 200; ++g) {
    for (auto& c : clients) {
      if (c->ep->tx_has_room(200)) {
        (void)c->ep->submit_datagram(0x0021, stamped_payload(0, seq++, 150, rng));
      }
      c->tun->pump();
      while (c->ep->reap_datagram()) ++echoed;
    }
    cloop.run_once(1);
  }
  EXPECT_GE(echoed, 200u);

  // Quiesce the TX side so the chunk ledger's queue term is zero, then stop
  // mid-flight anyway — whatever was still queued must land in frames_lost.
  srv.stop();
  const TransportSnapshot ts = srv.transport_stats();
  EXPECT_EQ(ts.frames_in, ts.frames_out + ts.frames_lost + 0u);
  const TenantSnapshot t = srv.tenant_stats(8);
  EXPECT_TRUE(t.ledger_exact()) << "in=" << t.dgrams_in << " out=" << t.dgrams_out()
                                << " lost=" << t.dgrams_lost;
}

}  // namespace
}  // namespace p5::server
