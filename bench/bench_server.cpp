// bench_server — C10K termination figures for the sharded TunnelServer.
//
// Rows, all wall-clock (the server and the load generator share this host,
// so every figure is end-to-end: client socket writes, epoll dispatch,
// fast-tier SONET decode, tenant accounting):
//
//  * server_goodput_{1,2,4}shard — N steady-state tunnels (1000 full / 200
//    quick / 32 smoke) each replaying a pre-encoded P5/SONET chunk stream
//    into a kSink-routed server for a fixed wall window. new_mb_s is decoded
//    datagram payload octets per second, summed over every tunnel; each row
//    also carries scaling_vs_1shard. NOTE: shard scaling is only visible
//    when the host has cores to give — on a single-core host the shard
//    threads time-slice one CPU and the ratio sits near 1.0 by construction
//    (the header records host_cpus so a reader can tell which case a JSON
//    was measured in). The row still gates what it can on any host: the
//    whole accept→adopt→decode→ledger path at C10K-scale connection counts.
//  * server_churn — kill/reconnect churn: raw connections arrive in bounded
//    waves (concurrency-capped), each writes two valid chunks and
//    disconnects. Reported as conns_per_s; the row is excluded from the
//    bench_compare gate (no new_mb_s), but the bench itself exits nonzero
//    if any ledger fails to close — per-tenant datagram books and the
//    summed per-shard chunk books must both balance exactly after stop().
//
// Results go to stdout and BENCH_server.json. Gate with
//   scripts/bench_compare.py BENCH_server.json <baseline> --metric new_mb_s
// (the server baseline tolerance is loose — see PER_BENCH_TOLERANCE).
//
// Usage: bench_server [--smoke] [--quick] [--out <path>]
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "p5/endpoint.hpp"
#include "server/server.hpp"
#include "transport/conn.hpp"
#include "transport/event_loop.hpp"

namespace p5::bench {
namespace {

using transport::ConnConfig;
using transport::EventLoop;
using transport::Fd;
using transport::SocketAddr;
using transport::StreamConn;
using transport::TransportTelemetry;

constexpr u32 kTenant = 7;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// C10K needs fds: lift the soft RLIMIT_NOFILE to the hard cap so the full
/// row (1000 tunnels = 2000+ sockets in this process) does not depend on the
/// shell's ulimit.
void raise_fd_limit() {
  struct rlimit rl{};
  if (::getrlimit(RLIMIT_NOFILE, &rl) == 0 && rl.rlim_cur < rl.rlim_max) {
    rl.rlim_cur = rl.rlim_max;
    (void)::setrlimit(RLIMIT_NOFILE, &rl);
  }
}

/// Pre-encode one valid chunk stream: a fast-tier endpoint kept fed with
/// IMIX-ish datagrams, pulled for `chunks` SONET frames. Every client
/// connection replays this same stream from the top — a fresh server-side
/// endpoint accepts any prefix of a valid stream, so the load generator
/// spends its cycles on sockets, not on per-connection encoding.
std::vector<Bytes> encode_stream(std::size_t chunks, std::size_t dgram_len) {
  auto ep = core::make_sonet_endpoint(core::DeviceTier::kFast, {}, sonet::kSts3c);
  const Bytes payload = density_payload(dgram_len, 0.05, 11);
  std::vector<Bytes> out;
  out.reserve(chunks);
  while (out.size() < chunks) {
    while (ep->tx_has_room(payload.size()) && ep->submit_datagram(0x0021, payload)) {
    }
    out.push_back(ep->pull_frame());
  }
  return out;
}

/// Payload octets of `chunks` leading chunks once decoded — measured by
/// replaying them through a scratch endpoint (cheaper than deriving it from
/// framing math, and exact by construction).
u64 decoded_payload_bytes(const std::vector<Bytes>& stream) {
  auto ep = core::make_sonet_endpoint(core::DeviceTier::kFast, {}, sonet::kSts3c);
  u64 bytes = 0;
  for (const Bytes& c : stream) {
    ep->push_line(BytesView(c.data(), c.size()));
    while (auto d = ep->reap_datagram()) bytes += d->payload.size();
  }
  return bytes;
}

struct Row {
  std::string kernel;
  std::size_t frame_bytes = 0;
  std::size_t shards = 0;
  std::size_t conns = 0;
  u64 dgrams = 0;
  u64 payload_bytes = 0;
  double wall_seconds = 0.0;
  double mb_s = 0.0;
  double conns_per_s = 0.0;
  bool has_goodput = true;
  bool ledger_ok = true;
  u64 syscalls = 0;        ///< server-side socket send+recv calls
  u64 pool_recycled = 0;   ///< chunk buffers served from shard pool free lists
  double frames_per_syscall = 0.0;

  void set_io(const transport::TransportSnapshot& xs) {
    syscalls = xs.tx_syscalls + xs.rx_syscalls;
    pool_recycled = xs.pool_recycled;
    frames_per_syscall = xs.frames_per_syscall();
  }
};

/// Steady-state goodput: `conns` tunnels replay `stream` into a kSink server
/// for `target_seconds`, then drain. Returns decoded payload over the time
/// to the last tenant-ledger movement.
Row bench_goodput(std::size_t shards, std::size_t conns, double target_seconds,
                  const std::vector<Bytes>& stream, std::size_t dgram_len) {
  server::ServerConfig cfg;
  cfg.listeners = {{0, kTenant}};  // port tenancy: every chunk is data
  cfg.shards = shards;
  cfg.route = server::RouteMode::kSink;
  cfg.tier = core::DeviceTier::kFast;
  cfg.adoption_ring = 2048;  // a connect burst must never hit the overflow path
  server::TunnelServer srv(cfg);
  if (!srv.start()) {
    std::fprintf(stderr, "bench_server: %s\n", srv.last_error().c_str());
    std::exit(1);
  }
  const u16 port = srv.port();
  srv.run();

  EventLoop loop;
  TransportTelemetry ctel;
  ConnConfig ccfg;
  ccfg.send_watermark_bytes = 256 * 1024;
  std::vector<std::unique_ptr<StreamConn>> clients;
  std::vector<std::size_t> cursor(conns, 0);
  clients.reserve(conns);
  // Waves of 64 keep every connect inside the listen backlog.
  for (std::size_t opened = 0; opened < conns;) {
    const std::size_t wave = std::min<std::size_t>(64, conns - opened);
    for (std::size_t i = 0; i < wave; ++i) {
      bool in_progress = false;
      Fd fd = transport::tcp_connect(SocketAddr{"127.0.0.1", port}, in_progress);
      clients.push_back(std::make_unique<StreamConn>(loop, ctel, ccfg, std::move(fd), in_progress));
    }
    opened += wave;
    for (int spins = 0; spins < 20000; ++spins) {
      bool all_open = true;
      for (const auto& c : clients)
        if (!c->open()) all_open = false;
      if (all_open) break;
      loop.run_once(1);
    }
  }

  const auto t0 = std::chrono::steady_clock::now();
  while (seconds_since(t0) < target_seconds) {
    for (std::size_t i = 0; i < clients.size(); ++i) {
      StreamConn& c = *clients[i];
      while (cursor[i] < stream.size() && c.open() &&
             c.send_frame(BytesView(stream[cursor[i]].data(), stream[cursor[i]].size()))) {
        ++cursor[i];
      }
    }
    loop.run_once(0);
  }
  // Drain: flush every client queue, then wait for the tenant ledger to go
  // quiet. Goodput clock stops at the last observed movement.
  auto t_last = std::chrono::steady_clock::now();
  u64 last_bytes = srv.tenant_stats(kTenant).bytes_in;
  for (int quiet = 0; quiet < 50;) {
    bool flushed = true;
    for (const auto& c : clients)
      if (c->open() && c->queued_bytes() > 0) flushed = false;
    loop.run_once(1);
    const u64 now_bytes = srv.tenant_stats(kTenant).bytes_in;
    if (now_bytes != last_bytes) {
      last_bytes = now_bytes;
      t_last = std::chrono::steady_clock::now();
      quiet = 0;
    } else if (flushed) {
      ++quiet;
    }
  }
  clients.clear();  // EOF toward the server before stop()
  srv.stop();

  const server::TenantSnapshot ts = srv.tenant_stats(kTenant);
  const transport::TransportSnapshot xs = srv.transport_stats();
  Row r;
  r.kernel = "server_goodput_" + std::to_string(shards) + "shard";
  r.frame_bytes = dgram_len;
  r.shards = shards;
  r.conns = conns;
  r.dgrams = ts.dgrams_in;
  r.payload_bytes = ts.bytes_in;
  r.wall_seconds = std::chrono::duration<double>(t_last - t0).count();
  r.mb_s = r.wall_seconds > 0.0 ? static_cast<double>(ts.bytes_in) / 1e6 / r.wall_seconds : 0.0;
  r.ledger_ok = ts.ledger_exact() && xs.ledger_exact();
  r.set_io(xs);
  if (!r.ledger_ok) {
    std::fprintf(stderr, "bench_server: LEDGER VIOLATION in %s\n", r.kernel.c_str());
  }
  return r;
}

bool write_chunk(int fd, const Bytes& chunk) {
  u8 hdr[4] = {static_cast<u8>(chunk.size() >> 24), static_cast<u8>(chunk.size() >> 16),
               static_cast<u8>(chunk.size() >> 8), static_cast<u8>(chunk.size())};
  Bytes wire(hdr, hdr + 4);
  append(wire, BytesView(chunk.data(), chunk.size()));
  std::size_t off = 0;
  while (off < wire.size()) {
    const ssize_t n = ::send(fd, wire.data() + off, wire.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;  // server refused the conn (e.g. ring overflow)
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Connection churn: `total` short-lived connections in waves of
/// `concurrency`, each writing the first two chunks of `stream` and
/// disconnecting. The rate is connections fully processed per second; the
/// verdict is that every ledger closes exactly after the storm.
Row bench_churn(std::size_t total, std::size_t concurrency, const std::vector<Bytes>& stream) {
  server::ServerConfig cfg;
  cfg.listeners = {{0, kTenant}};
  cfg.shards = 2;
  cfg.route = server::RouteMode::kSink;
  cfg.tier = core::DeviceTier::kFast;
  cfg.adoption_ring = 4096;
  server::TunnelServer srv(cfg);
  if (!srv.start()) {
    std::fprintf(stderr, "bench_server: %s\n", srv.last_error().c_str());
    std::exit(1);
  }
  const u16 port = srv.port();
  srv.run();

  const auto t0 = std::chrono::steady_clock::now();
  std::size_t launched = 0;
  std::vector<int> fds;
  fds.reserve(concurrency);
  while (launched < total) {
    const std::size_t wave = std::min(concurrency, total - launched);
    fds.clear();
    for (std::size_t i = 0; i < wave; ++i) {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) continue;
      sockaddr_in sa{};
      sa.sin_family = AF_INET;
      sa.sin_port = htons(port);
      sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
        ::close(fd);
        continue;
      }
      fds.push_back(fd);
    }
    for (const int fd : fds) {
      (void)(write_chunk(fd, stream[0]) && write_chunk(fd, stream[1]));
      ::close(fd);
    }
    launched += wave;
  }
  // Quiesce: all accepted sessions must die (EOF) and the books settle.
  for (int spins = 0; spins < 20000; ++spins) {
    if (srv.accepts() >= launched && srv.sessions_active() == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const double wall = seconds_since(t0);
  srv.stop();

  const server::TenantSnapshot ts = srv.tenant_stats(kTenant);
  const transport::TransportSnapshot xs = srv.transport_stats();
  Row r;
  r.kernel = "server_churn";
  r.frame_bytes = stream[0].size();
  r.shards = cfg.shards;
  r.conns = launched;
  r.dgrams = ts.dgrams_in;
  r.payload_bytes = ts.bytes_in;
  r.wall_seconds = wall;
  r.conns_per_s = wall > 0.0 ? static_cast<double>(launched) / wall : 0.0;
  r.has_goodput = false;
  r.ledger_ok = ts.ledger_exact() && xs.ledger_exact() && srv.sessions_active() == 0;
  r.set_io(xs);
  if (!r.ledger_ok) {
    std::fprintf(stderr,
                 "bench_server: LEDGER VIOLATION after churn "
                 "(dgrams in=%llu out=%llu lost=%llu; chunks in=%llu out=%llu lost=%llu)\n",
                 static_cast<unsigned long long>(ts.dgrams_in),
                 static_cast<unsigned long long>(ts.dgrams_out()),
                 static_cast<unsigned long long>(ts.dgrams_lost),
                 static_cast<unsigned long long>(xs.frames_in),
                 static_cast<unsigned long long>(xs.frames_out),
                 static_cast<unsigned long long>(xs.frames_lost));
  }
  return r;
}

int run(int argc, char** argv) {
  bool smoke = false, quick = false;
  std::string out_path = "BENCH_server.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[++i];
  }
  raise_fd_limit();

  const std::size_t conns = smoke ? 32 : quick ? 200 : 1000;
  const double target_s = smoke ? 0.05 : quick ? 0.3 : 1.0;
  const std::size_t churn_total = smoke ? 100 : quick ? 2000 : 10000;
  const std::size_t churn_conc = smoke ? 25 : quick ? 100 : 200;
  const std::size_t dgram_len = 512;
  // Full mode: ~2000 chunks x 2430B shared across every connection; no conn
  // comes close to exhausting it inside the wall window.
  const std::size_t stream_chunks = smoke ? 64 : 2000;

  banner("bench_server — sharded multi-tenant TunnelServer at C10K",
         "many tunnels, few shards: the paper's line card as a termination server");
  paper_says("one P5 terminates one 2.488 Gbps line; a server shard terminates thousands of"
             " slower tunnels");

  const std::vector<Bytes> stream = encode_stream(stream_chunks, dgram_len);
  std::printf("pre-encoded %zu chunks (%.1f MB wire, %.1f MB payload)\n", stream.size(),
              static_cast<double>(stream.size() * stream[0].size()) / 1e6,
              static_cast<double>(decoded_payload_bytes(stream)) / 1e6);

  std::vector<Row> rows;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    rows.push_back(bench_goodput(shards, conns, target_s, stream, dgram_len));
  }
  rows.push_back(bench_churn(churn_total, churn_conc, stream));

  const double base_mb_s = rows[0].mb_s;
  bool ledgers_ok = true;
  for (const Row& r : rows) {
    ledgers_ok = ledgers_ok && r.ledger_ok;
    if (r.has_goodput) {
      std::printf("%-22s %4zu conns %zu shard(s)  %8.3fs  %10.2f MB/s  x%.2f vs 1shard  %5.1f fr/sys  %s\n",
                  r.kernel.c_str(), r.conns, r.shards, r.wall_seconds, r.mb_s,
                  base_mb_s > 0.0 ? r.mb_s / base_mb_s : 0.0, r.frames_per_syscall,
                  r.ledger_ok ? "ledger OK" : "LEDGER FAIL");
    } else {
      std::printf("%-22s %4zu conns %zu shard(s)  %8.3fs  %10.0f conns/s  %s\n", r.kernel.c_str(),
                  r.conns, r.shards, r.wall_seconds, r.conns_per_s,
                  r.ledger_ok ? "ledger OK" : "LEDGER FAIL");
    }
  }

  JsonReport report("server");
  report.header.set("unit", "MB/s")
      .set("mode", smoke ? "smoke" : quick ? "quick" : "full")
      .set("host_cpus", static_cast<std::size_t>(std::thread::hardware_concurrency()));
  for (const Row& r : rows) {
    auto& row = report.row()
                    .set("kernel", r.kernel)
                    .set("frame_bytes", r.frame_bytes)
                    .set("escape_density", 0.05)
                    .set("dispatch", "tcp")
                    .set("tier", "fast")
                    .set("pinned", false)
                    .set("shards", r.shards)
                    .set("conns", r.conns)
                    .set("dgrams", r.dgrams)
                    .set("payload_bytes", r.payload_bytes)
                    .set("wall_seconds", r.wall_seconds)
                    .set("syscalls", r.syscalls)
                    .set("frames_per_syscall", r.frames_per_syscall)
                    .set("pool_recycled", r.pool_recycled)
                    .set("ledger_ok", r.ledger_ok);
    if (r.has_goodput) {
      row.set("new_mb_s", r.mb_s)
          .set("scaling_vs_1shard", base_mb_s > 0.0 ? r.mb_s / base_mb_s : 0.0);
    } else {
      row.set("conns_per_s", r.conns_per_s);
    }
  }
  if (!report.write(out_path)) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu rows)%s\n", out_path.c_str(), rows.size(),
              smoke ? " [smoke mode: timings are not meaningful]" : "");
  we_measure("aggregate sink goodput at " + std::to_string(conns) + " tunnels: " +
             std::to_string(rows[0].mb_s) + " MB/s (1 shard) vs " + std::to_string(rows[2].mb_s) +
             " MB/s (4 shards); churn " + std::to_string(rows[3].conns_per_s) + " conns/s");
  if (!ledgers_ok) {
    std::fprintf(stderr, "bench_server: FAIL — a ledger did not close exactly\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace p5::bench

int main(int argc, char** argv) { return p5::bench::run(argc, argv); }
