// bench_tunnel — socket-transport throughput for the P5 SONET stream.
//
// Rows, all wall-clock (this bench measures the transport and the host, not
// the cycle model's clock):
//
//  * stream_echo — raw StreamConn loopback echo: length-prefixed frames out
//    and back through the epoll loop with no P5 model attached. This is the
//    transport's own ceiling; it should sit orders of magnitude above the
//    cycle-tier figures.
//  * tunnel_tcp / tunnel_udp — a socketed endpoint pair (transport::Tunnel
//    at both ends over loopback) delivering datagrams end to end at the
//    cycle-accurate tier. Model-bound: the cycle P5 at each end simulates at
//    roughly the speed BENCH_linecard.json records, so these rows gate "the
//    tunnel does not get slower", not absolute socket speed.
//  * tunnel_tcp_fast / tunnel_udp_fast — the same pair at DeviceTier::kFast
//    (p5/fast_endpoint): the whole-frame batch datapath. These rows are the
//    tentpole gate — the fastpath tier must close the tunnel gap to within
//    the transport's own order of magnitude (>= 100 MB/s on the TCP row).
//
// Every tunnel row is duration-targeted: datagrams are submitted in bursts
// (keeping the 64-entry device ring topped up) until the target wall time
// elapses, then the tail drains. Throughput is delivered payload over the
// time to the last delivery, so a row's figure does not depend on a guessed
// frame count — the old fixed-150-frame rows under-ran the fast tier by
// three orders of magnitude.
//
// Results go to stdout and BENCH_tunnel.json. The JSON rows carry the
// bench_compare.py cell keys (now including the `tier` column); gate with
//   scripts/bench_compare.py BENCH_tunnel.json <baseline> --metric new_mb_s
// (the tunnel baseline tolerance is loose — wall time on shared CI swings).
//
// --pcap switches to trace-driven rows (pcap_tcp / pcap_udp): the bundled
// deterministic TCP trace (net/capture/trace_gen — real sequence/ack
// dynamics via TcpFlowGen, no external files) is replayed through the
// endpoint pair in a loop for the target duration. Output then goes to
// BENCH_capture.json (bench "capture"), and the run *gates itself* on the
// exact chunk ledger: frames_in == frames_out + frames_lost on every row,
// nonzero exit otherwise.
//
// Usage: bench_tunnel [--smoke] [--quick] [--pcap] [--out <path>]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "net/capture/replay.hpp"
#include "net/capture/trace_gen.hpp"
#include "p5/endpoint.hpp"
#include "transport/conn.hpp"
#include "transport/event_loop.hpp"
#include "transport/tunnel.hpp"

namespace p5::bench {
namespace {

using transport::ConnConfig;
using transport::EventLoop;
using transport::Fd;
using transport::kReadable;
using transport::SocketAddr;
using transport::StreamConn;
using transport::TransportSnapshot;
using transport::TransportTelemetry;
using transport::Tunnel;
using transport::TunnelBinding;
using transport::TunnelConfig;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

struct Row {
  std::string kernel;
  std::size_t frame_bytes = 0;
  std::string dispatch;
  std::string tier;  ///< "-" for rows with no P5 device in the path
  std::size_t frames = 0;
  u64 payload_bytes = 0;
  double wall_seconds = 0.0;
  double mb_s = 0.0;
  u64 syscalls = 0;        ///< socket send+recv calls across every conn in the row
  u64 pool_recycled = 0;   ///< chunk buffers served from pool free lists
  double frames_per_syscall = 0.0;

  /// Fill the batching-amortisation columns from the row's aggregated
  /// transport counters (both sides of the pair summed).
  void set_io(TransportSnapshot total) {
    syscalls = total.tx_syscalls + total.rx_syscalls;
    pool_recycled = total.pool_recycled;
    frames_per_syscall = total.frames_per_syscall();
  }
};

/// Raw StreamConn echo: `count` frames of `frame_bytes` out and back.
Row bench_stream_echo(std::size_t count, std::size_t frame_bytes) {
  EventLoop loop;
  TransportTelemetry ctel, stel;
  Fd listen_fd = transport::tcp_listen(SocketAddr{"127.0.0.1", 0});
  std::unique_ptr<StreamConn> server, client;
  ConnConfig scfg;
  scfg.send_watermark_bytes = 64 * 1024 * 1024;  // echo side is read-gated
  loop.add_fd(listen_fd.get(), kReadable, [&](u32) {
    Fd c = transport::tcp_accept(listen_fd.get());
    if (!c.valid()) return;
    server = std::make_unique<StreamConn>(loop, stel, scfg, std::move(c), false);
    server->set_on_frames([&](std::span<const BytesView> burst) {
      for (const BytesView& v : burst) (void)server->send_frame(v);
    });
  });
  bool in_progress = false;
  Fd c = transport::tcp_connect(SocketAddr{"127.0.0.1", transport::local_port(listen_fd.get())},
                                in_progress);
  client = std::make_unique<StreamConn>(loop, ctel, ConnConfig{}, std::move(c), in_progress);
  while (!server || !client->open()) loop.run_once(10);

  const Bytes frame = density_payload(frame_bytes, 0.0, 42);
  std::size_t echoed = 0;
  client->set_on_frames([&](std::span<const BytesView> burst) { echoed += burst.size(); });

  const auto t0 = std::chrono::steady_clock::now();
  std::size_t sent = 0;
  while (echoed < count) {
    while (sent < count && client->send_frame(frame)) ++sent;
    loop.run_once(10);
  }
  Row r;
  r.kernel = "stream_echo";
  r.frame_bytes = frame_bytes;
  r.dispatch = "tcp";
  r.tier = "-";
  r.frames = count;
  r.payload_bytes = static_cast<u64>(count) * frame_bytes;
  r.wall_seconds = seconds_since(t0);
  // Payload octets that crossed the loop twice (out and back).
  r.mb_s = 2.0 * static_cast<double>(r.payload_bytes) / 1e6 / r.wall_seconds;
  TransportSnapshot io = ctel.snapshot();
  io += stel.snapshot();
  r.set_io(io);
  loop.remove_fd(listen_fd.get());
  return r;
}

/// Socketed endpoint pair at `tier`: submit datagrams of `dgram_len` in
/// bursts for `target_seconds` of wall time, drain, report delivered
/// payload over the time to the last delivery.
Row bench_tunnel_pair(bool udp, core::DeviceTier tier, double target_seconds,
                      std::size_t dgram_len) {
  EventLoop loop;
  auto ep_a = core::make_sonet_endpoint(tier, {}, sonet::kSts3c);
  auto ep_b = core::make_sonet_endpoint(tier, {}, sonet::kSts3c);
  TunnelConfig ca;
  ca.listen = true;
  ca.udp = udp;
  ca.port = 0;
  // Throughput posture: one pump slice drains the device's whole 64-entry
  // TX ring, and the batched conn sends the slice as one scatter-gather
  // syscall — the pooled-chunk path makes the bigger slice copy-free.
  ca.frames_per_pump = 64;
  Tunnel tun_a(loop, TunnelBinding::endpoint(*ep_a), ca);
  tun_a.start();
  TunnelConfig cb = ca;
  cb.listen = false;
  cb.udp = udp;
  cb.port = tun_a.bound_port();
  Tunnel tun_b(loop, TunnelBinding::endpoint(*ep_b), cb);
  tun_b.start();

  const Bytes payload = density_payload(dgram_len, 0.05, 7);
  const auto t0 = std::chrono::steady_clock::now();
  auto t_last = t0;
  std::size_t submitted = 0, delivered = 0;
  u64 delivered_bytes = 0;
  bool draining = false;
  int settle = 0;
  while (settle < 400) {
    if (!draining) {
      // Burst submission keeps the device's 64-entry transmit ring topped
      // up, so the batch tier encodes whole batches per pull instead of one
      // frame per pump slice.
      while (ep_b->submit_datagram(0x0021, payload)) ++submitted;
      if (seconds_since(t0) >= target_seconds) draining = true;
    }
    tun_a.pump();
    tun_b.pump();
    loop.run_once(draining ? 1 : 0);
    bool any = false;
    while (auto d = ep_a->reap_datagram()) {
      ++delivered;
      delivered_bytes += d->payload.size();
      any = true;
    }
    if (any) t_last = std::chrono::steady_clock::now();
    // UDP on loopback is effectively loss-free, but don't hang on a miracle.
    settle = (draining && !ep_b->tx_pending()) ? settle + 1 : 0;
  }
  Row r;
  r.kernel = std::string(udp ? "tunnel_udp" : "tunnel_tcp") +
             (tier == core::DeviceTier::kFast ? "_fast" : "");
  r.frame_bytes = dgram_len;
  r.dispatch = udp ? "udp" : "tcp";
  r.tier = core::to_string(tier);
  r.frames = delivered;
  r.payload_bytes = delivered_bytes;
  r.wall_seconds = std::chrono::duration<double>(t_last - t0).count();
  r.mb_s = r.wall_seconds > 0.0
               ? static_cast<double>(delivered_bytes) / 1e6 / r.wall_seconds
               : 0.0;
  TransportSnapshot io = tun_a.stats();
  io += tun_b.stats();
  r.set_io(io);
  return r;
}

/// Trace-driven row: replay the bundled deterministic TCP trace through a
/// socketed endpoint pair, looping it until `target_seconds` elapse. The
/// `ledger_ok` flag is the row's own acceptance gate.
struct PcapRow : Row {
  u64 trace_loops = 0;
  u64 replay_delivered = 0;
  bool ledger_ok = false;
};

PcapRow bench_pcap_pair(bool udp, core::DeviceTier tier, double target_seconds) {
  using net::capture::Pacing;
  using net::capture::PcapFile;
  using net::capture::TraceSource;

  net::capture::TraceGenConfig tcfg;
  tcfg.flows = 6;
  tcfg.packets = 512;
  tcfg.seed = 20260808;
  const PcapFile trace = net::capture::synthesize_tcp_trace(tcfg);
  u64 trace_bytes = 0;
  for (const auto& r : trace.records) trace_bytes += r.data.size();

  EventLoop loop;
  auto ep_a = core::make_sonet_endpoint(tier, {}, sonet::kSts3c);
  auto ep_b = core::make_sonet_endpoint(tier, {}, sonet::kSts3c);
  TunnelConfig ca;
  ca.listen = true;
  ca.udp = udp;
  ca.port = 0;
  ca.frames_per_pump = 64;
  Tunnel tun_a(loop, TunnelBinding::endpoint(*ep_a), ca);
  tun_a.start();
  TunnelConfig cb = ca;
  cb.listen = false;
  cb.port = tun_a.bound_port();
  Tunnel tun_b(loop, TunnelBinding::endpoint(*ep_b), cb);
  tun_b.start();

  const auto sink = net::capture::make_endpoint_sink(*ep_b);
  auto src = std::make_unique<TraceSource>(trace.meta, trace.records);

  PcapRow r;
  const auto t0 = std::chrono::steady_clock::now();
  auto t_last = t0;
  std::size_t delivered = 0;
  u64 delivered_bytes = 0;
  bool draining = false;
  int settle = 0;
  while (settle < 400) {
    if (!draining) {
      // As-fast-as-possible replay; when the trace runs dry, loop it — the
      // row is duration-targeted like every other tunnel row.
      src->pump(0, 64, sink);
      if (src->done()) {
        r.replay_delivered += src->stats().delivered;
        src = std::make_unique<TraceSource>(trace.meta, trace.records);
        ++r.trace_loops;
      }
      if (seconds_since(t0) >= target_seconds) {
        r.replay_delivered += src->stats().delivered;
        draining = true;
      }
    }
    tun_a.pump();
    tun_b.pump();
    loop.run_once(draining ? 1 : 0);
    bool any = false;
    while (auto d = ep_a->reap_datagram()) {
      ++delivered;
      delivered_bytes += d->payload.size();
      any = true;
    }
    if (any) t_last = std::chrono::steady_clock::now();
    settle = (draining && !ep_b->tx_pending()) ? settle + 1 : 0;
  }
  r.kernel = std::string(udp ? "pcap_udp" : "pcap_tcp");
  // Cell key stability: the mean trace record size is deterministic.
  r.frame_bytes = static_cast<std::size_t>(trace_bytes / trace.records.size());
  r.dispatch = udp ? "udp" : "tcp";
  r.tier = core::to_string(tier);
  r.frames = delivered;
  r.payload_bytes = delivered_bytes;
  r.wall_seconds = std::chrono::duration<double>(t_last - t0).count();
  r.mb_s = r.wall_seconds > 0.0
               ? static_cast<double>(delivered_bytes) / 1e6 / r.wall_seconds
               : 0.0;
  TransportSnapshot io = tun_a.stats();
  io += tun_b.stats();
  r.set_io(io);
  // The acceptance gate: the transport's chunk ledger must balance exactly
  // on both tunnels (TCP never loses; UDP losses must be *accounted*).
  const TransportSnapshot sa = tun_a.stats(), sb = tun_b.stats();
  r.ledger_ok = sa.ledger_exact() && sb.ledger_exact();
  return r;
}

int run_pcap(bool smoke, bool quick, const std::string& out_path) {
  const double target_s = smoke ? 0.05 : quick ? 0.4 : 1.5;
  banner("bench_tunnel --pcap — trace-driven transport rows",
         "the bundled deterministic TCP trace replayed over the socketed P5 pair");
  paper_says("real IP datagram mixes, not synthetic IMIX, prove the datapath");

  std::vector<PcapRow> rows;
  rows.push_back(bench_pcap_pair(false, core::DeviceTier::kFast, target_s));
  rows.push_back(bench_pcap_pair(true, core::DeviceTier::kFast, target_s));
  rows.push_back(bench_pcap_pair(false, core::DeviceTier::kCycle, target_s));

  bool all_ok = true;
  for (const PcapRow& r : rows) {
    std::printf("%-10s %5zuB x %8zu  %8.3fs  %10.2f MB/s  loops %llu  ledger %s (%s, tier %s)\n",
                r.kernel.c_str(), r.frame_bytes, r.frames, r.wall_seconds, r.mb_s,
                static_cast<unsigned long long>(r.trace_loops),
                r.ledger_ok ? "OK" : "VIOLATED", r.dispatch.c_str(), r.tier.c_str());
    all_ok = all_ok && r.ledger_ok;
  }

  JsonReport report("capture");
  report.header.set("unit", "MB/s").set("mode", smoke ? "smoke" : quick ? "quick" : "full");
  for (const PcapRow& r : rows) {
    report.row()
        .set("kernel", r.kernel)
        .set("frame_bytes", r.frame_bytes)
        .set("escape_density", 0.0)
        .set("dispatch", r.dispatch)
        .set("tier", r.tier)
        .set("pinned", false)
        .set("frames", r.frames)
        .set("payload_bytes", r.payload_bytes)
        .set("trace_loops", r.trace_loops)
        .set("replay_delivered", r.replay_delivered)
        .set("ledger_ok", r.ledger_ok)
        .set("wall_seconds", r.wall_seconds)
        .set("syscalls", r.syscalls)
        .set("frames_per_syscall", r.frames_per_syscall)
        .set("new_mb_s", r.mb_s);
  }
  if (!report.write(out_path)) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu rows)%s\n", out_path.c_str(), rows.size(),
              smoke ? " [smoke mode: timings are not meaningful]" : "");
  if (!all_ok) {
    std::fprintf(stderr, "error: chunk ledger violated on a pcap row\n");
    return 1;
  }
  we_measure("pcap replay over the fast-tier TCP tunnel: " + std::to_string(rows[0].mb_s) +
             " MB/s wall, ledger exact on every row");
  return 0;
}

int run(int argc, char** argv) {
  bool smoke = false, quick = false, pcap = false;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--pcap") == 0) pcap = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[++i];
  }
  if (out_path.empty()) out_path = pcap ? "BENCH_capture.json" : "BENCH_tunnel.json";
  if (pcap) return run_pcap(smoke, quick, out_path);
  const std::size_t echo_frames = smoke ? 200 : quick ? 4000 : 20000;
  const double target_s = smoke ? 0.05 : quick ? 0.4 : 1.5;

  banner("bench_tunnel — socket transport for P5 SONET streams",
         "carries the paper's STS-Nc byte stream between real processes");
  paper_says("2.488 Gbps sustained on the wire; here the wire is a kernel socket");

  std::vector<Row> rows;
  for (const std::size_t fb : {std::size_t{256}, std::size_t{2048}})
    rows.push_back(bench_stream_echo(echo_frames, fb));
  for (const core::DeviceTier tier : {core::DeviceTier::kCycle, core::DeviceTier::kFast}) {
    rows.push_back(bench_tunnel_pair(false, tier, target_s, 1024));
    rows.push_back(bench_tunnel_pair(true, tier, target_s, 1024));
  }

  for (const Row& r : rows) {
    std::printf("%-16s %5zuB x %8zu  %8.3fs  %10.2f MB/s  %6.1f fr/sys (%s, tier %s)\n",
                r.kernel.c_str(), r.frame_bytes, r.frames, r.wall_seconds, r.mb_s,
                r.frames_per_syscall, r.dispatch.c_str(), r.tier.c_str());
  }

  JsonReport report("tunnel");
  report.header.set("unit", "MB/s").set("mode", smoke ? "smoke" : quick ? "quick" : "full");
  for (const Row& r : rows) {
    report.row()
        .set("kernel", r.kernel)
        .set("frame_bytes", r.frame_bytes)
        .set("escape_density", 0.05)
        .set("dispatch", r.dispatch)
        .set("tier", r.tier)
        .set("pinned", false)
        .set("frames", r.frames)
        .set("payload_bytes", r.payload_bytes)
        .set("wall_seconds", r.wall_seconds)
        .set("syscalls", r.syscalls)
        .set("frames_per_syscall", r.frames_per_syscall)
        .set("pool_recycled", r.pool_recycled)
        .set("new_mb_s", r.mb_s);
  }
  if (!report.write(out_path)) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu rows)%s\n", out_path.c_str(), rows.size(),
              smoke ? " [smoke mode: timings are not meaningful]" : "");
  we_measure("tunnel TCP cycle tier: " + std::to_string(rows[2].mb_s) +
             " MB/s wall; fast tier: " + std::to_string(rows[4].mb_s) +
             " MB/s (see stream_echo for the transport ceiling)");
  return 0;
}

}  // namespace
}  // namespace p5::bench

int main(int argc, char** argv) { return p5::bench::run(argc, argv); }
