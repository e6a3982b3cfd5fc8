// p5_tun — live kernel IP over the P⁵ tunnel.
//
// Each process owns one TUN interface and one end of a socketed
// PPP-over-SONET link:
//
//   kernel ⇄ p5tun0 ⇄ TunBridge ⇄ P5 endpoint ⇄ Tunnel ⇄ socket ⇄ ... peer
//
// Every datagram the kernel routes into the interface is HDLC-framed,
// FCS-protected, scrambled into an STS-3c byte stream and carried across
// the socket; the far process recovers it and writes it into its own TUN,
// where the peer kernel picks it up. `ping` and `iperf` between the two
// tunnel addresses exercise the paper's entire datapath with real traffic.
//
// Two-process run — NOTE: both ends in one network namespace short-circuit
// (the kernel sees both addresses as local and never routes via the tun),
// so put one end in its own netns. Recipe (root):
//
//   ip netns add p5peer
//   ip link add veth0 type veth peer name veth1
//   ip link set veth1 netns p5peer
//   ip addr add 192.168.77.1/24 dev veth0 && ip link set veth0 up
//   ip netns exec p5peer ip addr add 192.168.77.2/24 dev veth1
//   ip netns exec p5peer ip link set veth1 up
//   ip netns exec p5peer ip link set lo up
//
//   # terminal 1 (the peer namespace listens):
//   ip netns exec p5peer ./p5_tun --listen 9600 --local 10.77.0.2 --peer 10.77.0.1
//   # terminal 2 (default namespace connects over the veth):
//   ./p5_tun --connect 192.168.77.2:9600 --local 10.77.0.1 --peer 10.77.0.2
//   # terminal 3: live IP over the paper's datapath
//   ping 10.77.0.2
//
// --vj enables VJ TCP header compression (both ends!), --pcap-out records
// every datagram delivered to the kernel as a raw-IP pcap, --tier picks the
// device model (fast default, cycle for the full pipeline — expect dial-up
// era throughput and ping times, which is its own kind of demo).
//
// Without TUN access (no /dev/net/tun, or not root/CAP_NET_ADMIN) the
// binary exits 77 — the ctest SKIP convention — so unprivileged CI skips
// rather than fails. `--probe` only performs that check.
//
// Usage:
//   p5_tun (--listen PORT | --connect HOST:PORT) --local A.B.C.D --peer A.B.C.D
//          [--ifname NAME] [--mtu N] [--tier cycle|fast] [--udp] [--vj]
//          [--pcap-out PATH] [--duration SEC] [--stats-ms MS] [--probe]
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "net/capture/tap.hpp"
#include "net/tunif/tun_bridge.hpp"
#include "net/tunif/tun_device.hpp"
#include "p5/endpoint.hpp"
#include "transport/event_loop.hpp"
#include "transport/tunnel.hpp"

namespace {

constexpr int kSkipExit = 77;  // ctest SKIP_RETURN_CODE

volatile std::sig_atomic_t g_interrupted = 0;
void on_sigint(int) { g_interrupted = 1; }

struct Options {
  bool listen = false;
  bool udp = false;
  bool vj = false;
  bool probe = false;
  std::string host = "127.0.0.1";
  p5::u16 port = 0;
  std::string ifname = "p5tun%d";
  std::string local;
  std::string peer;
  p5::u32 mtu = 1400;  // headroom under the veth MTU for framing expansion
  std::string pcap_out;
  p5::u64 duration_s = 0;
  p5::u64 stats_ms = 2000;
  p5::core::DeviceTier tier = p5::core::DeviceTier::kFast;
};

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--listen") == 0) {
      const char* v = need("--listen");
      if (!v) return false;
      opt.listen = true;
      opt.port = static_cast<p5::u16>(std::atoi(v));
    } else if (std::strcmp(argv[i], "--connect") == 0) {
      const char* v = need("--connect");
      if (!v) return false;
      const auto addr = p5::transport::parse_addr(v);
      if (!addr) {
        std::fprintf(stderr, "error: bad address '%s'\n", v);
        return false;
      }
      opt.host = addr->host;
      opt.port = addr->port;
    } else if (std::strcmp(argv[i], "--local") == 0) {
      const char* v = need("--local");
      if (!v) return false;
      opt.local = v;
    } else if (std::strcmp(argv[i], "--peer") == 0) {
      const char* v = need("--peer");
      if (!v) return false;
      opt.peer = v;
    } else if (std::strcmp(argv[i], "--ifname") == 0) {
      const char* v = need("--ifname");
      if (!v) return false;
      opt.ifname = v;
    } else if (std::strcmp(argv[i], "--mtu") == 0) {
      const char* v = need("--mtu");
      if (!v) return false;
      opt.mtu = static_cast<p5::u32>(std::atoi(v));
    } else if (std::strcmp(argv[i], "--pcap-out") == 0) {
      const char* v = need("--pcap-out");
      if (!v) return false;
      opt.pcap_out = v;
    } else if (std::strcmp(argv[i], "--duration") == 0) {
      const char* v = need("--duration");
      if (!v) return false;
      opt.duration_s = static_cast<p5::u64>(std::atoll(v));
    } else if (std::strcmp(argv[i], "--stats-ms") == 0) {
      const char* v = need("--stats-ms");
      if (!v) return false;
      opt.stats_ms = static_cast<p5::u64>(std::atoll(v));
    } else if (std::strcmp(argv[i], "--tier") == 0) {
      const char* v = need("--tier");
      if (!v) return false;
      if (std::strcmp(v, "cycle") == 0) {
        opt.tier = p5::core::DeviceTier::kCycle;
      } else if (std::strcmp(v, "fast") == 0) {
        opt.tier = p5::core::DeviceTier::kFast;
      } else {
        std::fprintf(stderr, "error: --tier must be 'cycle' or 'fast'\n");
        return false;
      }
    } else if (std::strcmp(argv[i], "--udp") == 0) {
      opt.udp = true;
    } else if (std::strcmp(argv[i], "--vj") == 0) {
      opt.vj = true;
    } else if (std::strcmp(argv[i], "--probe") == 0) {
      opt.probe = true;
    } else {
      std::fprintf(stderr, "error: unknown flag '%s'\n", argv[i]);
      return false;
    }
  }
  if (opt.probe) return true;
  if (opt.port == 0 || opt.local.empty() || opt.peer.empty()) {
    std::fprintf(stderr,
                 "usage: p5_tun (--listen PORT | --connect HOST:PORT) --local A.B.C.D\n"
                 "              --peer A.B.C.D [--ifname NAME] [--mtu N] [--tier cycle|fast]\n"
                 "              [--udp] [--vj] [--pcap-out PATH] [--duration SEC]\n"
                 "              [--stats-ms MS] [--probe]\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace p5;
  Options opt;
  if (!parse_args(argc, argv, opt)) return 2;

  if (!net::tunif::TunDevice::available()) {
    std::fprintf(stderr,
                 "p5_tun: SKIP — /dev/net/tun is unavailable (missing node or no"
                 " privilege; needs root or CAP_NET_ADMIN)\n");
    return kSkipExit;
  }
  if (opt.probe) {
    std::printf("p5_tun: TUN available\n");
    return 0;
  }
  std::signal(SIGINT, on_sigint);

  net::tunif::TunDevice tun;
  if (!tun.open(opt.ifname)) {
    std::fprintf(stderr, "p5_tun: cannot open TUN: %s\n", tun.error().c_str());
    return 1;
  }
  if (!tun.configure_ipv4(opt.local, opt.peer, opt.mtu)) {
    std::fprintf(stderr, "p5_tun: cannot configure %s: %s\n", tun.name().c_str(),
                 tun.error().c_str());
    return 1;
  }

  transport::EventLoop loop;
  auto ep = core::make_sonet_endpoint(opt.tier, {}, sonet::kSts3c);
  transport::TunnelConfig cfg;
  cfg.listen = opt.listen;
  cfg.udp = opt.udp;
  // Listeners accept from any interface — the documented demo crosses a
  // netns boundary over a veth, where loopback binding would be unreachable.
  cfg.host = opt.listen ? "0.0.0.0" : opt.host;
  cfg.port = opt.port;
  cfg.keepalive_ms = 20;
  transport::Tunnel tunnel(loop, transport::TunnelBinding::endpoint(*ep), cfg);
  tunnel.start();

  net::tunif::TunBridgeConfig bcfg;
  bcfg.vj = opt.vj;
  net::tunif::TunBridge bridge(loop, tun, *ep, bcfg);

  net::capture::CaptureTap tap({.nsec = true, .linktype = net::capture::kLinkRawIp});
  if (!opt.pcap_out.empty()) {
    if (!tap.open(opt.pcap_out)) {
      std::fprintf(stderr, "p5_tun: cannot create %s\n", opt.pcap_out.c_str());
      return 1;
    }
    tap.use_wall_clock();
    bridge.set_delivered_tap([&tap](BytesView d) { tap.record(d); });
  }

  std::printf("p5_tun: %s is up (%s ⇄ %s, mtu %u), %s %s:%u, %s, tier %s%s%s\n",
              tun.name().c_str(), opt.local.c_str(), opt.peer.c_str(), opt.mtu,
              opt.listen ? "listening on" : "connecting to", opt.host.c_str(),
              opt.port, opt.udp ? "udp" : "tcp", core::to_string(opt.tier),
              opt.vj ? ", vj" : "",
              opt.pcap_out.empty() ? "" : (", recording " + opt.pcap_out).c_str());

  u64 last_stats = loop.now_ms();
  const u64 deadline_ms =
      opt.duration_s > 0 ? loop.now_ms() + opt.duration_s * 1000 : 0;
  bool draining = false;
  while (true) {
    bridge.pump();
    tunnel.pump();
    loop.run_once(1);

    if (opt.stats_ms > 0 && loop.now_ms() - last_stats >= opt.stats_ms) {
      last_stats = loop.now_ms();
      const auto& b = bridge.stats();
      const auto s = tunnel.stats();
      std::printf(
          "[%s %s] kernel→p5 %llu pkts (%llu B, backlog %zu, dropped %llu) | "
          "p5→kernel %llu pkts (%llu B, write_fail %llu) | chunks in=%llu "
          "out=%llu lost=%llu | rx bad=%llu resync=%llu\n",
          tun.name().c_str(), transport::to_string(tunnel.state()),
          static_cast<unsigned long long>(b.tun_rx_packets),
          static_cast<unsigned long long>(b.tun_rx_bytes), bridge.backlog(),
          static_cast<unsigned long long>(b.dropped_backlog),
          static_cast<unsigned long long>(b.delivered_packets),
          static_cast<unsigned long long>(b.delivered_bytes),
          static_cast<unsigned long long>(b.tun_write_failures),
          static_cast<unsigned long long>(s.frames_in),
          static_cast<unsigned long long>(s.frames_out),
          static_cast<unsigned long long>(s.frames_lost),
          static_cast<unsigned long long>(ep->rx_counters().frames_bad),
          static_cast<unsigned long long>(ep->rx_stats().resyncs));
    }

    if (!draining &&
        (g_interrupted || (deadline_ms != 0 && loop.now_ms() >= deadline_ms))) {
      std::printf("\n%s: draining...\n", g_interrupted ? "SIGINT" : "--duration elapsed");
      draining = true;
      tunnel.request_drain();
    }
    if (draining && tunnel.finished()) break;
  }

  const auto& b = bridge.stats();
  const auto s = tunnel.stats();
  const bool invariant = s.ledger_exact();
  std::printf("\nfinal: kernel→p5 %llu pkts, p5→kernel %llu pkts, chunk invariant %s"
              " (in=%llu out=%llu lost=%llu)\n",
              static_cast<unsigned long long>(b.tun_rx_packets),
              static_cast<unsigned long long>(b.delivered_packets),
              invariant ? "OK" : "VIOLATED",
              static_cast<unsigned long long>(s.frames_in),
              static_cast<unsigned long long>(s.frames_out),
              static_cast<unsigned long long>(s.frames_lost));
  if (!opt.pcap_out.empty()) {
    const auto t = tap.stats();
    tap.close();
    std::printf("pcap: %s — %llu records, %llu bytes, %llu drops at tap\n",
                opt.pcap_out.c_str(), static_cast<unsigned long long>(t.records),
                static_cast<unsigned long long>(t.bytes),
                static_cast<unsigned long long>(t.drops));
  }
  return invariant ? 0 : 1;
}
