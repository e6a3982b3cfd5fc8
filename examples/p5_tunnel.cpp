// p5_tunnel — one end of a PPP-over-SONET link as a real networked process.
//
// Run a pair (two terminals, or two machines on a LAN):
//
//   ./p5_tunnel --listen 9500 --echo                      # terminal 1: reflector
//   ./p5_tunnel --connect 127.0.0.1:9500 --frames 100000  # terminal 2: sender
//
// The sender submits IMIX datagrams to its local P5, whose scrambled STS-3c
// byte stream rides the socket; the far P5 recovers alignment, descrambles,
// delineates, checks every FCS, and (with --echo) sends each datagram back.
// The sender FNV-1a-hashes every payload out and back, so the final line
// proves ≥100k frames crossed the wire byte-exact with zero CRC errors.
//
// --tier picks the device model driving each lane: `fast` (default) is the
// whole-frame batch datapath, `cycle` the cycle-accurate pipeline — same
// wire format, orders of magnitude apart in throughput.
//
// --channels N runs N independent tunnels (ports port..port+N-1), one
// endpoint each — the line-card picture with the fabric replaced by
// sockets. --udp swaps TCP for one-chunk-per-datagram UDP; losses then show
// up in the stats dump as resyncs/frames_bad, never as corrupt deliveries.
// SIGINT drains gracefully: the send queue flushes before the goodbye.
//
// Usage:
//   p5_tunnel (--listen PORT | --connect HOST:PORT)
//             [--tier cycle|fast] [--channels N] [--frames N | --duration SEC]
//             [--udp] [--echo] [--stats-ms MS] [--seed N] [--pcap-out PATH]
//
// --frames bounds the run by work, --duration by wall clock: after SEC
// seconds the sender stops submitting and drains, so soak runs against a
// live server don't need a frame-count guess. --pcap-out records every
// delivered datagram (all channels) as a PPP-linktype pcap — ff 03 proto
// payload per record — and prints the tap's exact ledger on exit.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "net/capture/tap.hpp"
#include "net/traffic.hpp"
#include "p5/endpoint.hpp"
#include "transport/event_loop.hpp"
#include "transport/tunnel.hpp"

namespace {

volatile std::sig_atomic_t g_interrupted = 0;
void on_sigint(int) { g_interrupted = 1; }

p5::u64 fnv1a(p5::BytesView bytes) {
  p5::u64 h = 1469598103934665603ull;
  for (const p5::u8 b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

struct Options {
  bool listen = false;
  bool udp = false;
  bool echo = false;
  std::string host = "127.0.0.1";
  p5::u16 port = 0;
  unsigned channels = 1;
  p5::u64 frames = 0;    // 0 on the listen side: just carry traffic
  p5::u64 duration_s = 0;  // wall-clock bound; 0 = unbounded
  p5::u64 stats_ms = 1000;
  p5::u64 seed = 7;
  std::string pcap_out;  // record delivered datagrams (all channels) here
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
    } else if (std::strcmp(argv[i], "--tier") == 0) {
      const char* v = need("--tier");
      if (!v) return false;
      if (std::strcmp(v, "cycle") == 0) {
        opt.tier = p5::core::DeviceTier::kCycle;
      } else if (std::strcmp(v, "fast") == 0) {
        opt.tier = p5::core::DeviceTier::kFast;
      } else {
        std::fprintf(stderr, "error: --tier must be 'cycle' or 'fast', got '%s'\n", v);
        return false;
      }
    } else if (std::strcmp(argv[i], "--channels") == 0) {
      const char* v = need("--channels");
      if (!v) return false;
      opt.channels = static_cast<unsigned>(std::atoi(v));
    } else if (std::strcmp(argv[i], "--frames") == 0) {
      const char* v = need("--frames");
      if (!v) return false;
      opt.frames = static_cast<p5::u64>(std::atoll(v));
    } else if (std::strcmp(argv[i], "--duration") == 0) {
      const char* v = need("--duration");
      if (!v) return false;
      opt.duration_s = static_cast<p5::u64>(std::atoll(v));
    } else if (std::strcmp(argv[i], "--stats-ms") == 0) {
      const char* v = need("--stats-ms");
      if (!v) return false;
      opt.stats_ms = static_cast<p5::u64>(std::atoll(v));
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      const char* v = need("--seed");
      if (!v) return false;
      opt.seed = static_cast<p5::u64>(std::atoll(v));
    } else if (std::strcmp(argv[i], "--pcap-out") == 0) {
      const char* v = need("--pcap-out");
      if (!v) return false;
      opt.pcap_out = v;
    } else if (std::strcmp(argv[i], "--udp") == 0) {
      opt.udp = true;
    } else if (std::strcmp(argv[i], "--echo") == 0) {
      opt.echo = true;
    } else {
      std::fprintf(stderr, "error: unknown flag '%s'\n", argv[i]);
      return false;
    }
  }
  if (opt.port == 0 || opt.channels == 0) {
    std::fprintf(stderr,
                 "usage: p5_tunnel (--listen PORT | --connect HOST:PORT) [--tier cycle|fast]\n"
                 "                 [--channels N] [--frames N | --duration SEC] [--udp]\n"
                 "                 [--echo] [--stats-ms MS] [--seed N] [--pcap-out PATH]\n");
    return false;
  }
  return true;
}

/// One tributary: an endpoint, its tunnel, and the sender's bookkeeping.
struct Lane {
  std::unique_ptr<p5::core::SonetEndpoint> ep;
  std::unique_ptr<p5::transport::Tunnel> tun;
  p5::net::ImixGenerator gen;
  p5::u64 submitted = 0;
  p5::u64 hash_out = 0;  // FNV over everything sent, order-sensitive
  p5::u64 hash_in = 0;   // FNV over everything received back
  p5::u64 reaped = 0;
  p5::u64 reaped_bytes = 0;  // payload octets delivered, for the stats rate

  Lane(p5::transport::EventLoop& loop, const Options& opt, unsigned index)
      : ep(p5::core::make_sonet_endpoint(opt.tier, {}, p5::sonet::kSts3c)),
        gen(opt.seed + index) {
    p5::transport::TunnelConfig cfg;
    cfg.listen = opt.listen;
    cfg.udp = opt.udp;
    cfg.host = opt.host;
    cfg.port = static_cast<p5::u16>(opt.port + index);
    cfg.keepalive_ms = 20;  // keep the far deframer fed across idle gaps
    cfg.seed = opt.seed + 100 + index;
    tun = std::make_unique<p5::transport::Tunnel>(
        loop, p5::transport::TunnelBinding::endpoint(*ep), cfg);
  }
};

}  // namespace

int main(int argc, char** argv) {
  using namespace p5;
  Options opt;
  if (!parse_args(argc, argv, opt)) return 2;
  std::signal(SIGINT, on_sigint);

  transport::EventLoop loop;
  std::vector<std::unique_ptr<Lane>> lanes;
  for (unsigned i = 0; i < opt.channels; ++i) lanes.push_back(std::make_unique<Lane>(loop, opt, i));
  for (auto& l : lanes) l->tun->start();

  // Delivered-datagram tap: PPP linktype, each record ff 03 proto payload —
  // the framing TraceSource::classify() strips on replay.
  net::capture::CaptureTap tap({.nsec = true, .linktype = net::capture::kLinkPpp});
  const bool recording = !opt.pcap_out.empty();
  if (recording) {
    if (!tap.open(opt.pcap_out)) {
      std::fprintf(stderr, "p5_tunnel: cannot create %s\n", opt.pcap_out.c_str());
      return 1;
    }
    tap.use_wall_clock();
  }
  Bytes tap_buf;
  const auto tap_record = [&](u16 protocol, BytesView payload) {
    tap_buf.clear();
    tap_buf.reserve(payload.size() + 4);
    tap_buf.push_back(0xff);
    tap_buf.push_back(0x03);
    tap_buf.push_back(static_cast<u8>(protocol >> 8));
    tap_buf.push_back(static_cast<u8>(protocol & 0xff));
    tap_buf.insert(tap_buf.end(), payload.begin(), payload.end());
    tap.record(tap_buf);
  };

  std::printf("p5_tunnel: %s %s:%u, %u channel%s, %s, tier %s%s\n",
              opt.listen ? "listening on" : "connecting to", opt.host.c_str(), opt.port,
              opt.channels, opt.channels > 1 ? "s" : "", opt.udp ? "udp" : "tcp",
              core::to_string(opt.tier), opt.echo ? ", echoing" : "");

  u64 last_stats = loop.now_ms();
  u64 last_stats_bytes = 0;  // summed reaped_bytes at the previous stats line
  const u64 deadline_ms = opt.duration_s > 0 ? loop.now_ms() + opt.duration_s * 1000 : 0;
  bool draining = false;
  while (true) {
    for (auto& l : lanes) {
      // Sender: keep the device fed until the quota is met (--frames) or the
      // clock runs out (--duration, submission gated below by the deadline).
      const bool feeding = opt.frames > 0 ? l->submitted < opt.frames
                                          : (opt.duration_s > 0 && !opt.listen);
      if (!draining && feeding) {
        Bytes p = l->gen.next_datagram();
        if (l->ep->submit_datagram(0x0021, p)) {
          l->hash_out ^= fnv1a(p) * (l->submitted + 1);  // order-sensitive mix
          ++l->submitted;
        }
      }
      l->tun->pump();
      while (auto d = l->ep->reap_datagram()) {
        l->hash_in ^= fnv1a(d->payload) * (l->reaped + 1);
        ++l->reaped;
        l->reaped_bytes += d->payload.size();
        if (recording) tap_record(d->protocol, d->payload);
        if (opt.echo) (void)l->ep->submit_datagram(d->protocol, d->payload);
      }
    }
    loop.run_once(1);

    if (opt.stats_ms > 0 && loop.now_ms() - last_stats >= opt.stats_ms) {
      const u64 elapsed_ms = loop.now_ms() - last_stats;
      last_stats = loop.now_ms();
      u64 total_bytes = 0;
      for (const auto& l : lanes) total_bytes += l->reaped_bytes;
      const double mb_s = elapsed_ms > 0
                              ? static_cast<double>(total_bytes - last_stats_bytes) / 1e6 /
                                    (static_cast<double>(elapsed_ms) / 1e3)
                              : 0.0;
      last_stats_bytes = total_bytes;
      for (unsigned i = 0; i < lanes.size(); ++i) {
        const auto& l = *lanes[i];
        const auto s = l.tun->stats();
        std::printf(
            "[ch%u %s tier=%s] out %llu dgrams / in %llu | %.2f MB/s rx (all ch)"
            " | chunks in=%llu out=%llu lost=%llu rcvd=%llu"
            " | conn=%llu reconn=%llu | rx bad=%llu resync=%llu\n",
            i, transport::to_string(l.tun->state()), core::to_string(l.ep->tier()),
            static_cast<unsigned long long>(l.submitted),
            static_cast<unsigned long long>(l.reaped), mb_s,
            static_cast<unsigned long long>(s.frames_in),
            static_cast<unsigned long long>(s.frames_out),
            static_cast<unsigned long long>(s.frames_lost),
            static_cast<unsigned long long>(s.frames_rcvd),
            static_cast<unsigned long long>(s.connects),
            static_cast<unsigned long long>(s.reconnects),
            static_cast<unsigned long long>(l.ep->rx_counters().frames_bad),
            static_cast<unsigned long long>(l.ep->rx_stats().resyncs));
        std::printf(
            "       io: %llu syscalls, %.1f chunks/syscall, pool recycled %llu\n",
            static_cast<unsigned long long>(s.tx_syscalls + s.rx_syscalls),
            s.frames_per_syscall(), static_cast<unsigned long long>(s.pool_recycled));
      }
    }

    if (g_interrupted && !draining) {
      std::printf("\nSIGINT: draining...\n");
      draining = true;
      for (auto& l : lanes) l->tun->request_drain();
    }
    if (!draining && deadline_ms != 0 && loop.now_ms() >= deadline_ms) {
      std::printf("\n--duration elapsed: draining...\n");
      draining = true;
      for (auto& l : lanes) l->tun->request_drain();
    }
    if (draining) {
      bool all_done = true;
      for (auto& l : lanes)
        if (!l->tun->finished()) all_done = false;
      if (all_done) break;
    }
    // Sender with a quota and an echoing peer: stop once every datagram has
    // made the round trip.
    if (!draining && opt.frames > 0 && opt.echo == false) {
      bool all_back = true;
      for (auto& l : lanes)
        if (l->submitted < opt.frames || l->reaped < opt.frames || l->ep->tx_pending())
          all_back = false;
      if (all_back) {
        for (auto& l : lanes) l->tun->request_drain();
        draining = true;
      }
    }
  }

  std::printf("\nfinal:\n");
  bool ok = true;
  for (unsigned i = 0; i < lanes.size(); ++i) {
    const auto& l = *lanes[i];
    const auto s = l.tun->stats();
    const bool invariant = s.ledger_exact();
    const bool hashes = opt.frames == 0 || l.reaped == 0 || l.hash_in == l.hash_out;
    ok = ok && invariant;
    std::printf("[ch%u tier=%s] dgrams out=%llu back=%llu  hash %s  chunk invariant %s"
                " (in=%llu out=%llu lost=%llu)  crc_bad=%llu\n",
                i, core::to_string(l.ep->tier()),
                static_cast<unsigned long long>(l.submitted),
                static_cast<unsigned long long>(l.reaped),
                l.reaped == l.submitted && l.submitted > 0
                    ? (hashes ? "MATCH" : "MISMATCH")
                    : "n/a",
                invariant ? "OK" : "VIOLATED",
                static_cast<unsigned long long>(s.frames_in),
                static_cast<unsigned long long>(s.frames_out),
                static_cast<unsigned long long>(s.frames_lost),
                static_cast<unsigned long long>(l.ep->rx_counters().frames_bad));
    if (l.reaped == l.submitted && l.submitted > 0 && !hashes) ok = false;
  }
  if (recording) {
    tap.close();
    const auto t = tap.stats();
    std::printf("pcap: %s — %llu records, %llu bytes, %llu drops at tap\n",
                opt.pcap_out.c_str(), static_cast<unsigned long long>(t.records),
                static_cast<unsigned long long>(t.bytes),
                static_cast<unsigned long long>(t.drops));
  }
  return ok ? 0 : 1;
}
