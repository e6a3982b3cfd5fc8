// p5_tunnel_server — the multi-tenant termination end for fleets of
// p5_tunnel clients.
//
// Where p5_tunnel runs ONE endpoint per process, this runs a sharded
// TunnelServer: N shard threads, each owning an event loop and a slice of
// the accepted connections, every connection terminating its own fast-tier
// P5 SONET endpoint. Point any number of `p5_tunnel --connect` senders at
// it:
//
//   ./p5_tunnel_server --listen 9500 --shards 4 --mode echo   # terminal 1
//   ./p5_tunnel --connect 127.0.0.1:9500 --frames 100000      # terminal 2..N
//
// Tenancy is per listener: `--listen 9500=42` books every connection on
// that port to tenant 42; a bare `--listen 9500` uses tenant 1; `--listen
// 9500=hello` expects each connection's first chunk to be a P5TS hello
// naming its tenant (see src/server/hello.hpp — p5_tunnel does not send
// one, so the hello form is for custom clients). Admission control:
// --max-per-tenant caps concurrent tunnels per tenant, --rate-cap polices
// per-tenant inbound bytes/s (excess chunks are dropped and counted, the
// connection stays up), --max-sessions caps the whole server.
//
// --mode picks the datagram route: echo (send each back down its tunnel —
// what p5_tunnel senders verify against), sink (count and drop), uplink
// (deficit-round-robin arbitration across tenants into one shared counted
// uplink — the line-card trunk picture).
//
// SIGINT stops the shards and prints the final books: per-tenant datagram
// ledgers and the summed per-shard chunk ledger, each with an exactness
// verdict. Exit status 0 iff every ledger closes exactly.
//
// --pcap-out PATH records every datagram the server decodes — all tenants,
// all shards — as one PPP-linktype pcap (records are ff 03 proto payload;
// the CaptureTap serialises its own writes, so shard concurrency is safe)
// and prints the tap's exact ledger with the final books.
//
// Usage:
//   p5_tunnel_server --listen PORT[=TENANT|=hello] [--listen ...]
//                    [--shards N] [--tier cycle|fast]
//                    [--mode echo|sink|uplink] [--max-per-tenant N]
//                    [--rate-cap BYTES_PER_S] [--max-sessions N]
//                    [--stats-ms MS] [--pcap-out PATH]
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "net/capture/tap.hpp"
#include "server/server.hpp"

namespace {

volatile std::sig_atomic_t g_interrupted = 0;
void on_sigint(int) { g_interrupted = 1; }

struct Options {
  std::vector<p5::server::ListenerSpec> listeners;
  std::size_t shards = 1;
  p5::server::RouteMode mode = p5::server::RouteMode::kEcho;
  std::size_t max_per_tenant = 0;
  p5::u64 rate_cap = 0;
  std::size_t max_sessions = 0;
  p5::u64 stats_ms = 1000;
  std::string pcap_out;  // record every delivered datagram (all shards) here
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
      p5::server::ListenerSpec spec;
      spec.tenant = 1;  // bare port: one default tenant
      std::string s(v);
      const auto eq = s.find('=');
      if (eq != std::string::npos) {
        const std::string t = s.substr(eq + 1);
        s.resize(eq);
        if (t == "hello") {
          spec.tenant.reset();  // first chunk names the tenant
        } else {
          spec.tenant = static_cast<p5::u32>(std::atoll(t.c_str()));
        }
      }
      spec.port = static_cast<p5::u16>(std::atoi(s.c_str()));
      if (spec.port == 0) {
        std::fprintf(stderr, "error: bad --listen '%s'\n", v);
        return false;
      }
      opt.listeners.push_back(spec);
    } else if (std::strcmp(argv[i], "--shards") == 0) {
      const char* v = need("--shards");
      if (!v) return false;
      opt.shards = static_cast<std::size_t>(std::atoll(v));
    } else if (std::strcmp(argv[i], "--mode") == 0) {
      const char* v = need("--mode");
      if (!v) return false;
      if (std::strcmp(v, "echo") == 0) {
        opt.mode = p5::server::RouteMode::kEcho;
      } else if (std::strcmp(v, "sink") == 0) {
        opt.mode = p5::server::RouteMode::kSink;
      } else if (std::strcmp(v, "uplink") == 0) {
        opt.mode = p5::server::RouteMode::kUplink;
      } else {
        std::fprintf(stderr, "error: --mode must be echo|sink|uplink, got '%s'\n", v);
        return false;
      }
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
    } else if (std::strcmp(argv[i], "--max-per-tenant") == 0) {
      const char* v = need("--max-per-tenant");
      if (!v) return false;
      opt.max_per_tenant = static_cast<std::size_t>(std::atoll(v));
    } else if (std::strcmp(argv[i], "--rate-cap") == 0) {
      const char* v = need("--rate-cap");
      if (!v) return false;
      opt.rate_cap = static_cast<p5::u64>(std::atoll(v));
    } else if (std::strcmp(argv[i], "--max-sessions") == 0) {
      const char* v = need("--max-sessions");
      if (!v) return false;
      opt.max_sessions = static_cast<std::size_t>(std::atoll(v));
    } else if (std::strcmp(argv[i], "--stats-ms") == 0) {
      const char* v = need("--stats-ms");
      if (!v) return false;
      opt.stats_ms = static_cast<p5::u64>(std::atoll(v));
    } else if (std::strcmp(argv[i], "--pcap-out") == 0) {
      const char* v = need("--pcap-out");
      if (!v) return false;
      opt.pcap_out = v;
    } else {
      std::fprintf(stderr, "error: unknown flag '%s'\n", argv[i]);
      return false;
    }
  }
  if (opt.listeners.empty() || opt.shards == 0) {
    std::fprintf(stderr,
                 "usage: p5_tunnel_server --listen PORT[=TENANT|=hello] [--listen ...]\n"
                 "                        [--shards N] [--tier cycle|fast]\n"
                 "                        [--mode echo|sink|uplink] [--max-per-tenant N]\n"
                 "                        [--rate-cap BYTES_PER_S] [--max-sessions N]\n"
                 "                        [--stats-ms MS] [--pcap-out PATH]\n");
    return false;
  }
  return true;
}

const char* mode_name(p5::server::RouteMode m) {
  switch (m) {
    case p5::server::RouteMode::kEcho: return "echo";
    case p5::server::RouteMode::kSink: return "sink";
    case p5::server::RouteMode::kUplink: return "uplink";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace p5;
  Options opt;
  if (!parse_args(argc, argv, opt)) return 2;
  std::signal(SIGINT, on_sigint);

  server::ServerConfig cfg;
  cfg.listeners = opt.listeners;
  cfg.shards = opt.shards;
  cfg.route = opt.mode;
  cfg.tier = opt.tier;
  cfg.max_sessions_total = opt.max_sessions;
  cfg.tenant_defaults.max_sessions = opt.max_per_tenant;
  cfg.tenant_defaults.rx_bytes_per_s = opt.rate_cap;

  // Server-wide delivered tap: sessions on every shard thread funnel into
  // one CaptureTap (internally mutexed), PPP linktype with wall-clock
  // timestamps so captures from concurrent tenants interleave honestly.
  net::capture::CaptureTap tap({.nsec = true, .linktype = net::capture::kLinkPpp});
  const bool recording = !opt.pcap_out.empty();
  if (recording) {
    if (!tap.open(opt.pcap_out)) {
      std::fprintf(stderr, "p5_tunnel_server: cannot create %s\n", opt.pcap_out.c_str());
      return 1;
    }
    tap.use_wall_clock();
    cfg.delivered_tap = [&tap](u32 /*tenant*/, u16 protocol, BytesView payload) {
      Bytes rec;
      rec.reserve(payload.size() + 4);
      rec.push_back(0xff);
      rec.push_back(0x03);
      rec.push_back(static_cast<u8>(protocol >> 8));
      rec.push_back(static_cast<u8>(protocol & 0xff));
      rec.insert(rec.end(), payload.begin(), payload.end());
      tap.record(rec);
    };
  }

  server::TunnelServer srv(cfg);
  if (!srv.start()) {
    std::fprintf(stderr, "p5_tunnel_server: %s\n", srv.last_error().c_str());
    return 1;
  }
  srv.run();

  std::printf("p5_tunnel_server: %zu shard%s, mode %s, tier %s, %zu listener%s", opt.shards,
              opt.shards > 1 ? "s" : "", mode_name(opt.mode), core::to_string(srv.config().tier),
              opt.listeners.size(), opt.listeners.size() > 1 ? "s" : "");
  for (std::size_t i = 0; i < opt.listeners.size(); ++i) {
    std::printf("%s %u", i == 0 ? ":" : ",", srv.port(i));
  }
  if (recording) std::printf(", recording %s", opt.pcap_out.c_str());
  std::printf("\n");

  while (!g_interrupted) {
    std::this_thread::sleep_for(std::chrono::milliseconds(opt.stats_ms > 0 ? opt.stats_ms : 1000));
    if (opt.stats_ms == 0) continue;
    const auto xs = srv.transport_stats();
    const auto agg = srv.tenant_aggregate();
    std::printf("[srv] sessions=%zu accepts=%llu | dgrams in=%llu echo=%llu up=%llu sunk=%llu"
                " lost=%llu policed=%llu | chunks in=%llu out=%llu lost=%llu rcvd=%llu\n",
                srv.sessions_active(), static_cast<unsigned long long>(srv.accepts()),
                static_cast<unsigned long long>(agg.dgrams_in),
                static_cast<unsigned long long>(agg.dgrams_echoed),
                static_cast<unsigned long long>(agg.dgrams_uplinked),
                static_cast<unsigned long long>(agg.dgrams_sunk),
                static_cast<unsigned long long>(agg.dgrams_lost),
                static_cast<unsigned long long>(agg.chunks_policed),
                static_cast<unsigned long long>(xs.frames_in),
                static_cast<unsigned long long>(xs.frames_out),
                static_cast<unsigned long long>(xs.frames_lost),
                static_cast<unsigned long long>(xs.frames_rcvd));
    std::printf("      io: %llu syscalls, %.1f chunks/syscall, pool recycled %llu\n",
                static_cast<unsigned long long>(xs.tx_syscalls + xs.rx_syscalls),
                xs.frames_per_syscall(), static_cast<unsigned long long>(xs.pool_recycled));
  }

  std::printf("\nSIGINT: stopping shards...\n");
  srv.stop();

  bool ok = true;
  std::printf("final:\n");
  for (const u32 id : srv.tenants().ids()) {
    const auto ts = srv.tenant_stats(id);
    const bool exact = ts.ledger_exact();
    ok = ok && exact;
    std::printf("[tenant %u] dgrams in=%llu echo=%llu up=%llu sunk=%llu lost=%llu"
                " ring-dropped=%llu | sessions adm=%llu rej=%llu | policed=%llu | ledger %s\n",
                id, static_cast<unsigned long long>(ts.dgrams_in),
                static_cast<unsigned long long>(ts.dgrams_echoed),
                static_cast<unsigned long long>(ts.dgrams_uplinked),
                static_cast<unsigned long long>(ts.dgrams_sunk),
                static_cast<unsigned long long>(ts.dgrams_lost),
                static_cast<unsigned long long>(ts.dgrams_ring_dropped),
                static_cast<unsigned long long>(ts.sessions_admitted),
                static_cast<unsigned long long>(ts.sessions_rejected),
                static_cast<unsigned long long>(ts.chunks_policed),
                exact ? "EXACT" : "VIOLATED");
  }
  const auto xs = srv.transport_stats();
  const bool chunk_ok = xs.ledger_exact();
  ok = ok && chunk_ok;
  std::printf("[chunks] in=%llu out=%llu lost=%llu rcvd=%llu | ledger %s\n",
              static_cast<unsigned long long>(xs.frames_in),
              static_cast<unsigned long long>(xs.frames_out),
              static_cast<unsigned long long>(xs.frames_lost),
              static_cast<unsigned long long>(xs.frames_rcvd), chunk_ok ? "EXACT" : "VIOLATED");
  std::printf("[io] %llu syscalls, %.1f chunks/syscall, pool recycled %llu\n",
              static_cast<unsigned long long>(xs.tx_syscalls + xs.rx_syscalls),
              xs.frames_per_syscall(), static_cast<unsigned long long>(xs.pool_recycled));
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
