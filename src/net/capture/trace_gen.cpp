#include "net/capture/trace_gen.hpp"

#include "common/rng.hpp"
#include "ppp/vj.hpp"

namespace p5::net::capture {

PcapFile synthesize_tcp_trace(const TraceGenConfig& cfg) {
  PcapFile file;
  file.meta.nsec = true;
  file.meta.linktype = kLinkRawIp;
  ppp::vj::TcpFlowGen gen(cfg.flows, cfg.seed, cfg.max_payload);
  Xoshiro256 gaps(cfg.seed ^ 0xC0FFEEull);  // gap stream independent of payloads
  u64 ts = 0;
  file.records.reserve(cfg.packets);
  for (std::size_t i = 0; i < cfg.packets; ++i) {
    PcapRecord rec;
    rec.data = gen.next();
    rec.orig_len = static_cast<u32>(rec.data.size());
    rec.ts_sec = static_cast<u32>(ts / 1'000'000'000ull);
    rec.ts_nsec = static_cast<u32>(ts % 1'000'000'000ull);
    ts += gaps.range(cfg.mean_gap_ns / 2, cfg.mean_gap_ns + cfg.mean_gap_ns / 2);
    file.records.push_back(std::move(rec));
  }
  return file;
}

}  // namespace p5::net::capture
