// Bundled trace generator — a deterministic "real traffic" pcap with no
// external files.
//
// CI can't ship multi-megabyte capture fixtures, but the `--pcap` bench rows
// and the replay tests still need a trace with real TCP dynamics (growing
// sequence numbers, ack-only reverse segments, interactive vs bulk mixes —
// the properties VJ compression and the classifier actually react to, which
// uniform random payloads don't have). vj::TcpFlowGen already synthesizes
// exactly that for the compression tests; this wraps it into a pcap:
// deterministic datagrams, deterministic seeded inter-packet gaps, so the
// same (flows, packets, seed) triple always yields the identical file —
// bench baselines and golden assertions can rely on the bytes.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "net/capture/pcap.hpp"

namespace p5::net::capture {

struct TraceGenConfig {
  unsigned flows = 4;         ///< concurrent TCP conversations
  std::size_t packets = 256;  ///< records in the trace
  u64 seed = 1;
  std::size_t max_payload = 512;  ///< TcpFlowGen segment payload cap
  /// Mean inter-packet gap; gaps are seeded-uniform in [mean/2, 3*mean/2],
  /// so a timed replay has jitter but identical runs have identical jitter.
  u64 mean_gap_ns = 10'000;
};

/// Synthesize the trace in memory (linktype raw-IP, nsec precision).
[[nodiscard]] PcapFile synthesize_tcp_trace(const TraceGenConfig& cfg);

}  // namespace p5::net::capture
