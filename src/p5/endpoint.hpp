// Device tiers: every PPP-over-SONET endpoint in this repo implements the
// SonetEndpoint interface, and each caller names the implementation that
// carries its traffic.
//
//   * kCycle — P5SonetEndpoint (p5/sonet_link): the cycle-accurate P5
//     pipeline behind a SONET framer/deframer. Every octet moves through the
//     registered pipeline stages, so latencies and words-per-cycle are
//     architectural measurements. Throughput: simulation speed.
//   * kFast  — FastP5Endpoint (p5/fast_endpoint): the production-tier batch
//     datapath built from the proven fastpath kernels (carry-less-multiply
//     or slicing-by-16 FCS, SIMD escape engine, table scramblers).
//     Whole-frame operations, zero per-cycle stepping, same SONET chunk
//     stream and the same loss ledger.
//
// The two tiers are kept byte-equivalent by the DiffOracle's whole-endpoint
// leg (testing/diff_oracle): identical delivered payloads, identical
// receiver dispositions, identical resync behaviour under fault injection.
//
// The tier is chosen where the endpoint is built: linecard::ChannelConfig,
// server::ServerConfig, a `--tier` flag on the examples, or a test that runs
// its body once per tier.
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "common/types.hpp"
#include "p5/config.hpp"
#include "p5/control.hpp"
#include "sonet/spe.hpp"

namespace p5::core {

enum class DeviceTier : u8 {
  kCycle,  ///< cycle-accurate P5 pipeline (conformance reference)
  kFast,   ///< batch SWAR/SIMD datapath (production tier)
};

[[nodiscard]] const char* to_string(DeviceTier tier);

/// One end of a PPP-over-SONET link, tier-agnostic: a host-side datagram
/// interface (shared-memory admission semantics included) plus the two
/// stream attach points an external transport needs — pull scrambled SONET
/// frames out of the local transmitter, push received line octets toward the
/// local receiver.
class SonetEndpoint {
 public:
  virtual ~SonetEndpoint() = default;

  [[nodiscard]] virtual DeviceTier tier() const = 0;

  // ---- host-side API (shared-memory semantics in both tiers) ----
  /// Buffer a datagram for transmission; false when the transmit pool/ring
  /// is full (the host must back off, like any driver).
  virtual bool submit_datagram(u16 protocol, Bytes payload) = 0;
  /// Full-control submission (per-frame Control override for numbered mode).
  virtual bool submit_frame(TxRequest req) = 0;
  /// Would a submit of `payload_bytes` succeed right now?
  [[nodiscard]] virtual bool tx_has_room(std::size_t payload_bytes) const = 0;
  /// Without an rx sink, received datagrams accumulate in shared memory and
  /// the host reaps them here (with a sink they are delivered immediately).
  [[nodiscard]] virtual std::optional<RxDelivery> reap_datagram() = 0;
  virtual void set_rx_sink(std::function<void(RxDelivery)> sink) = 0;

  // ---- PHY/line-side API ----
  /// Next scrambled SONET frame from the local transmitter — always exactly
  /// sts().frame_bytes() octets. The line never starves: idle periods
  /// produce flag fill.
  [[nodiscard]] virtual Bytes pull_frame() = 0;
  /// Feed received line octets (whole frames or arbitrary fragments) toward
  /// the local receiver. Alignment recovery, descrambling and HDLC
  /// delineation happen downstream; a mid-stream attach costs a resync,
  /// never a crash.
  virtual void push_line(BytesView octets) = 0;
  /// Run the receive side to quiescence (no-op for the batch tier, which is
  /// always quiescent between push_line calls).
  virtual void drain_rx() {}

  // ---- introspection (the tier-equivalence surface) ----
  /// TX gate for paced pullers: true while datagrams are queued or any
  /// octet of a started PPP frame, up to its closing flag, has not yet left
  /// pull_frame(). Once false, the frames already pulled carry everything
  /// the far end needs to deliver every submitted datagram.
  [[nodiscard]] virtual bool tx_pending() const = 0;
  /// Datagrams admitted but not yet fetched by the transmitter.
  [[nodiscard]] virtual std::size_t tx_queue_depth() const = 0;
  [[nodiscard]] virtual u64 frames_pulled() const = 0;
  [[nodiscard]] virtual bool rx_in_sync() const = 0;
  [[nodiscard]] virtual const sonet::DeframerStats& rx_stats() const = 0;
  [[nodiscard]] virtual const sonet::StsSpec& sts() const = 0;
  /// Receiver dispositions, by value: identical classification in both
  /// tiers (frames_bad = aborts + runts + FCS failures, then malformed /
  /// address-filter / oversize in that order — see DESIGN.md §12).
  [[nodiscard]] virtual RxCounters rx_counters() const = 0;
  /// Finished frames lost to receive pool/ring exhaustion (shared-memory
  /// rx_dropped — part of the loss ledger in both tiers).
  [[nodiscard]] virtual u64 rx_overflow_drops() const = 0;
};

/// Build an endpoint of the requested tier.
[[nodiscard]] std::unique_ptr<SonetEndpoint> make_sonet_endpoint(DeviceTier tier,
                                                                 const P5Config& cfg,
                                                                 sonet::StsSpec sts);

}  // namespace p5::core
