// TunBridge — kernel IP ↔ SonetEndpoint.
//
// The glue that makes the example topology
//
//   kernel IP stack ⇄ TUN fd ⇄ TunBridge ⇄ SonetEndpoint ⇄ Tunnel ⇄ socket
//
// carry live traffic: the bridge registers the TUN fd on the transport
// EventLoop and, on readability, drains kernel-originated datagrams into
// the endpoint's submit path; pump() (called alongside Tunnel::pump in the
// driver loop) reaps endpoint deliveries and writes them back to the
// kernel. The endpoint tier is whatever the caller built — cycle-accurate
// P5 or the fast batch datapath — the bridge neither knows nor cares.
//
// Optional VJ header compression (RFC 1144) rides the same protocol
// numbers the PPP session layer uses (0x0021/0x002d/0x002f): enable it on
// both ends or the TCP deliveries arrive under a protocol the far bridge
// drops. IP datagrams that are not TCP pass through VJ untouched
// (PacketClass::kIp), exactly as in ppp::PppEndpoint.
//
// Backpressure: an endpoint refusal (TX ring full) parks the datagram in a
// bounded FIFO that is re-offered each pump; past the bound the bridge
// drops new kernel packets and counts them — the kernel's own protocols
// (TCP retransmit, ping loss) recover, which is the honest behaviour for a
// congested device. The ledger (tun_rx == submitted + backlog + dropped)
// stays exact.
#pragma once

#include <deque>
#include <functional>
#include <memory>

#include "common/types.hpp"
#include "net/tunif/tun_device.hpp"
#include "p5/endpoint.hpp"
#include "ppp/vj.hpp"
#include "transport/event_loop.hpp"

namespace p5::net::tunif {

struct TunBridgeConfig {
  bool vj = false;               ///< VJ TCP header compression (both ends!)
  std::size_t backlog_limit = 64;  ///< parked datagrams before drop-new
};

struct TunBridgeStats {
  u64 tun_rx_packets = 0;  ///< datagrams read from the kernel
  u64 tun_rx_bytes = 0;
  u64 submitted = 0;       ///< accepted by the endpoint
  u64 dropped_backlog = 0; ///< kernel packets dropped at the full backlog
  u64 delivered_packets = 0;  ///< endpoint deliveries written to the kernel
  u64 delivered_bytes = 0;
  u64 tun_write_failures = 0;
  u64 dropped_non_ip = 0;  ///< deliveries under a protocol the bridge has no mapping for
  u64 vj_tossed = 0;       ///< VJ decompression failures (dropped; TCP recovers)
};

class TunBridge {
 public:
  /// The fd is registered on `loop` immediately (loop context — construct
  /// on the loop thread). `tun` and `ep` must outlive the bridge.
  TunBridge(transport::EventLoop& loop, TunDevice& tun, core::SonetEndpoint& ep,
            TunBridgeConfig cfg = {});
  ~TunBridge();
  TunBridge(const TunBridge&) = delete;
  TunBridge& operator=(const TunBridge&) = delete;

  /// One driver-loop slice: re-offer the parked backlog, then reap endpoint
  /// deliveries into the kernel. Returns datagrams written to the TUN fd.
  std::size_t pump();

  /// Read every queued kernel datagram into the endpoint (or the backlog).
  /// This is the readability callback; tests call it directly to drive the
  /// bridge without a live loop iteration. Returns datagrams read.
  std::size_t drain_tun();

  /// Observe datagrams as they are written to the kernel (post-VJ — real
  /// IP), e.g. CaptureTap::line_tap-compatible recording.
  void set_delivered_tap(std::function<void(BytesView)> tap) { delivered_tap_ = std::move(tap); }

  [[nodiscard]] const TunBridgeStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t backlog() const { return backlog_.size(); }

 private:
  /// Submit toward the endpoint (VJ applied); false parks/drops per policy.
  bool offer(Bytes&& datagram);
  void deliver_to_kernel(u16 protocol, BytesView payload);

  transport::EventLoop& loop_;
  TunDevice& tun_;
  core::SonetEndpoint& ep_;
  TunBridgeConfig cfg_;
  TunBridgeStats stats_;

  struct Parked {
    u16 protocol;
    Bytes packet;
  };
  std::deque<Parked> backlog_;

  std::unique_ptr<ppp::vj::Compressor> vj_comp_;
  std::unique_ptr<ppp::vj::Decompressor> vj_decomp_;

  std::function<void(BytesView)> delivered_tap_;
  bool fd_registered_ = false;
};

}  // namespace p5::net::tunif
