// One accepted tunnel inside a shard: an adopted StreamConn feeding a
// fast-tier SonetEndpoint, bound to a tenant, routed per the server policy.
//
// Lifecycle (all on the owning shard's loop thread):
//
//   adopted -> [awaiting hello] -> bound(tenant) -> carrying -> dead
//                     \-> bad hello / admission reject -> dead
//
// RX path per inbound burst (the conn's on_frames delivery): per chunk,
// hello/tenant binding on the first chunk when the listener carries no
// tenant, then the tenant policer, then endpoint.push_line(); after the
// whole burst is in the deframer, one drain_rx() + reap that dispositions
// every decoded datagram (echo / uplink handoff / sink — see RouteMode). A
// burst that decodes more datagrams than the endpoint's RX ring holds loses
// the excess there; the session books that loss against the tenant after
// the reap (TenantSnapshot::dgrams_ring_dropped).
// TX path per slice: frames come from TunnelBinding::endpoint's paced pull
// (gated by the endpoint's exact tx_pending(), so no frame of pure flag fill
// is sent), the same binding a Tunnel drives, into the conn until its
// watermark pushes back.
//
// A Session never destroys its conn from the conn's own callback stack:
// on_closed only marks dead_, and the shard sweeps dead sessions after its
// run_once() returns.
#pragma once

#include <functional>
#include <memory>
#include <span>

#include "p5/endpoint.hpp"
#include "server/tenant.hpp"
#include "transport/conn.hpp"
#include "transport/event_loop.hpp"
#include "transport/tunnel.hpp"

namespace p5::server {

enum class RouteMode : u8 {
  kEcho,    ///< resubmit each decoded datagram to the session's own endpoint
  kSink,    ///< count and drop (goodput measurement / pure termination)
  kUplink,  ///< hand off to the shared uplink (cross-shard SpscRing + DRR)
};

/// What a session needs from its shard, minus the shard type itself.
struct SessionEnv {
  transport::EventLoop* loop = nullptr;
  transport::TransportTelemetry* transport_tel = nullptr;  ///< shard-shared
  TenantRegistry* tenants = nullptr;
  RouteMode route = RouteMode::kEcho;
  std::size_t frames_per_pump = 8;
  /// Device factory, invoked only after the session binds — a rejected
  /// connection never allocates an endpoint (pools, arenas, scramblers).
  std::function<std::unique_ptr<core::SonetEndpoint>()> make_endpoint;
  /// Admission gate beyond the tenant's own (server-wide session cap).
  /// Returns false to refuse; the session then closes before binding.
  std::function<bool()> admit_global;
  /// Uplink handoff: push one decoded datagram toward the shared uplink.
  /// False = ring full; the session counts the datagram lost. Unset when
  /// route != kUplink.
  std::function<bool(u32 tenant, u16 protocol, Bytes&& payload)> uplink_offer;
  /// Called once when a bound session closes (global slot release).
  std::function<void()> release_global;
  /// Observation hook on every decoded datagram, before routing consumes
  /// it — the server's post-delivery capture point (net/capture tap).
  /// Sessions run on shard threads, so the callee MUST be thread-safe
  /// (CaptureTap is; a bare PcapWriter is not).
  std::function<void(u32 tenant, u16 protocol, BytesView payload)> delivered_tap;
};

class Session {
 public:
  /// `fixed_tenant` binds immediately (listener-port tenancy); nullopt means
  /// the first chunk must be a hello (hello.hpp codec) naming the tenant.
  /// Admission rejection closes the conn from inside the constructor; the
  /// shard sees dead() and sweeps.
  Session(SessionEnv env, std::unique_ptr<transport::Conn> conn,
          std::optional<u32> fixed_tenant);
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// One TX slice; returns chunks handed to the conn.
  std::size_t slice();

  [[nodiscard]] bool dead() const { return dead_; }
  [[nodiscard]] bool bound() const { return tenant_ != nullptr; }
  [[nodiscard]] u32 tenant_id() const { return tenant_ ? tenant_->id() : 0; }
  [[nodiscard]] core::SonetEndpoint* endpoint() { return ep_.get(); }

 private:
  void on_chunks(std::span<const BytesView> chunks);
  /// One chunk of a burst: hello/tenant binding, policer, push_line. Returns
  /// false when the session died (skip the rest of the burst).
  bool on_chunk(BytesView chunk);
  bool bind_tenant(u32 tenant_id);
  void attach_endpoint();
  void reap_and_route();
  void mark_dead();

  SessionEnv env_;
  std::unique_ptr<transport::Conn> conn_;
  std::unique_ptr<core::SonetEndpoint> ep_;
  transport::TunnelBinding tx_;  ///< paced pull over *ep_, set with it
  TenantState* tenant_ = nullptr;  ///< registry-owned, stable address
  bool awaiting_hello_ = false;
  bool dead_ = false;
  bool global_slot_held_ = false;
  u64 ring_drops_booked_ = 0;  ///< ep_->rx_overflow_drops() already booked
};

}  // namespace p5::server
