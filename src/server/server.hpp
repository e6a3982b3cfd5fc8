// TunnelServer — the C10K termination point for P5-framed SONET streams.
//
// N shards (shard.hpp), each with its own EventLoop and its own slice of the
// accepted connections; connections arrive through listeners on shard 0,
// whose accept fan-out spreads them round-robin over the adoption rings.
// Every bound session terminates a SonetEndpoint of ServerConfig::tier (fast
// by default), and decoded datagrams are routed per RouteMode:
//
//   kEcho   — back down the same tunnel (client round-trip verification);
//   kSink   — counted and dropped (goodput measurement);
//   kUplink — cross-shard SpscRing handoff into the shared Uplink, where a
//             deficit-round-robin scheduler arbitrates tenants fairly.
//
// Tenancy: a listener may pin a tenant (port-based), or the first chunk is a
// hello naming one (hello.hpp). Admission = server-wide session cap, then
// the tenant's max_sessions, then the per-tenant byte-rate policer on every
// inbound chunk. Rejected connections are closed before any endpoint is
// allocated and the refusal is booked against the tenant.
//
// Ledgers, preserved across shard handoff (DESIGN.md §13):
//   * transport chunks: per-shard TransportTelemetry, frames_in ==
//     frames_out + frames_lost (+ queued), summed over shards;
//   * tenant datagrams: dgrams_in == echoed + uplinked + sunk + lost
//     (+ staged in the uplink), exact at quiescence — stop() flushes staged
//     residue into the lost column so a stopped server's books balance.
//
// Driving, mirroring LineCard: threaded (run()/stop(), one thread per
// shard) or deterministic (enable_manual_time() + step() from one thread —
// byte-reproducible regardless of shard count).
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "p5/endpoint.hpp"
#include "server/hello.hpp"
#include "server/shard.hpp"
#include "server/tenant.hpp"

namespace p5::server {

struct ListenerSpec {
  u16 port = 0;               ///< 0 = kernel picks; read TunnelServer::port()
  std::optional<u32> tenant;  ///< pin every accept to this tenant; nullopt = hello
};

struct ServerConfig {
  std::string host = "127.0.0.1";
  std::vector<ListenerSpec> listeners = {{}};
  std::size_t shards = 1;

  RouteMode route = RouteMode::kEcho;
  core::DeviceTier tier = core::DeviceTier::kFast;
  core::P5Config device;
  sonet::StsSpec sts = sonet::kSts3c;

  transport::ConnConfig conn;
  std::size_t frames_per_pump = 8;

  std::size_t max_sessions_total = 0;  ///< server-wide cap; 0 = unlimited
  TenantConfig tenant_defaults;        ///< limits for tenants never configure()d

  std::size_t adoption_ring = 256;   ///< per-shard pending-connection slots
  std::size_t uplink_stage_frames = 256;  ///< per-tenant DRR staging bound
  std::size_t uplink_budget_bytes = 0;    ///< DRR bytes per step; 0 = unlimited
  u32 drr_quantum_bytes = 4096;      ///< default tenant quantum

  /// Post-delivery observation hook, invoked from shard threads for every
  /// decoded datagram before routing (thread-safe callee required — see
  /// SessionEnv::delivered_tap). Drives `--pcap-out` in p5_tunnel_server.
  std::function<void(u32 tenant, u16 protocol, BytesView payload)> delivered_tap;
};

/// Shared-uplink egress: single consumer of every shard's handoff ring,
/// deficit-round-robin across tenants. step() runs on shard 0's context
/// (its on_slice hook), so threaded and deterministic modes share one
/// consumer discipline.
class Uplink {
 public:
  struct Config {
    std::size_t stage_frames = 256;
    std::size_t budget_bytes = 0;
    u32 quantum_bytes = 4096;
  };
  using Sink = std::function<void(u32 tenant, u16 protocol, BytesView payload)>;

  Uplink(Config cfg, TenantRegistry& tenants) : cfg_(cfg), tenants_(tenants) {}

  void attach(Shard& shard) { rings_.push_back(&shard.uplink_ring()); }
  void set_sink(Sink sink) { sink_ = std::move(sink); }

  /// One intake + DRR pass. Uplink-consumer context only.
  std::size_t step();

  /// Shutdown bookkeeping (quiescent rings only — after shard join): every
  /// staged or still-ringed datagram is counted lost so the tenant ledgers
  /// balance exactly.
  void flush_lost();

  [[nodiscard]] u64 emitted() const { return emitted_.load(std::memory_order_relaxed); }
  [[nodiscard]] u64 emitted_bytes() const {
    return emitted_bytes_.load(std::memory_order_relaxed);
  }
  /// Datagrams staged in DRR queues (not counting shard rings).
  [[nodiscard]] std::size_t staged() const { return staged_.load(std::memory_order_relaxed); }

 private:
  struct Queue {
    std::deque<UplinkItem> items;
    u64 deficit = 0;
  };
  void stage(UplinkItem&& item);

  Config cfg_;
  TenantRegistry& tenants_;
  std::vector<SpscRing<UplinkItem>*> rings_;
  Sink sink_;
  std::map<u32, Queue> queues_;
  std::deque<u32> active_;  ///< round-robin order of nonempty queues
  std::atomic<u64> emitted_{0};
  std::atomic<u64> emitted_bytes_{0};
  std::atomic<std::size_t> staged_{0};
};

class TunnelServer {
 public:
  explicit TunnelServer(ServerConfig cfg);
  ~TunnelServer();
  TunnelServer(const TunnelServer&) = delete;
  TunnelServer& operator=(const TunnelServer&) = delete;

  /// Pre-register a tenant with explicit limits (otherwise first contact
  /// creates it with cfg.tenant_defaults).
  void register_tenant(TenantConfig cfg) { tenants_.configure(cfg); }

  /// Bind all listeners. False when any bind fails (the failed spec's port
  /// is reported via last_error()). Call before run()/step().
  [[nodiscard]] bool start();

  // ---- threaded driving ----
  void run();   ///< one thread per shard
  void stop();  ///< stop + join + flush uplink residue (idempotent)

  // ---- deterministic driving (one thread, byte-reproducible) ----
  /// Freeze every shard clock; call before start().
  void enable_manual_time();
  void advance_time(u64 ms);
  /// One slice of every shard (accepts, sockets, sessions, uplink). Returns
  /// total work units so callers can settle to quiescence.
  std::size_t step();

  // ---- introspection ----
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] Shard& shard(std::size_t i) { return *shards_[i]; }
  [[nodiscard]] u16 port(std::size_t listener_idx = 0) const;
  [[nodiscard]] std::size_t sessions_active() const;
  [[nodiscard]] u64 accepts() const { return accepts_.load(std::memory_order_relaxed); }
  [[nodiscard]] const std::string& last_error() const { return last_error_; }

  [[nodiscard]] transport::TransportSnapshot transport_stats() const;  ///< all shards
  [[nodiscard]] TenantSnapshot tenant_stats(u32 tenant_id);
  [[nodiscard]] TenantSnapshot tenant_aggregate() const { return tenants_.aggregate(); }
  [[nodiscard]] TenantRegistry& tenants() { return tenants_; }
  [[nodiscard]] Uplink& uplink() { return uplink_; }
  [[nodiscard]] const ServerConfig& config() const { return cfg_; }

 private:
  SessionEnv make_env();
  bool bind_listener(const ListenerSpec& spec);
  void on_acceptable(std::size_t listener_index);
  void dispatch(PendingConn pc);

  ServerConfig cfg_;
  TenantRegistry tenants_;
  Uplink uplink_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<transport::Fd> listeners_;  ///< index = ListenerSpec index
  std::string last_error_;

  std::atomic<u64> accepts_{0};
  std::atomic<std::size_t> global_active_{0};
  std::size_t rr_next_ = 0;  ///< accept fan-out cursor (accept context only)
  bool started_ = false;
  bool running_ = false;
  bool stopped_ = false;
};

}  // namespace p5::server
