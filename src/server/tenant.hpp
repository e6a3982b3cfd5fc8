// Tenant plane of the TunnelServer: registration, admission control,
// byte-rate policing and the per-tenant datagram ledger.
//
// A tenant is a customer slice of the aggregator — identified either by the
// listener port a connection arrived on or by the hello chunk it sent first
// (server.hpp). Every session is bound to exactly one tenant before it may
// carry traffic, and the tenant enforces two admission axes:
//   * max_sessions  — concurrent tunnels (CAS acquire/release, multi-shard);
//   * rx_bytes_per_s — a token bucket over inbound wire chunks, refilled
//     from the observing shard's clock so deterministic manual-time tests
//     police byte-exactly.
//
// Telemetry follows the one counter model (common/counters.hpp) and is
// *multi-writer*: one tenant's sessions live on several shards, which the
// model's fetch_add updates keep exact. The ledger tracked here is
// datagram-granular, one level above the transport chunk ledger:
//
//     dgrams_in == dgrams_echoed + dgrams_uplinked + dgrams_sunk
//                  + dgrams_lost          (+ dgrams still staged in flight)
//
// Exact at quiescence — every datagram a tenant's endpoints decode is
// dispositioned, across shard handoff, or counted lost where it was dropped
// (echo-full, handoff-ring-full, staging overflow). See DESIGN.md §13.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/counters.hpp"
#include "common/types.hpp"

namespace p5::server {

struct TenantConfig {
  u32 id = 0;
  std::size_t max_sessions = 0;  ///< concurrent tunnels; 0 = unlimited
  u64 rx_bytes_per_s = 0;        ///< inbound wire-chunk policer; 0 = unlimited
  u64 rx_burst_bytes = 64 * 1024;  ///< bucket depth (instantaneous burst)
  u32 drr_quantum_bytes = 0;     ///< uplink DRR quantum; 0 = server default
};

/// Plain-value copy of one tenant's counters (or an aggregate roll-up).
struct TenantSnapshot {
  // Datagram ledger (see header comment).
  u64 dgrams_in = 0;  ///< datagrams decoded from this tenant's endpoints
  u64 bytes_in = 0;
  u64 dgrams_echoed = 0;  ///< resubmitted to the session's own endpoint
  u64 bytes_echoed = 0;
  u64 dgrams_uplinked = 0;  ///< emitted by the shared uplink (post-DRR)
  u64 bytes_uplinked = 0;
  u64 dgrams_sunk = 0;  ///< consumed by the sink route
  u64 bytes_sunk = 0;
  u64 dgrams_lost = 0;  ///< dropped: echo-full / handoff-full / stage-full
  /// Decoded by this tenant's endpoints but dropped at the device RX ring
  /// (shared-memory overflow) before the session reaped them. Never part of
  /// dgrams_in, so outside the ledger: the loss the ledger cannot see.
  u64 dgrams_ring_dropped = 0;

  // Admission and policing.
  u64 sessions_admitted = 0;
  u64 sessions_rejected = 0;  ///< admission refusals (tenant at max_sessions)
  u64 sessions_closed = 0;
  u64 chunks_policed = 0;  ///< inbound chunks dropped by the rate cap
  u64 bytes_policed = 0;

  [[nodiscard]] u64 dgrams_out() const { return dgrams_echoed + dgrams_uplinked + dgrams_sunk; }
  /// The ledger invariant, exact at quiescence. `in_flight` is whatever the
  /// caller knows is still staged (uplink rings/queues).
  [[nodiscard]] bool ledger_exact(u64 in_flight = 0) const {
    return dgrams_in == dgrams_out() + dgrams_lost + in_flight;
  }

  bool operator==(const TenantSnapshot&) const = default;
  TenantSnapshot& operator+=(const TenantSnapshot& o);
};

/// TenantSnapshot's live mirror; every field is a flow counter, so merges sum
/// (common/counters.hpp).
using TenantCounters = CounterBlock<TenantSnapshot>;

inline TenantSnapshot& TenantSnapshot::operator+=(const TenantSnapshot& o) {
  return TenantCounters::merge(*this, o);
}

/// Live counters for one tenant. Multi-writer (sessions on any shard),
/// any number of readers.
class TenantTelemetry {
  using S = TenantSnapshot;

 public:
  void on_dgram_in(std::size_t bytes) {
    c_.add<&S::dgrams_in>(1);
    c_.add<&S::bytes_in>(bytes);
  }
  void on_echoed(std::size_t bytes) {
    c_.add<&S::dgrams_echoed>(1);
    c_.add<&S::bytes_echoed>(bytes);
  }
  void on_uplinked(std::size_t bytes) {
    c_.add<&S::dgrams_uplinked>(1);
    c_.add<&S::bytes_uplinked>(bytes);
  }
  void on_sunk(std::size_t bytes) {
    c_.add<&S::dgrams_sunk>(1);
    c_.add<&S::bytes_sunk>(bytes);
  }
  void add_dgrams_lost(u64 n) {
    if (n) c_.add<&S::dgrams_lost>(n);
  }
  void add_ring_dropped(u64 n) {
    if (n) c_.add<&S::dgrams_ring_dropped>(n);
  }
  void on_admitted() { c_.add<&S::sessions_admitted>(1); }
  void on_rejected() { c_.add<&S::sessions_rejected>(1); }
  void on_session_closed() { c_.add<&S::sessions_closed>(1); }
  void on_policed(std::size_t bytes) {
    c_.add<&S::chunks_policed>(1);
    c_.add<&S::bytes_policed>(bytes);
  }

  /// Consistent point-in-time copy (common/counters.hpp).
  [[nodiscard]] TenantSnapshot snapshot() const { return c_.snapshot(); }

 private:
  TenantCounters c_;
};

/// One registered tenant: config, counters, live admission state and the
/// policer bucket. Stable address once created (registry hands out pointers).
class TenantState {
 public:
  explicit TenantState(TenantConfig cfg) : cfg_(cfg) {}

  [[nodiscard]] const TenantConfig& config() const { return cfg_; }
  [[nodiscard]] u32 id() const { return cfg_.id; }
  [[nodiscard]] TenantTelemetry& telemetry() { return tel_; }
  [[nodiscard]] std::size_t active_sessions() const {
    return active_.load(std::memory_order_relaxed);
  }

  /// Admission: claim a session slot. False (and a rejection count) when the
  /// tenant is at max_sessions. CAS loop — shards race for the last slot and
  /// exactly one wins.
  [[nodiscard]] bool try_acquire_session();
  void release_session();

  /// Token-bucket policer over inbound wire chunks. `now_ms` comes from the
  /// observing shard's loop clock (manual-time safe; a clock running
  /// backwards across shards refills nothing). True = admit the chunk.
  [[nodiscard]] bool police_rx(std::size_t bytes, u64 now_ms);

  /// Replace the limits in place (counters and active sessions survive).
  /// Registration-time use; racing this against live traffic only risks one
  /// chunk judged under either limit, never corruption.
  void reconfigure(TenantConfig cfg);

 private:
  TenantConfig cfg_;
  TenantTelemetry tel_;
  std::atomic<std::size_t> active_{0};

  std::mutex bucket_mu_;  ///< policer state; shards of one tenant contend here
  double tokens_ = -1.0;  ///< <0 = bucket not yet primed
  u64 last_refill_ms_ = 0;
};

/// All tenants the server knows. Creation is lazy (first session binds with
/// the server's default limits) or explicit via configure(). Lookup returns
/// stable pointers; the registry only grows.
class TenantRegistry {
 public:
  explicit TenantRegistry(TenantConfig defaults) : defaults_(defaults) {}

  /// Pre-register (or re-limit) a tenant. Counters survive reconfiguration.
  void configure(TenantConfig cfg);

  /// Find-or-create with the registry defaults (id overridden).
  [[nodiscard]] TenantState& ensure(u32 tenant_id);
  /// nullptr when the tenant was never seen.
  [[nodiscard]] TenantState* find(u32 tenant_id);

  [[nodiscard]] std::vector<u32> ids() const;
  /// Sum of every tenant's snapshot — the aggregate ledger.
  [[nodiscard]] TenantSnapshot aggregate() const;

 private:
  TenantConfig defaults_;
  mutable std::mutex mu_;
  std::map<u32, std::unique_ptr<TenantState>> tenants_;
};

}  // namespace p5::server
