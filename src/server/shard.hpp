// One shard of the TunnelServer: an EventLoop, a slice of the accepted
// sessions, and the two lock-free edges that connect it to the rest of the
// server — an adoption ring (connections fanned out to it) and an uplink
// handoff ring (datagrams it forwards to the shared uplink).
//
// Both edges are linecard::SpscRing and both are single-producer/
// single-consumer by construction:
//   * adoption: produced by the accept context (shard 0's loop thread, or
//     the stepping thread in deterministic mode), consumed by this shard;
//   * uplink:   produced by this shard's sessions, consumed by the uplink
//     owner (shard 0 / the stepping thread).
//
// A slice is the shard's unit of work, mirroring LineCard::step():
// run_once() dispatches sockets, then adoptions are drained (bounded), every
// session gets a TX slice, and dead sessions are swept — sweeping happens
// strictly after run_once() returns so a conn is never destroyed from its
// own callback stack. Telemetry: all of a shard's conns write into one
// TransportTelemetry (single writer = the shard thread), and per-shard
// snapshots sum across shards with the usual operator+=.
#pragma once

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "linecard/spsc_ring.hpp"
#include "server/session.hpp"
#include "transport/event_loop.hpp"
#include "transport/stats.hpp"

namespace p5::server {

/// A connection in flight from the accept context to its owning shard.
/// Carries the raw fd (ownership moves with the struct) — the StreamConn is
/// only built on the owning shard's loop, so no Conn ever migrates loops.
struct PendingConn {
  int fd = -1;
  std::optional<u32> tenant;  ///< listener-port tenancy; nullopt = hello
};

/// One decoded datagram crossing from a shard to the shared uplink.
struct UplinkItem {
  u32 tenant = 0;
  u16 protocol = 0;
  Bytes payload;
};

struct ShardConfig {
  std::size_t index = 0;
  std::size_t adoption_ring = 256;
  transport::ConnConfig conn;
};

class Shard {
 public:
  Shard(ShardConfig cfg, SessionEnv env_template);
  ~Shard();
  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  [[nodiscard]] transport::EventLoop& loop() { return loop_; }
  [[nodiscard]] std::size_t index() const { return cfg_.index; }

  // ---- accept-context edge (producer side) ----
  /// Hand a connection to this shard. From the shard's own context the
  /// session is built immediately; cross-shard it rides the adoption ring.
  /// False = ring full: the fd has been closed and the overflow counted.
  bool offer(PendingConn pc, bool same_context);

  // ---- uplink edge ----
  /// Session-side producer hook (bound into SessionEnv by the server).
  [[nodiscard]] bool uplink_push(UplinkItem&& item) { return uplink_ring_.try_push(std::move(item)); }
  /// Consumer side, for the uplink owner only.
  [[nodiscard]] linecard::SpscRing<UplinkItem>& uplink_ring() { return uplink_ring_; }

  // ---- driving ----
  /// One bounded slice (loop dispatch + adoptions + session TX + sweep).
  /// Returns callbacks+chunks dispatched, so idle detection can settle.
  std::size_t slice(int timeout_ms);
  /// Threaded mode: slice(1) until stop() — with a drain_posted() once the
  /// stop flag trips (the EventLoop shutdown-ordering contract).
  void start_thread();
  void stop();
  void join();
  /// Destroy every session (stopped shard only — after join, or between
  /// steps). Conn teardown books still-queued chunks into frames_lost, so
  /// the shard's chunk ledger closes exactly: in == out + lost.
  void teardown_sessions();

  // ---- introspection ----
  [[nodiscard]] std::size_t sessions_active() const {
    return sessions_active_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] u64 adopted_total() const { return adopted_.load(std::memory_order_relaxed); }
  [[nodiscard]] u64 adoption_overflows() const {
    return adoption_overflow_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] u64 slices() const { return slices_.load(std::memory_order_relaxed); }
  [[nodiscard]] transport::TransportSnapshot transport_stats() const { return tel_.snapshot(); }
  [[nodiscard]] transport::TransportTelemetry& transport_telemetry() { return tel_; }
  [[nodiscard]] transport::ChunkPool::Counters pool_counters() const { return pool_.counters(); }

  /// Visit live sessions (shard context only).
  template <typename Fn>
  void for_each_session(Fn&& fn) {
    for (auto& s : sessions_) fn(*s);
  }

  /// Extra per-slice work on this shard's context — the server hangs the
  /// accept fan-out and (on shard 0) the uplink DRR pass here, so they run
  /// on the shard thread in threaded mode and on the stepping thread in
  /// deterministic mode, without a second consumer ever touching the rings.
  void set_on_slice(std::function<void()> hook) { on_slice_ = std::move(hook); }

 private:
  void adopt_now(PendingConn pc);
  void drain_adoptions();
  void sweep_dead();

  ShardConfig cfg_;
  SessionEnv env_template_;
  transport::EventLoop loop_;
  transport::TransportTelemetry tel_;
  /// One pool for every session conn the shard ever adopts — session churn
  /// recycles chunk buffers instead of round-tripping the heap. Declared
  /// before sessions_ so queued ChunkRefs release into a live pool.
  transport::ChunkPool pool_{&tel_};
  linecard::SpscRing<PendingConn> adoption_ring_;
  linecard::SpscRing<UplinkItem> uplink_ring_;
  std::vector<std::unique_ptr<Session>> sessions_;
  std::function<void()> on_slice_;
  std::thread thread_;
  std::atomic<bool> stop_{false};

  std::atomic<std::size_t> sessions_active_{0};
  std::atomic<u64> adopted_{0};
  std::atomic<u64> adoption_overflow_{0};
  std::atomic<u64> slices_{0};
};

}  // namespace p5::server
