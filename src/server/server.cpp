#include "server/server.hpp"

#include <utility>

#include "common/check.hpp"

namespace p5::server {

namespace {
constexpr std::size_t kIntakePerRing = 128;  ///< uplink datagrams taken per shard ring per step
constexpr int kListenBacklog = 256;
}  // namespace

// ---------------------------------------------------------------- Uplink

void Uplink::stage(UplinkItem&& item) {
  Queue& q = queues_[item.tenant];
  if (q.items.size() >= cfg_.stage_frames) {
    // Staging bound: the slowest tenant cannot grow the scheduler without
    // limit; the overflow is an accounted loss on that tenant's ledger.
    tenants_.ensure(item.tenant).telemetry().add_dgrams_lost(1);
    return;
  }
  if (q.items.empty()) active_.push_back(item.tenant);
  q.items.push_back(std::move(item));
  staged_.fetch_add(1, std::memory_order_relaxed);
}

std::size_t Uplink::step() {
  for (auto* ring : rings_) {
    ring->drain(kIntakePerRing, [this](UplinkItem&& item) { stage(std::move(item)); });
  }
  if (active_.empty()) return 0;

  std::size_t emitted_now = 0;
  std::size_t budget = cfg_.budget_bytes;  // 0 = unlimited
  // One DRR round over the currently active tenants. Each visit tops the
  // tenant's deficit up by its quantum and emits head-of-line datagrams
  // while the deficit covers them; an emptied tenant forfeits its deficit
  // and leaves the active list (classic DRR, so a tenant cannot bank credit
  // while idle).
  std::size_t visits = active_.size();
  while (visits-- > 0) {
    const u32 tenant_id = active_.front();
    active_.pop_front();
    Queue& q = queues_[tenant_id];
    TenantState& t = tenants_.ensure(tenant_id);
    const u32 quantum =
        t.config().drr_quantum_bytes != 0 ? t.config().drr_quantum_bytes : cfg_.quantum_bytes;
    q.deficit += quantum;
    while (!q.items.empty()) {
      const std::size_t bytes = q.items.front().payload.size();
      if (q.deficit < bytes) break;
      if (cfg_.budget_bytes != 0 && budget < bytes) {
        active_.push_front(tenant_id);  // resume here next step, deficit kept
        return emitted_now;
      }
      UplinkItem item = std::move(q.items.front());
      q.items.pop_front();
      staged_.fetch_sub(1, std::memory_order_relaxed);
      q.deficit -= bytes;
      if (cfg_.budget_bytes != 0) budget -= bytes;
      if (sink_) sink_(item.tenant, item.protocol, item.payload);
      t.telemetry().on_uplinked(bytes);
      emitted_.fetch_add(1, std::memory_order_relaxed);
      emitted_bytes_.fetch_add(bytes, std::memory_order_relaxed);
      ++emitted_now;
    }
    if (q.items.empty()) {
      q.deficit = 0;
    } else {
      active_.push_back(tenant_id);
    }
  }
  return emitted_now;
}

void Uplink::flush_lost() {
  for (auto* ring : rings_) {
    ring->drain(ring->capacity(), [this](UplinkItem&& item) {
      tenants_.ensure(item.tenant).telemetry().add_dgrams_lost(1);
    });
  }
  for (auto& [tenant_id, q] : queues_) {
    if (q.items.empty()) continue;
    tenants_.ensure(tenant_id).telemetry().add_dgrams_lost(q.items.size());
    staged_.fetch_sub(q.items.size(), std::memory_order_relaxed);
    q.items.clear();
    q.deficit = 0;
  }
  active_.clear();
}

// ---------------------------------------------------------- TunnelServer

TunnelServer::TunnelServer(ServerConfig cfg)
    : cfg_(std::move(cfg)),
      tenants_(cfg_.tenant_defaults),
      uplink_(Uplink::Config{cfg_.uplink_stage_frames, cfg_.uplink_budget_bytes,
                             cfg_.drr_quantum_bytes},
              tenants_) {
  P5_EXPECTS(cfg_.shards >= 1);
  P5_EXPECTS(!cfg_.listeners.empty());
  for (std::size_t i = 0; i < cfg_.shards; ++i) {
    ShardConfig sc;
    sc.index = i;
    sc.adoption_ring = cfg_.adoption_ring;
    sc.conn = cfg_.conn;
    shards_.push_back(std::make_unique<Shard>(sc, make_env()));
    uplink_.attach(*shards_.back());
  }
  // The uplink's single consumer is shard 0's slice, in both driving modes.
  shards_[0]->set_on_slice([this] { uplink_.step(); });
}

TunnelServer::~TunnelServer() { stop(); }

SessionEnv TunnelServer::make_env() {
  SessionEnv env;  // loop/transport_tel/uplink_offer are filled by the Shard
  env.tenants = &tenants_;
  env.route = cfg_.route;
  env.frames_per_pump = cfg_.frames_per_pump;
  env.make_endpoint = [this] {
    return core::make_sonet_endpoint(cfg_.tier, cfg_.device, cfg_.sts);
  };
  env.delivered_tap = cfg_.delivered_tap;
  if (cfg_.max_sessions_total != 0) {
    env.admit_global = [this] {
      std::size_t cur = global_active_.load(std::memory_order_relaxed);
      while (cur < cfg_.max_sessions_total) {
        if (global_active_.compare_exchange_weak(cur, cur + 1, std::memory_order_relaxed)) {
          return true;
        }
      }
      return false;
    };
    env.release_global = [this] { global_active_.fetch_sub(1, std::memory_order_relaxed); };
  }
  return env;
}

bool TunnelServer::bind_listener(const ListenerSpec& spec) {
  const transport::SocketAddr addr{cfg_.host, spec.port};
  transport::Fd fd = transport::tcp_listen(addr, kListenBacklog);
  if (!fd.valid()) {
    last_error_ = "bind failed on " + addr.host + ":" + std::to_string(addr.port);
    return false;
  }
  const std::size_t listener_index = listeners_.size();
  listeners_.push_back(std::move(fd));
  shards_[0]->loop().add_fd(listeners_.back().get(), transport::kReadable,
                            [this, listener_index](u32) { on_acceptable(listener_index); });
  return true;
}

bool TunnelServer::start() {
  P5_EXPECTS(!started_);
  listeners_.reserve(cfg_.listeners.size());
  for (const ListenerSpec& spec : cfg_.listeners) {
    if (!bind_listener(spec)) return false;
  }
  started_ = true;
  return true;
}

void TunnelServer::on_acceptable(std::size_t listener_index) {
  // Level-triggered loops accept everything pending; the batch is spread
  // round-robin so a connect burst lands evenly.
  for (;;) {
    transport::Fd fd = transport::tcp_accept(listeners_[listener_index].get());
    if (!fd.valid()) break;
    accepts_.fetch_add(1, std::memory_order_relaxed);
    dispatch(PendingConn{fd.release(), cfg_.listeners[listener_index].tenant});
  }
}

void TunnelServer::dispatch(PendingConn pc) {
  // Shard 0 accepts and spreads the load; only its own share skips the ring.
  const std::size_t target = rr_next_;
  rr_next_ = (rr_next_ + 1) % shards_.size();
  (void)shards_[target]->offer(std::move(pc), /*same_context=*/target == 0);
}

void TunnelServer::run() {
  P5_EXPECTS(started_ && !running_);
  running_ = true;
  for (auto& s : shards_) s->start_thread();
}

void TunnelServer::stop() {
  if (stopped_) return;
  stopped_ = true;
  for (auto& s : shards_) s->stop();
  for (auto& s : shards_) s->join();
  running_ = false;
  // Shards are quiescent: close the books. Session teardown moves queued
  // chunks into frames_lost (exact chunk ledger), then whatever the uplink
  // never emitted is booked lost (exact tenant ledger).
  for (auto& s : shards_) s->teardown_sessions();
  uplink_.flush_lost();
}

void TunnelServer::enable_manual_time() {
  P5_EXPECTS(!started_ && !running_);
  for (auto& s : shards_) s->loop().enable_manual_time();
}

void TunnelServer::advance_time(u64 ms) {
  for (auto& s : shards_) s->loop().advance_time(ms);
}

std::size_t TunnelServer::step() {
  P5_EXPECTS(started_ && !running_);
  std::size_t work = 0;
  for (auto& s : shards_) work += s->slice(0);
  return work;
}

u16 TunnelServer::port(std::size_t listener_idx) const {
  return listener_idx < listeners_.size() ? transport::local_port(listeners_[listener_idx].get())
                                          : 0;
}

std::size_t TunnelServer::sessions_active() const {
  std::size_t n = 0;
  for (const auto& s : shards_) n += s->sessions_active();
  return n;
}

transport::TransportSnapshot TunnelServer::transport_stats() const {
  transport::TransportSnapshot sum;
  for (const auto& s : shards_) sum += s->transport_stats();
  return sum;
}

TenantSnapshot TunnelServer::tenant_stats(u32 tenant_id) {
  TenantState* t = tenants_.find(tenant_id);
  return t ? t->telemetry().snapshot() : TenantSnapshot{};
}

}  // namespace p5::server
