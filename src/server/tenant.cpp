#include "server/tenant.hpp"

#include <algorithm>

namespace p5::server {

bool TenantState::try_acquire_session() {
  if (cfg_.max_sessions == 0) {
    active_.fetch_add(1, std::memory_order_relaxed);
    tel_.on_admitted();
    return true;
  }
  std::size_t cur = active_.load(std::memory_order_relaxed);
  while (cur < cfg_.max_sessions) {
    if (active_.compare_exchange_weak(cur, cur + 1, std::memory_order_relaxed)) {
      tel_.on_admitted();
      return true;
    }
  }
  tel_.on_rejected();
  return false;
}

void TenantState::release_session() {
  active_.fetch_sub(1, std::memory_order_relaxed);
  tel_.on_session_closed();
}

bool TenantState::police_rx(std::size_t bytes, u64 now_ms) {
  if (cfg_.rx_bytes_per_s == 0) return true;
  std::lock_guard<std::mutex> lock(bucket_mu_);
  const double depth = static_cast<double>(std::max<u64>(cfg_.rx_burst_bytes, 1));
  if (tokens_ < 0.0) {  // first chunk primes a full bucket
    tokens_ = depth;
    last_refill_ms_ = now_ms;
  }
  if (now_ms > last_refill_ms_) {  // skew across shard clocks refills nothing
    const double elapsed_s = static_cast<double>(now_ms - last_refill_ms_) / 1000.0;
    tokens_ = std::min(depth, tokens_ + elapsed_s * static_cast<double>(cfg_.rx_bytes_per_s));
    last_refill_ms_ = now_ms;
  }
  if (tokens_ < static_cast<double>(bytes)) {
    tel_.on_policed(bytes);
    return false;
  }
  tokens_ -= static_cast<double>(bytes);
  return true;
}

void TenantState::reconfigure(TenantConfig cfg) {
  std::lock_guard<std::mutex> lock(bucket_mu_);
  cfg_ = cfg;
  tokens_ = -1.0;  // re-prime the bucket under the new rate
}

void TenantRegistry::configure(TenantConfig cfg) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(cfg.id);
  if (it == tenants_.end()) {
    tenants_.emplace(cfg.id, std::make_unique<TenantState>(cfg));
  } else {
    it->second->reconfigure(cfg);
  }
}

TenantState& TenantRegistry::ensure(u32 tenant_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(tenant_id);
  if (it == tenants_.end()) {
    TenantConfig cfg = defaults_;
    cfg.id = tenant_id;
    it = tenants_.emplace(tenant_id, std::make_unique<TenantState>(cfg)).first;
  }
  return *it->second;
}

TenantState* TenantRegistry::find(u32 tenant_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(tenant_id);
  return it == tenants_.end() ? nullptr : it->second.get();
}

std::vector<u32> TenantRegistry::ids() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<u32> out;
  out.reserve(tenants_.size());
  for (const auto& [id, state] : tenants_) out.push_back(id);
  return out;
}

TenantSnapshot TenantRegistry::aggregate() const {
  std::lock_guard<std::mutex> lock(mu_);
  TenantSnapshot sum;
  for (const auto& [id, state] : tenants_) sum += state->telemetry().snapshot();
  return sum;
}

}  // namespace p5::server
