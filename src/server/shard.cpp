#include "server/shard.hpp"

#include <unistd.h>

#include <utility>

#include "common/check.hpp"

namespace p5::server {

namespace {
constexpr std::size_t kUplinkRing = 1024;        ///< per-shard handoff slots
constexpr std::size_t kAdoptionsPerSlice = 64;
}  // namespace

Shard::Shard(ShardConfig cfg, SessionEnv env_template)
    : cfg_(cfg),
      env_template_(std::move(env_template)),
      adoption_ring_(cfg.adoption_ring),
      uplink_ring_(kUplinkRing) {
  env_template_.loop = &loop_;
  env_template_.transport_tel = &tel_;
  // Sessions hand decoded datagrams to *their own shard's* ring — this shard
  // is the single producer, the uplink owner the single consumer.
  env_template_.uplink_offer = [this](u32 tenant, u16 protocol, Bytes&& payload) {
    return uplink_push(UplinkItem{tenant, protocol, std::move(payload)});
  };
}

Shard::~Shard() {
  stop();
  join();
  sessions_.clear();  // conns deregister from loop_ before it dies
}

bool Shard::offer(PendingConn pc, bool same_context) {
  if (same_context) {
    adopt_now(std::move(pc));
    return true;
  }
  const int fd = pc.fd;
  if (!adoption_ring_.try_push(std::move(pc))) {
    // The ring bounds adoption latency; an overflow is a refused connection,
    // counted here and visible to the acceptor — never a leaked fd.
    ::close(fd);
    adoption_overflow_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  return true;
}

void Shard::adopt_now(PendingConn pc) {
  auto conn = std::make_unique<transport::StreamConn>(loop_, tel_, cfg_.conn,
                                                      transport::Fd(pc.fd), false, &pool_);
  sessions_.push_back(std::make_unique<Session>(env_template_, std::move(conn), pc.tenant));
  adopted_.fetch_add(1, std::memory_order_relaxed);
  sessions_active_.store(sessions_.size(), std::memory_order_relaxed);
}

void Shard::drain_adoptions() {
  adoption_ring_.drain(kAdoptionsPerSlice,
                       [this](PendingConn&& pc) { adopt_now(std::move(pc)); });
}

void Shard::sweep_dead() {
  std::size_t w = 0;
  for (std::size_t r = 0; r < sessions_.size(); ++r) {
    if (!sessions_[r]->dead()) {
      if (w != r) sessions_[w] = std::move(sessions_[r]);
      ++w;
    }
  }
  if (w != sessions_.size()) {
    sessions_.resize(w);
    sessions_active_.store(w, std::memory_order_relaxed);
  }
}

std::size_t Shard::slice(int timeout_ms) {
  std::size_t work = loop_.run_once(timeout_ms);
  drain_adoptions();
  for (auto& s : sessions_) work += s->slice();
  if (on_slice_) on_slice_();
  sweep_dead();
  slices_.fetch_add(1, std::memory_order_relaxed);
  return work;
}

void Shard::start_thread() {
  P5_EXPECTS(!thread_.joinable());
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_acquire)) slice(1);
    loop_.drain_posted();  // tasks accepted before the stop still run
    // Final adoption sweep: connections fanned out while we were stopping
    // are closed (counted as overflow), not leaked.
    adoption_ring_.drain(adoption_ring_.capacity(), [this](PendingConn&& pc) {
      ::close(pc.fd);
      adoption_overflow_.fetch_add(1, std::memory_order_relaxed);
    });
  });
}

void Shard::stop() {
  stop_.store(true, std::memory_order_release);
  loop_.stop();  // wakes a blocked run_once
}

void Shard::join() {
  if (thread_.joinable()) thread_.join();
}

void Shard::teardown_sessions() {
  sessions_.clear();
  sessions_active_.store(0, std::memory_order_relaxed);
}

}  // namespace p5::server
