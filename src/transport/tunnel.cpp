#include "transport/tunnel.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "p5/endpoint.hpp"

namespace p5::transport {

namespace {
constexpr double kBackoffJitter = 0.25;  ///< +/- fraction applied to each reconnect delay
}  // namespace

// ------------------------------------------------------------ TunnelBinding

TunnelBinding TunnelBinding::endpoint(core::SonetEndpoint& ep) {
  // Pacing: pull only while the endpoint still holds octets of a PPP frame.
  // tx_pending() stays true until the last frame's closing flag is pulled,
  // so every frame the far end needs goes out and no frame of pure flag fill
  // does; without the gate an idle endpoint would saturate the wire.
  TunnelBinding b;
  b.pull = [&ep]() -> Bytes { return ep.tx_pending() ? ep.pull_frame() : Bytes{}; };
  b.pull_raw = [&ep] { return ep.pull_frame(); };
  b.ready = [&ep] { return ep.tx_pending(); };
  // One call per received burst: the line interface takes arbitrary octet
  // runs, so a burst is just consecutive push_line calls — the batch-capable
  // FastP5Endpoint deframes the whole run before the tunnel regains control.
  // The far end sends nothing after a closing flag, so the receive side runs
  // to quiescence here (a no-op on the fast tier), as Session does.
  b.push_batch = [&ep](std::span<const BytesView> burst) {
    for (const BytesView& v : burst) ep.push_line(v);
    ep.drain_rx();
    return burst.size();
  };
  return b;
}

const char* to_string(TunnelState s) {
  switch (s) {
    case TunnelState::kIdle: return "idle";
    case TunnelState::kListening: return "listening";
    case TunnelState::kConnecting: return "connecting";
    case TunnelState::kBackoff: return "backoff";
    case TunnelState::kConnected: return "connected";
    case TunnelState::kDraining: return "draining";
    case TunnelState::kClosed: return "closed";
    case TunnelState::kFailed: return "failed";
  }
  return "?";
}

// ------------------------------------------------------------------- Tunnel

Tunnel::Tunnel(EventLoop& loop, TunnelBinding binding, TunnelConfig cfg)
    : loop_(loop), binding_(std::move(binding)), cfg_(std::move(cfg)), rng_(cfg_.seed) {}

Tunnel::~Tunnel() {
  *alive_ = false;
  if (listen_fd_.valid()) loop_.remove_fd(listen_fd_.get());
  // conn_ destructs with notify=false: no callbacks fire from here.
}

void Tunnel::start() {
  P5_EXPECTS(state_ == TunnelState::kIdle);
  if (cfg_.listen) {
    begin_listen();
  } else {
    begin_connect();
  }
}

u16 Tunnel::bound_port() const { return bound_port_; }

void Tunnel::begin_listen() {
  const SocketAddr addr{cfg_.host, cfg_.port};
  if (cfg_.udp) {
    Fd fd = udp_bind(addr);
    P5_ENSURES(fd.valid());
    bound_port_ = local_port(fd.get());
    state_ = TunnelState::kListening;
    adopt(std::make_unique<DgramConn>(loop_, tel_, cfg_.conn, std::move(fd),
                                      /*learn_peer=*/true, &pool_));
    return;
  }
  listen_fd_ = tcp_listen(addr);
  P5_ENSURES(listen_fd_.valid());
  bound_port_ = local_port(listen_fd_.get());
  state_ = TunnelState::kListening;
  loop_.add_fd(listen_fd_.get(), kReadable, [this](u32) {
    Fd c = tcp_accept(listen_fd_.get());
    if (!c.valid()) return;
    // Latest peer wins: a reconnecting far end replaces a stale connection.
    adopt(std::make_unique<StreamConn>(loop_, tel_, cfg_.conn, std::move(c),
                                       /*connecting=*/false, &pool_));
  });
}

void Tunnel::begin_connect() {
  state_ = TunnelState::kConnecting;
  if (cfg_.udp) {
    Fd fd = udp_connect(SocketAddr{cfg_.host, cfg_.port});
    if (!fd.valid()) {
      schedule_reconnect();
      return;
    }
    adopt(std::make_unique<DgramConn>(loop_, tel_, cfg_.conn, std::move(fd),
                                      /*learn_peer=*/false, &pool_));
    return;
  }
  bool in_progress = false;
  Fd fd = tcp_connect(SocketAddr{cfg_.host, cfg_.port}, in_progress);
  if (!fd.valid()) {
    schedule_reconnect();
    return;
  }
  adopt(std::make_unique<StreamConn>(loop_, tel_, cfg_.conn, std::move(fd), in_progress, &pool_));
}

void Tunnel::adopt(std::unique_ptr<Conn> conn) {
  if (conn_ && conn_->open()) conn_->close();  // not on conn_'s stack here
  Conn* raw = conn.get();
  raw->set_on_open([this] { on_established(); });
  raw->set_on_closed([this] {
    // Runs on the connection's own stack — account, then bounce the
    // teardown through the loop so the conn finishes its slice first.
    tel_.on_disconnect();
    loop_.add_timer(0, [this, alive = alive_] {
      if (*alive) on_conn_closed();
    });
  });
  raw->set_on_drained([this] {
    loop_.add_timer(0, [this, alive = alive_] {
      if (*alive) finish_drain();
    });
  });
  raw->set_on_frames([this](std::span<const BytesView> burst) { deliver(burst); });
  conn_ = std::move(conn);
}

void Tunnel::on_established() {
  state_ = TunnelState::kConnected;
  tel_.on_connect(/*reconnect=*/ever_connected_);
  ever_connected_ = true;
  backoff_ms_ = 0;  // a fresh outage restarts the exponential ladder
  backoff_spent_ms_ = 0;
  last_tx_ms_ = loop_.now_ms();
  pump();  // opportunistic first slice cuts establishment latency
}

void Tunnel::on_conn_closed() {
  if (conn_ && conn_->open()) return;  // already replaced by a fresh peer
  conn_.reset();
  if (state_ == TunnelState::kDraining || state_ == TunnelState::kClosed) {
    state_ = TunnelState::kClosed;
    return;
  }
  if (state_ == TunnelState::kFailed) return;
  if (cfg_.listen) {
    if (cfg_.udp) {
      begin_listen();  // re-bind and wait for the next talker
    } else {
      state_ = TunnelState::kListening;
    }
    return;
  }
  schedule_reconnect();
}

void Tunnel::schedule_reconnect() {
  if (backoff_ms_ == 0) backoff_ms_ = std::max<u64>(1, cfg_.backoff_initial_ms);
  const double unit = static_cast<double>(rng_.next() >> 11) * 0x1.0p-53;  // [0,1)
  const double factor = 1.0 + kBackoffJitter * (2.0 * unit - 1.0);
  const u64 delay =
      std::max<u64>(1, static_cast<u64>(static_cast<double>(backoff_ms_) * factor));
  if (cfg_.backoff_budget_ms != 0 && backoff_spent_ms_ + delay > cfg_.backoff_budget_ms) {
    state_ = TunnelState::kFailed;
    return;
  }
  backoff_spent_ms_ += delay;
  backoff_ms_ = std::min(backoff_ms_ * 2, std::max<u64>(1, cfg_.backoff_max_ms));
  tel_.backoff_wait();
  state_ = TunnelState::kBackoff;
  loop_.add_timer(delay, [this, alive = alive_] {
    if (*alive && state_ == TunnelState::kBackoff) begin_connect();
  });
}

std::size_t Tunnel::pump() {
  if (state_ != TunnelState::kConnected || !conn_) return 0;
  std::size_t sent = 0;
  while (sent < cfg_.frames_per_pump) {
    if (!conn_->writable()) {
      // The watermark is the coupling point: frames stay in the endpoint's
      // shared memory instead of ballooning the socket queue.
      if (binding_.ready && binding_.ready()) tel_.backpressure_stall();
      break;
    }
    Bytes chunk = binding_.pull ? binding_.pull() : Bytes{};
    if (chunk.empty()) {
      if (cfg_.keepalive_ms != 0 && binding_.pull_raw &&
          loop_.now_ms() - last_tx_ms_ >= cfg_.keepalive_ms) {
        chunk = binding_.pull_raw();
      }
      if (chunk.empty()) break;
    }
    if (!conn_->send_frame(chunk)) break;  // write error closed us mid-slice
    last_tx_ms_ = loop_.now_ms();
    ++sent;
  }
  if (conn_) {
    conn_->flush();  // the whole slice rides one scatter-gather syscall
    tel_.note_queue_depth(conn_->queued_bytes());
  }
  return sent;
}

void Tunnel::deliver(std::span<const BytesView> chunks) {
  if (rx_tap_) {
    // The tap mutates (and sometimes eats) chunks; materialise each into
    // reusable scratch storage, preserving per-chunk tap order so a seeded
    // fault sequence depends on the chunk sequence, not on burst grouping.
    tap_scratch_.resize(std::max(tap_scratch_.size(), chunks.size()));
    tap_survivors_.clear();
    for (std::size_t i = 0; i < chunks.size(); ++i) {
      Bytes& copy = tap_scratch_[i];
      copy.assign(chunks[i].begin(), chunks[i].end());
      rx_tap_(copy);
      if (copy.empty()) continue;  // the tap ate it: injected loss
      tap_survivors_.emplace_back(copy.data(), copy.size());
    }
    chunks = tap_survivors_;
  }
  if (chunks.empty() || !binding_.push_batch) return;
  const std::size_t accepted = binding_.push_batch(chunks);
  for (std::size_t i = accepted; i < chunks.size(); ++i) tel_.rx_drop();
}

void Tunnel::request_drain() {
  if (finished() || state_ == TunnelState::kDraining) return;
  state_ = TunnelState::kDraining;
  if (listen_fd_.valid()) {
    loop_.remove_fd(listen_fd_.get());
    listen_fd_.reset();
  }
  if (!conn_ || !conn_->open()) {
    conn_.reset();
    state_ = TunnelState::kClosed;
    return;
  }
  conn_->request_drain();
}

void Tunnel::finish_drain() {
  if (state_ != TunnelState::kDraining) return;
  state_ = TunnelState::kClosed;
  if (conn_) {
    conn_->set_on_closed(nullptr);  // a drained goodbye is not a disconnect
    conn_->close();
    conn_.reset();
  }
}

void Tunnel::kill_connection() {
  if (conn_ && conn_->open()) conn_->close();
}

}  // namespace p5::transport
