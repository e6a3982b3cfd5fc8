#include "server/session.hpp"

#include <utility>

#include "common/check.hpp"
#include "server/hello.hpp"

namespace p5::server {

Session::Session(SessionEnv env, std::unique_ptr<transport::Conn> conn,
                 std::optional<u32> fixed_tenant)
    : env_(std::move(env)), conn_(std::move(conn)) {
  P5_EXPECTS(env_.loop && env_.transport_tel && env_.tenants && env_.make_endpoint);
  P5_EXPECTS(conn_ != nullptr);
  conn_->set_on_frames([this](std::span<const BytesView> chunks) { on_chunks(chunks); });
  conn_->set_on_closed([this] { mark_dead(); });
  env_.transport_tel->on_connect(false);
  if (fixed_tenant) {
    if (bind_tenant(*fixed_tenant)) {
      attach_endpoint();
    } else {
      conn_->close();  // fires on_closed -> mark_dead; shard sweeps us
    }
  } else {
    awaiting_hello_ = true;
  }
}

Session::~Session() { mark_dead(); }

bool Session::bind_tenant(u32 tenant_id) {
  TenantState& t = env_.tenants->ensure(tenant_id);
  if (env_.admit_global && !env_.admit_global()) {
    t.telemetry().on_rejected();  // server-wide cap, booked against the tenant
    return false;
  }
  global_slot_held_ = env_.admit_global != nullptr;
  if (!t.try_acquire_session()) {
    if (global_slot_held_ && env_.release_global) env_.release_global();
    global_slot_held_ = false;
    return false;
  }
  tenant_ = &t;
  return true;
}

void Session::attach_endpoint() {
  ep_ = env_.make_endpoint();
  tx_ = transport::TunnelBinding::endpoint(*ep_);
}

void Session::on_chunks(std::span<const BytesView> chunks) {
  // Per-chunk decisions (hello, policer, push_line) happen in chunk order;
  // the expensive device work — drain_rx and the datagram reap — runs once
  // for the whole burst.
  for (const BytesView& chunk : chunks) {
    if (!on_chunk(chunk)) return;
  }
  if (dead_ || tenant_ == nullptr || ep_ == nullptr) return;
  ep_->drain_rx();
  reap_and_route();
}

bool Session::on_chunk(BytesView chunk) {
  if (dead_) return false;
  if (awaiting_hello_) {
    const auto tenant_id = parse_hello(chunk);
    if (!tenant_id) {
      env_.transport_tel->proto_error();  // first chunk must name a tenant
      conn_->close();
      return false;
    }
    awaiting_hello_ = false;
    if (!bind_tenant(*tenant_id)) {
      conn_->close();
      return false;
    }
    attach_endpoint();
    return true;  // the hello carries no line octets
  }
  if (tenant_ == nullptr || ep_ == nullptr) return true;  // closing; late chunk
  if (!tenant_->police_rx(chunk.size(), env_.loop->now_ms())) return true;  // shaped away
  ep_->push_line(chunk);
  return true;
}

void Session::reap_and_route() {
  TenantTelemetry& tel = tenant_->telemetry();
  const u64 ring_drops = ep_->rx_overflow_drops();
  tel.add_ring_dropped(ring_drops - ring_drops_booked_);
  ring_drops_booked_ = ring_drops;
  while (auto d = ep_->reap_datagram()) {
    const std::size_t bytes = d->payload.size();
    tel.on_dgram_in(bytes);
    if (env_.delivered_tap) env_.delivered_tap(tenant_->id(), d->protocol, d->payload);
    switch (env_.route) {
      case RouteMode::kEcho:
        if (ep_->submit_datagram(d->protocol, std::move(d->payload))) {
          tel.on_echoed(bytes);
        } else {
          tel.add_dgrams_lost(1);  // echo refused: device TX pool full
        }
        break;
      case RouteMode::kSink:
        tel.on_sunk(bytes);
        break;
      case RouteMode::kUplink:
        // Counted uplinked only when the DRR scheduler actually emits it;
        // a full handoff ring is an accounted loss, never a silent one.
        if (!env_.uplink_offer ||
            !env_.uplink_offer(tenant_->id(), d->protocol, std::move(d->payload))) {
          tel.add_dgrams_lost(1);
        }
        break;
    }
  }
}

std::size_t Session::slice() {
  if (dead_ || ep_ == nullptr) return 0;
  std::size_t sent = 0;
  while (sent < env_.frames_per_pump) {
    if (!conn_->writable()) {
      // Watermark backpressure: frames stay in the device until the socket
      // drains, same coupling the Tunnel uses.
      if (tx_.ready()) env_.transport_tel->backpressure_stall();
      break;
    }
    const Bytes frame = tx_.pull();
    if (frame.empty()) break;
    if (!conn_->send_frame(frame)) break;  // write error closed us mid-slice
    ++sent;
  }
  if (conn_->open()) {
    conn_->flush();  // the whole slice rides one scatter-gather syscall
    env_.transport_tel->note_queue_depth(conn_->queued_bytes());
  }
  return sent;
}

void Session::mark_dead() {
  if (dead_) return;
  dead_ = true;
  env_.transport_tel->on_disconnect();
  if (tenant_ != nullptr) tenant_->release_session();
  if (global_slot_held_ && env_.release_global) env_.release_global();
  global_slot_held_ = false;
}

}  // namespace p5::server
