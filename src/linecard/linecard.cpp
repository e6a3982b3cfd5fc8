#include "linecard/linecard.hpp"

#include "common/check.hpp"

namespace p5::linecard {

namespace {
/// Max egress descriptors forwarded per channel per fabric round (keeps one
/// noisy channel from starving the others' fabric service).
constexpr std::size_t kFabricBurst = 64;
}  // namespace

LineCard::LineCard(const LineCardConfig& cfg)
    : cfg_(cfg), telemetry_(cfg.channels), fabric_(cfg.channels + 1) {
  P5_EXPECTS(cfg.channels >= 1);
  channels_.reserve(cfg.channels);
  nodes_.reserve(cfg.channels);

  for (unsigned i = 0; i < cfg.channels; ++i) {
    channels_.push_back(std::make_unique<Channel>(i, cfg.channel, telemetry_.channel(i)));

    nodes_.push_back(
        std::make_unique<net::MaposNode>([this, i](BytesView wire) { fabric_.rx(i, wire); }));
    fabric_.attach(i, [this, i](BytesView wire) { nodes_[i]->rx(wire); });
    // Frames the switch sends toward tributary i go down its link: the
    // fabric thread is the sole producer of the channel's fabric ring.
    nodes_[i]->set_sink([this, i](const net::MaposNode::Received& r) {
      FrameDesc d;
      d.protocol = r.protocol;
      d.source_channel = static_cast<u8>(i);
      d.payload = r.payload;
      if (!channels_[i]->fabric_ring().try_push(std::move(d)))
        telemetry_.channel(i).ring_full_stall();  // fabric-side drop, counted
    });
  }

  uplink_ = std::make_unique<net::MaposNode>(
      [this](BytesView wire) { fabric_.rx(cfg_.channels, wire); });
  fabric_.attach(cfg_.channels, [this](BytesView wire) { uplink_->rx(wire); });
  uplink_->set_sink([this](const net::MaposNode::Received& r) {
    if (uplink_sink_) uplink_sink_(fabric_current_channel_, r);
  });

  // NSP address acquisition, all synchronous through the switch: each node
  // sends Address-Request with the null address and the switch answers
  // Address-Assign for its port. Done here, before any worker exists.
  for (auto& node : nodes_) node->request_address();
  uplink_->request_address();
  P5_ENSURES(uplink_->address().has_value());
  for (auto& ch : channels_) {
    P5_ENSURES(nodes_[ch->index()]->address().has_value());
    ch->set_egress_dest(*uplink_->address());  // aggregation by default
  }
}

LineCard::~LineCard() { stop(); }

u8 LineCard::channel_address(unsigned i) const { return *nodes_[i]->address(); }

u8 LineCard::uplink_address() const { return *uplink_->address(); }

bool LineCard::inject(unsigned ch, FrameDesc d) {
  P5_EXPECTS(ch < channels_.size());
  if (!channels_[ch]->source_ring().try_push(std::move(d))) {
    telemetry_.channel(ch).ring_full_stall();
    return false;
  }
  return true;
}

void LineCard::inject_blocking(unsigned ch, FrameDesc d) {
  P5_EXPECTS(ch < channels_.size());
  channels_[ch]->source_ring().push(std::move(d));
}

std::size_t LineCard::fabric_round() {
  std::size_t forwarded = 0;
  for (unsigned i = 0; i < channels_.size(); ++i) {
    Channel& ch = *channels_[i];
    // Drain up to one burst of descriptors, then encode them as ONE batch
    // into the channel's arena: a single worst-case reservation and a single
    // escape-engine/CRC setup for the whole burst, which is where the
    // per-frame overhead goes on small-frame traffic.
    fabric_batch_.clear();
    while (fabric_batch_.size() < kFabricBurst) {
      auto d = ch.egress_ring().try_pop();
      if (!d) break;
      fabric_batch_.push_back(std::move(*d));
    }
    if (fabric_batch_.empty()) continue;

    fabric_batch_frames_.clear();
    for (const FrameDesc& d : fabric_batch_)
      fabric_batch_frames_.push_back({d.protocol, d.payload, d.fabric_dest, {}});

    // The switch delineates the concatenated stream and runs every sink it
    // triggers (uplink or another channel's fabric ring) synchronously in
    // this context, frame by frame, exactly as the per-frame sends did.
    fabric_current_channel_ = i;
    forwarded += nodes_[i]->send_batch(ch.arena(), fabric_batch_frames_);

    // Publish the engine's dispatch-tier selections for this tributary.
    if (const auto* eng = ch.arena().cached_tx_engine()) {
      const fastpath::TierCounters& c = eng->counters();
      telemetry_.channel(i).set_escape_tiers(c.scalar_calls, c.swar_calls, c.simd_calls);
    }
  }
  return forwarded;
}

bool LineCard::step() {
  P5_EXPECTS(!running());
  bool work = false;
  for (auto& ch : channels_) work = ch->step() || work;
  work = fabric_round() > 0 || work;
  return work;
}

u64 LineCard::run_until_idle(u64 max_steps) {
  u64 steps = 0;
  while (steps < max_steps) {
    ++steps;
    if (!step()) break;
  }
  return steps;
}

void LineCard::start() {
  if (running()) return;
  running_.store(true, std::memory_order_release);
  workers_.reserve(channels_.size());
  for (unsigned i = 0; i < channels_.size(); ++i)
    workers_.emplace_back([this, i] { worker_main(i); });
  fabric_thread_ = std::thread([this] { fabric_main(); });
}

void LineCard::stop() {
  if (!running()) return;
  running_.store(false, std::memory_order_release);
  for (auto& w : workers_) w.join();
  workers_.clear();
  fabric_thread_.join();
}

void LineCard::worker_main(unsigned i) {
  Channel& ch = *channels_[i];
  while (running_.load(std::memory_order_acquire)) {
    if (!ch.step()) std::this_thread::yield();
  }
}

void LineCard::fabric_main() {
  while (running_.load(std::memory_order_acquire)) {
    if (fabric_round() == 0) std::this_thread::yield();
  }
  // Workers are not joined yet, but they only *push* to egress rings; one
  // final round drains what was already visible at shutdown.
  fabric_round();
}

}  // namespace p5::linecard
