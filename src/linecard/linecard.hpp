// The multi-channel line-card runtime: N independent P5 <-> SDH/SONET
// tributaries stitched together by a MAPOS frame switch (RFC 2171) acting as
// the card's fabric, with one extra switch port as the uplink.
//
//   source rings -> [Channel 0..N-1: P5(A) ~SONET~ P5(B)] -> egress rings
//                          ^                                     |
//                          |          MAPOS fabric               v
//                    fabric rings <- (switch, NSP) <- zero-alloc re-frame
//                                        |
//                                     uplink sink
//
// Frames delivered by a channel are re-framed (via the channel's FrameArena,
// so the hot path allocates nothing) and switched by MAPOS destination
// address: the default destination is the uplink port (aggregation, the
// line-card's normal job), but a descriptor can carry another channel's
// NSP-assigned address for hairpin channel-to-channel switching.
//
// Two execution modes, same data path:
//   * deterministic — step() runs every channel then one fabric round on the
//     calling thread, in a fixed order; runs are byte-exact reproducible and
//     each channel delivers exactly what a standalone P5SonetLink would.
//   * threaded — start() spawns one worker per channel plus a fabric thread;
//     every inter-thread edge is an SPSC ring, the MAPOS switch and all
//     FrameArenas are touched only by the fabric thread, and telemetry is
//     lock-free atomics. stop() joins everything cleanly.
//
// Thread contract: inject() has one producer (the caller's thread);
// set_uplink_sink() must be called before start(); the sink runs in the
// fabric context (fabric thread in threaded mode, the step() caller in
// deterministic mode).
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "linecard/channel.hpp"
#include "linecard/telemetry.hpp"
#include "net/mapos.hpp"

namespace p5::linecard {

struct LineCardConfig {
  unsigned channels = 4;
  /// Per-channel template; channel i's optical line runs with
  /// `channel.line.seed + 2*i` so tributaries see independent noise.
  ChannelConfig channel;
};

class LineCard {
 public:
  explicit LineCard(const LineCardConfig& cfg);
  ~LineCard();
  LineCard(const LineCard&) = delete;
  LineCard& operator=(const LineCard&) = delete;

  [[nodiscard]] unsigned channels() const { return static_cast<unsigned>(channels_.size()); }
  [[nodiscard]] Channel& channel(unsigned i) { return *channels_[i]; }
  [[nodiscard]] Telemetry& telemetry() { return telemetry_; }
  [[nodiscard]] const net::MaposSwitchStats& fabric_stats() const { return fabric_.stats(); }

  /// NSP-assigned MAPOS unicast address of tributary i / the uplink port.
  [[nodiscard]] u8 channel_address(unsigned i) const;
  [[nodiscard]] u8 uplink_address() const;

  /// Called for every frame that reaches the uplink port; `channel` is the
  /// tributary it emerged from. Runs in the fabric context — set before
  /// start().
  void set_uplink_sink(std::function<void(unsigned channel, const net::MaposNode::Received&)> s) {
    uplink_sink_ = std::move(s);
  }

  /// Offer a descriptor to channel `ch`'s source ring (non-blocking; false
  /// and a counted stall when the ring is full). Single producer: call from
  /// one thread only.
  [[nodiscard]] bool inject(unsigned ch, FrameDesc d);
  /// Blocking variant (spins until the worker frees a slot).
  void inject_blocking(unsigned ch, FrameDesc d);

  // ---- deterministic single-threaded mode ----
  /// One round: each channel's step() in index order, then one fabric round.
  /// Must not be called while threaded mode is running.
  bool step();
  /// step() until a full round does no work, up to `max_steps`; returns the
  /// number of rounds executed.
  u64 run_until_idle(u64 max_steps = 1'000'000);

  // ---- threaded mode ----
  void start();
  void stop();
  [[nodiscard]] bool running() const { return running_.load(std::memory_order_acquire); }

 private:
  std::size_t fabric_round();
  void worker_main(unsigned i);
  void fabric_main();

  LineCardConfig cfg_;
  Telemetry telemetry_;
  net::MaposSwitch fabric_;  ///< ports 0..N-1 = tributaries, port N = uplink
  std::vector<std::unique_ptr<Channel>> channels_;
  std::vector<std::unique_ptr<net::MaposNode>> nodes_;  ///< fabric-side per channel
  std::unique_ptr<net::MaposNode> uplink_;
  std::function<void(unsigned, const net::MaposNode::Received&)> uplink_sink_;
  unsigned fabric_current_channel_ = 0;  ///< fabric context only
  // Reusable burst scratch (fabric context only): descriptors popped this
  // round and their BatchFrame views; capacity stabilises after one burst.
  std::vector<FrameDesc> fabric_batch_;
  std::vector<hdlc::BatchFrame> fabric_batch_frames_;

  std::atomic<bool> running_{false};
  std::vector<std::thread> workers_;
  std::thread fabric_thread_;
};

}  // namespace p5::linecard
