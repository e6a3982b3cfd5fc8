// Tunnel: binds one side of a PPP-over-SONET simulation to a real socket so
// the other side can live in a different process.
//
// The bound object is abstracted as a TunnelBinding — three TX hooks and
// one RX hook — with one stock flavour, endpoint(): either device tier's
// SonetEndpoint. Chunks are whole scrambled STS-Nc frames; pull is gated by
// the endpoint's exact tx_pending(): frames go out while a PPP frame's
// octets (up to its closing flag) are still inside the device, and never as
// pure flag fill. Callers may wrap the hooks (a benchmark times them, a
// test substitutes a firehose).
//
// Reconnect state machine (connector side):
//
//   kIdle -> kConnecting -> kConnected -> (loss) -> kBackoff -> kConnecting
//                \-> (refused) -> kBackoff -^            \-> budget spent
//                                                            -> kFailed
//   kConnected -> request_drain() -> kDraining -> kClosed
//
// Backoff is capped exponential with seeded jitter; a successful
// establishment resets the delay. The listener side stays in kListening
// between peers and adopts each new accept (latest wins).
//
// All Tunnel methods are loop-context only. Connection callbacks never
// destroy the connection from its own stack: teardown is bounced through a
// zero-delay timer, so the object that invoked us finishes its slice first.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "transport/conn.hpp"
#include "transport/event_loop.hpp"

namespace p5::core {
class SonetEndpoint;
}

namespace p5::transport {

/// The hooks a Tunnel drives. `pull` returns the next chunk to transmit
/// (empty = nothing pending); `pull_raw`, when present, produces a chunk
/// unconditionally (keepalive fill for carriers that can always emit, like a
/// SONET transmitter); `ready` predicts whether pull would produce;
/// `push_batch` takes a whole received burst in one call and returns how
/// many chunks the bound object accepted (refusals, ring full for example,
/// are counted as rx drops regardless of position).
struct TunnelBinding {
  std::function<Bytes()> pull;
  std::function<Bytes()> pull_raw;
  std::function<bool()> ready;
  std::function<std::size_t(std::span<const BytesView>)> push_batch;

  /// Bind either device tier: cycle-accurate P5SonetEndpoint or the batch
  /// FastP5Endpoint — the binding only touches the SonetEndpoint surface.
  static TunnelBinding endpoint(core::SonetEndpoint& ep);
};

struct TunnelConfig {
  std::string host = "127.0.0.1";
  u16 port = 0;         ///< 0 with listen: kernel picks; read bound_port()
  bool listen = false;  ///< accept one peer vs. dial out
  bool udp = false;     ///< datagram carrier instead of stream

  u64 backoff_initial_ms = 50;
  u64 backoff_max_ms = 2000;
  u64 backoff_budget_ms = 0;  ///< cumulative backoff before kFailed; 0 = keep trying

  u64 keepalive_ms = 0;  ///< pull_raw fill when TX idles this long; 0 = off

  std::size_t frames_per_pump = 8;  ///< TX chunks per pump() slice
  ConnConfig conn;                  ///< watermark / socket buffer
  u64 seed = 0x9E3779B97F4A7C15ull;  ///< backoff jitter stream
};

enum class TunnelState : u8 {
  kIdle,        ///< constructed, start() not called
  kListening,   ///< waiting for a peer
  kConnecting,  ///< TCP handshake in flight
  kBackoff,     ///< waiting out a reconnect delay
  kConnected,   ///< chunks flowing
  kDraining,    ///< flushing the send queue before goodbye
  kClosed,      ///< drained and done
  kFailed,      ///< reconnect budget exhausted
};

[[nodiscard]] const char* to_string(TunnelState s);

class Tunnel {
 public:
  Tunnel(EventLoop& loop, TunnelBinding binding, TunnelConfig cfg);
  ~Tunnel();
  Tunnel(const Tunnel&) = delete;
  Tunnel& operator=(const Tunnel&) = delete;

  void start();

  /// One TX slice: move up to frames_per_pump chunks from the binding into
  /// the connection — stopping (and counting a backpressure stall) the
  /// moment the write queue hits its watermark. Returns chunks handed to the
  /// connection.
  std::size_t pump();

  /// Graceful goodbye: stop pulling, flush the queue, half-close, kClosed.
  void request_drain();

  /// Test hook: sever the current connection as if the peer died. The
  /// reconnect machinery reacts exactly as for a real loss.
  void kill_connection();

  [[nodiscard]] TunnelState state() const { return state_; }
  [[nodiscard]] bool established() const { return state_ == TunnelState::kConnected; }
  [[nodiscard]] bool finished() const {
    return state_ == TunnelState::kClosed || state_ == TunnelState::kFailed;
  }
  /// Listener: the port actually bound (resolves port 0).
  [[nodiscard]] u16 bound_port() const;

  [[nodiscard]] TransportSnapshot stats() const { return tel_.snapshot(); }
  [[nodiscard]] TransportTelemetry& telemetry() { return tel_; }
  /// The chunk pool every connection of this tunnel draws from — reconnects
  /// inherit the warmed free list.
  [[nodiscard]] ChunkPool::Counters pool_counters() const { return pool_.counters(); }

  /// Mutate each received chunk before it reaches the binding — the hook a
  /// testing::FaultyLine plugs into (it is directly callable). A tap that
  /// clears the chunk drops it entirely, modelling datagram loss without a
  /// lossy network.
  void set_rx_tap(std::function<void(Bytes&)> tap) { rx_tap_ = std::move(tap); }

 private:
  void begin_listen();
  void begin_connect();
  void adopt(std::unique_ptr<Conn> conn);
  void on_established();
  void on_conn_closed();
  void schedule_reconnect();
  void finish_drain();
  void deliver(std::span<const BytesView> chunks);

  EventLoop& loop_;
  TunnelBinding binding_;
  TunnelConfig cfg_;
  TransportTelemetry tel_;
  /// Shared by every conn this tunnel ever adopts; declared before conn_ so
  /// queued ChunkRefs release into a live pool at destruction.
  ChunkPool pool_{&tel_};
  Xoshiro256 rng_;
  /// Deferred-teardown timers capture this flag, not a bare `this`, so a
  /// timer that outlives the Tunnel fizzles instead of dangling.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

  TunnelState state_ = TunnelState::kIdle;
  Fd listen_fd_;
  u16 bound_port_ = 0;
  std::unique_ptr<Conn> conn_;

  bool ever_connected_ = false;
  u64 backoff_ms_ = 0;        ///< next reconnect delay (0 = fresh sequence)
  u64 backoff_spent_ms_ = 0;  ///< cumulative this outage, against budget
  u64 last_tx_ms_ = 0;        ///< keepalive reference
  std::function<void(Bytes&)> rx_tap_;
  std::vector<Bytes> tap_scratch_;       ///< tap-mutated copies, one per chunk
  std::vector<BytesView> tap_survivors_; ///< the burst minus tap-eaten chunks
};

}  // namespace p5::transport
