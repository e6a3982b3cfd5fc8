// Per-connection transport telemetry: one writer (the event-loop thread),
// read from any thread. Updates, snapshot and merge follow the one counter
// model in common/counters.hpp.
//
// Loss accounting is exact at the wire-chunk level:
//
//     frames_in == frames_out + frames_lost + (chunks still queued)
//
// Every chunk the tunnel accepts from its bound object (frames_in) is
// either fully written to the socket (frames_out) or counted lost
// (frames_lost: dropped with the write queue at disconnect, or a datagram
// the kernel refused). Once the connection is drained the queue term is
// zero and the invariant holds with equality — the transport never loses a
// chunk silently.
#pragma once

#include <cstddef>

#include "common/counters.hpp"
#include "common/types.hpp"

namespace p5::transport {

/// Plain-value copy of one connection's counters (or an aggregate roll-up).
struct TransportSnapshot {
  // TX path: bound object -> send queue -> wire.
  u64 frames_in = 0;   ///< chunks accepted for transmission
  u64 bytes_in = 0;    ///< their payload octets (length prefix excluded)
  u64 frames_out = 0;  ///< chunks fully written to the socket
  u64 bytes_out = 0;
  u64 frames_lost = 0;  ///< accepted chunks dropped before full transmission

  // RX path: wire -> bound object.
  u64 frames_rcvd = 0;
  u64 bytes_rcvd = 0;
  u64 rx_drops = 0;  ///< received chunks the bound object refused (ring full)

  // Connection lifecycle.
  u64 connects = 0;       ///< first-time establishments (connect or accept)
  u64 reconnects = 0;     ///< re-establishments after a drop
  u64 disconnects = 0;    ///< connection losses (error, EOF, kill)
  u64 backoff_waits = 0;  ///< reconnect backoff sleeps taken

  // Flow control and framing health.
  u64 backpressure_stalls = 0;  ///< pump deferred: write queue at watermark
  u64 send_queue_hwm = 0;       ///< peak queued send bytes observed
  u64 proto_errors = 0;         ///< bad length prefixes / unusable datagrams

  // Batched-I/O amortisation (scatter-gather TX, recvmmsg RX, ChunkPool).
  u64 tx_syscalls = 0;    ///< send/sendmsg/sendmmsg calls that reached the kernel
  u64 rx_syscalls = 0;    ///< recv/recvmmsg calls that returned data
  u64 pool_recycled = 0;  ///< chunk buffers served from the pool free list

  /// Wire chunks moved per socket syscall, both directions — the figure the
  /// batching exists to raise (1.0 is the old frame-at-a-time transport).
  [[nodiscard]] double frames_per_syscall() const {
    const u64 io = tx_syscalls + rx_syscalls;
    const u64 frames = frames_out + frames_rcvd;
    return io == 0 ? 0.0 : static_cast<double>(frames) / static_cast<double>(io);
  }

  /// The chunk ledger, exact once the connection is drained (header comment).
  [[nodiscard]] bool ledger_exact() const { return frames_in == frames_out + frames_lost; }

  bool operator==(const TransportSnapshot&) const = default;
  TransportSnapshot& operator+=(const TransportSnapshot& o);
};

/// TransportSnapshot's live mirror; the send-queue high-water mark merges by
/// max (common/counters.hpp).
using TransportCounters = CounterBlock<TransportSnapshot, &TransportSnapshot::send_queue_hwm>;

inline TransportSnapshot& TransportSnapshot::operator+=(const TransportSnapshot& o) {
  return TransportCounters::merge(*this, o);
}

/// Live counters for one tunnel/connection. Single writer (the loop
/// thread), any number of readers.
class TransportTelemetry {
  using S = TransportSnapshot;

 public:
  void on_send_enqueued(std::size_t payload_bytes) {
    c_.add<&S::frames_in>(1);
    c_.add<&S::bytes_in>(payload_bytes);
  }
  void on_sent(std::size_t payload_bytes) {
    c_.add<&S::frames_out>(1);
    c_.add<&S::bytes_out>(payload_bytes);
  }
  void add_frames_lost(u64 n) {
    if (n) c_.add<&S::frames_lost>(n);
  }
  void on_received(std::size_t payload_bytes) {
    c_.add<&S::frames_rcvd>(1);
    c_.add<&S::bytes_rcvd>(payload_bytes);
  }
  void rx_drop() { c_.add<&S::rx_drops>(1); }
  void on_connect(bool reconnect) {
    reconnect ? c_.add<&S::reconnects>(1) : c_.add<&S::connects>(1);
  }
  void on_disconnect() { c_.add<&S::disconnects>(1); }
  void backoff_wait() { c_.add<&S::backoff_waits>(1); }
  void backpressure_stall() { c_.add<&S::backpressure_stalls>(1); }
  void note_queue_depth(std::size_t bytes) { c_.raise<&S::send_queue_hwm>(bytes); }
  void proto_error() { c_.add<&S::proto_errors>(1); }
  void tx_syscall() { c_.add<&S::tx_syscalls>(1); }
  void rx_syscall() { c_.add<&S::rx_syscalls>(1); }
  void pool_recycled() { c_.add<&S::pool_recycled>(1); }

  /// Consistent point-in-time copy (common/counters.hpp).
  [[nodiscard]] TransportSnapshot snapshot() const { return c_.snapshot(); }

 private:
  TransportCounters c_;
};

}  // namespace p5::transport
