// Shared packet memory (paper Figure 2: the "Shared Memory" block between
// the host microprocessor and the Transmitter/Receiver).
//
// Datagrams are buffered here before transmission and after reception; the
// host and the datapath exchange them through two descriptor rings with a
// byte-budget pool per direction. The model accounts for exactly the things
// a driver author cares about: ring/pool exhaustion (post_tx fails, receive
// frames drop), occupancy high-water marks, and completion counts that feed
// the OAM's TxDone interrupt.
#pragma once

#include <deque>
#include <optional>

#include "common/types.hpp"
#include "p5/control.hpp"

namespace p5::core {

struct SharedMemoryStats {
  u64 tx_posted = 0;
  u64 tx_rejected = 0;   ///< pool or ring full at post time
  u64 tx_completed = 0;  ///< fetched by the transmitter
  u64 rx_stored = 0;
  u64 rx_dropped = 0;    ///< receive pool/ring full: frame lost (counted)
  u64 rx_reaped = 0;
  std::size_t tx_peak_bytes = 0;
  std::size_t rx_peak_bytes = 0;
};

class SharedMemory {
 public:
  /// Per direction: the byte budget of the packet pool and the number of
  /// descriptor ring entries.
  static constexpr std::size_t kPoolBytes = 64 * 1024;
  static constexpr std::size_t kRingEntries = 64;

  // ---- host -> transmitter ----
  /// Queue a datagram for transmission; false when the pool/ring is full.
  [[nodiscard]] bool post_tx(TxRequest req);
  /// Would a post_tx of `payload_bytes` succeed right now? Lets callers that
  /// own their payload check before moving it in (post_tx consumes the
  /// request even when it rejects it).
  [[nodiscard]] bool tx_has_room(std::size_t payload_bytes) const {
    return tx_ring_.size() < kRingEntries && tx_bytes_ + payload_bytes <= kPoolBytes;
  }
  /// Device side: take the next frame to transmit.
  [[nodiscard]] std::optional<TxRequest> fetch_tx();
  [[nodiscard]] std::size_t tx_pending() const { return tx_ring_.size(); }

  // ---- receiver -> host ----
  /// Device side: store a received frame; false (and counted) when full.
  bool store_rx(RxDelivery d);
  /// Host side: take the oldest received frame.
  [[nodiscard]] std::optional<RxDelivery> reap_rx();
  [[nodiscard]] std::size_t rx_pending() const { return rx_ring_.size(); }

  [[nodiscard]] const SharedMemoryStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t tx_bytes_used() const { return tx_bytes_; }
  [[nodiscard]] std::size_t rx_bytes_used() const { return rx_bytes_; }

 private:
  std::deque<TxRequest> tx_ring_;
  std::deque<RxDelivery> rx_ring_;
  std::size_t tx_bytes_ = 0;
  std::size_t rx_bytes_ = 0;
  SharedMemoryStats stats_;
};

}  // namespace p5::core
