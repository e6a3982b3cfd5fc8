#include "p5/shared_memory.hpp"

namespace p5::core {

bool SharedMemory::post_tx(TxRequest req) {
  const std::size_t bytes = req.payload.size();
  if (!tx_has_room(bytes)) {
    ++stats_.tx_rejected;
    return false;
  }
  tx_bytes_ += bytes;
  stats_.tx_peak_bytes = std::max(stats_.tx_peak_bytes, tx_bytes_);
  tx_ring_.push_back(std::move(req));
  ++stats_.tx_posted;
  return true;
}

std::optional<TxRequest> SharedMemory::fetch_tx() {
  if (tx_ring_.empty()) return std::nullopt;
  TxRequest req = std::move(tx_ring_.front());
  tx_ring_.pop_front();
  tx_bytes_ -= req.payload.size();
  ++stats_.tx_completed;
  return req;
}

bool SharedMemory::store_rx(RxDelivery d) {
  const std::size_t bytes = d.payload.size();
  if (rx_ring_.size() >= kRingEntries || rx_bytes_ + bytes > kPoolBytes) {
    ++stats_.rx_dropped;
    return false;
  }
  rx_bytes_ += bytes;
  stats_.rx_peak_bytes = std::max(stats_.rx_peak_bytes, rx_bytes_);
  rx_ring_.push_back(std::move(d));
  ++stats_.rx_stored;
  return true;
}

std::optional<RxDelivery> SharedMemory::reap_rx() {
  if (rx_ring_.empty()) return std::nullopt;
  RxDelivery d = std::move(rx_ring_.front());
  rx_ring_.pop_front();
  rx_bytes_ -= d.payload.size();
  ++stats_.rx_reaped;
  return d;
}

}  // namespace p5::core
