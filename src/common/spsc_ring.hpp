// Fixed-capacity lock-free single-producer/single-consumer ring.
//
// Every inter-thread edge in the repo is single-producer/single-consumer by
// construction — the line card's source/fabric/egress rings between traffic
// sources, channel workers and the fabric, and a server shard's adoption and
// uplink rings — so the classic two-index ring suffices: the producer owns `tail_`, the consumer owns `head_`, and
// each side publishes its index with release stores the other side reads
// with acquire loads. Cached copies of the remote index keep the fast path
// free of cross-core traffic (an index reload only happens when the cached
// value says the ring looks full/empty).
//
// Capacity is rounded up to a power of two so the slot index is a mask, and
// the indices are free-running 64-bit counters (no wrap ambiguity within any
// realistic run). Failed pushes are counted — that counter *is* the
// backpressure signal the telemetry reports as ring-full stalls.
#pragma once

#include <atomic>
#include <cstddef>
#include <optional>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace p5 {

/// Alignment that keeps producer-side and consumer-side state on distinct
/// cache lines (no false sharing between the two threads).
inline constexpr std::size_t kCacheLineBytes = 64;

template <typename T>
class SpscRing {
 public:
  /// Capacity is rounded up to the next power of two (minimum 2).
  explicit SpscRing(std::size_t min_capacity) {
    std::size_t cap = 2;
    while (cap < min_capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  /// Producer side. Moves from `v` only on success; a failed push leaves `v`
  /// intact and increments the stall counter.
  [[nodiscard]] bool try_push(T&& v) {
    const u64 tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_cache_ >= capacity()) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ >= capacity()) {
        push_stalls_.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
    }
    slots_[tail & mask_] = std::move(v);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  [[nodiscard]] bool try_push(const T& v) {
    T copy = v;
    return try_push(std::move(copy));
  }

  /// Blocking producer push: spins (yielding) until space frees up. Each
  /// failed attempt counts as a stall, so a long block is visible in the
  /// backpressure accounting.
  void push(T v) {
    while (!try_push(std::move(v))) std::this_thread::yield();
  }

  /// Consumer side.
  [[nodiscard]] std::optional<T> try_pop() {
    const u64 head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail_cache_) return std::nullopt;
    }
    std::optional<T> v(std::move(slots_[head & mask_]));
    head_.store(head + 1, std::memory_order_release);
    return v;
  }

  /// Consumer side, bounded batch: pop up to `max` items, handing each to
  /// `fn` by rvalue. Returns the number consumed. The bound keeps a caller's
  /// slice a slice — a server shard drains its adoption/handoff rings with
  /// this without letting a hot producer starve the rest of the loop.
  template <typename Fn>
  std::size_t drain(std::size_t max, Fn&& fn) {
    std::size_t n = 0;
    while (n < max) {
      auto v = try_pop();
      if (!v) break;
      fn(std::move(*v));
      ++n;
    }
    return n;
  }

  /// Blocking consumer pop: spins (yielding) until an item arrives.
  [[nodiscard]] T pop() {
    for (;;) {
      if (auto v = try_pop()) return std::move(*v);
      pop_stalls_.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();
    }
  }

  /// Occupancy as seen from any thread. Approximate by nature (the two
  /// indices are read at slightly different instants) but never negative and
  /// exact whenever the ring is quiescent — good enough for high-water marks.
  [[nodiscard]] std::size_t size_approx() const {
    const u64 t = tail_.load(std::memory_order_acquire);
    const u64 h = head_.load(std::memory_order_acquire);
    return t > h ? static_cast<std::size_t>(t - h) : 0;
  }

  [[nodiscard]] bool empty() const { return size_approx() == 0; }

  /// Failed push attempts (ring full at that instant) — the backpressure
  /// signal. Blocking pushes add one per retry, so the count scales with
  /// time spent blocked, not just with blocked frames.
  [[nodiscard]] u64 push_stalls() const { return push_stalls_.load(std::memory_order_relaxed); }
  /// Empty-pop spins inside blocking pop() (consumer starvation).
  [[nodiscard]] u64 pop_stalls() const { return pop_stalls_.load(std::memory_order_relaxed); }

 private:
  std::vector<T> slots_;
  std::size_t mask_ = 0;

  alignas(kCacheLineBytes) std::atomic<u64> head_{0};  ///< consumer-owned index
  alignas(kCacheLineBytes) std::atomic<u64> tail_{0};  ///< producer-owned index
  alignas(kCacheLineBytes) u64 head_cache_ = 0;        ///< producer's view of head_
  alignas(kCacheLineBytes) u64 tail_cache_ = 0;        ///< consumer's view of tail_
  alignas(kCacheLineBytes) std::atomic<u64> push_stalls_{0};
  std::atomic<u64> pop_stalls_{0};
};

}  // namespace p5
