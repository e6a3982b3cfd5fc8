// The one counter model behind every live telemetry block (the software
// tiers' counterpart of the P5's Protocol OAM counter file).
//
// A snapshot struct made only of u64 fields (ChannelSnapshot,
// TransportSnapshot, TenantSnapshot, ...) names the counters. Its live mirror
// is a CounterBlock: one std::atomic<u64> per field, moved by the owning
// class's named events and read from any thread through snapshot(). The rules
// every block shares:
//   * every update is relaxed: add() is a fetch_add, so a block with several
//     writers (a tenant's sessions on many shards) stays exact, and a
//     single-writer block pays one locked add per counter; raise() keeps a
//     high-water mark with a CAS loop; store() mirrors a total that is
//     accumulated elsewhere;
//   * snapshot() reads the block until two consecutive reads agree (bounded
//     retries; the counters are monotonic, so even the fallback is a valid
//     momentary mixture, never garbage);
//   * merge(), the body of each snapshot's operator+=, sums flow counters and
//     takes the max of high-water marks (the block's Peaks).
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <type_traits>
#include <utility>

#include "common/types.hpp"

namespace p5 {

namespace counters_detail {

template <class S, std::size_t... I>
constexpr bool inits_from_u64s(std::index_sequence<I...>) {
  return requires(u64 v) { S{(static_cast<void>(I), v)...}; };
}

}  // namespace counters_detail

/// An aggregate of u64 fields only: as many fields as its size holds u64s,
/// each initialisable from a u64 without narrowing. Such a struct is
/// bit-for-bit an array of u64 in declaration order.
template <class S>
concept CounterStruct =
    std::is_aggregate_v<S> && std::is_trivially_copyable_v<S> && sizeof(S) % sizeof(u64) == 0 &&
    counters_detail::inits_from_u64s<S>(std::make_index_sequence<sizeof(S) / sizeof(u64)>{});

/// Live counters mirroring the snapshot struct S. `Peaks` lists S's
/// high-water marks: they move only by raise() and merge by max. Every other
/// field moves by add() or store() and merges by sum.
template <CounterStruct S, u64 S::*... Peaks>
class CounterBlock {
  static constexpr std::size_t kFields = sizeof(S) / sizeof(u64);
  using Words = std::array<u64, kFields>;

  /// Position of field `f` in S, found by reading it out of an S whose
  /// words hold their own indices.
  static consteval std::size_t index_of(u64 S::*f) {
    Words iota{};
    for (std::size_t i = 0; i < kFields; ++i) iota[i] = i;
    return static_cast<std::size_t>(std::bit_cast<S>(iota).*f);
  }
  template <u64 S::*F>
  static constexpr bool kIsPeak = ((F == Peaks) || ...);

 public:
  template <u64 S::*F>
  void add(u64 n) {
    static_assert(!kIsPeak<F>, "a high-water mark moves by raise()");
    cells_[index_of(F)].fetch_add(n, std::memory_order_relaxed);
  }
  template <u64 S::*F>
  void store(u64 v) {
    static_assert(!kIsPeak<F>, "a high-water mark moves by raise()");
    cells_[index_of(F)].store(v, std::memory_order_relaxed);
  }
  template <u64 S::*F>
  void raise(u64 v) {
    static_assert(kIsPeak<F>, "only a field listed in Peaks is a high-water mark");
    std::atomic<u64>& hwm = cells_[index_of(F)];
    u64 cur = hwm.load(std::memory_order_relaxed);
    while (v > cur && !hwm.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  /// Consistent point-in-time copy (see the header comment).
  [[nodiscard]] S snapshot() const {
    Words prev = read();
    for (int attempt = 0; attempt < 8; ++attempt) {
      const Words cur = read();
      if (cur == prev) break;
      prev = cur;
    }
    return std::bit_cast<S>(prev);
  }

  /// `into += from`: sums, except Peaks, which keep the larger value.
  static S& merge(S& into, const S& from) {
    Words a = std::bit_cast<Words>(into);
    const Words b = std::bit_cast<Words>(from);
    for (std::size_t i = 0; i < kFields; ++i) {
      const bool peak = ((i == index_of(Peaks)) || ...);
      a[i] = peak ? std::max(a[i], b[i]) : a[i] + b[i];
    }
    into = std::bit_cast<S>(a);
    return into;
  }

 private:
  [[nodiscard]] Words read() const {
    Words w{};
    for (std::size_t i = 0; i < kFields; ++i) w[i] = cells_[i].load(std::memory_order_relaxed);
    return w;
  }

  std::array<std::atomic<u64>, kFields> cells_{};
};

}  // namespace p5
