// ChunkPool: a free-list of wire-chunk buffers shared by conns, tunnels,
// and server sessions.
//
// The transport hot path used to pay one fresh heap Bytes per chunk on TX
// (send_frame allocated, the socket consumed, the vector died). The pool
// closes that loop: acquire() hands out a recycled buffer whose capacity
// survives from the last chunk of similar size, so steady-state traffic
// allocates nothing. A chunk holds the length prefix and payload in one
// contiguous buffer — send_frame writes it once and the scatter-gather
// flush sends it straight from the pool, zero further copies.
//
// Lifetime rules (DESIGN.md §15):
//   * ChunkRef is the only handle and it is move-only: the one ref that
//     holds a buffer returns it to the free list. Chunks never cross threads
//     (each conn lives on one EventLoop thread), matching the single-writer
//     discipline of TransportTelemetry.
//   * The pool may die before its chunks: a Tunnel teardown can race a
//     queued chunk held by a deferred close. The free list lives in a
//     shared core; once the pool closes, late releases simply free instead
//     of recycling. No chunk is ever leaked or double-freed either way.
//   * The free list is bounded (max_free) and oversize buffers are trimmed
//     back to retain_capacity on release, so one 4 MB frame doesn't pin
//     megabytes behind a pool that then moves small chunks forever.
//
// Counters are relaxed atomics so stats printers on other threads can read
// them; all structural mutation stays on the owning loop thread.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace p5::transport {

class TransportTelemetry;
class ChunkPool;

/// Owning, move-only handle to one pooled buffer. Default-constructed refs
/// are empty; data() may only be called on a non-empty ref.
class ChunkRef {
 public:
  ChunkRef() = default;
  ChunkRef(const ChunkRef&) = delete;
  ChunkRef& operator=(const ChunkRef&) = delete;
  ChunkRef(ChunkRef&& o) noexcept : c_(std::exchange(o.c_, nullptr)) {}
  ChunkRef& operator=(ChunkRef&& o) noexcept {
    if (this != &o) {
      release();
      c_ = std::exchange(o.c_, nullptr);
    }
    return *this;
  }
  ~ChunkRef() { release(); }

  [[nodiscard]] explicit operator bool() const { return c_ != nullptr; }
  [[nodiscard]] Bytes& data();
  [[nodiscard]] const Bytes& data() const;
  /// The full wire image (for StreamConn chunks: length prefix + payload).
  [[nodiscard]] BytesView view() const;
  void reset() { release(); }

 private:
  friend class ChunkPool;
  struct Chunk;
  explicit ChunkRef(Chunk* c) : c_(c) {}
  void release();
  Chunk* c_ = nullptr;
};

class ChunkPool {
 public:
  struct Config {
    std::size_t max_free = 256;                  ///< free-list buffers retained
    std::size_t retain_capacity = 256 * 1024;    ///< trim buffers grown past this
  };
  /// Point-in-time counter copy; `outstanding` is chunks held by a live ref.
  struct Counters {
    u64 allocated = 0;  ///< fresh heap buffers ever created
    u64 recycled = 0;   ///< acquires served from the free list
    u64 outstanding = 0;
  };

  /// `tel`, when set, receives pool_recycled() ticks so the reuse rate shows
  /// up in the transport telemetry next to the syscall counters.
  ChunkPool();
  explicit ChunkPool(TransportTelemetry* tel);
  ChunkPool(TransportTelemetry* tel, Config cfg);
  ~ChunkPool();
  ChunkPool(const ChunkPool&) = delete;
  ChunkPool& operator=(const ChunkPool&) = delete;

  /// A cleared buffer with at least `reserve_bytes` capacity.
  [[nodiscard]] ChunkRef acquire(std::size_t reserve_bytes);
  [[nodiscard]] Counters counters() const;

 private:
  friend class ChunkRef;
  struct Core;
  std::shared_ptr<Core> core_;
};

}  // namespace p5::transport
