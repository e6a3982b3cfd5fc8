// Framed, nonblocking connections over the event loop.
//
// Two concrete carriers share one interface:
//   * StreamConn — TCP with a u32 big-endian length prefix per chunk and a
//     bounded write queue. The queue is the backpressure coupling point: the
//     tunnel stops pulling from its SpscRing-fed binding while queued bytes
//     sit at the watermark, so socket stalls propagate back into the same
//     flow control the line card already uses. The queue holds pooled
//     ChunkRefs and flushes through one scatter-gather sendmsg spanning up
//     to IOV_MAX queued chunks, so a pump slice's worth of frames shares a
//     single syscall.
//   * DgramConn — UDP, one SONET chunk per datagram. No delivery promise; a
//     datagram the kernel refuses is counted lost on the spot, and the
//     x^43+1 self-synchronous scrambler lets the far deframer ride through
//     the gap. Sends stage into a small pooled batch flushed via sendmmsg;
//     receives drain the socket kDgramBatch datagrams per recvmmsg.
//
// Each carrier has one send path and one receive path: send_frame stages a
// pooled chunk that flush() (or the next writability event) writes with the
// rest of the slice, and every parse/recv burst reaches the owner as one
// on_frames call.
//
// Callback discipline (the rules that keep use-after-free away):
//   * A Conn never destroys itself; on_closed is invoked from the conn's own
//     stack, so the owner must not reset its pointer there — it swaps the
//     object out at the next establishment or in its destructor.
//   * close() is idempotent and deregisters from the loop immediately;
//     no callback fires after it returns.
//   * on_frames spans (and the BytesViews inside) are valid only for the
//     duration of the callback; they alias the conn's RX buffer.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "transport/chunk_pool.hpp"
#include "transport/event_loop.hpp"
#include "transport/socket.hpp"
#include "transport/stats.hpp"

namespace p5::transport {

struct ConnConfig {
  std::size_t send_watermark_bytes = 256 * 1024;  ///< queue cap before stalls
  int so_sndbuf_bytes = 0;  ///< setsockopt(SO_SNDBUF) at adoption; 0 = kernel default
};

/// One framed bidirectional connection bound to an EventLoop.
class Conn {
 public:
  using FramesCallback = std::function<void(std::span<const BytesView>)>;

  Conn(EventLoop& loop, TransportTelemetry& stats, ConnConfig cfg)
      : loop_(loop), stats_(stats), cfg_(cfg) {}
  virtual ~Conn() = default;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  /// Accept one chunk for transmission. Returns false (without consuming the
  /// chunk into the counters) when the connection cannot take it — closed, or
  /// the write queue already at its watermark.
  virtual bool send_frame(BytesView payload) = 0;

  /// Push staged TX to the socket now. Pumps call this once at the end of a
  /// fill slice so the whole burst shares one sendmsg/sendmmsg; between
  /// explicit flushes the event loop's writability events drain the queue.
  virtual void flush() {}

  [[nodiscard]] virtual bool open() const = 0;
  /// True when send_frame would accept a chunk right now.
  [[nodiscard]] virtual bool writable() const = 0;
  [[nodiscard]] virtual std::size_t queued_bytes() const { return 0; }
  [[nodiscard]] virtual std::size_t queued_frames() const { return 0; }

  /// Graceful shutdown: flush what is queued, then half-close the send side
  /// and fire on_drained. Datagram carriers drain instantly.
  virtual void request_drain() = 0;
  /// Hard close: deregister, count still-queued chunks as lost, fire
  /// on_closed (unless already closed).
  virtual void close() = 0;

  /// One call per parse/recv burst, with every chunk of the burst in order.
  void set_on_frames(FramesCallback cb) { on_frames_ = std::move(cb); }
  void set_on_open(std::function<void()> cb) { on_open_ = std::move(cb); }
  void set_on_closed(std::function<void()> cb) { on_closed_ = std::move(cb); }
  void set_on_drained(std::function<void()> cb) { on_drained_ = std::move(cb); }

 protected:
  /// Hand a parsed burst to on_frames. Returns false when the callback
  /// closed the connection.
  bool deliver_frames(std::span<const BytesView> frames);

  EventLoop& loop_;
  TransportTelemetry& stats_;
  ConnConfig cfg_;
  FramesCallback on_frames_;
  std::function<void()> on_open_;
  std::function<void()> on_closed_;
  std::function<void()> on_drained_;
};

/// TCP carrier: [u32 BE length][payload] per chunk, write-queue backpressure.
class StreamConn final : public Conn {
 public:
  /// Takes ownership of `fd`. `connecting` marks an EINPROGRESS socket: the
  /// conn watches for writability, checks SO_ERROR, then fires on_open (or
  /// on_closed if the handshake failed). Accepted / already-established
  /// sockets pass false and are open immediately; on_open is deferred
  /// through a zero-delay timer so the owner can finish wiring callbacks.
  /// `pool`, when given, must outlive the conn (a Tunnel or Shard sharing
  /// one pool across reconnects); nullptr gets a private pool.
  StreamConn(EventLoop& loop, TransportTelemetry& stats, ConnConfig cfg, Fd fd, bool connecting,
             ChunkPool* pool = nullptr);
  ~StreamConn() override { close_internal(false); }

  bool send_frame(BytesView payload) override;
  void flush() override;
  [[nodiscard]] bool open() const override { return fd_.valid() && established_; }
  [[nodiscard]] bool writable() const override {
    return open() && !draining_ && queued_bytes_ < cfg_.send_watermark_bytes;
  }
  [[nodiscard]] std::size_t queued_bytes() const override { return queued_bytes_; }
  [[nodiscard]] std::size_t queued_frames() const override { return queue_.size(); }
  void request_drain() override;
  void close() override { close_internal(true); }

  [[nodiscard]] int fd() const { return fd_.get(); }

 private:
  void handle_events(u32 events);
  void finish_connect();
  void flush_write();
  void read_some();
  void ensure_rx_room();
  bool parse_frames();
  void update_interest();
  void close_internal(bool notify);

  Fd fd_;
  EventLoop::TimerId open_timer_ = 0;  ///< deferred on_open; cancelled on close
  bool established_ = false;
  bool draining_ = false;
  bool drained_notified_ = false;
  bool closing_ = false;  ///< re-entrancy latch for close_internal

  ChunkPool* pool_ = nullptr;            ///< where send_frame gets its buffers
  std::unique_ptr<ChunkPool> own_pool_;  ///< fallback when none was shared
  std::deque<ChunkRef> queue_;
  std::size_t head_off_ = 0;  ///< octets of the queue head already written
  std::size_t queued_bytes_ = 0;

  // RX accumulator: rx_buf_.size() is allocated room, live octets sit in
  // [rx_off_, rx_len_). The cursor replaces erase-front compaction — the
  // buffer is memmoved only when the dead prefix passes a threshold or room
  // runs out, and fully-parsed bursts reset the cursors for free.
  Bytes rx_buf_;
  std::size_t rx_off_ = 0;
  std::size_t rx_len_ = 0;
  std::vector<BytesView> frame_views_;  ///< scratch for one parse burst
};

/// UDP carrier: one chunk per datagram, fire-and-forget.
class DgramConn final : public Conn {
 public:
  /// `learn_peer` is the listener side: the socket is bound but unconnected,
  /// and the first datagram's source becomes the send destination. `pool`
  /// as for StreamConn.
  DgramConn(EventLoop& loop, TransportTelemetry& stats, ConnConfig cfg, Fd fd, bool learn_peer,
            ChunkPool* pool = nullptr);
  ~DgramConn() override { close_internal(false); }

  bool send_frame(BytesView payload) override;
  void flush() override;
  [[nodiscard]] bool open() const override { return fd_.valid(); }
  [[nodiscard]] bool writable() const override { return open() && has_peer_; }
  [[nodiscard]] std::size_t queued_bytes() const override { return stage_bytes_; }
  [[nodiscard]] std::size_t queued_frames() const override { return stage_.size(); }
  void request_drain() override;
  void close() override { close_internal(true); }

  [[nodiscard]] int fd() const { return fd_.get(); }
  [[nodiscard]] bool has_peer() const { return has_peer_; }

  /// Datagrams staged / socket slots drained per mmsg syscall.
  static constexpr std::size_t kDgramBatch = 16;

 private:
  void read_some();
  void flush_stage();
  void update_interest();
  void close_internal(bool notify);

  Fd fd_;
  EventLoop::TimerId open_timer_ = 0;  ///< deferred on_open; cancelled on close
  bool has_peer_ = false;
  bool closing_ = false;

  ChunkPool* pool_ = nullptr;
  std::unique_ptr<ChunkPool> own_pool_;
  std::vector<ChunkRef> stage_;  ///< datagrams awaiting one sendmmsg
  std::size_t stage_bytes_ = 0;

  std::vector<Bytes> rx_slots_;         ///< recvmmsg slots, kDgramBatch x 64 KiB
  std::vector<BytesView> frame_views_;  ///< scratch for one recv burst
};

}  // namespace p5::transport
