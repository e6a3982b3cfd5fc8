#include "transport/conn.hpp"

#include <limits.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>

#include "common/check.hpp"

namespace p5::transport {

namespace {

/// Iovecs per sendmsg: enough to drain several pump slices in one syscall
/// without building kilobyte iovec arrays on the stack. IOV_MAX is the
/// kernel's hard cap (1024 on Linux); we stay far inside it.
constexpr std::size_t kMaxIov = IOV_MAX < 64 ? IOV_MAX : 64;

/// Dead RX prefix tolerated before the live remainder is memmoved to the
/// buffer front. Below this the cursor just advances — the common case
/// (every frame parsed) resets the cursors without any copy at all.
constexpr std::size_t kRxCompactBytes = 256 * 1024;

/// Length-prefix sanity bound: a larger prefix is a protocol error, never a
/// reason to wait for gigabytes.
constexpr std::size_t kMaxFrameBytes = 4 * 1024 * 1024;

/// Octets asked of one recv().
constexpr std::size_t kReadChunkBytes = 64 * 1024;

/// RX buffer capacity kept once a burst is fully parsed, so an idle conn
/// doesn't pin megabytes.
constexpr std::size_t kRxRetainBytes = 1024 * 1024;
static_assert(kRxRetainBytes >= kReadChunkBytes);

}  // namespace

bool Conn::deliver_frames(std::span<const BytesView> frames) {
  if (!frames.empty() && on_frames_) on_frames_(frames);
  return open();
}

// ---------------------------------------------------------------- StreamConn

StreamConn::StreamConn(EventLoop& loop, TransportTelemetry& stats, ConnConfig cfg, Fd fd,
                       bool connecting, ChunkPool* pool)
    : Conn(loop, stats, cfg), fd_(std::move(fd)) {
  P5_EXPECTS(fd_.valid());
  if (pool != nullptr) {
    pool_ = pool;
  } else {
    own_pool_ = std::make_unique<ChunkPool>(&stats_);
    pool_ = own_pool_.get();
  }
  if (cfg_.so_sndbuf_bytes > 0) {
    (void)::setsockopt(fd_.get(), SOL_SOCKET, SO_SNDBUF, &cfg_.so_sndbuf_bytes, sizeof(int));
  }
  established_ = !connecting;
  loop_.add_fd(fd_.get(), connecting ? kWritable : kReadable,
               [this](u32 events) { handle_events(events); });
  if (established_) {
    // The timer must not outlive the conn: an owner may close()/destroy an
    // accepted conn (e.g. admission reject) before the zero-delay fires.
    open_timer_ = loop_.add_timer(0, [this] {
      open_timer_ = 0;
      if (open() && on_open_) on_open_();
    });
  }
}

bool StreamConn::send_frame(BytesView payload) {
  if (!writable()) return false;
  ChunkRef chunk = pool_->acquire(4 + payload.size());
  Bytes& wire = chunk.data();
  put_be32(wire, static_cast<u32>(payload.size()));
  append(wire, payload);
  queued_bytes_ += wire.size();
  queue_.push_back(std::move(chunk));
  stats_.on_send_enqueued(payload.size());
  stats_.note_queue_depth(queued_bytes_);
  // Stage: the queue drains through one scatter-gather syscall at the next
  // flush()/writability event instead of one send per chunk.
  if (queue_.size() >= kMaxIov) flush_write();
  if (open()) update_interest();
  return true;
}

void StreamConn::flush() {
  if (!open()) return;
  if (!queue_.empty()) flush_write();
  if (open()) update_interest();
}

void StreamConn::request_drain() {
  if (!open() || draining_) return;
  draining_ = true;
  flush_write();
  if (open()) update_interest();
}

void StreamConn::handle_events(u32 events) {
  if (!established_) {
    if (events & (kWritable | kIoError)) finish_connect();
    return;
  }
  if (events & kIoError) {
    close_internal(true);
    return;
  }
  if (events & kWritable) {
    flush_write();
    if (!open()) return;
  }
  if (events & kReadable) {
    read_some();
    if (!open()) return;
  }
  update_interest();
}

void StreamConn::finish_connect() {
  const int err = connect_error(fd_.get());
  if (err != 0) {
    close_internal(true);
    return;
  }
  established_ = true;
  update_interest();
  if (on_open_) on_open_();
}

void StreamConn::flush_write() {
  // One scatter-gather sendmsg spans up to kMaxIov queued chunks. A partial
  // write leaves head_off_ mid-chunk and resumes there.
  while (!queue_.empty()) {
    std::array<iovec, kMaxIov> iov;
    std::size_t n_iov = 0;
    std::size_t attempted = 0;
    std::size_t off = head_off_;
    for (const ChunkRef& c : queue_) {
      if (n_iov == kMaxIov) break;
      const Bytes& d = c.data();
      iov[n_iov].iov_base = const_cast<u8*>(d.data() + off);
      iov[n_iov].iov_len = d.size() - off;
      attempted += iov[n_iov].iov_len;
      ++n_iov;
      off = 0;
    }
    msghdr msg{};
    msg.msg_iov = iov.data();
    msg.msg_iovlen = n_iov;
    const ssize_t n = ::sendmsg(fd_.get(), &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      close_internal(true);
      return;
    }
    stats_.tx_syscall();
    std::size_t left = static_cast<std::size_t>(n);
    queued_bytes_ -= left;
    while (left > 0) {
      const Bytes& head = queue_.front().data();
      const std::size_t head_left = head.size() - head_off_;
      if (left < head_left) {  // kernel buffer full mid-chunk: resume here
        head_off_ += left;
        left = 0;
        break;
      }
      left -= head_left;
      stats_.on_sent(head.size() - 4);
      head_off_ = 0;
      queue_.pop_front();
    }
    if (static_cast<std::size_t>(n) < attempted) return;
  }
  if (draining_ && !drained_notified_) {
    drained_notified_ = true;
    (void)::shutdown(fd_.get(), SHUT_WR);
    if (on_drained_) on_drained_();
  }
}

void StreamConn::ensure_rx_room() {
  if (rx_off_ == rx_len_) {
    rx_off_ = rx_len_ = 0;
    // Fully drained: cap the capacity a large burst left behind.
    if (rx_buf_.size() > kRxRetainBytes) {
      rx_buf_.resize(kRxRetainBytes);
      rx_buf_.shrink_to_fit();
    }
  } else if (rx_off_ > 0 &&
             (rx_off_ >= kRxCompactBytes || rx_buf_.size() - rx_len_ < kReadChunkBytes)) {
    std::memmove(rx_buf_.data(), rx_buf_.data() + rx_off_, rx_len_ - rx_off_);
    rx_len_ -= rx_off_;
    rx_off_ = 0;
  }
  if (rx_buf_.size() < rx_len_ + kReadChunkBytes) {
    rx_buf_.resize(std::max(rx_len_ + kReadChunkBytes, rx_buf_.size() * 2));
  }
}

void StreamConn::read_some() {
  // Bounded burst: at most 4 slices per readable event so one fast peer
  // cannot monopolise a run_once slice.
  for (int burst = 0; burst < 4; ++burst) {
    ensure_rx_room();
    const ssize_t n = ::recv(fd_.get(), rx_buf_.data() + rx_len_, kReadChunkBytes, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      close_internal(true);
      return;
    }
    if (n == 0) {  // orderly EOF from the peer
      close_internal(true);
      return;
    }
    stats_.rx_syscall();
    rx_len_ += static_cast<std::size_t>(n);
    if (!parse_frames()) return;  // proto error / callback closed us
    if (static_cast<std::size_t>(n) < kReadChunkBytes) return;
  }
}

bool StreamConn::parse_frames() {
  frame_views_.clear();
  bool bad_length = false;
  std::size_t off = rx_off_;
  while (rx_len_ - off >= 4) {
    const u32 len = get_be32(rx_buf_, off);
    if (len > kMaxFrameBytes) {
      bad_length = true;
      break;
    }
    if (rx_len_ - off - 4 < len) break;
    stats_.on_received(len);
    frame_views_.emplace_back(rx_buf_.data() + off + 4, len);
    off += 4 + len;
  }
  rx_off_ = off;
  if (rx_off_ == rx_len_) rx_off_ = rx_len_ = 0;  // nothing left: free reset
  // The views alias rx_buf_, which nothing mutates until the callbacks
  // return (send_frame only touches the TX queue).
  if (!deliver_frames(frame_views_)) return false;
  if (bad_length) {
    stats_.proto_error();
    close_internal(true);
    return false;
  }
  return true;
}

void StreamConn::update_interest() {
  u32 interest = kReadable;
  if (!queue_.empty()) interest |= kWritable;
  loop_.modify_fd(fd_.get(), interest);
}

void StreamConn::close_internal(bool notify) {
  if (closing_ || !fd_.valid()) return;
  closing_ = true;
  if (open_timer_ != 0) {
    loop_.cancel_timer(open_timer_);
    open_timer_ = 0;
  }
  loop_.remove_fd(fd_.get());
  fd_.reset();
  // Exact loss accounting: every enqueued chunk that never made it fully
  // onto the wire (including a partially written head) is charged as lost.
  stats_.add_frames_lost(queue_.size());
  queue_.clear();
  queued_bytes_ = 0;
  head_off_ = 0;
  established_ = false;
  if (notify && on_closed_) on_closed_();
  closing_ = false;
}

// ----------------------------------------------------------------- DgramConn

DgramConn::DgramConn(EventLoop& loop, TransportTelemetry& stats, ConnConfig cfg, Fd fd,
                     bool learn_peer, ChunkPool* pool)
    : Conn(loop, stats, cfg), fd_(std::move(fd)), has_peer_(!learn_peer) {
  P5_EXPECTS(fd_.valid());
  if (pool != nullptr) {
    pool_ = pool;
  } else {
    own_pool_ = std::make_unique<ChunkPool>(&stats_);
    pool_ = own_pool_.get();
  }
  if (cfg_.so_sndbuf_bytes > 0) {
    (void)::setsockopt(fd_.get(), SOL_SOCKET, SO_SNDBUF, &cfg_.so_sndbuf_bytes, sizeof(int));
  }
  rx_slots_.resize(kDgramBatch);
  for (Bytes& slot : rx_slots_) slot.resize(65536);
  loop_.add_fd(fd_.get(), kReadable, [this](u32 events) {
    if (events & kIoError) {
      close_internal(true);
      return;
    }
    if (events & kWritable) {
      flush_stage();
      if (!open()) return;
    }
    if (events & kReadable) {
      read_some();
      if (!open()) return;
    }
    update_interest();
  });
  open_timer_ = loop_.add_timer(0, [this] {
    open_timer_ = 0;
    if (writable() && on_open_) on_open_();  // learn_peer side opens on first RX
  });
}

bool DgramConn::send_frame(BytesView payload) {
  if (!writable()) return false;
  stats_.on_send_enqueued(payload.size());
  ChunkRef chunk = pool_->acquire(payload.size());
  append(chunk.data(), payload);
  stage_bytes_ += payload.size();
  stage_.push_back(std::move(chunk));
  if (stage_.size() >= kDgramBatch) {
    flush_stage();
  } else {
    update_interest();  // the always-writable socket drains us next run_once
  }
  return true;
}

void DgramConn::flush() {
  if (!open()) return;
  flush_stage();
  if (open()) update_interest();
}

void DgramConn::flush_stage() {
  while (!stage_.empty()) {
    const unsigned n_msgs = static_cast<unsigned>(std::min(stage_.size(), kDgramBatch));
    std::array<mmsghdr, kDgramBatch> msgs{};
    std::array<iovec, kDgramBatch> iovs;
    for (unsigned i = 0; i < n_msgs; ++i) {
      const Bytes& d = stage_[i].data();
      iovs[i].iov_base = const_cast<u8*>(d.data());
      iovs[i].iov_len = d.size();
      msgs[i].msg_hdr.msg_iov = &iovs[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
    }
    const int sent = ::sendmmsg(fd_.get(), msgs.data(), n_msgs, 0);
    if (sent < 0) {
      if (errno == EINTR) continue;
      // Fire-and-forget: EAGAIN and hard errors alike cost the staged batch;
      // the far deframer rides through the gap.
      stats_.add_frames_lost(stage_.size());
      stage_.clear();
      stage_bytes_ = 0;
      return;
    }
    stats_.tx_syscall();
    for (unsigned i = 0; i < static_cast<unsigned>(sent); ++i) {
      const std::size_t want = stage_[i].data().size();
      stage_bytes_ -= want;
      if (msgs[i].msg_len == want) {
        stats_.on_sent(want);
      } else {
        stats_.add_frames_lost(1);
      }
    }
    stage_.erase(stage_.begin(), stage_.begin() + sent);
    // A short return means the next datagram would block; the retry either
    // moves it or lands in the EAGAIN branch above.
  }
}

void DgramConn::request_drain() {
  if (!open()) return;
  flush_stage();
  // Nothing else buffers; a datagram conn drains instantly.
  if (open() && on_drained_) on_drained_();
}

void DgramConn::read_some() {
  for (int burst = 0; burst < 4; ++burst) {
    std::array<mmsghdr, kDgramBatch> msgs{};
    std::array<iovec, kDgramBatch> iovs;
    std::array<sockaddr_in, kDgramBatch> addrs{};
    for (std::size_t i = 0; i < kDgramBatch; ++i) {
      iovs[i].iov_base = rx_slots_[i].data();
      iovs[i].iov_len = rx_slots_[i].size();
      msgs[i].msg_hdr.msg_iov = &iovs[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
      msgs[i].msg_hdr.msg_name = &addrs[i];
      msgs[i].msg_hdr.msg_namelen = sizeof(sockaddr_in);
    }
    const int n = ::recvmmsg(fd_.get(), msgs.data(), kDgramBatch, 0, nullptr);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN and transient ICMP errors alike: wait for the next event
    }
    if (n == 0) return;
    stats_.rx_syscall();
    if (!has_peer_) {
      // Listener side: lock onto the first talker so sends have a target.
      if (::connect(fd_.get(), reinterpret_cast<sockaddr*>(&addrs[0]),
                    msgs[0].msg_hdr.msg_namelen) == 0) {
        has_peer_ = true;
        if (on_open_) on_open_();
        if (!open()) return;
      }
    }
    frame_views_.clear();
    for (unsigned i = 0; i < static_cast<unsigned>(n); ++i) {
      const std::size_t len = msgs[i].msg_len;
      if (len == 0) continue;  // zero-length datagram carries nothing useful
      stats_.on_received(len);
      frame_views_.emplace_back(rx_slots_[i].data(), len);
    }
    if (!deliver_frames(frame_views_)) return;
    if (n < static_cast<int>(kDgramBatch)) return;
  }
}

void DgramConn::update_interest() {
  u32 interest = kReadable;
  if (!stage_.empty()) interest |= kWritable;
  loop_.modify_fd(fd_.get(), interest);
}

void DgramConn::close_internal(bool notify) {
  if (closing_ || !fd_.valid()) return;
  closing_ = true;
  if (open_timer_ != 0) {
    loop_.cancel_timer(open_timer_);
    open_timer_ = 0;
  }
  loop_.remove_fd(fd_.get());
  fd_.reset();
  // Staged datagrams were accepted into frames_in; charge them lost so the
  // ledger closes exactly.
  stats_.add_frames_lost(stage_.size());
  stage_.clear();
  stage_bytes_ = 0;
  has_peer_ = false;
  if (notify && on_closed_) on_closed_();
  closing_ = false;
}

}  // namespace p5::transport
