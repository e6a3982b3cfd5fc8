#include "hdlc/delineation.hpp"

#include <algorithm>
#include <cstring>

namespace p5::hdlc {

namespace {

/// First octet at or after `i` that is not a flag. Idle fill is a solid run
/// of flags; skipping it a word at a time keeps it from costing a flag
/// search per octet.
std::size_t skip_flags(const u8* p, std::size_t i, std::size_t n) {
  constexpr u64 kFlags = 0x7E7E7E7E7E7E7E7Eull;
  static_assert(kFlag == 0x7E);
  for (u64 w; i + 8 <= n; i += 8) {
    std::memcpy(&w, p + i, 8);
    if (w != kFlags) break;
  }
  while (i < n && p[i] == kFlag) ++i;
  return i;
}

}  // namespace

void Delineator::push(BytesView octets) {
  const u8* base = octets.data();
  const std::size_t n = octets.size();
  if (n == 0) return;
  const auto next_flag = [&](std::size_t from) {
    const void* hit = std::memchr(base + from, kFlag, n - from);
    return hit ? static_cast<std::size_t>(static_cast<const u8*>(hit) - base) : n;
  };
  // Up to the first flag, octets continue whatever frame an earlier push
  // left open.
  const std::size_t first = next_flag(0);
  stats_.octets += first;
  if (in_frame_) append(base, first);
  if (first == n) return;
  ++stats_.octets;
  end_frame();
  in_frame_ = true;
  // From here every frame opens inside the span: each one that also closes
  // in it goes to the sink as a view, and only the tail is accumulated.
  for (std::size_t i = first + 1;;) {
    const std::size_t body = skip_flags(base, i, n);  // empty frames: not events
    stats_.octets += body - i;
    if (body == n) return;
    const std::size_t closing = next_flag(body);
    if (closing == n) {
      stats_.octets += n - body;
      append(base + body, n - body);
      return;
    }
    stats_.octets += closing - body + 1;
    close(BytesView(base + body, closing - body), closing - body > max_frame_);
    i = closing + 1;
  }
}

void Delineator::append(const u8* p, std::size_t n) {
  const std::size_t room = current_.size() >= max_frame_ ? 0 : max_frame_ - current_.size();
  const std::size_t take = std::min(n, room);
  current_.insert(current_.end(), p, p + take);
  if (take < n) overflowed_ = true;
}

void Delineator::push(u8 octet) {
  ++stats_.octets;
  if (octet == kFlag) {
    end_frame();
    in_frame_ = true;  // this flag also opens the next frame
    return;
  }
  if (!in_frame_) return;  // hunting: discard octets until the first flag
  if (current_.size() >= max_frame_) {
    overflowed_ = true;
    return;  // keep discarding until the closing flag resynchronises us
  }
  current_.push_back(octet);
}

void Delineator::end_frame() {
  if (!in_frame_) return;
  close(current_, overflowed_);
  current_.clear();
  overflowed_ = false;
}

void Delineator::close(BytesView content, bool overflowed) {
  if (overflowed) {
    ++stats_.oversize;
  } else if (!content.empty() && content.back() == kEscape) {
    // 0x7D immediately before the closing flag: transmitter abort.
    ++stats_.aborts;
  } else if (content.size() >= min_frame_) {
    ++stats_.frames;
    sink_(content);
  } else if (!content.empty()) {
    ++stats_.runts;
  }
  // empty content: inter-frame fill / back-to-back flags — not an event.
}

void Delineator::flush() {
  // Stream ended mid-frame: a partial frame can never be validated.
  if (in_frame_ && (!current_.empty() || overflowed_)) {
    if (overflowed_)
      ++stats_.oversize;
    else
      ++stats_.runts;
  }
  current_.clear();
  overflowed_ = false;
  in_frame_ = false;
}

}  // namespace p5::hdlc
