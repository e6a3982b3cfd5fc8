// Thin, RAII-safe wrappers over the BSD socket calls the transport uses.
//
// Everything here is nonblocking and IPv4 — the subsystem's job is carrying
// P5 SONET streams between processes on a LAN or loopback, not a general
// resolver stack. Hostnames are not resolved; addresses are dotted quads
// plus the "localhost" spelling.
#pragma once

#include <optional>
#include <string>

#include "common/types.hpp"

namespace p5::transport {

/// RAII file descriptor: closes on destruction, move-only.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(Fd&& o) noexcept : fd_(o.release()) {}
  Fd& operator=(Fd&& o) noexcept {
    if (this != &o) {
      reset();
      fd_ = o.release();
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  [[nodiscard]] int get() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int release() {
    const int f = fd_;
    fd_ = -1;
    return f;
  }
  void reset();

 private:
  int fd_ = -1;
};

struct SocketAddr {
  std::string host = "127.0.0.1";
  u16 port = 0;
};

/// Parse "host:port" (":port" and a bare "port" default the host to
/// loopback). Returns nullopt on a malformed port.
[[nodiscard]] std::optional<SocketAddr> parse_addr(const std::string& s);

[[nodiscard]] bool set_nonblocking(int fd);

/// Nonblocking TCP listener (SO_REUSEADDR). Invalid Fd on failure.
[[nodiscard]] Fd tcp_listen(const SocketAddr& addr, int backlog = 8);
/// Accept one pending connection, nonblocking. Invalid Fd when none waits.
[[nodiscard]] Fd tcp_accept(int listen_fd);
/// Begin a nonblocking connect. `in_progress` reports EINPROGRESS (wait for
/// writability, then check connect_error) vs. immediately established.
[[nodiscard]] Fd tcp_connect(const SocketAddr& addr, bool& in_progress);
/// Connect-completion check once the fd polls writable: 0 = established,
/// otherwise the errno the connect failed with.
[[nodiscard]] int connect_error(int fd);

[[nodiscard]] Fd udp_bind(const SocketAddr& addr);
[[nodiscard]] Fd udp_connect(const SocketAddr& addr);

/// Port the kernel actually bound (for the port-0 "pick one for me" tests).
[[nodiscard]] u16 local_port(int fd);

}  // namespace p5::transport
