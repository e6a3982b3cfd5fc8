#include "transport/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>

namespace p5::transport {

namespace {

bool fill_sockaddr(const SocketAddr& addr, sockaddr_in& sa) {
  sa = {};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(addr.port);
  const std::string host = addr.host == "localhost" || addr.host.empty() ? "127.0.0.1" : addr.host;
  return ::inet_pton(AF_INET, host.c_str(), &sa.sin_addr) == 1;
}

Fd make_socket(int type) {
  Fd fd(::socket(AF_INET, type, 0));
  if (fd.valid() && !set_nonblocking(fd.get())) fd.reset();
  return fd;
}

}  // namespace

void Fd::reset() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

std::optional<SocketAddr> parse_addr(const std::string& s) {
  SocketAddr addr;
  std::string port_part = s;
  const auto colon = s.rfind(':');
  if (colon != std::string::npos) {
    if (colon > 0) addr.host = s.substr(0, colon);
    port_part = s.substr(colon + 1);
  }
  if (port_part.empty()) return std::nullopt;
  char* end = nullptr;
  const long port = std::strtol(port_part.c_str(), &end, 10);
  if (*end != '\0' || port < 0 || port > 65535) return std::nullopt;
  addr.port = static_cast<u16>(port);
  return addr;
}

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

Fd tcp_listen(const SocketAddr& addr, int backlog) {
  sockaddr_in sa;
  if (!fill_sockaddr(addr, sa)) return Fd();
  Fd fd = make_socket(SOCK_STREAM);
  if (!fd.valid()) return fd;
  const int one = 1;
  (void)::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0 ||
      ::listen(fd.get(), backlog) != 0) {
    fd.reset();
  }
  return fd;
}

Fd tcp_accept(int listen_fd) {
  Fd fd(::accept(listen_fd, nullptr, nullptr));
  if (fd.valid()) {
    if (!set_nonblocking(fd.get())) {
      fd.reset();
      return fd;
    }
    const int one = 1;
    (void)::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return fd;
}

Fd tcp_connect(const SocketAddr& addr, bool& in_progress) {
  in_progress = false;
  sockaddr_in sa;
  if (!fill_sockaddr(addr, sa)) return Fd();
  Fd fd = make_socket(SOCK_STREAM);
  if (!fd.valid()) return fd;
  const int one = 1;
  (void)::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) == 0) return fd;
  if (errno == EINPROGRESS || errno == EINTR) {
    in_progress = true;
    return fd;
  }
  fd.reset();
  return fd;
}

int connect_error(int fd) {
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) return errno;
  return err;
}

Fd udp_bind(const SocketAddr& addr) {
  sockaddr_in sa;
  if (!fill_sockaddr(addr, sa)) return Fd();
  Fd fd = make_socket(SOCK_DGRAM);
  if (!fd.valid()) return fd;
  // A SONET chunk per datagram bursts well past the default budgets; roomy
  // buffers on both directions keep loopback tests loss-free so observed
  // drops are the injected ones — the sendmmsg leg can put a whole staged
  // batch on the wire in one call, which needs SO_SNDBUF headroom too.
  const int buf = 1 << 20;
  (void)::setsockopt(fd.get(), SOL_SOCKET, SO_RCVBUF, &buf, sizeof(buf));
  (void)::setsockopt(fd.get(), SOL_SOCKET, SO_SNDBUF, &buf, sizeof(buf));
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) fd.reset();
  return fd;
}

Fd udp_connect(const SocketAddr& addr) {
  sockaddr_in sa;
  if (!fill_sockaddr(addr, sa)) return Fd();
  Fd fd = make_socket(SOCK_DGRAM);
  if (!fd.valid()) return fd;
  const int buf = 1 << 20;
  (void)::setsockopt(fd.get(), SOL_SOCKET, SO_RCVBUF, &buf, sizeof(buf));
  (void)::setsockopt(fd.get(), SOL_SOCKET, SO_SNDBUF, &buf, sizeof(buf));
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) fd.reset();
  return fd;
}

u16 local_port(int fd) {
  sockaddr_in sa{};
  socklen_t len = sizeof(sa);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len) != 0) return 0;
  return ntohs(sa.sin_port);
}

}  // namespace p5::transport
