#include "serve/net.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/error.hpp"

namespace efficsense::serve {

Fd& Fd::operator=(Fd&& o) noexcept {
  if (this != &o) {
    reset();
    fd_ = o.fd_;
    o.fd_ = -1;
  }
  return *this;
}

void Fd::reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw Error(what + ": " + std::strerror(errno));
}

}  // namespace

Fd listen_uds(const std::string& path, int backlog) {
  EFF_REQUIRE(!path.empty(), "UDS path must not be empty");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  EFF_REQUIRE(path.size() < sizeof(addr.sun_path),
              "UDS path too long for sockaddr_un");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) throw_errno("socket(AF_UNIX)");
  ::unlink(path.c_str());  // replace a stale socket file
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    throw_errno("bind(" + path + ")");
  }
  if (::listen(fd.get(), backlog) != 0) throw_errno("listen(" + path + ")");
  return fd;
}

Fd listen_tcp(std::uint16_t port, std::uint16_t* bound_port, int backlog) {
  EFF_REQUIRE(bound_port != nullptr, "bound_port is required");
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) throw_errno("socket(AF_INET)");
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    throw_errno("bind(tcp port " + std::to_string(port) + ")");
  }
  if (::listen(fd.get(), backlog) != 0) throw_errno("listen(tcp)");

  socklen_t len = sizeof addr;
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    throw_errno("getsockname");
  }
  *bound_port = ntohs(addr.sin_port);
  return fd;
}

Fd connect_uds(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  EFF_REQUIRE(path.size() < sizeof(addr.sun_path),
              "UDS path too long for sockaddr_un");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) throw_errno("socket(AF_UNIX)");
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
      0) {
    throw_errno("connect(" + path + ")");
  }
  return fd;
}

Fd connect_tcp(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw Error("connect_tcp: bad IPv4 address " + host);
  }
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) throw_errno("socket(AF_INET)");
  const int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
      0) {
    throw_errno("connect(" + host + ":" + std::to_string(port) + ")");
  }
  return fd;
}

bool wait_readable(int fd, int timeout_ms) {
  pollfd p{fd, POLLIN, 0};
  for (;;) {
    const int r = ::poll(&p, 1, timeout_ms);
    if (r > 0) return (p.revents & (POLLIN | POLLHUP | POLLERR)) != 0;
    if (r == 0) return false;
    if (errno != EINTR) return false;
  }
}

namespace {

/// Read exactly n bytes. Returns n on success, 0 on clean EOF before the
/// first byte, -1 on error or mid-read EOF.
long read_exact(int fd, std::uint8_t* out, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, out + got, n - got);
    if (r > 0) {
      got += std::size_t(r);
      continue;
    }
    if (r == 0) return got == 0 ? 0 : -1;
    if (errno == EINTR) continue;
    return -1;
  }
  return long(got);
}

}  // namespace

IoResult read_frame(int fd, std::size_t max_frame,
                    std::vector<std::uint8_t>& buf) {
  std::uint8_t len_bytes[4];
  const long got = read_exact(fd, len_bytes, 4);
  if (got == 0) return IoResult::kEof;
  if (got < 0) return IoResult::kError;
  std::uint32_t len = 0;
  for (int i = 3; i >= 0; --i) len = (len << 8) | len_bytes[i];
  if (len > max_frame) return IoResult::kOversize;
  buf.resize(len);
  if (len > 0 && read_exact(fd, buf.data(), len) <= 0) {
    return IoResult::kTruncated;
  }
  return IoResult::kFrame;
}

bool write_all(int fd, const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t r = ::send(fd, p + sent, n - sent, MSG_NOSIGNAL);
    if (r > 0) {
      sent += std::size_t(r);
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

}  // namespace efficsense::serve
