#pragma once
// Thin POSIX socket layer for the gateway: RAII fds, TCP/UDS listeners and
// blocking length-prefixed frame IO. Frames ride read()/send() directly
// (one reader thread per session — the decode pool, not the socket layer,
// is where concurrency lives). All writes use MSG_NOSIGNAL so a vanished
// peer surfaces as an error return, never SIGPIPE.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace efficsense::serve {

/// Owned file descriptor (move-only, closes on destruction).
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(Fd&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  Fd& operator=(Fd&& o) noexcept;
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void reset();

 private:
  int fd_ = -1;
};

/// Bind + listen on a unix-domain socket path (an existing socket file is
/// replaced). Throws Error on failure.
Fd listen_uds(const std::string& path, int backlog = 128);

/// Bind + listen on loopback TCP. `port` 0 picks an ephemeral port;
/// `bound_port` (required) receives the actual one. Throws Error on failure.
Fd listen_tcp(std::uint16_t port, std::uint16_t* bound_port,
              int backlog = 128);

Fd connect_uds(const std::string& path);
Fd connect_tcp(const std::string& host, std::uint16_t port);

/// Block until `fd` is readable or `timeout_ms` elapses (-1 = forever).
/// Returns true when readable.
bool wait_readable(int fd, int timeout_ms);

enum class IoResult {
  kFrame,     ///< a complete frame is in the buffer
  kEof,       ///< orderly close before any byte of the next frame
  kTruncated, ///< peer vanished mid-frame
  kOversize,  ///< length prefix exceeds the cap (stream unrecoverable)
  kError,     ///< read error
};

/// Read one length-prefixed frame into `buf` (reused across calls; sized to
/// the frame). `max_frame` bounds the length prefix *before* any allocation.
IoResult read_frame(int fd, std::size_t max_frame, std::vector<std::uint8_t>& buf);

/// Write the whole buffer; false when the peer is gone.
bool write_all(int fd, const void* data, std::size_t n);
inline bool write_all(int fd, const std::string& s) {
  return write_all(fd, s.data(), s.size());
}

}  // namespace efficsense::serve
