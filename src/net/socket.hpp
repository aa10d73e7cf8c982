// Thin RAII layer over POSIX TCP sockets — just what the query service
// needs: a loopback/LAN listener with a pollable accept, and a stream
// socket with deadline-aware exact reads. No frameworks, no global state;
// SIGPIPE is avoided per send (MSG_NOSIGNAL), not via process signal
// masks, so the library composes with whatever the host process does.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace bes::net {

// Every socket/framing/protocol failure derives from this.
class net_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

using net_clock = std::chrono::steady_clock;
using net_time = net_clock::time_point;

// "No deadline": comparisons still work, poll timeouts saturate.
[[nodiscard]] constexpr net_time no_deadline() noexcept {
  return net_time::max();
}
[[nodiscard]] inline net_time deadline_in(unsigned ms) noexcept {
  return ms == 0 ? no_deadline() : net_clock::now() + std::chrono::milliseconds(ms);
}

// A connected stream socket. Move-only; the destructor closes.
class tcp_socket {
 public:
  tcp_socket() = default;               // invalid (fd -1)
  explicit tcp_socket(int fd) : fd_(fd) {}
  ~tcp_socket();

  tcp_socket(tcp_socket&& other) noexcept;
  tcp_socket& operator=(tcp_socket&& other) noexcept;
  tcp_socket(const tcp_socket&) = delete;
  tcp_socket& operator=(const tcp_socket&) = delete;

  // Connects to host:port (numeric IPv4, e.g. "127.0.0.1"), failing after
  // `timeout_ms`. Throws net_error on refusal/timeout.
  [[nodiscard]] static tcp_socket connect(const std::string& host,
                                          std::uint16_t port,
                                          unsigned timeout_ms);

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int fd() const noexcept { return fd_; }
  void close() noexcept;
  // Half-closes both directions without releasing the fd — unblocks a
  // thread parked in read_exact from another thread (close() alone races
  // with fd reuse). Safe to call repeatedly.
  void shutdown_both() noexcept;

  // Writes all `size` bytes; throws net_error on any failure (including
  // the peer closing mid-write).
  void send_all(const void* data, std::size_t size);

  // Reads exactly `size` bytes. Returns false iff the peer closed cleanly
  // BEFORE the first byte (caller decides if that is a protocol error);
  // throws net_error on mid-buffer EOF, I/O failure, or `deadline` passing.
  [[nodiscard]] bool read_exact(void* data, std::size_t size,
                                net_time deadline);

 private:
  int fd_ = -1;
};

// A listening socket bound to an interface address (default loopback).
// Port 0 binds an ephemeral port; port() reports the real one.
class tcp_listener {
 public:
  explicit tcp_listener(std::uint16_t port,
                        const std::string& bind_host = "127.0.0.1");
  ~tcp_listener();

  tcp_listener(const tcp_listener&) = delete;
  tcp_listener& operator=(const tcp_listener&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  // Waits up to `timeout_ms` for one connection. Returns an invalid socket
  // on timeout or after close(); throws net_error on listener failure.
  [[nodiscard]] tcp_socket accept(unsigned timeout_ms);

  // Safe to call from another thread while accept() waits.
  void close() noexcept;

 private:
  std::atomic<int> fd_{-1};
  std::uint16_t port_ = 0;
};

}  // namespace bes::net
