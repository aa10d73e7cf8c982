#include "net/socket.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <limits>
#include <utility>

namespace bes::net {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw net_error(std::string("net: ") + what + ": " + std::strerror(errno));
}

// Milliseconds until `deadline` clamped to poll()'s int argument; -1 when
// there is no deadline (block), 0 when it already passed.
int poll_timeout_ms(net_time deadline) {
  if (deadline == no_deadline()) return -1;
  const auto now = net_clock::now();
  if (deadline <= now) return 0;
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
          .count();
  return static_cast<int>(
      std::min<long long>(ms + 1, std::numeric_limits<int>::max()));
}

// Waits for `events` on fd. Returns true when ready, false when the
// deadline passed first; throws on poll failure. EINTR retries.
bool wait_ready(int fd, short events, net_time deadline) {
  while (true) {
    pollfd pfd{fd, events, 0};
    const int rc = ::poll(&pfd, 1, poll_timeout_ms(deadline));
    if (rc > 0) return true;
    if (rc == 0) {
      if (deadline != no_deadline() && net_clock::now() >= deadline)
        return false;
      continue;  // spurious zero from the +1 clamp; re-poll
    }
    if (errno == EINTR) continue;
    throw_errno("poll");
  }
}

sockaddr_in make_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw net_error("net: bad IPv4 address '" + host + "'");
  }
  return addr;
}

void set_nodelay(int fd) noexcept {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

}  // namespace

tcp_socket::~tcp_socket() { close(); }

tcp_socket::tcp_socket(tcp_socket&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)) {}

tcp_socket& tcp_socket::operator=(tcp_socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

void tcp_socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void tcp_socket::shutdown_both() noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

tcp_socket tcp_socket::connect(const std::string& host, std::uint16_t port,
                               unsigned timeout_ms) {
  const sockaddr_in addr = make_addr(host, port);
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw_errno("socket");
  tcp_socket sock(fd);  // owns fd from here; any throw below closes it

  // Non-blocking connect so the timeout is enforceable.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
  if (rc != 0) {
    if (errno != EINPROGRESS) throw_errno("connect");
    if (!wait_ready(fd, POLLOUT, deadline_in(timeout_ms))) {
      throw net_error("net: connect timed out");
    }
    int err = 0;
    socklen_t len = sizeof err;
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
      throw_errno("getsockopt");
    }
    if (err != 0) {
      errno = err;
      throw_errno("connect");
    }
  }
  ::fcntl(fd, F_SETFL, flags);  // back to blocking; reads use poll anyway
  set_nodelay(fd);
  return sock;
}

void tcp_socket::send_all(const void* data, std::size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::send(fd_, p, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("send");
    }
    p += n;
    size -= static_cast<std::size_t>(n);
  }
}

bool tcp_socket::read_exact(void* data, std::size_t size, net_time deadline) {
  char* p = static_cast<char*>(data);
  std::size_t got = 0;
  while (got < size) {
    if (!wait_ready(fd_, POLLIN, deadline)) {
      throw net_error("net: read deadline exceeded");
    }
    const ssize_t n = ::recv(fd_, p + got, size - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("recv");
    }
    if (n == 0) {
      if (got == 0) return false;  // clean EOF on a frame boundary
      throw net_error("net: peer closed mid-read");
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

tcp_listener::tcp_listener(std::uint16_t port, const std::string& bind_host) {
  const sockaddr_in addr = make_addr(bind_host, port);
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw_errno("socket");
  int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    errno = err;
    throw_errno("bind");
  }
  if (::listen(fd_, 64) != 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    errno = err;
    throw_errno("listen");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    errno = err;
    throw_errno("getsockname");
  }
  port_ = ntohs(bound.sin_port);
}

tcp_listener::~tcp_listener() { close(); }

void tcp_listener::close() noexcept {
  // Exchange, not test-then-store: close() runs on another thread while
  // the accept loop reads fd_.
  const int fd = fd_.exchange(-1);
  if (fd >= 0) {
    // shutdown() first so a thread blocked in accept()'s poll wakes up.
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

tcp_socket tcp_listener::accept(unsigned timeout_ms) {
  const int listen_fd = fd_.load();
  if (listen_fd < 0) return tcp_socket{};
  bool ready;
  try {
    ready = wait_ready(listen_fd, POLLIN, deadline_in(timeout_ms));
  } catch (const net_error&) {
    // close() from another thread invalidates the fd mid-poll (EBADF);
    // report that as "no connection" like a timeout, not a hard error.
    if (fd_.load() < 0) return tcp_socket{};
    throw;
  }
  if (!ready) return tcp_socket{};
  const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
  if (fd < 0) {
    if (errno == EINTR || errno == ECONNABORTED || errno == EINVAL ||
        errno == EBADF) {
      return tcp_socket{};  // raced with close() or an aborted handshake
    }
    throw_errno("accept");
  }
  set_nodelay(fd);
  return tcp_socket(fd);
}

}  // namespace bes::net
