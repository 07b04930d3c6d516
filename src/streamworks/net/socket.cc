#include "streamworks/net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace streamworks {

namespace {

std::string Errno(std::string_view what) {
  return std::string(what) + ": " + std::strerror(errno);
}

StatusOr<sockaddr_in> TcpAddress(const std::string& host, int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad IPv4 address: " + host);
  }
  return addr;
}

StatusOr<sockaddr_un> UnixAddress(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument(
        "unix socket path empty or longer than sun_path: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IoError(Errno("fcntl(O_NONBLOCK)"));
  }
  return OkStatus();
}

Status SetTcpNoDelay(int fd) {
  const int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) < 0) {
    return Status::IoError(Errno("setsockopt(TCP_NODELAY)"));
  }
  return OkStatus();
}

StatusOr<UniqueFd> ListenTcp(const std::string& host, int port, int backlog) {
  SW_ASSIGN_OR_RETURN(const sockaddr_in addr, TcpAddress(host, port));
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Status::IoError(Errno("socket(AF_INET)"));
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    return Status::IoError(Errno("bind(tcp " + host + ":" +
                                 std::to_string(port) + ")"));
  }
  if (::listen(fd.get(), backlog) < 0) {
    return Status::IoError(Errno("listen(tcp)"));
  }
  SW_RETURN_IF_ERROR(SetNonBlocking(fd.get()));
  return fd;
}

StatusOr<int> BoundTcpPort(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    return Status::IoError(Errno("getsockname"));
  }
  return static_cast<int>(ntohs(addr.sin_port));
}

StatusOr<UniqueFd> ListenUnix(const std::string& path, int backlog) {
  SW_ASSIGN_OR_RETURN(const sockaddr_un addr, UnixAddress(path));
  // A stale socket file would fail the bind, so remove it — but only a
  // socket: a typo'd path must not delete an operator's regular file.
  // (A *live* server's socket is still replaced; detecting liveness would
  // need a probe connect and the second daemon's bind is the operator's
  // call either way.)
  struct stat st;
  if (::lstat(path.c_str(), &st) == 0) {
    if (!S_ISSOCK(st.st_mode)) {
      return Status::InvalidArgument(
          "refusing to replace non-socket file at " + path);
    }
    ::unlink(path.c_str());
  }
  UniqueFd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) return Status::IoError(Errno("socket(AF_UNIX)"));
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    return Status::IoError(Errno("bind(unix " + path + ")"));
  }
  if (::listen(fd.get(), backlog) < 0) {
    return Status::IoError(Errno("listen(unix)"));
  }
  SW_RETURN_IF_ERROR(SetNonBlocking(fd.get()));
  return fd;
}

StatusOr<UniqueFd> ConnectTcp(const std::string& host, int port) {
  SW_ASSIGN_OR_RETURN(const sockaddr_in addr, TcpAddress(host, port));
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Status::IoError(Errno("socket(AF_INET)"));
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    return Status::IoError(Errno("connect(tcp " + host + ":" +
                                 std::to_string(port) + ")"));
  }
  SW_RETURN_IF_ERROR(SetTcpNoDelay(fd.get()));
  return fd;
}

StatusOr<UniqueFd> ConnectUnix(const std::string& path) {
  SW_ASSIGN_OR_RETURN(const sockaddr_un addr, UnixAddress(path));
  UniqueFd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) return Status::IoError(Errno("socket(AF_UNIX)"));
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    return Status::IoError(Errno("connect(unix " + path + ")"));
  }
  return fd;
}

StatusOr<UniqueFd> CreateEpoll() {
  UniqueFd fd(::epoll_create1(EPOLL_CLOEXEC));
  if (!fd.valid()) return Status::IoError(Errno("epoll_create1"));
  return fd;
}

StatusOr<std::pair<UniqueFd, UniqueFd>> MakeWakePipe() {
  int fds[2];
  if (::pipe(fds) < 0) return Status::IoError(Errno("pipe"));
  UniqueFd read_end(fds[0]), write_end(fds[1]);
  SW_RETURN_IF_ERROR(SetNonBlocking(read_end.get()));
  SW_RETURN_IF_ERROR(SetNonBlocking(write_end.get()));
  return std::make_pair(std::move(read_end), std::move(write_end));
}

}  // namespace streamworks
