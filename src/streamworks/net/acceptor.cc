#include "streamworks/net/acceptor.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>

#include "streamworks/common/logging.h"
#include "streamworks/obs/http_endpoint.h"

namespace streamworks {

Acceptor::Acceptor(int tcp_fd, int unix_fd, int http_fd,
                   const ServerOptions* options, ServerCounters* counters,
                   const std::vector<std::unique_ptr<EventLoop>>* loops)
    : tcp_fd_(tcp_fd),
      unix_fd_(unix_fd),
      http_fd_(http_fd),
      options_(options),
      counters_(counters),
      loops_(loops) {}

Status Acceptor::Start() {
  SW_ASSIGN_OR_RETURN(auto pipe_ends, MakeWakePipe());
  wake_read_ = std::move(pipe_ends.first);
  wake_write_ = std::move(pipe_ends.second);
  thread_ = std::thread([this] { AcceptLoop(); });
  return OkStatus();
}

void Acceptor::Stop() {
  stop_.store(true, std::memory_order_release);
  const char byte = 'w';
  [[maybe_unused]] ssize_t n = ::write(wake_write_.get(), &byte, 1);
  if (thread_.joinable()) thread_.join();
}

void Acceptor::AcceptLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    std::vector<pollfd> fds;
    fds.push_back({wake_read_.get(), POLLIN, 0});
    if (tcp_fd_ >= 0) fds.push_back({tcp_fd_, POLLIN, 0});
    if (unix_fd_ >= 0) fds.push_back({unix_fd_, POLLIN, 0});
    if (http_fd_ >= 0) fds.push_back({http_fd_, POLLIN, 0});

    if (::poll(fds.data(), fds.size(), /*timeout=*/-1) < 0) {
      if (errno == EINTR) continue;
      SW_LOG(Error) << "poll(acceptor): " << std::strerror(errno);
      break;
    }
    if (stop_.load(std::memory_order_acquire)) break;

    if (fds[0].revents & POLLIN) {  // drain the wake pipe
      char buf[64];
      while (::read(wake_read_.get(), buf, sizeof(buf)) > 0) {
      }
    }
    size_t idx = 1;
    if (tcp_fd_ >= 0) {
      if (fds[idx].revents & POLLIN) AcceptFrom(tcp_fd_, /*http=*/false);
      ++idx;
    }
    if (unix_fd_ >= 0) {
      if (fds[idx].revents & POLLIN) AcceptFrom(unix_fd_, /*http=*/false);
      ++idx;
    }
    if (http_fd_ >= 0) {
      if (fds[idx].revents & POLLIN) AcceptFrom(http_fd_, /*http=*/true);
      ++idx;
    }
  }
}

void Acceptor::AcceptFrom(int listen_fd, bool http) {
  while (true) {
    const int raw = ::accept(listen_fd, nullptr, nullptr);
    if (raw < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      SW_LOG(Warning) << "accept: " << std::strerror(errno);
      return;
    }
    UniqueFd fd(raw);
    // Admission first: live_connections counts every adopted,
    // not-yet-torn-down connection across all loops, so the cap holds
    // server-wide no matter how the loops shard.
    if (counters_->live_connections.load(std::memory_order_acquire) >=
        options_->max_connections) {
      const std::string refusal =
          http ? EncodeHttpResponse(
                     {503, "text/plain; charset=utf-8", "server full\n"})
               : "ERR server full\n.\n";
      // MSG_NOSIGNAL: the refused peer may already be gone, and a raw
      // write would raise process-killing SIGPIPE.
      [[maybe_unused]] ssize_t n = ::send(fd.get(), refusal.data(),
                                          refusal.size(), MSG_NOSIGNAL);
      counters_->connections_refused.fetch_add(1);
      continue;  // fd closes on scope exit
    }
    if (!SetNonBlocking(fd.get()).ok()) continue;
    // Small EVENT pushes and one-line replies must not wait on the
    // client's delayed ACK.
    if (listen_fd == tcp_fd_ && !SetTcpNoDelay(fd.get()).ok()) continue;
    if (options_->so_sndbuf > 0) {
      ::setsockopt(fd.get(), SOL_SOCKET, SO_SNDBUF, &options_->so_sndbuf,
                   sizeof(options_->so_sndbuf));
    }
    counters_->live_connections.fetch_add(1);
    counters_->connections_accepted.fetch_add(1);
    EventLoop* loop = (*loops_)[next_loop_++ % loops_->size()].get();
    loop->Adopt(std::move(fd), http);
  }
}

}  // namespace streamworks
