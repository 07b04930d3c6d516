#include "streamworks/net/peer_link.h"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <thread>

#include "streamworks/common/str_util.h"
#include "streamworks/common/timer.h"
#include "streamworks/net/socket.h"

namespace streamworks {

namespace {

/// A peer that stops draining for this long while we hold a full socket
/// buffer is treated as dead (the caller's reconnect machinery takes
/// over rather than wedging the control plane forever).
constexpr int kSendStallTimeoutMs = 60000;

constexpr int kConnectRetrySleepMs = 100;

int RemainingMs(const Timer& timer, int timeout_ms) {
  if (timeout_ms < 0) return -1;
  const int elapsed = static_cast<int>(timer.ElapsedSeconds() * 1000.0);
  return elapsed >= timeout_ms ? 0 : timeout_ms - elapsed;
}

}  // namespace

StatusOr<PeerLink> PeerLink::Adopt(UniqueFd fd, bool duplex) {
  PeerLink link;
  // Both ends of a TCP link need TCP_NODELAY: every control exchange is a
  // small frame answered by a small frame, and Nagle would hold each one
  // until the peer's delayed ACK fires. Unix-socket fds have no Nagle.
  sockaddr_storage addr{};
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) == 0 &&
      (addr.ss_family == AF_INET || addr.ss_family == AF_INET6)) {
    SW_RETURN_IF_ERROR(SetTcpNoDelay(fd.get()));
  }
  if (duplex) {
    SW_RETURN_IF_ERROR(SetNonBlocking(fd.get()));
  }
  link.fd_ = std::move(fd);
  link.duplex_ = duplex;
  return link;
}

StatusOr<PeerLink> PeerLink::ConnectTcpRetry(const std::string& host,
                                             int port, int deadline_ms) {
  Timer timer;
  Status last = Status::Unavailable("never attempted");
  do {
    StatusOr<UniqueFd> fd = ConnectTcp(host, port);
    if (fd.ok()) return Adopt(std::move(fd).value(), /*duplex=*/true);
    last = fd.status();
    std::this_thread::sleep_for(
        std::chrono::milliseconds(kConnectRetrySleepMs));
  } while (RemainingMs(timer, deadline_ms) > 0);
  return Status::Unavailable(StrCat("cannot connect to ", host, ":", port,
                                    " within ", deadline_ms,
                                    "ms: ", last.ToString()));
}

Status PeerLink::FillFromSocket(int timeout_ms) {
  if (!fd_.valid()) return Status::Unavailable("link is closed");
  struct pollfd pfd {};
  pfd.fd = fd_.get();
  pfd.events = POLLIN;
  const int n = ::poll(&pfd, 1, timeout_ms);
  if (n < 0) {
    if (errno == EINTR) {
      // A signal (the daemon's stop path) interrupts the wait; surface it
      // as a timeout so the caller's loop re-checks its stop flag.
      return Status::Unavailable("link read timed out");
    }
    return Status::IoError(StrCat("poll: ", std::strerror(errno)));
  }
  if (n == 0) return Status::Unavailable("link read timed out");
  char buf[65536];
  const ssize_t got = ::read(fd_.get(), buf, sizeof(buf));
  if (got < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
      return OkStatus();  // spurious wakeup; the outer loop re-polls
    }
    return Status::IoError(StrCat("read: ", std::strerror(errno)));
  }
  if (got == 0) return Status::Unavailable("peer closed the link");
  rbuf_.append(buf, static_cast<size_t>(got));
  return OkStatus();
}

Status PeerLink::SendFrame(std::string_view frame) {
  if (!fd_.valid()) return Status::Unavailable("link is closed");
  size_t sent = 0;
  Timer stall;
  while (sent < frame.size()) {
    // MSG_NOSIGNAL: a peer that died mid-stream must surface as EPIPE for
    // the caller's reconnect path, not kill the process with SIGPIPE.
    const ssize_t n = ::send(fd_.get(), frame.data() + sent,
                             frame.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      stall.Reset();
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK) && duplex_) {
      // Write buffer full. Wait for writability but keep draining the
      // peer's inbound traffic meanwhile — it may be blocked pushing
      // frames at us, and neither side's buffer empties unless we read.
      const int wait = RemainingMs(stall, kSendStallTimeoutMs);
      if (wait == 0) {
        return Status::Unavailable("peer stalled; send timed out");
      }
      struct pollfd pfd {};
      pfd.fd = fd_.get();
      pfd.events = POLLIN | POLLOUT;
      const int ready = ::poll(&pfd, 1, wait);
      if (ready < 0 && errno != EINTR) {
        return Status::IoError(StrCat("poll: ", std::strerror(errno)));
      }
      if (ready > 0 && (pfd.revents & POLLIN) != 0) {
        char buf[65536];
        ssize_t got;
        while ((got = ::read(fd_.get(), buf, sizeof(buf))) > 0) {
          rbuf_.append(buf, static_cast<size_t>(got));
        }
        if (got == 0) return Status::Unavailable("peer closed the link");
        if (got < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
            errno != EINTR) {
          return Status::IoError(StrCat("read: ", std::strerror(errno)));
        }
      }
      continue;
    }
    return Status::IoError(StrCat("write: ", std::strerror(errno)));
  }
  return OkStatus();
}

bool PeerLink::HasBufferedFrame() const {
  if (rbuf_.size() < kCtrlFrameHeaderBytes) return false;
  const size_t body_len =
      static_cast<size_t>(static_cast<unsigned char>(rbuf_[4])) |
      static_cast<size_t>(static_cast<unsigned char>(rbuf_[5])) << 8 |
      static_cast<size_t>(static_cast<unsigned char>(rbuf_[6])) << 16 |
      static_cast<size_t>(static_cast<unsigned char>(rbuf_[7])) << 24;
  return rbuf_.size() >= kCtrlFrameHeaderBytes + body_len;
}

StatusOr<CtrlFrame> PeerLink::ReadFrame(Interner* interner, int timeout_ms,
                                        std::string* raw) {
  Timer timer;
  for (;;) {
    const CtrlDecodeResult decoded =
        DecodeCtrlFrame(rbuf_, kDefaultMaxFrameBodyBytes, interner);
    switch (decoded.status) {
      case FrameDecodeStatus::kOk: {
        CtrlFrame frame = std::move(decoded.frame);
        if (raw != nullptr) raw->assign(rbuf_, 0, decoded.frame_bytes);
        rbuf_.erase(0, decoded.frame_bytes);
        return frame;
      }
      case FrameDecodeStatus::kNeedMore:
        break;
      case FrameDecodeStatus::kOversized:
      case FrameDecodeStatus::kMalformed:
        // No resync on the control plane: a bad frame means the peers
        // disagree about the protocol, and skipping bytes would only
        // turn that into silent state divergence.
        return Status::DataLoss(StrCat("control link broken: ",
                                       decoded.error));
    }
    const int wait = RemainingMs(timer, timeout_ms);
    if (timeout_ms >= 0 && wait == 0) {
      return Status::Unavailable("link read timed out");
    }
    SW_RETURN_IF_ERROR(FillFromSocket(wait));
  }
}

}  // namespace streamworks
