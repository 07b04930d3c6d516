#ifndef STREAMWORKS_NET_PEER_LINK_H_
#define STREAMWORKS_NET_PEER_LINK_H_

#include <string>
#include <string_view>

#include "streamworks/common/interner.h"
#include "streamworks/common/statusor.h"
#include "streamworks/common/unique_fd.h"
#include "streamworks/stream/cluster_wire.h"

namespace streamworks {

/// One framed peer connection of the cluster control plane — the pipe a
/// coordinator holds to each worker daemon and a worker holds back to its
/// coordinator. Owns the fd, a receive buffer, and the frame codec; the
/// caller sees whole CtrlFrames in, whole encoded frames out.
///
/// Two personalities, picked at construction:
///
///   * duplex (coordinator side): the fd is nonblocking and SendFrame
///     drains inbound bytes into the receive buffer whenever a write
///     would park. This breaks the classic write-write deadlock — the
///     coordinator pushing a large Batch while the worker pushes
///     Exchange/Completion traffic back fills both socket buffers, and a
///     blocking writer on each end would wait forever. One nonblocking
///     side suffices: the coordinator keeps consuming, so the worker's
///     writes drain, so the worker returns to reading.
///   * blocking (worker side): plain blocking writes; reads still poll
///     with a timeout so the daemon loop can notice a stop flag.
///
/// Not thread-safe: one thread owns a link (the coordinator's cluster
/// mutex or the worker's single daemon thread).
class PeerLink {
 public:
  PeerLink() = default;

  /// Adopts a connected socket. `duplex` selects the nonblocking
  /// coordinator personality above. A TCP fd gets TCP_NODELAY, whichever
  /// side opened it.
  static StatusOr<PeerLink> Adopt(UniqueFd fd, bool duplex);

  /// Connects to `host:port` with the duplex personality, retrying until
  /// `deadline_ms` elapses (a worker daemon may still be starting, or
  /// restarting after a crash).
  static StatusOr<PeerLink> ConnectTcpRetry(const std::string& host, int port,
                                            int deadline_ms);

  /// Writes one already-encoded frame, fully. Duplex links spill inbound
  /// bytes into the receive buffer while waiting for writability; those
  /// frames surface on later ReadFrame calls in order.
  Status SendFrame(std::string_view frame);

  /// Returns the next whole control frame, reading from the socket as
  /// needed. `timeout_ms` < 0 waits forever; on expiry the result is
  /// a "link read timed out" Unavailable error. EOF and malformed bytes
  /// are errors too — the control plane has no resync story by design
  /// (a desynchronized peer must reconnect and handshake).
  /// When `raw` is set it receives the frame's bytes as they arrived.
  StatusOr<CtrlFrame> ReadFrame(Interner* interner, int timeout_ms,
                                std::string* raw = nullptr);

  /// True if a whole frame is already buffered (ReadFrame would not
  /// touch the socket).
  bool HasBufferedFrame() const;

  bool connected() const { return fd_.valid(); }
  int fd() const { return fd_.get(); }
  void Close() { fd_.reset(); rbuf_.clear(); }

 private:
  Status FillFromSocket(int timeout_ms);

  UniqueFd fd_;
  bool duplex_ = false;
  std::string rbuf_;
};

}  // namespace streamworks

#endif  // STREAMWORKS_NET_PEER_LINK_H_
