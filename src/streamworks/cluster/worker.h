#ifndef STREAMWORKS_CLUSTER_WORKER_H_
#define STREAMWORKS_CLUSTER_WORKER_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "streamworks/common/interner.h"
#include "streamworks/common/statusor.h"
#include "streamworks/common/unique_fd.h"
#include "streamworks/core/shard_runtime.h"
#include "streamworks/graph/partition.h"
#include "streamworks/net/peer_link.h"
#include "streamworks/obs/http_endpoint.h"
#include "streamworks/obs/metric_registry.h"
#include "streamworks/obs/stage_trace.h"
#include "streamworks/persist/segment_log.h"
#include "streamworks/stream/cluster_wire.h"

namespace streamworks {

struct WorkerOptions {
  std::string host = "127.0.0.1";
  int port = 0;  ///< 0 = ephemeral (read the bound port after Start).
  /// Durability root; the frame log lives in <data_dir>/frames. Empty =
  /// in-memory only (a crashed worker cannot recover its shard).
  std::string data_dir;
  /// Read-poll granularity: how often the serve loop re-checks its stop
  /// flag while idle.
  int poll_interval_ms = 250;
  /// Local observability endpoint: -1 = none, 0 = ephemeral (read
  /// http_port() after Start). Serves /metrics, /trace.json and /healthz
  /// from the daemon's serve thread — same single-threaded discipline as
  /// the control link, so a scrape never races an apply.
  int http_port = -1;
};

/// Aggregate counters one worker daemon exposes to tests.
struct WorkerCounters {
  uint64_t frames_applied = 0;     ///< State frames applied (== log seq).
  uint64_t exchange_items_sent = 0;
  uint64_t completions_sent = 0;
  uint64_t replayed_frames = 0;    ///< State frames re-applied at startup.
};

/// One shard of a distributed StreamWorks cluster, run as a daemon: a
/// single-threaded server owning one ShardRuntime, fed control frames by a
/// coordinator over a PeerLink.
///
/// Each state frame maps onto one ShardRuntime step — the same steps
/// ParallelEngineGroup's shard threads take in process: kRegister
/// registers and runs this shard's backfill share, kBatch applies routed
/// edges, kExchange applies relayed items, kCommit advances the
/// watermark. Forwarded partial matches flow back up to the coordinator,
/// which relays them (star topology, no worker mesh); epoch barriers
/// (kBarrier/kBarrierAck) bound in-flight work.
///
/// Durability and exactly-once recovery: every *state-bearing* frame
/// (IsStateCtrlType) is appended to the frame log before it is applied, in
/// arrival order. After a crash (kill -9 included — the log needs no
/// fsync to survive process death) the restarted daemon defers replay
/// until the coordinator's Hello arrives carrying two cursors: how many
/// exchange items (K) and completions (C) the coordinator had received
/// from this shard. Replay re-applies the whole log; because the engine is
/// deterministic, it regenerates the exact output streams the dead
/// incarnation produced, and the daemon discards the first K / C of them
/// — already delivered — and sends only the excess. It then reports its
/// durable frame count (M) in HelloAck, and the coordinator resends the
/// state frames [M, S) the crash swallowed. Net effect: every frame is
/// applied exactly once, every output delivered exactly once, with no
/// quiescence requirement on when the kill lands.
///
/// The frame log is a SegmentLog in kFrameLogFormat under
/// <data_dir>/frames: the edge WAL's segment format, one control frame
/// per record, each spanning one sequence number.
///
/// Single-threaded by design: one connection (the coordinator's), one
/// engine, no locks. The accept loop outlives connections so a
/// coordinator may reconnect after a link failure.
class WorkerDaemon {
 public:
  explicit WorkerDaemon(WorkerOptions options);
  ~WorkerDaemon() = default;

  WorkerDaemon(const WorkerDaemon&) = delete;
  WorkerDaemon& operator=(const WorkerDaemon&) = delete;

  /// Binds and listens (resolving port 0); opens the frame log when a
  /// data dir is configured, so a second daemon on the same dir fails
  /// here, not mid-handshake.
  Status Start();

  /// Bound TCP port (valid after Start).
  int port() const { return port_; }

  /// Bound HTTP port (valid after Start; -1 when the endpoint is off).
  int http_port() const { return http_port_; }

  /// The daemon's metric registry (local /metrics; snapshotted into
  /// MetricsReport frames for coordinator federation).
  MetricRegistry* registry() { return &registry_; }

  /// Serves until `stop` becomes true: accept one coordinator connection,
  /// handshake, dispatch frames; on link failure, go back to accepting.
  /// Returns the first non-recoverable error (log corruption, engine
  /// invariant breach), or OK on a clean stop.
  Status Serve(const std::atomic<bool>& stop);

  const WorkerCounters& counters() const { return counters_; }

 private:
  /// One coordinator connection: handshake, then dispatch until link
  /// failure or stop.
  Status ServeConnection(PeerLink* link, const std::atomic<bool>& stop);

  /// Handshake on a fresh connection: read Hello, configure the engine on
  /// first contact, replay the frame log (once per process, skipping the
  /// coordinator's K/C output cursors), send HelloAck + excess outputs.
  Status Handshake(PeerLink* link);

  /// Configures engine + partitioner from the Hello (first contact) or
  /// validates consistency (reconnect).
  Status Configure(const CtrlHello& hello);

  /// Logs `raw`, the frame's wire bytes (when durable), and applies one
  /// state frame; increments frames_applied. `register_ack_out`, when
  /// non-null, receives the ack for a kRegister frame (replay passes null
  /// — no one is listening).
  Status ApplyStateFrame(const CtrlFrame& frame, std::string_view raw,
                         CtrlRegisterAck* register_ack_out);

  Status ApplyRegister(const CtrlRegister& reg, CtrlRegisterAck* ack_out);

  /// Drains the engine's exchange outbox into kExchange frames for the
  /// coordinator (chunked), honouring the replay skip cursor. In replay
  /// the frames buffer into pending_out_; live, they send immediately.
  Status FlushOutbox(PeerLink* link);

  /// Engine completion callback target: encode + send (or buffer/skip
  /// during replay).
  void OnCompletion(const CompleteMatch& cm);

  Status SendInfoAck(PeerLink* link, const CtrlInfo& info);
  /// Snapshots the registry + cursors into a CRC'd MetricsReport frame.
  Status SendMetricsReport(PeerLink* link);

  /// Accepts and answers every pending HTTP scrape (non-blocking poll,
  /// one request per connection). Runs inline on the serve thread —
  /// between accepts while idle, between control frames while a
  /// coordinator session is live — so it reads engine state safely.
  void ServeHttpConnection();
  /// The worker's /healthz document.
  std::string RenderWorkerHealth() const;

  WorkerOptions options_;
  UniqueFd listen_fd_;
  int port_ = -1;
  UniqueFd http_listen_fd_;
  int http_port_ = -1;

  /// Local observability: per-worker registry + pipeline stage metrics,
  /// scraped directly over HTTP and federated through MetricsReport.
  MetricRegistry registry_;
  PipelineMetrics pipeline_;
  MetricCounter* edges_fed_ = nullptr;  ///< {role="worker"} ingest counter.
  int pipeline_collector_token_ = -1;
  std::unique_ptr<HttpHandler> http_;

  Interner interner_;
  std::unique_ptr<HashModuloPartitioner> partitioner_;
  std::unique_ptr<ShardRuntime> shard_;  ///< Built by Configure.
  std::unique_ptr<SegmentLog> log_;  ///< kFrameLogFormat, span 1.

  int shard_index_ = -1;
  int num_shards_ = 0;
  uint64_t partitioner_seed_ = 0;
  bool configured_ = false;
  bool replayed_ = false;

  /// Live link, only valid inside Serve's per-connection scope; kept as a
  /// member so OnCompletion (called from inside engine applies) can send.
  PeerLink* live_link_ = nullptr;

  /// Replay state: while set, outputs are counted against the skip
  /// cursors and the excess buffers into pending_out_ instead of sending.
  bool replaying_ = false;
  uint64_t replay_exchange_skip_ = 0;
  uint64_t replay_completion_skip_ = 0;
  std::vector<std::string> pending_out_;

  uint64_t applied_frames_ = 0;
  WorkerCounters counters_;
  Status completion_send_error_;  ///< First send failure inside a callback.
  /// Set when an error must end Serve (log corruption, engine-invariant
  /// breach) rather than just this connection.
  bool fatal_ = false;
};

}  // namespace streamworks

#endif  // STREAMWORKS_CLUSTER_WORKER_H_
