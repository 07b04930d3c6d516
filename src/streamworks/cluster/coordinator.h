#ifndef STREAMWORKS_CLUSTER_COORDINATOR_H_
#define STREAMWORKS_CLUSTER_COORDINATOR_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "streamworks/common/interner.h"
#include "streamworks/core/epoch_driver.h"
#include "streamworks/graph/dynamic_graph.h"
#include "streamworks/graph/partition.h"
#include "streamworks/net/peer_link.h"
#include "streamworks/obs/cluster_snapshot.h"
#include "streamworks/obs/epoch_trace.h"
#include "streamworks/obs/metric_registry.h"
#include "streamworks/obs/stage_trace.h"
#include "streamworks/service/backend.h"
#include "streamworks/stream/cluster_wire.h"

namespace streamworks {

struct DistributedBackendOptions {
  /// Worker endpoints as "host:port", one per shard; shard index = list
  /// position. The partition function is OwnerShard(v, workers.size()).
  std::vector<std::string> workers;
  uint64_t partitioner_seed = 0;
  /// Admitted edges per ingest epoch: the batch/barrier/commit cadence.
  int epoch_edges = kDefaultEpochEdges;
  /// Ingest backpressure bound: Feed blocks once this many edges are
  /// queued ahead of the pump.
  size_t max_pending_edges = kDefaultMaxQueuedEdges;
  /// How long Start waits for each worker to come up.
  int connect_deadline_ms = 10000;
  /// How long a mid-stream reconnect retries before the cluster op fails
  /// — the recovery budget for a crashed worker to restart and replay.
  int reconnect_deadline_ms = 30000;
  /// Per-frame wait while expecting an ack. Generous: a worker may be
  /// replaying a large log or backfilling a large window.
  int ack_timeout_ms = 60000;

  // Observability ------------------------------------------------------------

  /// When set, the coordinator registers a federation collector on this
  /// registry: every scrape pulls each worker's MetricsReport (subject to
  /// metrics_cache_ms) and merges the samples additively into the
  /// coordinator's own families, so /metrics is the whole cluster.
  MetricRegistry* registry = nullptr;
  /// When set, coordinator-side barrier/relay time is recorded as
  /// kBarrierWait / kExchangeRelay pipeline stages.
  PipelineMetrics* pipeline = nullptr;
  /// A cached worker report younger than this is served without a wire
  /// round-trip, bounding scrape-driven control traffic.
  int metrics_cache_ms = 1000;
  /// Per-worker wait for a MetricsReport. Deliberately much shorter than
  /// ack_timeout_ms: a scrape must not hang on a dead worker; the link is
  /// closed on expiry and the pump's normal recovery takes over.
  int metrics_timeout_ms = 5000;
  /// /healthz degrades when a connected worker's last report is older
  /// than this (a wedged worker that still holds its socket open).
  int stale_report_threshold_ms = 15000;
  /// Epoch trace ring capacity (entries retained for /epochs.json).
  size_t epoch_trace_capacity = 256;
};

/// QueryBackend that runs every shard in its own worker daemon process,
/// speaking the cluster control wire. It is the cluster ShardChannel under
/// the same EpochDriver that runs ParallelEngineGroup's kPartitionedData
/// mode: the driver admits and routes edges, cuts epochs, settles,
/// commits, registers and folds Info; this class carries those steps over
/// PeerLinks, and each worker daemon applies them to its ShardRuntime. The
/// coordinator is the exchange relay (star topology), barrier master and
/// completion delivery point — the service layer on top is unchanged.
///
/// Epochs: Feed/FeedBatch only enqueue (bounded, blocking when full); a
/// pump thread feeds up to epoch_edges at a time through the driver, whose
/// admitted edges go straight into per-worker Batch frames, then settles
/// with a barrier fixpoint — barrier every worker, relay the exchange
/// items their acks flushed, repeat until a round relays nothing — and
/// commits the watermark. Control operations (Register/Info/...) drain
/// pending edges first, so they observe everything fed before them.
///
/// Exchange relaying never holds the service's control mutex: the pump
/// owns cluster_mu_ while it routes, so a stalled worker backpressures
/// ingest (by design) but never wedges unrelated service sessions — the
/// service only blocks when it explicitly asks this backend to quiesce.
///
/// Fault tolerance (worker crash, kill -9 included): every state frame a
/// worker has not durably acknowledged is retained; on link failure — on
/// a state frame, a barrier or a request — the coordinator reconnects
/// (retrying up to reconnect_deadline_ms, covering a daemon restart),
/// sends a Hello carrying how many exchange items and completions it has
/// ever received from that shard, learns from the HelloAck how many frames
/// survived in the worker's log, and resends the rest. The worker replays
/// its log, skipping the outputs the cursors say were already delivered.
/// Exactly-once, both directions. The coordinator itself is not
/// replicated — it is the deployment's root, like the single-process
/// service it replaces.
class DistributedBackend : public QueryBackend, private ShardChannel {
 public:
  /// `interner` is the service's label interner (control-thread owned);
  /// queries and fed edges arrive in its id space.
  DistributedBackend(DistributedBackendOptions options, Interner* interner);
  ~DistributedBackend() override;

  DistributedBackend(const DistributedBackend&) = delete;
  DistributedBackend& operator=(const DistributedBackend&) = delete;

  /// Connects and handshakes every worker (fresh workers only — a worker
  /// holding state from an earlier run is refused), then starts the pump.
  Status Start();

  /// Stops the pump and closes all links. Pending un-pumped edges are
  /// dropped; call Flush() first for a clean drain. Idempotent.
  void Stop();

  // QueryBackend surface -----------------------------------------------------
  StatusOr<int> Register(const QueryGraph& query, DecompositionStrategy strategy,
                         Timestamp window, MatchCallback callback) override;
  Status Unregister(int query_id) override;
  StatusOr<QueryRuntimeInfo> Info(int query_id) override;
  Status Feed(const StreamEdge& edge) override;
  Status FeedBatch(const EdgeBatch& batch, size_t* rejected_out) override;
  void Flush() override;
  std::vector<ShardLoadSnapshot> ShardLoads() override;
  void SetSuppressCompletions(bool suppress) override {
    suppress_.store(suppress, std::memory_order_relaxed);
  }

  /// Edges refused by group admission (label clash / stale timestamp).
  uint64_t rejected_edges() const { return driver_.rejected(); }

  // Cluster observability ----------------------------------------------------

  /// One-pane-of-glass view for /cluster.json and /healthz: per-worker
  /// link state, report freshness, recovery cursors, and stage digests.
  /// When `refresh` is set, stale worker reports are re-pulled first
  /// (bounded by metrics_timeout_ms per stale worker). Takes cluster_mu_.
  ClusterObsSnapshot ObsSnapshot(bool refresh);

  /// The epoch trace ring's surviving entries, oldest first (lock-free).
  std::vector<EpochTraceEntry> EpochTrace() const {
    return epoch_ring_.Snapshot();
  }
  /// Lifetime epoch count (ring entries may have been lapped).
  uint64_t epochs_completed() const { return epoch_ring_.total_pushed(); }

 private:
  /// Everything the coordinator tracks per worker. `sent_state` counts
  /// state frames ever sent (the worker's log seq converges to it);
  /// `retained` holds the un-acknowledged tail, frames
  /// [pruned_base, sent_state), for resend after a crash.
  struct WorkerState {
    std::string host;
    int port = 0;
    std::optional<PeerLink> link;
    uint64_t sent_state = 0;
    uint64_t pruned_base = 0;
    std::deque<std::string> retained;
    /// Recovery cursors sent in Hello (see CtrlHello).
    uint64_t exchange_received = 0;
    uint64_t completions_received = 0;
    /// Federation cache: the worker's last MetricsReport and when it
    /// arrived. Served until metrics_cache_ms old, then re-pulled.
    CtrlMetricsReport report;
    bool has_report = false;
    uint64_t report_at_us = 0;
  };

  struct QueryState {
    QueryGraph query;
    MatchCallback callback;
  };

  // All private methods below require cluster_mu_ held.

  /// Retains `frame` for `w` and sends it, reconnecting on failure.
  Status SendStateFrame(WorkerState* w, std::string frame);
  /// (Re)connects `w` and handshakes: a Hello carrying the recovery
  /// cursors, answered by the count of frames durable in the worker's log.
  StatusOr<uint64_t> Connect(WorkerState* w, int deadline_ms);
  /// Connect + resend of the retained tail the worker's log lacks.
  Status RecoverLink(WorkerState* w);
  /// Handles one worker->coordinator frame that is not the ack currently
  /// being awaited: exchange relays and completion delivery.
  Status HandleWorkerFrame(WorkerState* from, const CtrlFrame& frame);
  /// Reads frames from `w` until one of `type` arrives, relaying
  /// everything else through HandleWorkerFrame. A read failure is
  /// returned, or — when `resend` is set — recovered, re-sending it.
  StatusOr<CtrlFrame> AwaitFrame(WorkerState* w, CtrlType type,
                                 int timeout_ms,
                                 const std::string* resend = nullptr);
  /// Sends an unlogged request frame (barrier, info, stats) and awaits
  /// its `reply`. A dead link — a restarted worker, or one a metrics
  /// timeout closed — is recovered like a state frame's, and the request
  /// re-sent: requests are not retained, so no recovery replays them.
  StatusOr<CtrlFrame> Request(WorkerState* w, const std::string& request,
                              CtrlType reply);
  /// Request's send half; a barrier sends to every worker before it
  /// awaits any reply.
  Status SendRequest(WorkerState* w, const std::string& request);
  /// Per-epoch phase decomposition accumulated by Settle and
  /// CommitWatermark for the epoch trace. apply is round 1's ack wait
  /// (dominated by workers applying the batch); relay is exchange
  /// forwarding time; barrier is the remaining rounds' settle time.
  struct EpochPhases {
    uint64_t apply_us = 0;
    uint64_t relay_us = 0;
    uint64_t barrier_us = 0;
    uint64_t commit_us = 0;
    uint64_t relay_rounds = 0;
    uint64_t relayed_items = 0;
  };

  // ShardChannel: the driver's steps over the control wire.
  void RouteEdge(int shard, const StreamEdge& edge, EdgeId id,
                 bool run_anchors) override;
  /// Ships the epoch's batches, then barriers every worker and relays
  /// flushed exchange traffic until a round moves nothing.
  Status Settle() override;
  Status CommitWatermark(Timestamp watermark) override;
  Status RegisterOnShards(int query_id, const QueryGraph& query,
                          DecompositionStrategy strategy, Timestamp window,
                          MatchCallback callback) override;
  Status EndBackfill() override;
  Status UnregisterOnShards(int query_id) override;
  StatusOr<QueryRuntimeInfo> ShardInfo(int shard, int query_id) override;
  StatusOr<ShardStatsSnapshot> ShardStatsAt(int shard) override;

  /// Sends `frame` as a state frame to every worker.
  Status BroadcastStateFrame(const std::string& frame);
  /// Requests and caches a fresh MetricsReport from `w`. On failure the
  /// link is closed (never RecoverLink here — a scrape must not block on
  /// the 30s reconnect budget) and the stale cache entry is kept.
  Status PullMetricsReport(WorkerState* w);
  /// Re-pulls every worker whose cached report is older than
  /// metrics_cache_ms. Failures are absorbed into link/freshness state.
  void RefreshReports(uint64_t now_us);
  /// Builds the /cluster.json snapshot from cached state; no wire IO.
  ClusterObsSnapshot BuildObsSnapshot(uint64_t now_us);
  /// Federation collector body: refresh + merge worker samples and the
  /// coordinator's epoch-phase families into a scrape.
  void ContributeClusterMetrics(MetricSnapshotBuilder* out);
  /// Feeds up to epoch_edges pending edges through the driver and closes
  /// the epoch, tracing its phases. Returns edges consumed.
  StatusOr<size_t> RunEpoch();
  /// RunEpoch until the pending queue is empty (control ops call this so
  /// they observe all prior ingest).
  Status DrainPending();

  /// Copies newly interned names out of the service interner into the
  /// thread-safe cache the pump's encoders read. Control-thread only.
  void SyncLabelNames();
  std::string_view CachedLabelName(LabelId id);

  void PumpLoop();

  const DistributedBackendOptions options_;
  Interner* interner_;  ///< Service interner; control-thread access only.

  /// Append-only mirror of the service interner's names. A deque so
  /// grown-in elements never move: CachedLabelName hands out views that
  /// stay valid without holding label_mu_ across an encode.
  std::mutex label_mu_;
  std::deque<std::string> label_names_;

  /// Serialises all cluster wire traffic and worker/query state. Held by
  /// the control thread during control ops and by the pump per epoch.
  std::mutex cluster_mu_;
  std::vector<WorkerState> workers_;
  std::map<int, QueryState> queries_;
  HashModuloPartitioner partitioner_;
  /// The current epoch's routed edges, one batch per worker.
  std::vector<CtrlBatch> batches_;

  /// Decode/relay id space for worker->coordinator frames; disjoint from
  /// the service interner (labels cross between them as strings).
  Interner wire_interner_;
  /// Vertices-only graph backing Localize of delivered completions:
  /// coordinator-side external-id resolution without storing any edges.
  DynamicGraph coord_graph_;

  /// The group side: admission, routing, epochs, registration, Info.
  EpochDriver driver_;
  uint32_t barrier_round_ = 0;
  uint64_t relays_total_ = 0;

  // Observability state (epoch ring is lock-free; the histograms are
  // atomic; everything else under cluster_mu_).
  EpochTraceRing epoch_ring_;
  int federation_token_ = -1;  ///< Registry collector token, -1 if none.
  /// Cumulative exchange-forwarding wall time and items, accumulated by
  /// HandleWorkerFrame; Settle differences them per round.
  uint64_t relay_forward_us_ = 0;
  /// The running epoch's phases; RunEpoch resets and reads them.
  EpochPhases phases_;
  AtomicHistogram phase_batch_us_;
  AtomicHistogram phase_apply_us_;
  AtomicHistogram phase_relay_us_;
  AtomicHistogram phase_barrier_us_;
  AtomicHistogram phase_commit_us_;
  AtomicHistogram relay_items_per_round_;

  std::mutex pending_mu_;
  std::condition_variable pending_cv_;  ///< Pump wakeup: work or stop.
  std::condition_variable space_cv_;    ///< Feed wakeup: queue has room.
  std::deque<StreamEdge> pending_;
  bool stop_ = false;

  std::thread pump_;
  bool started_ = false;
  std::atomic<bool> suppress_{false};
};

/// Splits "host:port". Exposed for the demo binary's flag parsing.
StatusOr<std::pair<std::string, int>> ParseHostPort(const std::string& spec);

}  // namespace streamworks

#endif  // STREAMWORKS_CLUSTER_COORDINATOR_H_
