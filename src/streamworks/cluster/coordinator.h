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
#include "streamworks/graph/dynamic_graph.h"
#include "streamworks/graph/edge_admission.h"
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
  /// Edges per ingest epoch: the batch/barrier/commit cadence, mirroring
  /// the in-process group's epoch size.
  int epoch_edges = 1024;
  /// Ingest backpressure bound: Feed blocks once this many edges are
  /// queued ahead of the pump.
  size_t max_pending_edges = 32768;
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
/// speaking the cluster control wire. This is the in-process
/// ParallelEngineGroup's kPartitionedData mode lifted across process
/// boundaries: the coordinator is the ingest router, exchange relay (star
/// topology), barrier master, watermark committer, and completion
/// delivery point — the service layer on top of it is unchanged.
///
/// Epochs: Feed/FeedBatch only enqueue (bounded, blocking when full); a
/// pump thread drains up to epoch_edges at a time, routes each admitted
/// edge to its endpoint-owner worker(s) as a Batch, then runs a barrier
/// fixpoint — barrier every worker, relay the exchange items their acks
/// flushed, repeat until a round relays nothing — and commits the
/// watermark. Control operations (Register/Info/...) drain pending edges
/// first, so they observe everything fed before them.
///
/// Exchange relaying never holds the service's control mutex: the pump
/// owns cluster_mu_ while it routes, so a stalled worker backpressures
/// ingest (by design) but never wedges unrelated service sessions — the
/// service only blocks when it explicitly asks this backend to quiesce.
///
/// Fault tolerance (worker crash, kill -9 included): every state frame a
/// worker has not durably acknowledged is retained; on link failure the
/// coordinator reconnects (retrying up to reconnect_deadline_ms, covering
/// a daemon restart), sends a Hello carrying how many exchange items and
/// completions it has ever received from that shard, learns from the
/// HelloAck how many frames survived in the worker's log, and resends the
/// rest. The worker replays its log, skipping the outputs the cursors say
/// were already delivered. Exactly-once, both directions. The coordinator
/// itself is not replicated — it is the deployment's root, like the
/// single-process service it replaces.
class DistributedBackend : public QueryBackend {
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

  /// Edges refused by group admission (label clash / stale timestamp),
  /// mirroring the in-process group's aggregate counter.
  uint64_t rejected_edges() const {
    return rejected_edges_.load(std::memory_order_relaxed);
  }

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
  /// Reconnect + Hello/HelloAck + resend of the retained tail.
  Status RecoverLink(WorkerState* w);
  /// Handles one worker->coordinator frame that is not the ack currently
  /// being awaited: exchange relays and completion delivery.
  Status HandleWorkerFrame(WorkerState* from, const CtrlFrame& frame);
  /// Reads frames from `w` until one of `type` arrives, relaying
  /// everything else through HandleWorkerFrame.
  StatusOr<CtrlFrame> AwaitFrame(WorkerState* w, CtrlType type);
  /// Per-epoch phase decomposition accumulated by BarrierFixpoint for the
  /// epoch trace. apply is round 1's ack wait (dominated by workers
  /// applying the batch); relay is exchange forwarding time; barrier is
  /// the remaining rounds' settle time.
  struct EpochPhases {
    uint64_t apply_us = 0;
    uint64_t relay_us = 0;
    uint64_t barrier_us = 0;
    uint64_t commit_us = 0;
    uint64_t relay_rounds = 0;
    uint64_t relayed_items = 0;
  };

  /// Barriers every worker and relays flushed exchange traffic until a
  /// round moves nothing, then commits the watermark if it advanced.
  Status BarrierFixpoint(EpochPhases* phases = nullptr);
  Status AwaitBarrierAck(WorkerState* w, uint32_t round);
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
  /// Routes up to epoch_edges pending edges into per-worker batches and
  /// runs the epoch's barrier + commit. Returns edges consumed.
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
  int next_query_id_ = 0;
  HashModuloPartitioner partitioner_;

  /// Decode/relay id space for worker->coordinator frames; disjoint from
  /// the service interner (labels cross between them as strings).
  Interner wire_interner_;
  /// Vertices-only graph backing Localize of delivered completions:
  /// coordinator-side external-id resolution without storing any edges.
  DynamicGraph coord_graph_;

  // Group ingest state: the in-process group's admission, run once here
  // so every worker's vertex records agree.
  EdgeAdmission admission_;
  Timestamp last_broadcast_watermark_ = -1;
  uint32_t barrier_round_ = 0;
  uint64_t relays_total_ = 0;

  // Observability state (epoch ring is lock-free; the histograms are
  // atomic; everything else under cluster_mu_).
  EpochTraceRing epoch_ring_;
  int federation_token_ = -1;  ///< Registry collector token, -1 if none.
  /// Cumulative exchange-forwarding wall time and items, accumulated by
  /// HandleWorkerFrame; BarrierFixpoint differences them per round.
  uint64_t relay_forward_us_ = 0;
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
  std::atomic<uint64_t> rejected_edges_{0};
};

/// Splits "host:port". Exposed for the demo binary's flag parsing.
StatusOr<std::pair<std::string, int>> ParseHostPort(const std::string& spec);

}  // namespace streamworks

#endif  // STREAMWORKS_CLUSTER_COORDINATOR_H_
