#ifndef STREAMWORKS_CORE_ENGINE_H_
#define STREAMWORKS_CORE_ENGINE_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "streamworks/common/interner.h"
#include "streamworks/common/statusor.h"
#include "streamworks/obs/stage_trace.h"
#include "streamworks/graph/dynamic_graph.h"
#include "streamworks/graph/partition.h"
#include "streamworks/graph/query_graph.h"
#include "streamworks/planner/planner.h"
#include "streamworks/planner/stats.h"
#include "streamworks/sjtree/exchange.h"
#include "streamworks/sjtree/sj_tree.h"
#include "streamworks/stream/batching.h"

namespace streamworks {

/// A completed match delivered to a query's callback.
struct CompleteMatch {
  int query_id = -1;
  Match match;
  /// Stream watermark when the match completed (== the completing edge's
  /// timestamp).
  Timestamp completed_at = 0;
  /// Graph whose id space `match` is expressed in (the delivering engine's;
  /// the pointer stays valid for the engine's lifetime). Use it to resolve
  /// vertex ids to external ids / labels — internal ids are per-engine
  /// artifacts, and in a vertex-partitioned group each shard numbers
  /// vertices differently. Edge *records* resolve only where the edge is
  /// stored; edge ids themselves are globally meaningful in every mode.
  ///
  /// Thread safety: the graph keeps mutating as the stream flows, so only
  /// dereference (a) inside the delivering callback, which runs on the
  /// engine's processing thread, or (b) after the backend has been
  /// flushed/quiesced with no concurrent ingest — e.g. draining a
  /// ResultQueue after Flush(). A consumer thread racing live ingest must
  /// copy what it needs inside the callback instead.
  const DynamicGraph* graph = nullptr;
  /// Deployment-invariant text form of `match`
  /// (Match::ToExternalString against `graph`), filled by the service
  /// delivery callback at enqueue time — the one point where
  /// dereferencing `graph` is always safe. Streamed EVENT and POLL lines
  /// print this instead of re-rendering on a consumer thread that races
  /// live ingest; empty when no delivery callback rendered it.
  std::string rendered;
};

/// Receives every complete match of one registered query, in completion
/// order, exactly once.
using MatchCallback = std::function<void(const CompleteMatch&)>;

/// Global engine configuration.
struct EngineOptions {
  /// Edges between periodic partial-match expiry sweeps (lazy expiry on
  /// probe happens regardless).
  int expiry_sweep_interval = 1024;
  /// Maintain SummaryStatistics while streaming (costs O(degree) per edge
  /// on a sample of edges).
  bool collect_statistics = false;
  /// Wedge-census sampling rate when collect_statistics is on.
  double wedge_sample_rate = 0.1;
  /// Half-life in edges for recency weighting of the summary statistics
  /// (SummaryStatistics::set_decay_half_life); 0 keeps them cumulative.
  /// Recency weighting is what lets adaptive re-planning follow
  /// distribution drift instead of the stream's lifetime average.
  uint64_t stats_half_life = 0;
  /// Adaptive re-planning (the paper's §4.3 future work: "continuously
  /// collecting the statistics … and updating the query decomposition"):
  /// every this many edges, each strategy-registered query is re-planned
  /// against the live statistics and its SJ-Tree is swapped if the plan
  /// changed. 0 disables. Requires collect_statistics. Swapping preserves
  /// exactly-once semantics (see ReplanQuery).
  int replan_interval = 0;
  /// Always-on pipeline-stage instrumentation sink (kSjTreeJoin and
  /// kExchangeForward record here). Null disables — the null check is the
  /// only per-edge cost, and the join stage is timed only for edges that
  /// actually anchored a query, so pure ingest pays no extra clock reads.
  PipelineMetrics* pipeline = nullptr;
};

/// Aggregate runtime counters.
struct EngineMetrics {
  uint64_t edges_processed = 0;
  uint64_t edges_rejected = 0;  ///< Malformed input (bad ts / label clash).
  uint64_t batches_processed = 0;
  uint64_t completions = 0;
  double processing_seconds = 0;
};

/// Runtime counters of one SJ-Tree decomposition node — the per-node
/// match-rate/selectivity visibility an operator (or a future adaptive
/// re-planner) watches for drift. Selectivities derive at render time:
/// joins_succeeded/join_attempts is the node's join selectivity,
/// matches_inserted/probes its per-probe yield.
struct SjNodeRuntime {
  int node = -1;
  bool is_leaf = false;
  int query_edges = 0;  ///< Edges of the query covered by this node.
  uint64_t matches_inserted = 0;
  uint64_t probes = 0;
  uint64_t join_attempts = 0;
  uint64_t joins_succeeded = 0;
  uint64_t live_partial_matches = 0;
};

/// Snapshot of one registered query's state.
struct QueryRuntimeInfo {
  int query_id = -1;
  std::string name;
  Timestamp window = 0;
  uint64_t completions = 0;
  size_t live_partial_matches = 0;
  size_t peak_partial_matches = 0;
  /// Per-decomposition-node counters, indexed by node id. In a
  /// vertex-partitioned group these are element-wise sums across shards
  /// (every shard runs a replica of the same tree shape).
  std::vector<SjNodeRuntime> nodes;
};

/// Point-in-time per-shard load/traffic counters (ShardRuntime::Stats).
struct ShardStatsSnapshot {
  int shard = 0;
  uint64_t retained_edges = 0;    ///< Edges currently stored in the window.
  uint64_t retained_vertices = 0;
  uint64_t evicted_edges = 0;
  uint64_t edges_processed = 0;   ///< Ingested copies (not group-unique).
  uint64_t completions = 0;       ///< Matches this shard delivered.
  uint64_t live_partial_matches = 0;
  ExchangeCounters exchange;      ///< All zero in broadcast mode.
};

/// Point-in-time export of the retained window in external-id form: what
/// a snapshot persists and a recovering process re-ingests. `edges` are
/// ascending by id; `next_edge_id` and `watermark` restore the id
/// sequence and time admission exactly, so a replayed WAL tail assigns
/// the same ids (and rejects the same regressions) the crashed
/// incarnation did.
struct WindowSnapshot {
  std::vector<PersistedEdge> edges;
  EdgeId next_edge_id = 0;
  Timestamp watermark = -1;
};

/// Identity one engine assumes when it runs as one shard of a
/// vertex-partitioned group (see ShardRuntime). `partitioner` and
/// `exchange` must outlive the engine; the group routes edges in and
/// forwards the exchange's matches out.
struct ShardConfig {
  int shard_index = 0;
  int num_shards = 1;
  const Partitioner* partitioner = nullptr;
  MatchExchange* exchange = nullptr;
};

/// StreamWorks (paper Fig. 1): the continuous-query engine for dynamic
/// graph search. Users register graph queries (each with a time window, a
/// decomposition — explicit or planned — and a callback); the engine then
/// consumes the edge stream, maintaining
///
///   * the shared windowed data graph (retention = the largest registered
///     window),
///   * optional summarisation statistics (§4.3) for planning later
///     registrations,
///   * one SJ-Tree per query, reached through a label-routing index so an
///     arriving edge only touches queries whose leaves it can anchor,
///
/// and delivers the incremental match set f(Gd, Gq, E_k+1) through the
/// callbacks, each match exactly once at the moment its last edge arrives.
class StreamWorksEngine {
 public:
  /// `interner` must outlive the engine and be the one used to intern the
  /// stream's and queries' labels.
  explicit StreamWorksEngine(Interner* interner, EngineOptions options = {});

  // --- Query registration --------------------------------------------------
  /// Registers `query` with an explicit decomposition. Returns the query
  /// id. `window` must be positive (kMaxTimestamp = unbounded).
  ///
  /// Mid-stream registration backfills the current window into the new
  /// SJ-Tree: edges already in the graph can join with future arrivals,
  /// but matches that completed before registration are not reported.
  StatusOr<int> RegisterQuery(const QueryGraph& query,
                              Decomposition decomposition, Timestamp window,
                              MatchCallback callback);

  /// Registers `query`, planning the decomposition with `strategy` against
  /// the engine's current summary statistics (uninformed if statistics
  /// collection is off or no edges have been seen). Strategy-registered
  /// queries participate in adaptive re-planning (replan_interval).
  StatusOr<int> RegisterQuery(const QueryGraph& query,
                              DecompositionStrategy strategy,
                              Timestamp window, MatchCallback callback);

  /// Re-plans one query against the engine's current statistics (with
  /// `strategy` overriding the registration strategy if given) and swaps
  /// in a fresh SJ-Tree built from the new decomposition.
  ///
  /// The swap preserves exactly-once delivery: the new tree is backfilled
  /// from the current window with completions suppressed (anything it
  /// would complete during backfill already completed — and was emitted —
  /// before the swap), then replaces the old tree atomically between
  /// edges. Costs one window replay. Returns whether the decomposition
  /// actually changed.
  StatusOr<bool> ReplanQuery(int query_id,
                             std::optional<DecompositionStrategy> strategy =
                                 std::nullopt);

  /// Plans `query` against the engine's current statistics (uninformed
  /// when statistics collection is off or nothing was observed yet).
  StatusOr<Decomposition> PlanWithCurrentStats(
      const QueryGraph& query, DecompositionStrategy strategy) const;

  /// Number of tree swaps performed by adaptive re-planning so far.
  uint64_t replans_performed() const { return replans_performed_; }

  /// Unregisters a query: its SJ-Tree (and every live partial match) is
  /// dropped and the routing index is rebuilt so subsequent edges no longer
  /// touch it. The id is never reused; the shared graph's retention is not
  /// shrunk (remaining queries may rely on it, and a later registration
  /// with a long window would just re-grow it).
  Status UnregisterQuery(int query_id);

  /// True if `query_id` names a live (registered, not yet unregistered)
  /// query.
  bool has_query(int query_id) const {
    return query_id >= 0 && query_id < static_cast<int>(queries_.size()) &&
           queries_[query_id] != nullptr;
  }

  // --- Streaming --------------------------------------------------------------
  /// Ingests one edge and runs every routed query. Invalid edges (time
  /// regression, vertex label clash) are counted and reported, not fatal.
  Status ProcessEdge(const StreamEdge& edge);

  /// Ingests one timestep batch E_k+1; callbacks fire as each match
  /// completes within the batch. Malformed edges are counted and skipped
  /// (the rest of the batch still ingests, exactly like the equivalent
  /// ProcessEdge sequence); the first such error is returned.
  Status ProcessBatch(const EdgeBatch& batch);

  // --- Vertex-partitioned shard mode --------------------------------------
  /// Turns this engine into one shard of a vertex-partitioned group. Must
  /// be called before any registration or ingest. Requires
  /// replan_interval == 0 (per-shard re-planning would diverge the
  /// replicated trees). Switches the graph to manual eviction: expiry
  /// advances at AdvanceWatermark (group epoch) boundaries, never racing
  /// ahead of forwarded matches still in flight.
  void EnableShardMode(const ShardConfig& config);
  bool shard_mode() const { return shard_.exchange != nullptr; }

  /// Ingests one edge this shard owns at least one endpoint of, under its
  /// group-global id. `run_anchors` is set only on the shard owning the
  /// source vertex, so each edge anchors local search exactly once
  /// group-wide; the other endpoint's shard just stores the edge for
  /// future expansions through its vertex.
  Status ProcessShardEdge(const StreamEdge& edge, EdgeId global_id,
                          bool run_anchors);

  /// Executes one forwarded work item (expansion resume, homed insert, or
  /// completion delivery) against this shard's state.
  void HandleExchangeItem(const ExchangeItem& item);

  /// Raises the shard's watermark to the group watermark and expires
  /// edges + partial matches under it (group epoch barrier).
  void AdvanceWatermark(Timestamp watermark);

  /// Re-runs anchor plans of `query_id` for the stored edge `edge_id`
  /// (sharded path, exchange via the router). ShardRuntime::Register drives
  /// this during distributed backfill of a mid-stream registration, with
  /// completions suppressed, only on the shard owning the edge's source.
  void BackfillQueryEdge(int query_id, EdgeId edge_id);

  /// While set, completed matches are dropped before counting/delivery
  /// (distributed backfill replays the window; anything completing there
  /// already completed — and was emitted — in the past).
  void set_suppress_completions(bool suppress) {
    suppress_completions_ = suppress;
  }

  // --- Durability ----------------------------------------------------------
  /// Exports the retained window in external-id form (ascending by edge
  /// id), plus the id sequence and watermark — everything a snapshot
  /// needs to rebuild this engine's graph byte-for-byte.
  WindowSnapshot ExportWindow() const;

  /// Re-ingests one exported edge under its original id. Restore runs
  /// before any registration (checked): with no queries there is nothing
  /// to match against, so the window rebuilds silently and the
  /// registrations that follow backfill their SJ-Trees from it through
  /// the ordinary suppressed-backfill machinery. Edges must arrive in
  /// ascending id order.
  Status RestoreWindowEdge(const StreamEdge& edge, EdgeId id);

  /// Completes a restore: fast-forwards the id sequence to
  /// `next_edge_id` and raises the (safe) watermark to `watermark`, so
  /// post-recovery ingest continues exactly where the crashed
  /// incarnation stopped even when the restored window was empty.
  void FinishWindowRestore(EdgeId next_edge_id, Timestamp watermark);

  // --- Introspection ------------------------------------------------------------
  const DynamicGraph& graph() const { return graph_; }
  const SummaryStatistics& statistics() const { return statistics_; }
  const EngineMetrics& metrics() const { return metrics_; }
  /// Number of live queries (unregistered slots excluded).
  size_t num_queries() const;
  const SjTree& sjtree(int query_id) const;
  QueryRuntimeInfo query_info(int query_id) const;
  /// Live partial matches across every registered query's tree.
  size_t total_live_partial_matches() const;

 private:
  struct RegisteredQuery {
    QueryGraph query;
    Timestamp window = 0;
    MatchCallback callback;
    std::unique_ptr<SjTree> tree;
    uint64_t completions = 0;
    /// Strategy used at registration; nullopt for explicit decompositions
    /// (those are never auto-replanned).
    std::optional<DecompositionStrategy> strategy;
  };

  /// (query, anchor-plan) pair reached from the routing index.
  struct Route {
    int query_id;
    size_t plan_index;
    LabelId src_label;
    LabelId dst_label;
  };

  /// ShardRouter the trees consult in shard mode: ownership and homing
  /// questions answer from the shared partitioner; Forward* serialise the
  /// match against this engine's graph and queue it on the exchange. The
  /// tree never forwards to self, so these calls never re-enter the
  /// engine.
  class Router final : public ShardRouter {
   public:
    explicit Router(StreamWorksEngine* engine) : engine_(engine) {}

    int self_shard() const override;
    int OwnerOfVertex(ExternalVertexId v) const override;
    int HomeShard(uint64_t ext_cut_key) const override;
    int callback_home() const override;
    Timestamp safe_watermark() const override;
    void ForwardExpansion(int dest, uint32_t plan, int step,
                          const Match& m) override;
    void ForwardInsert(int dest, int node, const Match& m) override;
    void ForwardCompletion(int dest, const Match& m) override;

    /// Query whose tree is currently executing (set by the engine before
    /// every tree call; routing and homing are per-query).
    int current_query_id = -1;

   private:
    ExchangeItem WireItem(ExchangeKind kind, const Match& m) const;
    StreamWorksEngine* engine_;
  };

  StatusOr<int> RegisterQueryImpl(const QueryGraph& query,
                                  Decomposition decomposition,
                                  Timestamp window, MatchCallback callback,
                                  std::optional<DecompositionStrategy>
                                      strategy);

  /// Counts and delivers scratch_completed_ to `rq`'s callback (drops all
  /// of it while suppress_completions_ is set), then clears the scratch.
  void DeliverCompletions(int query_id, RegisteredQuery& rq);

  /// Builds a tree for `query` over `decomposition` and replays the
  /// current window into it with completions suppressed.
  std::unique_ptr<SjTree> BuildBackfilledTree(const QueryGraph* query,
                                              Decomposition decomposition,
                                              Timestamp window);

  /// Recomputes the label-routing index from every registered query.
  void RebuildRoutes();

  Interner* interner_;
  EngineOptions options_;
  ShardConfig shard_;  ///< num_shards == 1 / null exchange: classic mode.
  Router router_{this};
  bool suppress_completions_ = false;
  /// Shard mode: last group watermark received through AdvanceWatermark —
  /// the only timestamp expiry may use (see ShardRouter::safe_watermark).
  Timestamp safe_watermark_ = -1;
  DynamicGraph graph_;
  SummaryStatistics statistics_;
  /// Indexed by query id. Unregistered queries leave a null slot so ids
  /// stay stable for the lifetime of the engine.
  std::vector<std::unique_ptr<RegisteredQuery>> queries_;
  std::unordered_map<LabelId, std::vector<Route>> routes_;
  EngineMetrics metrics_;
  int edges_since_sweep_ = 0;
  int edges_since_replan_ = 0;
  uint64_t replans_performed_ = 0;
  std::vector<Match> scratch_completed_;
};

}  // namespace streamworks

#endif  // STREAMWORKS_CORE_ENGINE_H_
