#ifndef STREAMWORKS_SERVICE_BACKEND_H_
#define STREAMWORKS_SERVICE_BACKEND_H_

#include <string>
#include <vector>

#include "streamworks/core/engine.h"
#include "streamworks/core/parallel.h"
#include "streamworks/service/metrics.h"

namespace streamworks {

/// Uniform control surface the service layer drives, hiding whether
/// queries run on one StreamWorksEngine or are sharded across a
/// ParallelEngineGroup. This is the seam later deployment modes (remote
/// workers, multi-backend fan-out) plug into.
///
/// Threading contract: one control thread calls Register / Unregister /
/// Info / Feed* / Flush; match callbacks may run on backend worker threads
/// and must be thread-safe (the service hands the backend callbacks that
/// only touch ResultQueue and atomics).
class QueryBackend {
 public:
  virtual ~QueryBackend() = default;

  virtual StatusOr<int> Register(const QueryGraph& query,
                                 DecompositionStrategy strategy,
                                 Timestamp window, MatchCallback callback) = 0;

  /// After this returns, no further callbacks fire for the query.
  virtual Status Unregister(int query_id) = 0;

  virtual StatusOr<QueryRuntimeInfo> Info(int query_id) = 0;

  /// Ingests one edge. A malformed-edge error is reported for the
  /// single-engine backend; the parallel backend surfaces those only in
  /// aggregate counters (its ingestion is asynchronous).
  virtual Status Feed(const StreamEdge& edge) = 0;

  /// Ingests a whole batch on the batched fast path. Malformed edges are
  /// skipped, not batch-fatal; when `rejected_out` is non-null it receives
  /// how many edges the backend refused (always 0 for asynchronous
  /// backends, which surface rejections only in aggregate counters — the
  /// wire protocol reports that count per FEEDB frame).
  virtual Status FeedBatch(const EdgeBatch& batch,
                           size_t* rejected_out) = 0;

  /// Blocks until every previously fed edge is fully processed (and its
  /// callbacks have run).
  virtual void Flush() = 0;

  /// Per-shard load/exchange counters, for ServiceMetrics. Deployment
  /// modes without shards report nothing; the parallel backend quiesces
  /// its group to read consistent gauges — call from the control thread.
  virtual std::vector<ShardLoadSnapshot> ShardLoads() { return {}; }

  // --- Durability seam ------------------------------------------------------
  // The persistence layer (persist/) snapshots and recovers through these
  // three calls, staying ignorant of whether the window lives on one
  // engine or across a sharded group. All are control-thread calls.

  /// Point-in-time export of the retained window (quiesces asynchronous
  /// backends first).
  virtual StatusOr<WindowSnapshot> ExportWindow() {
    return Status::Unimplemented("backend does not support window export");
  }

  /// Rebuilds the window from an export. Must precede any registration
  /// or ingest; the registrations that follow backfill from it.
  virtual Status RestoreWindow(const WindowSnapshot& snapshot) {
    (void)snapshot;
    return Status::Unimplemented("backend does not support window restore");
  }

  /// Gates match delivery while a recovery replay rebuilds state whose
  /// completions the crashed incarnation already emitted.
  virtual void SetSuppressCompletions(bool suppress) { (void)suppress; }
};

/// Per-shard counters as ServiceMetrics load rows tagged `sharding`.
std::vector<ShardLoadSnapshot> ToShardLoads(
    const std::vector<ShardStatsSnapshot>& stats, const std::string& sharding);

/// In-process, single-threaded deployment: every query on one engine,
/// callbacks fire synchronously inside Feed.
class SingleEngineBackend : public QueryBackend {
 public:
  /// `engine` must outlive the backend.
  explicit SingleEngineBackend(StreamWorksEngine* engine) : engine_(engine) {}

  StatusOr<int> Register(const QueryGraph& query,
                         DecompositionStrategy strategy, Timestamp window,
                         MatchCallback callback) override;
  Status Unregister(int query_id) override;
  StatusOr<QueryRuntimeInfo> Info(int query_id) override;
  Status Feed(const StreamEdge& edge) override;
  Status FeedBatch(const EdgeBatch& batch, size_t* rejected_out) override;
  void Flush() override {}
  StatusOr<WindowSnapshot> ExportWindow() override;
  Status RestoreWindow(const WindowSnapshot& snapshot) override;
  void SetSuppressCompletions(bool suppress) override {
    engine_->set_suppress_completions(suppress);
  }

 private:
  StreamWorksEngine* engine_;
};

/// Sharded deployment over a ParallelEngineGroup in either sharding mode —
/// the tenant-facing choice between them is made where the group is
/// constructed (ShardingMode::kBroadcastData replicates the window graph
/// per shard and spreads queries; kPartitionedData partitions the data
/// graph by vertex and replicates queries, exchanging cross-shard partial
/// matches). Callbacks fire on shard threads, Feed is an asynchronous
/// enqueue, and ShardLoads surfaces per-shard retained memory plus
/// exchange traffic into ServiceMetrics.
class ParallelGroupBackend : public QueryBackend {
 public:
  /// `group` must outlive the backend.
  explicit ParallelGroupBackend(ParallelEngineGroup* group) : group_(group) {}

  StatusOr<int> Register(const QueryGraph& query,
                         DecompositionStrategy strategy, Timestamp window,
                         MatchCallback callback) override;
  Status Unregister(int query_id) override;
  StatusOr<QueryRuntimeInfo> Info(int query_id) override;
  Status Feed(const StreamEdge& edge) override;
  Status FeedBatch(const EdgeBatch& batch, size_t* rejected_out) override;
  void Flush() override { group_->Flush(); }
  std::vector<ShardLoadSnapshot> ShardLoads() override;
  StatusOr<WindowSnapshot> ExportWindow() override {
    return group_->ExportWindow();
  }
  Status RestoreWindow(const WindowSnapshot& snapshot) override {
    return group_->RestoreWindow(snapshot);
  }
  void SetSuppressCompletions(bool suppress) override {
    group_->SetSuppressCompletions(suppress);
  }

 private:
  ParallelEngineGroup* group_;
};

}  // namespace streamworks

#endif  // STREAMWORKS_SERVICE_BACKEND_H_
