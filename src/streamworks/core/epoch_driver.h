#ifndef STREAMWORKS_CORE_EPOCH_DRIVER_H_
#define STREAMWORKS_CORE_EPOCH_DRIVER_H_

#include <atomic>
#include <cstddef>
#include <set>
#include <span>
#include <vector>

#include "streamworks/common/statusor.h"
#include "streamworks/core/engine.h"
#include "streamworks/graph/edge_admission.h"
#include "streamworks/graph/partition.h"

namespace streamworks {

/// Admitted edges per ingest epoch: how often the group settles the
/// exchange and commits its watermark.
inline constexpr int kDefaultEpochEdges = 1024;
/// Ingest backpressure: edges queued ahead of the shards before a
/// producer blocks.
inline constexpr size_t kDefaultMaxQueuedEdges = 32768;

/// How an EpochDriver reaches its shards (each shard a ShardRuntime). Two
/// implementations: ParallelEngineGroup's in-process queues and worker
/// threads, and DistributedBackend's PeerLinks to worker daemons.
class ShardChannel {
 public:
  virtual ~ShardChannel() = default;

  /// Queues one admitted edge for `shard` in the current epoch.
  virtual void RouteEdge(int shard, const StreamEdge& edge, EdgeId id,
                         bool run_anchors) = 0;
  /// Applies everything routed so far and runs the exchange to a
  /// fixpoint: on return no shard holds unapplied work or unforwarded
  /// items, and every completion has been delivered.
  virtual Status Settle() = 0;
  /// Broadcasts the group watermark; shards expire under it.
  virtual Status CommitWatermark(Timestamp watermark) = 0;
  /// Registers the query on every shard under `query_id`, each running
  /// its backfill share with completions suppressed. A validation failure
  /// is the same on every shard and registers nothing anywhere.
  virtual Status RegisterOnShards(int query_id, const QueryGraph& query,
                                  DecompositionStrategy strategy,
                                  Timestamp window,
                                  MatchCallback callback) = 0;
  /// Lifts backfill suppression on every shard.
  virtual Status EndBackfill() = 0;
  virtual Status UnregisterOnShards(int query_id) = 0;
  virtual StatusOr<QueryRuntimeInfo> ShardInfo(int shard, int query_id) = 0;
  virtual StatusOr<ShardStatsSnapshot> ShardStatsAt(int shard) = 0;
};

/// The group side of vertex-partitioned execution, shared by both sharded
/// paths. It owns group admission and edge routing (the source owner
/// anchors, the destination owner stores a copy), the epoch cut → settle
/// → commit sequence, the register → backfill → settle → end-backfill
/// sequence, unregister (settle, drop, settle) and the Info fold.
///
/// Epochs: the watermark is committed only at a settled point, when no
/// forwarded match that still needs an old neighbourhood is in flight.
/// Control operations first close the open epoch, so they observe every
/// edge ingested before them.
///
/// Not thread-safe: one thread drives it (the group's control thread, or
/// the coordinator under its cluster mutex). rejected() may be read from
/// any thread.
class EpochDriver {
 public:
  /// `channel` and `partitioner` must outlive the driver.
  EpochDriver(ShardChannel* channel, const Partitioner* partitioner,
              int num_shards, int epoch_edges);

  /// Admits one edge and routes it to its endpoint owners, closing the
  /// epoch after every `epoch_edges` admitted edges. A refused edge is
  /// counted in rejected() and is not an error.
  Status Ingest(const StreamEdge& edge);

  /// Epoch cut: settles whatever was routed since the last settle, then
  /// commits the watermark if it advanced.
  Status CloseEpoch();

  StatusOr<int> Register(const QueryGraph& query,
                         DecompositionStrategy strategy, Timestamp window,
                         MatchCallback callback);
  /// After this returns no callback fires for the query.
  Status Unregister(int query_id);
  /// The group view: the callback-home shard (query_id % shards, where
  /// completions deliver) supplies completions, name and window; live and
  /// peak partials and per-node counters sum across the replicated trees.
  StatusOr<QueryRuntimeInfo> Info(int query_id);
  /// Every shard's load counters, in shard order.
  StatusOr<std::vector<ShardStatsSnapshot>> Stats();

  /// Recovery: resumes admission from a restored window (see
  /// EdgeAdmission::Restore); its watermark counts as committed.
  void Restore(std::span<const PersistedEdge> edges, EdgeId next_edge_id,
               Timestamp watermark);

  const EdgeAdmission& admission() const { return admission_; }
  /// Edges admission refused (label clash, time regression).
  uint64_t rejected() const {
    return rejected_.load(std::memory_order_relaxed);
  }

 private:
  ShardChannel* const channel_;
  const Partitioner* const partitioner_;
  const int num_shards_;
  const int epoch_edges_;

  EdgeAdmission admission_;
  Timestamp committed_watermark_ = -1;
  int edges_in_epoch_ = 0;
  bool unsettled_ = false;  ///< Edges were routed since the last settle.
  int next_query_id_ = 0;
  std::set<int> live_queries_;
  std::atomic<uint64_t> rejected_{0};
};

}  // namespace streamworks

#endif  // STREAMWORKS_CORE_EPOCH_DRIVER_H_
