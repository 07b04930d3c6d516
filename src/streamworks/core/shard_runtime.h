#ifndef STREAMWORKS_CORE_SHARD_RUNTIME_H_
#define STREAMWORKS_CORE_SHARD_RUNTIME_H_

#include "streamworks/core/engine.h"
#include "streamworks/graph/partition.h"
#include "streamworks/sjtree/exchange.h"

namespace streamworks {

/// The shard side of vertex-partitioned execution: one StreamWorksEngine
/// in shard mode plus the MatchExchange outbox it forwards into. Both
/// sharded paths run their shards through this class —
/// ParallelEngineGroup's shard threads in process, WorkerDaemon across
/// processes — so the shard-side rules (the anchor bit, the backfill
/// share of a mid-stream registration, the watermark commit, the info and
/// stats reads) exist once. The group side is EpochDriver.
///
/// Not thread-safe: one thread drives a runtime at a time (a group worker,
/// the group's control thread while quiesced, or a daemon's serve thread).
class ShardRuntime {
 public:
  /// Shard `shard_index` of `num_shards` under `partitioner` (which must
  /// outlive the runtime). A null `partitioner` leaves the engine in
  /// classic single-graph mode: a broadcast-mode shard, which never takes
  /// the shard-mode steps (ApplyEdge, ApplyItem, Commit, Register).
  ShardRuntime(Interner* interner, EngineOptions options, int shard_index,
               int num_shards, const Partitioner* partitioner);

  ShardRuntime(const ShardRuntime&) = delete;
  ShardRuntime& operator=(const ShardRuntime&) = delete;

  StreamWorksEngine& engine() { return engine_; }
  const StreamWorksEngine& engine() const { return engine_; }
  MatchExchange& exchange() { return exchange_; }

  /// Applies one routed edge under its group-global id. `run_anchors` is
  /// set only on the source owner, so each edge anchors once group-wide.
  /// Admission already ran group-wide; a rejection here would mean
  /// divergent state, which the engine counts rather than fails on.
  void ApplyEdge(const StreamEdge& edge, EdgeId id, bool run_anchors) {
    engine_.ProcessShardEdge(edge, id, run_anchors).ok();
  }
  /// Applies one item a peer shard forwarded.
  void ApplyItem(const ExchangeItem& item) { engine_.HandleExchangeItem(item); }
  /// Raises the shard to the committed group watermark (expiry).
  void Commit(Timestamp watermark) { engine_.AdvanceWatermark(watermark); }

  /// Registers a query under a group-wide plan and runs this shard's
  /// share of the distributed backfill: every stored edge whose source
  /// this shard owns is re-anchored, the same shard that anchors it live.
  /// Completions stay suppressed until EndBackfill, because backfill items
  /// arriving from peers re-derive past matches too. Returns the engine's
  /// id; a validation failure registers nothing and lifts suppression.
  StatusOr<int> Register(const QueryGraph& query,
                         const Decomposition& decomposition,
                         Timestamp window, MatchCallback callback);
  void EndBackfill() { engine_.set_suppress_completions(false); }
  Status Unregister(int query_id) { return engine_.UnregisterQuery(query_id); }

  /// This shard's view of one query (NotFound if it is not registered).
  StatusOr<QueryRuntimeInfo> Info(int query_id) const;
  ShardStatsSnapshot Stats() const;

 private:
  const int shard_index_;
  const int num_shards_;
  const Partitioner* const partitioner_;
  MatchExchange exchange_;
  StreamWorksEngine engine_;
};

}  // namespace streamworks

#endif  // STREAMWORKS_CORE_SHARD_RUNTIME_H_
