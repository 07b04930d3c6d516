#include "streamworks/core/shard_runtime.h"

namespace streamworks {

ShardRuntime::ShardRuntime(Interner* interner, EngineOptions options,
                           int shard_index, int num_shards,
                           const Partitioner* partitioner)
    : shard_index_(shard_index),
      num_shards_(num_shards),
      partitioner_(partitioner),
      engine_(interner, options) {
  if (partitioner_ == nullptr) return;
  ShardConfig config;
  config.shard_index = shard_index_;
  config.num_shards = num_shards_;
  config.partitioner = partitioner_;
  config.exchange = &exchange_;
  engine_.EnableShardMode(config);
}

StatusOr<int> ShardRuntime::Register(const QueryGraph& query,
                                     const Decomposition& decomposition,
                                     Timestamp window,
                                     MatchCallback callback) {
  engine_.set_suppress_completions(true);
  auto registered = engine_.RegisterQuery(query, decomposition, window,
                                          std::move(callback));
  if (!registered.ok()) {
    // No EndBackfill follows a refused registration.
    engine_.set_suppress_completions(false);
    return registered.status();
  }
  const DynamicGraph& graph = engine_.graph();
  for (size_t i = 0; i < graph.num_stored_edges(); ++i) {
    const EdgeId id = graph.stored_edge_id(i);
    const EdgeRecord& record = graph.edge_record(id);
    if (partitioner_->OwnerShard(graph.external_id(record.src),
                                 num_shards_) == shard_index_) {
      engine_.BackfillQueryEdge(registered.value(), id);
    }
  }
  return registered;
}

StatusOr<QueryRuntimeInfo> ShardRuntime::Info(int query_id) const {
  if (!engine_.has_query(query_id)) {
    return Status::NotFound("unknown or unregistered query id");
  }
  return engine_.query_info(query_id);
}

ShardStatsSnapshot ShardRuntime::Stats() const {
  ShardStatsSnapshot snap;
  snap.shard = shard_index_;
  snap.retained_edges = engine_.graph().num_stored_edges();
  snap.retained_vertices = engine_.graph().num_vertices();
  snap.evicted_edges = engine_.graph().num_evicted_edges();
  snap.edges_processed = engine_.metrics().edges_processed;
  snap.completions = engine_.metrics().completions;
  snap.live_partial_matches = engine_.total_live_partial_matches();
  snap.exchange = exchange_.counters();
  return snap;
}

}  // namespace streamworks
