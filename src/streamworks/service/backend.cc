#include "streamworks/service/backend.h"

namespace streamworks {

StatusOr<int> SingleEngineBackend::Register(const QueryGraph& query,
                                            DecompositionStrategy strategy,
                                            Timestamp window,
                                            MatchCallback callback) {
  return engine_->RegisterQuery(query, strategy, window, std::move(callback));
}

Status SingleEngineBackend::Unregister(int query_id) {
  return engine_->UnregisterQuery(query_id);
}

StatusOr<QueryRuntimeInfo> SingleEngineBackend::Info(int query_id) {
  if (!engine_->has_query(query_id)) {
    return Status::NotFound("unknown or unregistered query id");
  }
  return engine_->query_info(query_id);
}

Status SingleEngineBackend::Feed(const StreamEdge& edge) {
  return engine_->ProcessEdge(edge);
}

Status SingleEngineBackend::FeedBatch(const EdgeBatch& batch,
                                      size_t* rejected_out) {
  // ProcessBatch skips malformed edges (counting them in edges_rejected);
  // the before/after delta is this batch's rejection count, since the
  // engine is single-threaded.
  const uint64_t before = engine_->metrics().edges_rejected;
  const Status status = engine_->ProcessBatch(batch);
  if (rejected_out != nullptr) {
    *rejected_out =
        static_cast<size_t>(engine_->metrics().edges_rejected - before);
  }
  return status;
}

StatusOr<WindowSnapshot> SingleEngineBackend::ExportWindow() {
  return engine_->ExportWindow();
}

Status SingleEngineBackend::RestoreWindow(const WindowSnapshot& snapshot) {
  for (const PersistedEdge& pe : snapshot.edges) {
    SW_RETURN_IF_ERROR(engine_->RestoreWindowEdge(pe.edge, pe.id));
  }
  engine_->FinishWindowRestore(snapshot.next_edge_id, snapshot.watermark);
  return OkStatus();
}

StatusOr<int> ParallelGroupBackend::Register(const QueryGraph& query,
                                             DecompositionStrategy strategy,
                                             Timestamp window,
                                             MatchCallback callback) {
  return group_->RegisterQuery(query, strategy, window, std::move(callback));
}

Status ParallelGroupBackend::Unregister(int query_id) {
  return group_->UnregisterQuery(query_id);
}

StatusOr<QueryRuntimeInfo> ParallelGroupBackend::Info(int query_id) {
  return group_->query_info(query_id);
}

Status ParallelGroupBackend::Feed(const StreamEdge& edge) {
  group_->ProcessEdge(edge);
  return OkStatus();
}

Status ParallelGroupBackend::FeedBatch(const EdgeBatch& batch,
                                       size_t* rejected_out) {
  // Ingestion is asynchronous: rejections surface in aggregate shard
  // counters only, never per batch.
  if (rejected_out != nullptr) *rejected_out = 0;
  group_->ProcessBatch(batch);
  return OkStatus();
}

std::vector<ShardLoadSnapshot> ParallelGroupBackend::ShardLoads() {
  return ToShardLoads(group_->ShardStats(),
                      group_->mode() == ShardingMode::kPartitionedData
                          ? "partitioned/" + group_->partitioner().name()
                          : "broadcast");
}

std::vector<ShardLoadSnapshot> ToShardLoads(
    const std::vector<ShardStatsSnapshot>& stats,
    const std::string& sharding) {
  std::vector<ShardLoadSnapshot> out;
  out.reserve(stats.size());
  for (const ShardStatsSnapshot& s : stats) {
    ShardLoadSnapshot load;
    load.shard = s.shard;
    load.sharding = sharding;
    load.retained_edges = s.retained_edges;
    load.retained_vertices = s.retained_vertices;
    load.evicted_edges = s.evicted_edges;
    load.edges_processed = s.edges_processed;
    load.completions = s.completions;
    load.live_partial_matches = s.live_partial_matches;
    load.matches_forwarded = s.exchange.total_sent();
    load.matches_received = s.exchange.total_received();
    out.push_back(std::move(load));
  }
  return out;
}

}  // namespace streamworks
