#include "streamworks/core/epoch_driver.h"

#include <utility>

namespace streamworks {

EpochDriver::EpochDriver(ShardChannel* channel,
                         const Partitioner* partitioner, int num_shards,
                         int epoch_edges)
    : channel_(channel),
      partitioner_(partitioner),
      num_shards_(num_shards),
      epoch_edges_(epoch_edges) {}

Status EpochDriver::Ingest(const StreamEdge& edge) {
  const auto route = admission_.Admit(edge, *partitioner_, num_shards_);
  if (!route.has_value()) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return OkStatus();
  }
  channel_->RouteEdge(route->src_owner, edge, route->id, /*run_anchors=*/true);
  if (route->dst_owner != route->src_owner) {
    channel_->RouteEdge(route->dst_owner, edge, route->id,
                        /*run_anchors=*/false);
  }
  unsettled_ = true;
  // One huge batch must not suspend eviction for its whole duration.
  if (++edges_in_epoch_ >= epoch_edges_) return CloseEpoch();
  return OkStatus();
}

Status EpochDriver::CloseEpoch() {
  edges_in_epoch_ = 0;
  if (unsettled_) SW_RETURN_IF_ERROR(channel_->Settle());
  unsettled_ = false;
  if (admission_.watermark() > committed_watermark_) {
    SW_RETURN_IF_ERROR(channel_->CommitWatermark(admission_.watermark()));
    committed_watermark_ = admission_.watermark();
  }
  return OkStatus();
}

StatusOr<int> EpochDriver::Register(const QueryGraph& query,
                                    DecompositionStrategy strategy,
                                    Timestamp window,
                                    MatchCallback callback) {
  SW_RETURN_IF_ERROR(CloseEpoch());
  const int query_id = next_query_id_;
  SW_RETURN_IF_ERROR(channel_->RegisterOnShards(query_id, query, strategy,
                                                window, std::move(callback)));
  ++next_query_id_;
  // Every shard ran its backfill share; order across shards is irrelevant,
  // since the window is static meanwhile and the anchor discipline bounds
  // candidates by edge id, not by ingest recency. Settle the backfill's
  // cross-shard traffic before lifting suppression: matches that completed
  // before registration stay unreported, exactly like a single engine's
  // mid-stream registration.
  SW_RETURN_IF_ERROR(channel_->Settle());
  SW_RETURN_IF_ERROR(channel_->EndBackfill());
  live_queries_.insert(query_id);
  return query_id;
}

Status EpochDriver::Unregister(int query_id) {
  // The epoch close delivers what already completed; the shards then drop
  // the query, and a second settle flushes anything their drop pushed out.
  SW_RETURN_IF_ERROR(CloseEpoch());
  if (live_queries_.count(query_id) == 0) {
    return Status::NotFound("unknown or unregistered query id");
  }
  SW_RETURN_IF_ERROR(channel_->UnregisterOnShards(query_id));
  live_queries_.erase(query_id);
  return channel_->Settle();
}

StatusOr<QueryRuntimeInfo> EpochDriver::Info(int query_id) {
  SW_RETURN_IF_ERROR(CloseEpoch());
  if (live_queries_.count(query_id) == 0) {
    return Status::NotFound("unknown or unregistered query id");
  }
  QueryRuntimeInfo out;
  out.query_id = query_id;
  const int home = query_id % num_shards_;
  for (int s = 0; s < num_shards_; ++s) {
    SW_ASSIGN_OR_RETURN(const QueryRuntimeInfo per,
                        channel_->ShardInfo(s, query_id));
    if (s == home) {
      out.name = per.name;
      out.window = per.window;
      out.completions = per.completions;
    }
    out.live_partial_matches += per.live_partial_matches;
    out.peak_partial_matches += per.peak_partial_matches;
    if (s == 0) {
      out.nodes = per.nodes;  // replicated trees: same shape everywhere
      continue;
    }
    for (size_t n = 0; n < per.nodes.size() && n < out.nodes.size(); ++n) {
      out.nodes[n].matches_inserted += per.nodes[n].matches_inserted;
      out.nodes[n].probes += per.nodes[n].probes;
      out.nodes[n].join_attempts += per.nodes[n].join_attempts;
      out.nodes[n].joins_succeeded += per.nodes[n].joins_succeeded;
      out.nodes[n].live_partial_matches += per.nodes[n].live_partial_matches;
    }
  }
  return out;
}

StatusOr<std::vector<ShardStatsSnapshot>> EpochDriver::Stats() {
  SW_RETURN_IF_ERROR(CloseEpoch());
  std::vector<ShardStatsSnapshot> out;
  out.reserve(static_cast<size_t>(num_shards_));
  for (int s = 0; s < num_shards_; ++s) {
    SW_ASSIGN_OR_RETURN(ShardStatsSnapshot snap, channel_->ShardStatsAt(s));
    snap.shard = s;
    out.push_back(snap);
  }
  return out;
}

void EpochDriver::Restore(std::span<const PersistedEdge> edges,
                          EdgeId next_edge_id, Timestamp watermark) {
  admission_.Restore(edges, next_edge_id, watermark);
  committed_watermark_ = watermark;
}

}  // namespace streamworks
