#include "streamworks/graph/edge_admission.h"

namespace streamworks {

std::optional<EdgeAdmission::Route> EdgeAdmission::Admit(
    const StreamEdge& edge, const Partitioner& partitioner, int num_shards) {
  if (edge.ts < 0 || edge.ts < watermark_) return std::nullopt;
  auto [src_it, src_new] = vertex_labels_.try_emplace(edge.src, edge.src_label);
  if (!src_new && src_it->second != edge.src_label) return std::nullopt;
  auto [dst_it, dst_new] = vertex_labels_.try_emplace(edge.dst, edge.dst_label);
  if (!dst_new && dst_it->second != edge.dst_label) return std::nullopt;
  watermark_ = edge.ts;
  Route route;
  route.id = next_edge_id_++;
  route.src_owner = partitioner.OwnerShard(edge.src, num_shards);
  route.dst_owner = partitioner.OwnerShard(edge.dst, num_shards);
  return route;
}

void EdgeAdmission::Restore(std::span<const PersistedEdge> edges,
                            EdgeId next_edge_id, Timestamp watermark) {
  for (const PersistedEdge& pe : edges) {
    vertex_labels_.try_emplace(pe.edge.src, pe.edge.src_label);
    vertex_labels_.try_emplace(pe.edge.dst, pe.edge.dst_label);
  }
  next_edge_id_ = next_edge_id;
  watermark_ = watermark;
}

}  // namespace streamworks
