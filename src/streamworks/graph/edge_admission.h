#ifndef STREAMWORKS_GRAPH_EDGE_ADMISSION_H_
#define STREAMWORKS_GRAPH_EDGE_ADMISSION_H_

#include <optional>
#include <span>
#include <unordered_map>

#include "streamworks/common/types.h"
#include "streamworks/graph/partition.h"
#include "streamworks/graph/stream_edge.h"

namespace streamworks {

/// Group-level admission of vertex-partitioned ingest, run by the
/// EpochDriver under both sharded paths.
///
/// Shards see only the edges incident to their owned vertices, so an
/// endpoint-label clash the owner shard would reject could slip into the
/// other endpoint's shard (which has never seen the clashing vertex) and
/// corrupt results. Admission applies the checks DynamicGraph::AddEdge
/// would, once, against group state — so every shard's vertex records
/// agree and exactly the edges a single engine rejects are rejected —
/// then hands each admitted edge its group-global id and endpoint owners.
///
/// Not thread-safe: the ingest thread owns it.
class EdgeAdmission {
 public:
  struct Route {
    EdgeId id = kInvalidEdgeId;  ///< Group-global edge id.
    int src_owner = 0;  ///< Owns edge.src; the one shard running anchors.
    int dst_owner = 0;  ///< Owns edge.dst (may equal src_owner).
  };

  /// Admits `edge` — advancing the group watermark to its timestamp and
  /// assigning it the next global id — or returns nullopt when a single
  /// engine would reject it (negative or watermark-regressing timestamp,
  /// endpoint label clash). Like AddEdge's sequential endpoint checks, an
  /// edge rejected on its dst label has still recorded its src.
  std::optional<Route> Admit(const StreamEdge& edge,
                             const Partitioner& partitioner, int num_shards);

  /// Recovery: resumes from a restored window — its retained edges'
  /// endpoint labels and the snapshot's id and watermark cursors. A
  /// vertex whose every edge was evicted before the snapshot lost its
  /// recorded label; admission for it starts fresh.
  void Restore(std::span<const PersistedEdge> edges, EdgeId next_edge_id,
               Timestamp watermark);

  EdgeId next_edge_id() const { return next_edge_id_; }
  /// Timestamp of the newest admitted edge (-1 before the first).
  Timestamp watermark() const { return watermark_; }

 private:
  std::unordered_map<ExternalVertexId, LabelId> vertex_labels_;
  EdgeId next_edge_id_ = 0;
  Timestamp watermark_ = -1;
};

}  // namespace streamworks

#endif  // STREAMWORKS_GRAPH_EDGE_ADMISSION_H_
