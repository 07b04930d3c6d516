#ifndef STREAMWORKS_MATCH_MATCH_H_
#define STREAMWORKS_MATCH_MATCH_H_

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <memory>
#include <string>
#include <utility>

#include "streamworks/common/bitset64.h"
#include "streamworks/common/logging.h"
#include "streamworks/common/types.h"
#include "streamworks/graph/dynamic_graph.h"
#include "streamworks/graph/query_graph.h"

namespace streamworks {

/// A (partial) match: an injective mapping from query vertices to data
/// vertices and from query edges to data edges (paper §2.1; Property 3's
/// match elements). A Match is sized for its whole query graph; the subset
/// of bound edges identifies which SJ-Tree node it belongs to.
///
/// Matches are small value types, copied freely during backtracking and
/// joins. The bindings of a query with at most kInlineArity vertices and
/// kInlineArity edges (every shipped workload) live inline, so building,
/// copying and joining such a match never touches the heap; a wider query
/// (up to kMaxQuerySize) keeps them in one heap block.
class Match {
 public:
  /// Largest vertex and edge count whose bindings are stored inline.
  static constexpr int kInlineArity = 8;

  Match() = default;

  /// An empty match shaped for `query`: nothing bound.
  explicit Match(const QueryGraph& query);

  /// Value semantics: a copy owns its own bindings. A moved-from Match is
  /// the empty default shape (no vertices, no edges), safe to read or
  /// assign to.
  Match(const Match& other) { *this = other; }
  Match& operator=(const Match& other);
  Match(Match&& other) noexcept { *this = std::move(other); }
  Match& operator=(Match&& other) noexcept;

  // --- Vertex bindings ----------------------------------------------------
  bool HasVertex(QueryVertexId qv) const {
    return vertex_map()[qv] != kInvalidVertexId;
  }
  VertexId vertex(QueryVertexId qv) const { return vertex_map()[qv]; }

  /// Binds query vertex `qv` to data vertex `dv`. Rebinding to a different
  /// data vertex is a programming error (checked).
  void BindVertex(QueryVertexId qv, VertexId dv);
  /// Removes the binding of `qv` (backtracking).
  void UnbindVertex(QueryVertexId qv);

  /// True if some query vertex is already mapped to data vertex `dv`.
  bool UsesDataVertex(VertexId dv) const {
    const VertexId* vmap = vertex_map();
    for (int qv : bound_vertices_) {
      if (vmap[qv] == dv) return true;
    }
    return false;
  }

  // --- Edge bindings -------------------------------------------------------
  bool HasEdge(QueryEdgeId qe) const {
    return edge_map()[qe] != kInvalidEdgeId;
  }
  EdgeId edge(QueryEdgeId qe) const { return edge_map()[qe]; }

  /// Binds query edge `qe` to data edge `de` with timestamp `ts`, updating
  /// the match's time span. Does not bind endpoints; callers bind vertices
  /// explicitly (they may already be bound).
  void BindEdge(QueryEdgeId qe, EdgeId de, Timestamp ts);
  /// Removes the binding of `qe`. The time span is recomputed from the
  /// remaining bound edges' timestamps.
  void UnbindEdge(QueryEdgeId qe);

  bool UsesDataEdge(EdgeId de) const {
    const EdgeId* emap = edge_map();
    for (int qe : bound_edges_) {
      if (emap[qe] == de) return true;
    }
    return false;
  }

  // --- Shape and time span --------------------------------------------------
  Bitset64 bound_edges() const { return bound_edges_; }
  Bitset64 bound_vertices() const { return bound_vertices_; }
  int num_bound_edges() const { return bound_edges_.Count(); }

  /// Timestamp bound alongside edge `qe` (checked: `qe` must be bound).
  Timestamp edge_ts(QueryEdgeId qe) const {
    SW_DCHECK(HasEdge(qe));
    return ts_map()[qe];
  }

  /// Earliest / latest timestamp over bound edges. Undefined (checked) when
  /// no edge is bound.
  Timestamp min_ts() const {
    SW_DCHECK(!bound_edges_.Empty());
    return min_ts_;
  }
  Timestamp max_ts() const {
    SW_DCHECK(!bound_edges_.Empty());
    return max_ts_;
  }
  /// max_ts - min_ts; 0 when a single edge is bound.
  Timestamp Span() const { return max_ts() - min_ts(); }

  /// True if binding an edge with timestamp `ts` keeps the span < `window`.
  bool FitsWindowWith(Timestamp ts, Timestamp window) const;

  // --- Identity ---------------------------------------------------------------
  /// Order-independent 64-bit signature of the complete mapping (vertex and
  /// edge assignments). Equal mappings always collide; unequal mappings
  /// collide with probability ~2^-64. Used for oracle set comparison.
  uint64_t MappingSignature() const;

  /// Signature of just the set of bound data edges (ignores which query
  /// edge maps where) — identifies the data subgraph for deduplication of
  /// automorphic images.
  uint64_t EdgeSetSignature() const;

  /// Like MappingSignature, but vertices hash by their *external* ids
  /// (resolved through `graph`) instead of graph-local dense ids. Internal
  /// vertex ids are an artifact of per-graph ingestion order, so this is
  /// the signature that stays comparable across deployment modes — e.g. a
  /// single engine vs. the shards of a vertex-partitioned group, which
  /// ingest different edge subsets and number vertices differently.
  uint64_t ExternalMappingSignature(const DynamicGraph& graph) const;

  /// Largest bound data edge id — the edge whose arrival completed this
  /// match (edge ids are arrival sequence numbers). Undefined (checked)
  /// when no edge is bound.
  EdgeId MaxDataEdgeId() const;

  /// Exact equality of the two mappings (not just signatures).
  friend bool operator==(const Match& a, const Match& b) {
    return a.num_vertices_ == b.num_vertices_ &&
           a.num_edges_ == b.num_edges_ &&
           std::equal(a.vertex_map(), a.vertex_map() + a.num_vertices_,
                      b.vertex_map()) &&
           std::equal(a.edge_map(), a.edge_map() + a.num_edges_,
                      b.edge_map());
  }

  /// Merges two matches of the same query with disjoint bound edge sets and
  /// consistent vertex bindings (the SJ-Tree join, Property 2). The caller
  /// must have validated compatibility (JoinCompatible below). `b` is a
  /// Match or any view with the same read accessors (a MatchStore row).
  template <typename Partner>
  static Match Union(const Match& a, const Partner& b);

  /// Debug rendering: "{v0->17, v1->4 | e0->#123@5, ...} span=..".
  std::string ToString() const;

  /// Rendering in deployment-invariant ids: vertices by external id
  /// (resolved through `graph`, the delivering engine's), edges by their
  /// global ingest id. Same shape as ToString, but two deployments that
  /// found the same match render the same bytes — ToString's internal
  /// vertex ids are per-engine ingestion-order artifacts, so its output
  /// differs between a single engine and the shards of a partitioned
  /// group (or cluster) even for identical matches. Served EVENT/POLL
  /// lines use this form for exactly that reason.
  std::string ToExternalString(const DynamicGraph& graph) const;

 private:
  /// Copies `other`'s shape (bound sets, time span, arity) into this one.
  void CopyShape(const Match& other) {
    bound_vertices_ = other.bound_vertices_;
    bound_edges_ = other.bound_edges_;
    min_ts_ = other.min_ts_;
    max_ts_ = other.max_ts_;
    num_vertices_ = other.num_vertices_;
    num_edges_ = other.num_edges_;
  }
  /// Copies the inline arrays whole: a fixed-size copy is cheaper than
  /// three variable-length ones, and memcpy may copy the unwritten tail.
  void CopyInline(const Match& other) {
    std::memcpy(vertex_, other.vertex_, sizeof(vertex_));
    std::memcpy(edge_, other.edge_, sizeof(edge_));
    std::memcpy(ts_, other.ts_, sizeof(ts_));
  }

  /// Size of the heap block of a query wider than kInlineArity: it holds
  /// num_edges_ edge ids, then num_edges_ timestamps, then num_vertices_
  /// vertex ids.
  size_t WideBytes() const {
    return num_edges_ * (sizeof(EdgeId) + sizeof(Timestamp)) +
           num_vertices_ * sizeof(VertexId);
  }
  const VertexId* vertex_map() const {
    return wide_ ? reinterpret_cast<const VertexId*>(
                       wide_.get() +
                       num_edges_ * (sizeof(EdgeId) + sizeof(Timestamp)))
                 : vertex_;
  }
  VertexId* vertex_map() {
    return const_cast<VertexId*>(std::as_const(*this).vertex_map());
  }
  const EdgeId* edge_map() const {
    return wide_ ? reinterpret_cast<const EdgeId*>(wide_.get()) : edge_;
  }
  EdgeId* edge_map() {
    return const_cast<EdgeId*>(std::as_const(*this).edge_map());
  }
  const Timestamp* ts_map() const {
    return wide_ ? reinterpret_cast<const Timestamp*>(
                       wide_.get() + num_edges_ * sizeof(EdgeId))
                 : ts_;
  }
  Timestamp* ts_map() {
    return const_cast<Timestamp*>(std::as_const(*this).ts_map());
  }

  Bitset64 bound_vertices_;
  Bitset64 bound_edges_;
  Timestamp min_ts_ = kMaxTimestamp;
  Timestamp max_ts_ = kMinTimestamp;
  uint8_t num_vertices_ = 0;
  uint8_t num_edges_ = 0;
  // Inline bindings; only the first num_vertices_ / num_edges_ entries are
  // ever written or read, so the arrays are left uninitialized.
  VertexId vertex_[kInlineArity];
  EdgeId edge_[kInlineArity];
  Timestamp ts_[kInlineArity];
  std::unique_ptr<std::byte[]> wide_;
};

inline Match& Match::operator=(const Match& other) {
  if (this == &other) return *this;
  CopyShape(other);
  if (other.wide_) {
    wide_ = std::make_unique_for_overwrite<std::byte[]>(WideBytes());
    std::copy_n(other.wide_.get(), WideBytes(), wide_.get());
  } else {
    wide_.reset();
    CopyInline(other);
  }
  return *this;
}

inline Match& Match::operator=(Match&& other) noexcept {
  if (this == &other) return *this;
  CopyShape(other);
  wide_ = std::move(other.wide_);
  if (!wide_) CopyInline(other);
  other.CopyShape(Match());
  return *this;
}

/// Validates that `a` and `b` can be joined into one consistent mapping:
/// disjoint bound query-edge sets, agreeing data vertices on shared query
/// vertices, global vertex injectivity (distinct query vertices never share
/// a data vertex), edge injectivity (no data edge bound twice), and combined
/// time span < `window`. `b` is a Match or a MatchStore row.
template <typename Partner>
bool JoinCompatible(const Match& a, const Partner& b, Timestamp window) {
  if (a.bound_edges().Intersects(b.bound_edges())) return false;
  if (a.bound_edges().Empty() || b.bound_edges().Empty()) return false;

  // Combined time span must respect the strict window.
  const Timestamp lo = std::min(a.min_ts(), b.min_ts());
  const Timestamp hi = std::max(a.max_ts(), b.max_ts());
  if (hi - lo >= window) return false;

  // Shared query vertices must agree; exclusive ones must stay injective.
  const Bitset64 shared = a.bound_vertices() & b.bound_vertices();
  for (int qv : shared) {
    if (a.vertex(static_cast<QueryVertexId>(qv)) !=
        b.vertex(static_cast<QueryVertexId>(qv))) {
      return false;
    }
  }
  for (int qv : b.bound_vertices() - shared) {
    if (a.UsesDataVertex(b.vertex(static_cast<QueryVertexId>(qv)))) {
      return false;
    }
  }

  // No data edge may serve two query edges (parallel data edges are
  // distinct, but the same data edge must not be reused).
  for (int qe : b.bound_edges()) {
    if (a.UsesDataEdge(b.edge(static_cast<QueryEdgeId>(qe)))) return false;
  }
  return true;
}

template <typename Partner>
Match Match::Union(const Match& a, const Partner& b) {
  SW_DCHECK(!a.bound_edges().Intersects(b.bound_edges()))
      << "joining matches with overlapping query edges";
  Match out = a;
  for (int qv : b.bound_vertices()) {
    const auto q = static_cast<QueryVertexId>(qv);
    out.BindVertex(q, b.vertex(q));
  }
  for (int qe : b.bound_edges()) {
    const auto q = static_cast<QueryEdgeId>(qe);
    out.BindEdge(q, b.edge(q), b.edge_ts(q));
  }
  return out;
}

}  // namespace streamworks

#endif  // STREAMWORKS_MATCH_MATCH_H_
