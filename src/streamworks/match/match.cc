#include "streamworks/match/match.h"

#include <algorithm>

#include "streamworks/common/hash.h"
#include "streamworks/common/logging.h"

namespace streamworks {

Match::Match(const QueryGraph& query)
    : num_vertices_(static_cast<uint8_t>(query.num_vertices())),
      num_edges_(static_cast<uint8_t>(query.num_edges())) {
  if (num_vertices_ > kInlineArity || num_edges_ > kInlineArity) {
    wide_ = std::make_unique<std::byte[]>(WideBytes());
  }
  std::fill_n(vertex_map(), num_vertices_, kInvalidVertexId);
  std::fill_n(edge_map(), num_edges_, kInvalidEdgeId);
  std::fill_n(ts_map(), num_edges_, Timestamp{0});
}

void Match::BindVertex(QueryVertexId qv, VertexId dv) {
  SW_DCHECK_LT(qv, num_vertices_);
  VertexId& slot = vertex_map()[qv];
  SW_DCHECK(slot == kInvalidVertexId || slot == dv)
      << "rebinding query vertex to a different data vertex";
  slot = dv;
  bound_vertices_.Add(qv);
}

void Match::UnbindVertex(QueryVertexId qv) {
  vertex_map()[qv] = kInvalidVertexId;
  bound_vertices_.Remove(qv);
}

void Match::BindEdge(QueryEdgeId qe, EdgeId de, Timestamp ts) {
  SW_DCHECK_LT(qe, num_edges_);
  SW_DCHECK(!HasEdge(qe)) << "query edge already bound";
  edge_map()[qe] = de;
  ts_map()[qe] = ts;
  bound_edges_.Add(qe);
  min_ts_ = std::min(min_ts_, ts);
  max_ts_ = std::max(max_ts_, ts);
}

void Match::UnbindEdge(QueryEdgeId qe) {
  SW_DCHECK(HasEdge(qe));
  edge_map()[qe] = kInvalidEdgeId;
  bound_edges_.Remove(qe);
  min_ts_ = kMaxTimestamp;
  max_ts_ = kMinTimestamp;
  const Timestamp* ts = ts_map();
  for (int e : bound_edges_) {
    min_ts_ = std::min(min_ts_, ts[e]);
    max_ts_ = std::max(max_ts_, ts[e]);
  }
}

bool Match::FitsWindowWith(Timestamp ts, Timestamp window) const {
  if (bound_edges_.Empty()) return true;
  const Timestamp lo = std::min(min_ts_, ts);
  const Timestamp hi = std::max(max_ts_, ts);
  return hi - lo < window;
}

EdgeId Match::MaxDataEdgeId() const {
  SW_DCHECK(!bound_edges_.Empty());
  EdgeId max_id = 0;
  for (int qe : bound_edges_) {
    max_id = std::max(max_id, edge(static_cast<QueryEdgeId>(qe)));
  }
  return max_id;
}

uint64_t Match::MappingSignature() const {
  // Ordered fold over ascending query ids: equal mappings hash equal.
  const VertexId* vmap = vertex_map();
  const EdgeId* emap = edge_map();
  uint64_t h = 0x5741d8a3c5u;
  for (int qv : bound_vertices_) {
    h = HashCombine(h, (static_cast<uint64_t>(qv) << 32) ^ vmap[qv]);
  }
  for (int qe : bound_edges_) {
    h = HashCombine(h, (static_cast<uint64_t>(qe + 64) << 32) ^
                           Mix64(emap[qe]));
  }
  return h;
}

uint64_t Match::ExternalMappingSignature(const DynamicGraph& graph) const {
  const VertexId* vmap = vertex_map();
  const EdgeId* emap = edge_map();
  uint64_t h = 0x5741d8a3c5u;
  for (int qv : bound_vertices_) {
    h = HashCombine(h, (static_cast<uint64_t>(qv) << 32) ^
                           Mix64(graph.external_id(vmap[qv])));
  }
  for (int qe : bound_edges_) {
    h = HashCombine(h, (static_cast<uint64_t>(qe + 64) << 32) ^
                           Mix64(emap[qe]));
  }
  return h;
}

uint64_t Match::EdgeSetSignature() const {
  // XOR of per-edge hashes: order-independent over the data edge *set*.
  uint64_t h = Mix64(static_cast<uint64_t>(bound_edges_.Count()) + 1);
  const EdgeId* emap = edge_map();
  for (int qe : bound_edges_) {
    h ^= Mix64(emap[qe] + 0x9e37u);
  }
  return h;
}

std::string Match::ToString() const {
  // Direct string building, not ostringstream: every streamed EVENT line
  // renders a match, so this runs once per delivered match on the pump's
  // hot path.
  std::string out;
  out.reserve(64);
  out += '{';
  bool first = true;
  for (int qv : bound_vertices_) {
    if (!first) out += ", ";
    first = false;
    out += 'v';
    out += std::to_string(qv);
    out += "->";
    out += std::to_string(vertex(static_cast<QueryVertexId>(qv)));
  }
  out += " | ";
  first = true;
  for (int qe : bound_edges_) {
    if (!first) out += ", ";
    first = false;
    out += 'e';
    out += std::to_string(qe);
    out += "->#";
    out += std::to_string(edge(static_cast<QueryEdgeId>(qe)));
    out += '@';
    out += std::to_string(ts_map()[qe]);
  }
  out += '}';
  if (!bound_edges_.Empty()) {
    out += " span=";
    out += std::to_string(Span());
  }
  return out;
}

std::string Match::ToExternalString(const DynamicGraph& graph) const {
  std::string out;
  out.reserve(64);
  out += '{';
  bool first = true;
  for (int qv : bound_vertices_) {
    if (!first) out += ", ";
    first = false;
    out += 'v';
    out += std::to_string(qv);
    out += "->";
    out += std::to_string(
        graph.external_id(vertex(static_cast<QueryVertexId>(qv))));
  }
  out += " | ";
  first = true;
  for (int qe : bound_edges_) {
    if (!first) out += ", ";
    first = false;
    out += 'e';
    out += std::to_string(qe);
    out += "->#";
    out += std::to_string(edge(static_cast<QueryEdgeId>(qe)));
    out += '@';
    out += std::to_string(ts_map()[qe]);
  }
  out += '}';
  if (!bound_edges_.Empty()) {
    out += " span=";
    out += std::to_string(Span());
  }
  return out;
}

}  // namespace streamworks
