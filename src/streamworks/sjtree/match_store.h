#ifndef STREAMWORKS_SJTREE_MATCH_STORE_H_
#define STREAMWORKS_SJTREE_MATCH_STORE_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "streamworks/common/bitset64.h"
#include "streamworks/common/logging.h"
#include "streamworks/common/types.h"
#include "streamworks/match/match.h"

namespace streamworks {

/// Read-only view of one partial match stored in a MatchStore: the node's
/// own bindings, addressed by query vertex / query edge like a Match, so
/// JoinCompatible and Match::Union take it as the join partner. A view
/// points into the store and is valid only inside the probe that made it.
class MatchRow {
 public:
  Bitset64 bound_vertices() const { return vertices_; }
  Bitset64 bound_edges() const { return edges_; }
  VertexId vertex(QueryVertexId qv) const {
    return vertex_[Column(vertices_, qv)];
  }
  EdgeId edge(QueryEdgeId qe) const { return edge_[Column(edges_, qe)]; }
  Timestamp edge_ts(QueryEdgeId qe) const { return ts_[Column(edges_, qe)]; }
  Timestamp min_ts() const { return min_ts_; }
  Timestamp max_ts() const {
    Timestamp hi = kMinTimestamp;
    for (int i = 0, n = edges_.Count(); i < n; ++i) hi = std::max(hi, ts_[i]);
    return hi;
  }

 private:
  friend class MatchStore;
  MatchRow(Bitset64 vertices, Bitset64 edges, const VertexId* vertex,
           const EdgeId* edge, const Timestamp* ts, Timestamp min_ts)
      : vertices_(vertices),
        edges_(edges),
        vertex_(vertex),
        edge_(edge),
        ts_(ts),
        min_ts_(min_ts) {}

  /// Position of query id `q` among the set bits of `set`.
  static int Column(Bitset64 set, int q) {
    SW_DCHECK(set.Contains(q)) << "query id not bound in this row";
    return std::popcount(set.bits() & ((1ull << q) - 1));
  }

  Bitset64 vertices_;
  Bitset64 edges_;
  const VertexId* vertex_;
  const EdgeId* edge_;
  const Timestamp* ts_;
  Timestamp min_ts_;
};

/// The match collection of one SJ-Tree node (Property 3), hash-indexed by
/// the *join key*: the signature of the data vertices assigned to the parent
/// node's cut vertices. Sibling nodes index by the same cut, so combining
/// partial matches (paper §4.2) is one hash probe instead of a scan.
///
/// Layout: every match at a node binds exactly the node's query vertices
/// and edges, so a stored match is a fixed-width row of just those data
/// vertex ids, data edge ids and edge timestamps, in ascending query-id
/// order. Rows live in contiguous column arrays with a free list; each
/// row's min_ts sits in its own array so expiry scans contiguous memory.
/// An open-addressing table maps a join key to the newest row of its chain,
/// and chains run newest-first (the visit order emission depends on).
///
/// Expiry is lazy: a partial match whose earliest edge has fallen further
/// than the query window behind the stream watermark can never be part of a
/// future completion (any future completion's span would be >= window), so
/// probes erase such entries in passing and the engine runs periodic full
/// sweeps to bound memory between probes. A sweep that leaves fewer than a
/// quarter of the row slots live compacts the store, so its bytes follow
/// the window rather than its historical peak.
class MatchStore {
 public:
  /// A store whose rows bind query vertices `vertices` and edges `edges`.
  MatchStore(Bitset64 vertices, Bitset64 edges);

  /// Stores `m` (which must bind exactly the store's vertices and edges)
  /// at the head of `key`'s chain.
  void Insert(uint64_t key, const Match& m);

  /// Invokes `f(const MatchRow&)` on every live match stored under `key`,
  /// newest first; erases dead ones (min_ts < cutoff) encountered on the
  /// way. `f` must not touch this store. Returns the number of live matches
  /// visited.
  template <typename F>
  size_t ProbeKey(uint64_t key, Timestamp cutoff, F&& f) {
    const size_t slot = FindSlot(key);
    if (slot == kNoSlot) return 0;
    size_t visited = 0;
    for (uint32_t r = slots_[slot].head; r != kNoRow;) {
      const uint32_t next = next_[r];
      if (min_ts_[r] < cutoff) {
        Unlink(slot, r);
        FreeRow(r);
      } else {
        ++visited;
        f(Row(r));
      }
      r = next;
    }
    if (slots_[slot].head == kNoRow) EraseSlot(slot);
    return visited;
  }

  /// Full sweep: erases every dead match, then compacts if the store is
  /// under a quarter full.
  void Expire(Timestamp cutoff);

  size_t size() const { return live_; }
  size_t peak_size() const { return peak_size_; }
  uint64_t total_inserted() const { return total_inserted_; }
  uint64_t total_expired() const { return total_expired_; }

 private:
  friend class MatchStoreLayoutPeer;  // the layout tests in sjtree_test
  static constexpr uint32_t kNoRow = UINT32_MAX;
  static constexpr uint32_t kFreeRow = UINT32_MAX - 1;  // prev_ of a free row
  static constexpr size_t kNoSlot = SIZE_MAX;

  /// One join key and the newest row of its chain (kNoRow = empty slot).
  struct Slot {
    uint64_t key = 0;
    uint32_t head = kNoRow;
  };

  /// Row slots allocated (live plus free).
  size_t row_capacity() const { return min_ts_.size(); }
  /// The table slot a key probes first, in a table of `num_slots` slots.
  static size_t HomeSlot(uint64_t key, size_t num_slots);

  MatchRow Row(uint32_t r) const {
    return MatchRow(vertices_, edges_, &vertex_cols_[r * num_vertices_],
                    &edge_cols_[r * num_edges_], &ts_cols_[r * num_edges_],
                    min_ts_[r]);
  }

  size_t FindSlot(uint64_t key) const;
  /// Slot holding `key`, claiming an empty one (and growing) if absent.
  size_t FindOrAddSlot(uint64_t key);
  /// Backward-shift deletion of an emptied chain's slot.
  void EraseSlot(size_t slot);
  /// Rebuilds the table at `num_slots` slots (0 releases it).
  void Rehash(size_t num_slots);

  /// Removes row `r` from the chain whose table slot is `slot`.
  void Unlink(size_t slot, uint32_t r);
  /// Returns an unlinked row to the free list and counts it expired.
  void FreeRow(uint32_t r);
  /// Moves the live rows to the front, in order, and drops the rest.
  void Compact();

  Bitset64 vertices_;
  Bitset64 edges_;
  size_t num_vertices_;
  size_t num_edges_;

  // Row columns, indexed by row (times the row width for bindings).
  std::vector<VertexId> vertex_cols_;
  std::vector<EdgeId> edge_cols_;
  std::vector<Timestamp> ts_cols_;
  std::vector<Timestamp> min_ts_;  ///< kMaxTimestamp on free rows.
  std::vector<uint64_t> key_;
  std::vector<uint32_t> next_;     ///< Older row in chain / next free row.
  std::vector<uint32_t> prev_;     ///< Newer row in chain, or kFreeRow.
  uint32_t free_head_ = kNoRow;

  std::vector<Slot> slots_;
  size_t num_keys_ = 0;

  size_t live_ = 0;
  size_t peak_size_ = 0;
  uint64_t total_inserted_ = 0;
  uint64_t total_expired_ = 0;
};

}  // namespace streamworks

#endif  // STREAMWORKS_SJTREE_MATCH_STORE_H_
