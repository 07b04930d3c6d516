// Tests for streamworks/sjtree: decomposition construction and validation
// (SJ-Tree Properties 1-4), the flat hash-indexed MatchStore with lazy
// expiry and compaction, and the SjTree incremental matcher, including a
// three-way equivalence property sweep against the naive incremental
// matcher and the batch oracle, and wide queries (past Match's inline
// capacity, up to the largest accepted) against both baseline matchers.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "streamworks/baseline/naive.h"
#include "streamworks/baseline/recompute.h"
#include "streamworks/common/interner.h"
#include "streamworks/common/random.h"
#include "streamworks/graph/dynamic_graph.h"
#include "streamworks/graph/query_graph.h"
#include "streamworks/graph/random_graphs.h"
#include "streamworks/match/backtrack.h"
#include "streamworks/match/local_search.h"
#include "streamworks/match/subgraph_iso.h"
#include "streamworks/sjtree/decomposition.h"
#include "streamworks/sjtree/match_store.h"
#include "streamworks/sjtree/sj_tree.h"
#include "streamworks/stream/batching.h"

namespace streamworks {

/// Reads the table layout MatchStore keeps private: row capacity, table
/// size and a key's home slot.
class MatchStoreLayoutPeer {
 public:
  static size_t RowCapacity(const MatchStore& store) {
    return store.row_capacity();
  }
  static size_t NumSlots(const MatchStore& store) {
    return store.slots_.size();
  }
  static size_t HomeSlot(uint64_t key, size_t num_slots) {
    return MatchStore::HomeSlot(key, num_slots);
  }
};

namespace {

using Layout = MatchStoreLayoutPeer;

StreamEdge MakeEdge(Interner* interner, uint64_t src, uint64_t dst,
                    std::string_view elabel, Timestamp ts,
                    std::string_view src_label = "V",
                    std::string_view dst_label = "V") {
  StreamEdge e;
  e.src = src;
  e.dst = dst;
  e.src_label = interner->Intern(src_label);
  e.dst_label = interner->Intern(dst_label);
  e.edge_label = interner->Intern(elabel);
  e.ts = ts;
  return e;
}

/// Path query v0 -[x]-> v1 -[y]-> v2.
QueryGraph PathQuery(Interner* interner) {
  QueryGraphBuilder builder(interner);
  const auto va = builder.AddVertex("V");
  const auto vb = builder.AddVertex("V");
  const auto vc = builder.AddVertex("V");
  builder.AddEdge(va, vb, "x");
  builder.AddEdge(vb, vc, "y");
  return builder.Build("path2").value();
}

/// Path query with 4 edges, all distinct labels a,b,c,d.
QueryGraph Path4Query(Interner* interner) {
  QueryGraphBuilder builder(interner);
  QueryVertexId v[5];
  for (auto& vi : v) vi = builder.AddVertex("V");
  builder.AddEdge(v[0], v[1], "a");
  builder.AddEdge(v[1], v[2], "b");
  builder.AddEdge(v[2], v[3], "c");
  builder.AddEdge(v[3], v[4], "d");
  return builder.Build("path4").value();
}

QueryGraph TriangleQuery(Interner* interner) {
  QueryGraphBuilder builder(interner);
  const auto v0 = builder.AddVertex("V");
  const auto v1 = builder.AddVertex("V");
  const auto v2 = builder.AddVertex("V");
  builder.AddEdge(v0, v1, "x");
  builder.AddEdge(v1, v2, "x");
  builder.AddEdge(v2, v0, "x");
  return builder.Build("triangle").value();
}

/// Single-edge leaves in a connected expansion order — the simplest valid
/// left-deep plan (the planner module layers smarter orders on top).
std::vector<Bitset64> SingleEdgeLeaves(const QueryGraph& q) {
  std::vector<Bitset64> leaves;
  for (QueryEdgeId e : ConnectedEdgeOrder(q, q.AllEdges(), 0)) {
    leaves.push_back(Bitset64::Single(e));
  }
  return leaves;
}

// --- Decomposition -------------------------------------------------------------

TEST(DecompositionTest, LeftDeepPathShapeAndProperties) {
  Interner interner;
  const QueryGraph q = PathQuery(&interner);
  auto d = Decomposition::MakeLeftDeep(q, SingleEdgeLeaves(q));
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_EQ(d->num_nodes(), 3);  // 2 leaves + 1 join
  EXPECT_EQ(d->leaves().size(), 2u);
  EXPECT_EQ(d->Height(), 2);
  const DecompositionNode& root = d->node(d->root());
  EXPECT_EQ(root.edges, q.AllEdges());        // Property 1
  EXPECT_EQ(root.cut_vertices.Count(), 1);    // shared middle vertex
  EXPECT_TRUE(root.cut_vertices.Contains(1));
  EXPECT_TRUE(d->Validate(q).ok());
}

TEST(DecompositionTest, SiblingPointers) {
  Interner interner;
  const QueryGraph q = Path4Query(&interner);
  const Decomposition d =
      Decomposition::MakeLeftDeep(q, SingleEdgeLeaves(q)).value();
  for (int leaf : d.leaves()) {
    const int sib = d.Sibling(leaf);
    EXPECT_NE(sib, leaf);
    EXPECT_EQ(d.node(sib).parent, d.node(leaf).parent);
  }
}

TEST(DecompositionTest, LeftDeepRejectsDisconnectedOrder) {
  Interner interner;
  const QueryGraph q = Path4Query(&interner);
  // Leaf order e0, e2: no shared vertex between {v0,v1} and {v2,v3}.
  std::vector<Bitset64> leaves = {
      Bitset64::Single(0), Bitset64::Single(2), Bitset64::Single(1),
      Bitset64::Single(3)};
  EXPECT_FALSE(Decomposition::MakeLeftDeep(q, leaves).ok());
}

TEST(DecompositionTest, RejectsNonPartitionLeaves) {
  Interner interner;
  const QueryGraph q = PathQuery(&interner);
  // Missing edge 1.
  EXPECT_FALSE(
      Decomposition::MakeLeftDeep(q, {Bitset64::Single(0)}).ok());
  // Overlapping leaves.
  const Bitset64 both = Bitset64::Single(0) | Bitset64::Single(1);
  EXPECT_FALSE(
      Decomposition::MakeLeftDeep(q, {both, Bitset64::Single(1)}).ok());
}

TEST(DecompositionTest, RejectsDisconnectedLeafSubgraph) {
  Interner interner;
  const QueryGraph q = Path4Query(&interner);
  // Leaf {e0, e3} is internally disconnected.
  const Bitset64 bad = Bitset64::Single(0) | Bitset64::Single(3);
  const Bitset64 mid = Bitset64::Single(1) | Bitset64::Single(2);
  EXPECT_FALSE(Decomposition::MakeLeftDeep(q, {bad, mid}).ok());
}

TEST(DecompositionTest, BalancedFourLeavesIsShallower) {
  Interner interner;
  const QueryGraph q = Path4Query(&interner);
  const auto leaves = SingleEdgeLeaves(q);
  const Decomposition left_deep =
      Decomposition::MakeLeftDeep(q, leaves).value();
  const Decomposition balanced =
      Decomposition::MakeBalanced(q, leaves).value();
  EXPECT_EQ(left_deep.Height(), 4);
  EXPECT_EQ(balanced.Height(), 3);
  EXPECT_TRUE(balanced.Validate(q).ok());
  EXPECT_EQ(balanced.node(balanced.root()).edges, q.AllEdges());
}

TEST(DecompositionTest, BalancedRejectsEmptyCut) {
  Interner interner;
  const QueryGraph q = Path4Query(&interner);
  // Order e0,e2,e1,e3: the first bisection pairs e0 with e2 (no shared
  // vertex).
  std::vector<Bitset64> leaves = {
      Bitset64::Single(0), Bitset64::Single(2), Bitset64::Single(1),
      Bitset64::Single(3)};
  EXPECT_FALSE(Decomposition::MakeBalanced(q, leaves).ok());
}

TEST(DecompositionTest, SingleLeafDegenerateForm) {
  Interner interner;
  const QueryGraph q = TriangleQuery(&interner);
  const Decomposition d = Decomposition::MakeSingleLeaf(q).value();
  EXPECT_EQ(d.num_nodes(), 1);
  EXPECT_TRUE(d.IsLeaf(d.root()));
  EXPECT_EQ(d.node(d.root()).edges, q.AllEdges());
  EXPECT_EQ(d.Height(), 1);
}

TEST(DecompositionTest, ValidateRejectsForeignQuery) {
  Interner interner;
  const QueryGraph q2 = PathQuery(&interner);
  const QueryGraph q4 = Path4Query(&interner);
  const Decomposition d =
      Decomposition::MakeLeftDeep(q2, SingleEdgeLeaves(q2)).value();
  EXPECT_FALSE(d.Validate(q4).ok());
}

TEST(DecompositionTest, ToStringShowsCutsAndLabels) {
  Interner interner;
  const QueryGraph q = PathQuery(&interner);
  const Decomposition d =
      Decomposition::MakeLeftDeep(q, SingleEdgeLeaves(q)).value();
  const std::string s = d.ToString(q, interner);
  EXPECT_NE(s.find("join"), std::string::npos);
  EXPECT_NE(s.find("leaf"), std::string::npos);
  EXPECT_NE(s.find("cut="), std::string::npos);
  EXPECT_NE(s.find("[x]"), std::string::npos);
}

// --- MatchStore ------------------------------------------------------------------

/// The row shape of a store holding MakeStoredMatch's matches: query
/// vertices {v0, v1} and query edge e0.
MatchStore EdgeZeroStore() {
  return MatchStore(Bitset64::FirstN(2), Bitset64::Single(0));
}

Match MakeStoredMatch(const QueryGraph& q, VertexId v0, VertexId v1,
                      EdgeId de, Timestamp ts) {
  Match m(q);
  m.BindVertex(0, v0);
  m.BindVertex(1, v1);
  m.BindEdge(0, de, ts);
  return m;
}

TEST(MatchStoreTest, ProbeFindsOnlyMatchingKey) {
  Interner interner;
  const QueryGraph q = PathQuery(&interner);
  MatchStore store = EdgeZeroStore();
  store.Insert(111, MakeStoredMatch(q, 1, 2, 10, 5));
  store.Insert(222, MakeStoredMatch(q, 3, 4, 11, 6));
  int visited = 0;
  store.ProbeKey(111, 0, [&](const MatchRow&) { ++visited; });
  EXPECT_EQ(visited, 1);
  visited = 0;
  store.ProbeKey(999, 0, [&](const MatchRow&) { ++visited; });
  EXPECT_EQ(visited, 0);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.total_inserted(), 2u);
}

TEST(MatchStoreTest, ProbeErasesDeadEntries) {
  Interner interner;
  const QueryGraph q = PathQuery(&interner);
  MatchStore store = EdgeZeroStore();
  store.Insert(7, MakeStoredMatch(q, 1, 2, 10, 5));    // min_ts 5
  store.Insert(7, MakeStoredMatch(q, 3, 4, 11, 50));   // min_ts 50
  int visited = 0;
  store.ProbeKey(7, /*cutoff=*/10, [&](const MatchRow& m) {
    ++visited;
    EXPECT_EQ(m.min_ts(), 50);
  });
  EXPECT_EQ(visited, 1);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.total_expired(), 1u);
}

TEST(MatchStoreTest, ExpireSweepsEverything) {
  Interner interner;
  const QueryGraph q = PathQuery(&interner);
  MatchStore store = EdgeZeroStore();
  for (int i = 0; i < 10; ++i) {
    store.Insert(i % 3, MakeStoredMatch(q, i, i + 1, i, i));
  }
  EXPECT_EQ(store.peak_size(), 10u);
  store.Expire(/*cutoff=*/5);
  EXPECT_EQ(store.size(), 5u);
  store.Expire(/*cutoff=*/100);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.total_expired(), 10u);
  EXPECT_EQ(store.peak_size(), 10u);  // peak survives expiry
}

/// Edge ids of the live rows under `key`, in visit order.
std::vector<EdgeId> ProbeEdgeIds(MatchStore* store, uint64_t key,
                                 Timestamp cutoff = 0) {
  std::vector<EdgeId> ids;
  store->ProbeKey(key, cutoff,
                  [&](const MatchRow& row) { ids.push_back(row.edge(0)); });
  return ids;
}

TEST(MatchStoreTest, ChainsVisitNewestFirst) {
  Interner interner;
  const QueryGraph q = PathQuery(&interner);
  MatchStore store = EdgeZeroStore();
  for (int i = 0; i < 5; ++i) {
    store.Insert(7, MakeStoredMatch(q, i, i + 10, 100 + i, i));
    store.Insert(8, MakeStoredMatch(q, i, i + 20, 200 + i, i));
  }
  EXPECT_EQ(ProbeEdgeIds(&store, 7),
            (std::vector<EdgeId>{104, 103, 102, 101, 100}));
  EXPECT_EQ(ProbeEdgeIds(&store, 8),
            (std::vector<EdgeId>{204, 203, 202, 201, 200}));
}

TEST(MatchStoreTest, KeysSharingAHomeSlotDoNotMix) {
  Interner interner;
  const QueryGraph q = PathQuery(&interner);
  MatchStore store = EdgeZeroStore();
  store.Insert(0, MakeStoredMatch(q, 0, 1, 1000, 100));
  const size_t slots = Layout::NumSlots(store);
  ASSERT_GT(slots, 0u);
  // Three keys that all probe from the same slot: one linear-probe cluster.
  std::vector<uint64_t> keys;
  for (uint64_t k = 1; keys.size() < 3; ++k) {
    if (Layout::HomeSlot(k, slots) == Layout::HomeSlot(1, slots)) {
      keys.push_back(k);
    }
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    store.Insert(keys[i], MakeStoredMatch(q, 1, 2, 10 * (i + 1), 5));
    store.Insert(keys[i], MakeStoredMatch(q, 1, 2, 10 * (i + 1) + 1, 50));
  }
  ASSERT_EQ(Layout::NumSlots(store), slots);  // no rehash separated them
  for (size_t i = 0; i < keys.size(); ++i) {
    const EdgeId base = 10 * (i + 1);
    EXPECT_EQ(ProbeEdgeIds(&store, keys[i]),
              (std::vector<EdgeId>{base + 1, base}));
  }
  // Emptying the first key's chain frees its slot; the later keys of the
  // cluster must stay reachable.
  EXPECT_TRUE(ProbeEdgeIds(&store, keys[0], /*cutoff=*/100).empty());
  EXPECT_TRUE(ProbeEdgeIds(&store, keys[0]).empty());
  EXPECT_EQ(ProbeEdgeIds(&store, keys[1]), (std::vector<EdgeId>{21, 20}));
  EXPECT_EQ(ProbeEdgeIds(&store, keys[2]), (std::vector<EdgeId>{31, 30}));
  EXPECT_EQ(ProbeEdgeIds(&store, 0), (std::vector<EdgeId>{1000}));
}

TEST(MatchStoreTest, ChainEmptiedByLazyExpiryTakesNewInserts) {
  Interner interner;
  const QueryGraph q = PathQuery(&interner);
  MatchStore store = EdgeZeroStore();
  store.Insert(5, MakeStoredMatch(q, 1, 2, 10, 1));
  store.Insert(5, MakeStoredMatch(q, 3, 4, 11, 2));
  EXPECT_TRUE(ProbeEdgeIds(&store, 5, /*cutoff=*/10).empty());
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.total_expired(), 2u);
  store.Insert(5, MakeStoredMatch(q, 5, 6, 12, 20));
  EXPECT_EQ(ProbeEdgeIds(&store, 5, /*cutoff=*/10),
            (std::vector<EdgeId>{12}));
  EXPECT_EQ(store.size(), 1u);
}

TEST(MatchStoreTest, ReusedRowNeverResurfacesAnExpiredBinding) {
  Interner interner;
  const QueryGraph q = PathQuery(&interner);
  MatchStore store = EdgeZeroStore();
  store.Insert(1, MakeStoredMatch(q, 1, 2, 10, 5));
  store.Insert(2, MakeStoredMatch(q, 3, 4, 20, 50));
  EXPECT_TRUE(ProbeEdgeIds(&store, 1, /*cutoff=*/10).empty());
  ASSERT_EQ(Layout::RowCapacity(store), 2u);

  store.Insert(3, MakeStoredMatch(q, 7, 8, 30, 60));
  EXPECT_EQ(Layout::RowCapacity(store), 2u);  // the freed row was reused
  EXPECT_TRUE(ProbeEdgeIds(&store, 1).empty());
  int visited = 0;
  store.ProbeKey(3, 0, [&](const MatchRow& row) {
    ++visited;
    EXPECT_EQ(row.vertex(0), 7u);
    EXPECT_EQ(row.vertex(1), 8u);
    EXPECT_EQ(row.edge(0), 30u);
    EXPECT_EQ(row.edge_ts(0), 60);
    EXPECT_EQ(row.min_ts(), 60);
    EXPECT_EQ(row.max_ts(), 60);
  });
  EXPECT_EQ(visited, 1);
  EXPECT_EQ(ProbeEdgeIds(&store, 2), (std::vector<EdgeId>{20}));
}

TEST(MatchStoreTest, GrowthAndCompactionKeepEveryLiveRowReachable) {
  Interner interner;
  const QueryGraph q = PathQuery(&interner);
  MatchStore store = EdgeZeroStore();
  constexpr int kRows = 2000;
  constexpr uint64_t kKeys = 300;
  std::vector<std::vector<EdgeId>> expected(kKeys);  // newest first
  Rng rng(11);
  for (int i = 0; i < kRows; ++i) {
    const uint64_t key = rng.NextBounded(kKeys);
    store.Insert(key, MakeStoredMatch(q, i, i + 1, i, i));
    expected[key].insert(expected[key].begin(), static_cast<EdgeId>(i));
  }
  EXPECT_EQ(Layout::RowCapacity(store), static_cast<size_t>(kRows));
  const size_t grown_slots = Layout::NumSlots(store);

  // Keep the newest 100 rows: the sweep leaves the store 5% full.
  constexpr Timestamp kCutoff = kRows - 100;
  store.Expire(kCutoff);
  EXPECT_EQ(store.size(), 100u);
  EXPECT_EQ(Layout::RowCapacity(store), 100u);
  EXPECT_LT(Layout::NumSlots(store), grown_slots);
  for (auto& ids : expected) {
    std::erase_if(ids, [](EdgeId e) { return e < EdgeId{kCutoff}; });
  }
  for (uint64_t key = 0; key < kKeys; ++key) {
    EXPECT_EQ(ProbeEdgeIds(&store, key), expected[key]) << "key " << key;
  }

  // The compacted store keeps taking inserts on the same chains.
  for (int i = kRows; i < kRows + 50; ++i) {
    const uint64_t key = rng.NextBounded(kKeys);
    store.Insert(key, MakeStoredMatch(q, i, i + 1, i, i));
    expected[key].insert(expected[key].begin(), static_cast<EdgeId>(i));
  }
  for (uint64_t key = 0; key < kKeys; ++key) {
    EXPECT_EQ(ProbeEdgeIds(&store, key), expected[key]) << "key " << key;
  }
  store.Expire(kMaxTimestamp);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(Layout::RowCapacity(store), 0u);
  EXPECT_EQ(Layout::NumSlots(store), 0u);
}

TEST(MatchStoreTest, RowJoinsLikeTheMatchItStores) {
  Interner interner;
  const QueryGraph q = PathQuery(&interner);
  // A row of the second path edge: columns v1, v2 and e1.
  MatchStore store(Bitset64::Single(1) | Bitset64::Single(2),
                   Bitset64::Single(1));
  Match right(q);
  right.BindVertex(1, 2);
  right.BindVertex(2, 3);
  right.BindEdge(1, 11, 9);
  store.Insert(4, right);
  Match left(q);
  left.BindVertex(0, 1);
  left.BindVertex(1, 2);
  left.BindEdge(0, 10, 5);
  Match clash = left;
  clash.UnbindVertex(0);
  clash.BindVertex(0, 3);  // v0 -> 3 collides with the row's v2 -> 3

  int visited = 0;
  store.ProbeKey(4, 0, [&](const MatchRow& row) {
    ++visited;
    EXPECT_EQ(row.vertex(2), 3u);
    EXPECT_EQ(row.edge_ts(1), 9);
    EXPECT_TRUE(JoinCompatible(left, row, 100));
    EXPECT_FALSE(JoinCompatible(left, row, 4));  // span 4 is not < 4
    EXPECT_FALSE(JoinCompatible(clash, row, 100));
    EXPECT_EQ(Match::Union(left, row), Match::Union(left, right));
    EXPECT_EQ(Match::Union(left, row).MappingSignature(),
              Match::Union(left, right).MappingSignature());
  });
  EXPECT_EQ(visited, 1);
}

// --- SjTree: hand-built scenarios ---------------------------------------------

SjTree MakeLeftDeepTree(const QueryGraph* q, Timestamp window) {
  return SjTree(q, Decomposition::MakeLeftDeep(*q, SingleEdgeLeaves(*q))
                       .value(),
                window);
}

TEST(SjTreeTest, TwoLeafPathMatchesInEitherArrivalOrder) {
  for (bool x_first : {true, false}) {
    Interner interner;
    const QueryGraph q = PathQuery(&interner);
    SjTree tree = MakeLeftDeepTree(&q, 100);
    DynamicGraph g(&interner);
    std::vector<Match> completed;

    // Arrival order varies; timestamps always increase.
    std::vector<StreamEdge> arrival =
        x_first ? std::vector<StreamEdge>{MakeEdge(&interner, 1, 2, "x", 0),
                                          MakeEdge(&interner, 2, 3, "y", 1)}
                : std::vector<StreamEdge>{MakeEdge(&interner, 2, 3, "y", 0),
                                          MakeEdge(&interner, 1, 2, "x", 1)};
    const EdgeId first = g.AddEdge(arrival[0]).value();
    tree.ProcessEdge(g, first, &completed);
    EXPECT_TRUE(completed.empty());
    EXPECT_EQ(tree.TotalPartialMatches(), 1u);
    EXPECT_DOUBLE_EQ(tree.MaxMatchedFraction(), 0.5);

    const EdgeId second = g.AddEdge(arrival[1]).value();
    tree.ProcessEdge(g, second, &completed);
    ASSERT_EQ(completed.size(), 1u) << "x_first=" << x_first;
    EXPECT_EQ(completed[0].bound_edges().Count(), 2);
    EXPECT_EQ(tree.num_completed(), 1u);
    EXPECT_DOUBLE_EQ(tree.MaxMatchedFraction(), 1.0);
  }
}

TEST(SjTreeTest, JoinStatsAreRecorded) {
  Interner interner;
  const QueryGraph q = PathQuery(&interner);
  SjTree tree = MakeLeftDeepTree(&q, 100);
  DynamicGraph g(&interner);
  std::vector<Match> completed;
  tree.ProcessEdge(g, g.AddEdge(MakeEdge(&interner, 1, 2, "x", 0)).value(),
                   &completed);
  tree.ProcessEdge(g, g.AddEdge(MakeEdge(&interner, 2, 3, "y", 1)).value(),
                   &completed);
  uint64_t attempts = 0;
  uint64_t successes = 0;
  uint64_t inserted = 0;
  for (int n = 0; n < tree.decomposition().num_nodes(); ++n) {
    attempts += tree.node_stats(n).join_attempts;
    successes += tree.node_stats(n).joins_succeeded;
    inserted += tree.node_stats(n).matches_inserted;
  }
  EXPECT_EQ(successes, 1u);
  EXPECT_GE(attempts, 1u);
  EXPECT_EQ(inserted, 3u);  // two leaf matches + one root completion
}

TEST(SjTreeTest, NonJoinableMatchesDoNotCombine) {
  Interner interner;
  const QueryGraph q = PathQuery(&interner);
  SjTree tree = MakeLeftDeepTree(&q, 100);
  DynamicGraph g(&interner);
  std::vector<Match> completed;
  // x edge 1->2 and y edge 5->6: no shared middle vertex.
  tree.ProcessEdge(g, g.AddEdge(MakeEdge(&interner, 1, 2, "x", 0)).value(),
                   &completed);
  tree.ProcessEdge(g, g.AddEdge(MakeEdge(&interner, 5, 6, "y", 1)).value(),
                   &completed);
  EXPECT_TRUE(completed.empty());
  EXPECT_EQ(tree.TotalPartialMatches(), 2u);
}

TEST(SjTreeTest, WindowExcludesSlowCompletions) {
  Interner interner;
  const QueryGraph q = PathQuery(&interner);
  SjTree tree = MakeLeftDeepTree(&q, 10);
  DynamicGraph g(&interner);
  std::vector<Match> completed;
  tree.ProcessEdge(g, g.AddEdge(MakeEdge(&interner, 1, 2, "x", 0)).value(),
                   &completed);
  tree.ProcessEdge(g, g.AddEdge(MakeEdge(&interner, 2, 3, "y", 10)).value(),
                   &completed);
  EXPECT_TRUE(completed.empty());  // span 10, not < 10
  tree.ProcessEdge(g, g.AddEdge(MakeEdge(&interner, 1, 2, "x", 15)).value(),
                   &completed);
  tree.ProcessEdge(g, g.AddEdge(MakeEdge(&interner, 2, 3, "y", 19)).value(),
                   &completed);
  // Two completions fit the window: (x@15, y@19) span 4 and (x@15, y@10)
  // span 5 — the match-span constraint is on timestamps, not arrival order.
  // (x@0, y@10) span 10 and (x@0, y@19) span 19 are both excluded.
  EXPECT_EQ(completed.size(), 2u);
}

TEST(SjTreeTest, ExpireOldMatchesDropsStalePartials) {
  Interner interner;
  const QueryGraph q = PathQuery(&interner);
  SjTree tree = MakeLeftDeepTree(&q, 10);
  DynamicGraph g(&interner);
  std::vector<Match> completed;
  tree.ProcessEdge(g, g.AddEdge(MakeEdge(&interner, 1, 2, "x", 0)).value(),
                   &completed);
  EXPECT_EQ(tree.TotalPartialMatches(), 1u);
  // Advance the watermark far beyond the window with an unrelated edge.
  ASSERT_TRUE(g.AddEdge(MakeEdge(&interner, 8, 9, "zz", 1000)).ok());
  tree.ExpireOldMatches(g.watermark());
  EXPECT_EQ(tree.TotalPartialMatches(), 0u);
}

TEST(SjTreeTest, TriangleFindsAllRotations) {
  Interner interner;
  const QueryGraph q = TriangleQuery(&interner);
  SjTree tree = MakeLeftDeepTree(&q, 100);
  DynamicGraph g(&interner);
  std::vector<Match> completed;
  for (const auto& [s, d] :
       std::vector<std::pair<int, int>>{{1, 2}, {2, 3}, {3, 1}}) {
    tree.ProcessEdge(
        g,
        g.AddEdge(MakeEdge(&interner, s, d, "x", 0)).value(),
        &completed);
  }
  EXPECT_EQ(completed.size(), 3u);  // three rotational automorphisms
  std::set<uint64_t> sigs;
  for (const Match& m : completed) sigs.insert(m.MappingSignature());
  EXPECT_EQ(sigs.size(), 3u);
}

TEST(SjTreeTest, SingleLeafDecompositionActsAsNaiveMatcher) {
  Interner interner;
  const QueryGraph q = TriangleQuery(&interner);
  SjTree tree(&q, Decomposition::MakeSingleLeaf(q).value(), 100);
  DynamicGraph g(&interner);
  std::vector<Match> completed;
  for (const auto& [s, d] :
       std::vector<std::pair<int, int>>{{1, 2}, {2, 3}, {3, 1}}) {
    tree.ProcessEdge(
        g, g.AddEdge(MakeEdge(&interner, s, d, "x", 0)).value(),
        &completed);
  }
  EXPECT_EQ(completed.size(), 3u);
  EXPECT_EQ(tree.TotalPartialMatches(), 0u);  // no intermediate storage
}

TEST(SjTreeTest, DebugStringSummarisesNodes) {
  Interner interner;
  const QueryGraph q = PathQuery(&interner);
  SjTree tree = MakeLeftDeepTree(&q, 100);
  const std::string s = tree.DebugString();
  EXPECT_NE(s.find("leaf"), std::string::npos);
  EXPECT_NE(s.find("join"), std::string::npos);
  EXPECT_NE(s.find("completed=0"), std::string::npos);
}

// --- Anchor-plan structural properties -----------------------------------------

TEST(SjTreeStructureTest, AnchorPlansCoverEveryLeafEdgeExactlyOnce) {
  Interner interner;
  Rng rng(555);
  for (int trial = 0; trial < 30; ++trial) {
    const int nv = 3 + static_cast<int>(rng.NextBounded(4));
    const int ne = nv - 1 + static_cast<int>(rng.NextBounded(4));
    const QueryGraph q =
        GenerateRandomConnectedQuery(rng, nv, ne, 2, 2, &interner).value();
    SjTree tree = MakeLeftDeepTree(&q, 100);

    // One plan per (leaf, edge-of-leaf); order[0] is the anchor; the
    // order covers exactly the leaf's edges; anchor labels match the
    // anchor query edge.
    std::multiset<std::pair<int, QueryEdgeId>> seen;
    for (const AnchorPlan& plan : tree.anchor_plans()) {
      seen.insert({plan.leaf, plan.anchor});
      ASSERT_FALSE(plan.order.empty());
      EXPECT_EQ(plan.order[0], plan.anchor);
      Bitset64 covered;
      for (QueryEdgeId e : plan.order) covered.Add(e);
      EXPECT_EQ(covered, tree.decomposition().node(plan.leaf).edges);
      const QueryEdge& qe = q.edge(plan.anchor);
      EXPECT_EQ(plan.edge_label, qe.label);
      EXPECT_EQ(plan.src_label, q.vertex_label(qe.src));
      EXPECT_EQ(plan.dst_label, q.vertex_label(qe.dst));
    }
    // Each (leaf, edge) pair appears exactly once, and the total anchor
    // count equals the query edge count (leaves partition the edges).
    const std::set<std::pair<int, QueryEdgeId>> unique(seen.begin(),
                                                       seen.end());
    EXPECT_EQ(seen.size(), unique.size());
    EXPECT_EQ(static_cast<int>(tree.anchor_plans().size()), q.num_edges());
  }
}

TEST(SjTreeStructureTest, PrimitivePairLeavesGetMultiEdgeOrders) {
  Interner interner;
  QueryGraphBuilder builder(&interner);
  QueryVertexId v[5];
  for (auto& vi : v) vi = builder.AddVertex("V");
  builder.AddEdge(v[0], v[1], "a");
  builder.AddEdge(v[1], v[2], "b");
  builder.AddEdge(v[2], v[3], "c");
  builder.AddEdge(v[3], v[4], "d");
  const QueryGraph q = builder.Build().value();
  const std::vector<Bitset64> leaves = {
      Bitset64::Single(0) | Bitset64::Single(1),
      Bitset64::Single(2) | Bitset64::Single(3)};
  SjTree tree(&q, Decomposition::MakeLeftDeep(q, leaves).value(), 100);
  EXPECT_EQ(tree.anchor_plans().size(), 4u);  // 2 leaves x 2 anchor slots
  for (const AnchorPlan& plan : tree.anchor_plans()) {
    EXPECT_EQ(plan.order.size(), 2u);
  }
}

// --- Wide queries: bindings past Match's inline capacity ---------------------

/// Directed path over `num_edges` "x" edges; closes into a cycle when
/// `cycle` (the last edge then returns to v0).
QueryGraph XChainQuery(Interner* interner, int num_edges, bool cycle) {
  QueryGraphBuilder builder(interner);
  const int num_vertices = cycle ? num_edges : num_edges + 1;
  for (int i = 0; i < num_vertices; ++i) builder.AddVertex("V");
  for (int i = 0; i < num_edges; ++i) {
    builder.AddEdge(static_cast<QueryVertexId>(i),
                    static_cast<QueryVertexId>((i + 1) % num_vertices), "x");
  }
  return builder.Build(cycle ? "x_cycle" : "x_path").value();
}

/// "x" links i -> (i + 1) % modulus for i in [0, links), every
/// `double_every`-th link doubled by a parallel edge, arriving out of
/// order: each link's arrival is jittered by up to `jitter` positions. Edge
/// timestamps are arrival positions, so every edge is its own tick.
std::vector<StreamEdge> JitteredXChain(Interner* interner, int links,
                                       int modulus, int double_every,
                                       int jitter, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<uint64_t, int>> arrival;  // (sort key, link)
  for (int i = 0; i < links; ++i) {
    for (int copy = 0; copy < (i % double_every == 0 ? 2 : 1); ++copy) {
      arrival.emplace_back(i * 64 + rng.NextBounded(jitter * 64 + 1), i);
    }
  }
  std::sort(arrival.begin(), arrival.end());
  std::vector<StreamEdge> edges;
  for (const auto& [key, link] : arrival) {
    edges.push_back(MakeEdge(interner, link, (link + 1) % modulus, "x",
                             static_cast<Timestamp>(edges.size())));
  }
  return edges;
}

/// Runs `edges` through an SjTree over `decomposition` and through both
/// oracles; expects the same non-empty multiset of completions.
void ExpectWideQueryAgreesWithOracles(Interner* interner,
                                      const QueryGraph& q,
                                      Decomposition decomposition,
                                      Timestamp window,
                                      const std::vector<StreamEdge>& edges) {
  SjTree tree(&q, std::move(decomposition), window);
  DynamicGraph graph(interner);
  NaiveIncrementalMatcher naive(&q, window, interner);
  std::multiset<uint64_t> sjtree_sigs, naive_sigs, recompute_sigs;
  int step = 0;
  for (const StreamEdge& e : edges) {
    std::vector<Match> completed;
    tree.ProcessEdge(graph, graph.AddEdge(e).value(), &completed);
    for (const Match& m : completed) {
      sjtree_sigs.insert(m.ExternalMappingSignature(graph));
    }
    const std::vector<Match> found = naive.ProcessEdge(e).value();
    for (const Match& m : found) {
      naive_sigs.insert(m.ExternalMappingSignature(naive.graph()));
    }
    if (++step % 16 == 0) tree.ExpireOldMatches(graph.watermark());
  }
  RecomputeMatcher recompute(&q, window, interner);
  for (const EdgeBatch& batch : BatchByTick(edges)) {
    const std::vector<Match> found = recompute.ProcessBatch(batch).value();
    for (const Match& m : found) {
      recompute_sigs.insert(m.ExternalMappingSignature(recompute.graph()));
    }
  }
  EXPECT_FALSE(sjtree_sigs.empty());
  EXPECT_EQ(sjtree_sigs, naive_sigs);
  EXPECT_EQ(sjtree_sigs, recompute_sigs);
}

TEST(SjTreeWideQueryTest, TwelveEdgePathAgreesWithOracles) {
  Interner interner;
  const QueryGraph q = XChainQuery(&interner, 12, /*cycle=*/false);
  ASSERT_GT(q.num_vertices(), Match::kInlineArity);
  // A 40-link chain with jittered arrival: some 12-link windows complete
  // within the window and some do not.
  const auto edges = JitteredXChain(&interner, 40, 1000, 5, 8, 17);
  const auto leaves = SingleEdgeLeaves(q);
  ExpectWideQueryAgreesWithOracles(
      &interner, q, Decomposition::MakeLeftDeep(q, leaves).value(),
      /*window=*/20, edges);
  ExpectWideQueryAgreesWithOracles(
      &interner, q, Decomposition::MakeBalanced(q, leaves).value(),
      /*window=*/20, edges);
}

TEST(SjTreeWideQueryTest, LargestAcceptedQueryAgreesWithOracles) {
  Interner interner;
  const QueryGraph q = XChainQuery(&interner, kMaxQuerySize, /*cycle=*/true);
  ASSERT_EQ(q.num_vertices(), kMaxQuerySize);
  ASSERT_EQ(q.num_edges(), kMaxQuerySize);
  // A 64-vertex data ring with two doubled links: each of its 64
  // rotations, times the 4 choices of parallel edges, is a match.
  const auto edges =
      JitteredXChain(&interner, kMaxQuerySize, kMaxQuerySize, 32, 8, 23);
  ExpectWideQueryAgreesWithOracles(
      &interner, q,
      Decomposition::MakeLeftDeep(q, SingleEdgeLeaves(q)).value(),
      /*window=*/1000, edges);
}

// --- Equivalence property sweep ---------------------------------------------------

struct SjTreeEquivalenceCase {
  uint64_t seed;
  int stream_vertices;
  int stream_edges;
  int query_vertices;
  int query_edges;
  Timestamp window;
  bool balanced;  ///< Balanced tree shape (falls back to left-deep).
};

class SjTreeEquivalenceTest
    : public testing::TestWithParam<SjTreeEquivalenceCase> {};

TEST_P(SjTreeEquivalenceTest, AgreesWithBothOracles) {
  const auto& c = GetParam();
  Interner interner;
  RandomStreamOptions opt;
  opt.seed = c.seed;
  opt.num_vertices = c.stream_vertices;
  opt.num_edges = c.stream_edges;
  opt.num_vertex_labels = 2;
  opt.num_edge_labels = 2;
  opt.edges_per_tick = 4;
  const auto edges = GenerateUniformStream(opt, &interner);

  Rng rng(c.seed * 2654435761u + 99);
  const QueryGraph q =
      GenerateRandomConnectedQuery(rng, c.query_vertices, c.query_edges, 2,
                                   2, &interner)
          .value();

  const auto leaves = SingleEdgeLeaves(q);
  auto decomp = c.balanced ? Decomposition::MakeBalanced(q, leaves)
                           : Decomposition::MakeLeftDeep(q, leaves);
  if (!decomp.ok()) decomp = Decomposition::MakeLeftDeep(q, leaves);
  SjTree tree(&q, std::move(decomp).value(), c.window);

  // Run the SJ-Tree and the naive incremental matcher on one pass.
  DynamicGraph g(&interner);
  std::multiset<uint64_t> sjtree_sigs;
  std::multiset<uint64_t> naive_sigs;
  int step = 0;
  for (const StreamEdge& e : edges) {
    const EdgeId id = g.AddEdge(e).value();
    std::vector<Match> completed;
    tree.ProcessEdge(g, id, &completed);
    for (const Match& m : completed) {
      sjtree_sigs.insert(m.MappingSignature());
    }
    for (const Match& m : FindLeafMatches(g, q, q.AllEdges(), id,
                                          c.window)) {
      naive_sigs.insert(m.MappingSignature());
    }
    if (++step % 64 == 0) tree.ExpireOldMatches(g.watermark());
  }

  // Batch oracle over the full (unevicted) graph.
  IsoOptions iso;
  iso.window = c.window;
  std::multiset<uint64_t> batch_sigs;
  for (const Match& m : FindAllMatches(g, q, iso)) {
    batch_sigs.insert(m.MappingSignature());
  }

  // Multiset equality: same matches, each exactly once.
  EXPECT_EQ(sjtree_sigs, naive_sigs) << q.ToString(interner);
  EXPECT_EQ(sjtree_sigs, batch_sigs) << q.ToString(interner);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SjTreeEquivalenceTest,
    testing::Values(
        SjTreeEquivalenceCase{101, 20, 200, 2, 1, 10, false},
        SjTreeEquivalenceCase{102, 20, 200, 3, 2, 10, false},
        SjTreeEquivalenceCase{103, 15, 250, 3, 3, 15, false},
        SjTreeEquivalenceCase{104, 15, 250, 4, 3, 20, true},
        SjTreeEquivalenceCase{105, 12, 300, 4, 4, 12, true},
        SjTreeEquivalenceCase{106, 10, 200, 4, 5, 25, false},
        SjTreeEquivalenceCase{107, 25, 350, 3, 2, 5, true},
        SjTreeEquivalenceCase{108, 25, 300, 3, 2, kMaxTimestamp, false},
        SjTreeEquivalenceCase{109, 8, 150, 5, 5, 30, true},
        SjTreeEquivalenceCase{110, 10, 250, 5, 4, 40, true},
        SjTreeEquivalenceCase{111, 30, 400, 2, 1, 3, false},
        SjTreeEquivalenceCase{112, 12, 300, 4, 4, 8, false}));

}  // namespace
}  // namespace streamworks
