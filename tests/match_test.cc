// Unit and property tests for streamworks/match: Match bindings and
// signatures, join compatibility, connected expansion orders, the batch
// isomorphism oracle, and the anchored local search (incremental
// exactly-once discovery).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_set>
#include <vector>

#include "streamworks/common/interner.h"
#include "streamworks/common/random.h"
#include "streamworks/graph/dynamic_graph.h"
#include "streamworks/graph/query_graph.h"
#include "streamworks/graph/random_graphs.h"
#include "streamworks/match/backtrack.h"
#include "streamworks/match/local_search.h"
#include "streamworks/match/match.h"
#include "streamworks/match/subgraph_iso.h"

namespace streamworks {
namespace {

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

/// Two-vertex, one-edge query A -[x]-> B.
QueryGraph OneEdgeQuery(Interner* interner, std::string_view a = "V",
                        std::string_view b = "V",
                        std::string_view label = "x") {
  QueryGraphBuilder builder(interner);
  const auto va = builder.AddVertex(a);
  const auto vb = builder.AddVertex(b);
  builder.AddEdge(va, vb, label);
  return builder.Build("one_edge").value();
}

/// Path query A -[x]-> B -[y]-> C.
QueryGraph PathQuery(Interner* interner) {
  QueryGraphBuilder builder(interner);
  const auto va = builder.AddVertex("V");
  const auto vb = builder.AddVertex("V");
  const auto vc = builder.AddVertex("V");
  builder.AddEdge(va, vb, "x");
  builder.AddEdge(vb, vc, "y");
  return builder.Build("path2").value();
}

/// Directed triangle with all "x" labels.
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

// --- Match data structure ----------------------------------------------------

TEST(MatchTest, BindAndUnbindMaintainSpan) {
  Interner interner;
  const QueryGraph q = PathQuery(&interner);
  Match m(q);
  EXPECT_TRUE(m.bound_edges().Empty());
  m.BindVertex(0, 100);
  m.BindVertex(1, 101);
  m.BindEdge(0, 7, 50);
  EXPECT_EQ(m.min_ts(), 50);
  EXPECT_EQ(m.max_ts(), 50);
  EXPECT_EQ(m.Span(), 0);
  m.BindVertex(2, 102);
  m.BindEdge(1, 9, 80);
  EXPECT_EQ(m.Span(), 30);
  EXPECT_TRUE(m.UsesDataEdge(7));
  EXPECT_TRUE(m.UsesDataVertex(101));
  EXPECT_FALSE(m.UsesDataVertex(999));

  m.UnbindEdge(1);
  EXPECT_EQ(m.Span(), 0);
  EXPECT_EQ(m.max_ts(), 50);
  EXPECT_FALSE(m.UsesDataEdge(9));
}

TEST(MatchTest, FitsWindowWithStrictBoundary) {
  Interner interner;
  const QueryGraph q = PathQuery(&interner);
  Match m(q);
  EXPECT_TRUE(m.FitsWindowWith(123, 1));  // empty match always fits
  m.BindVertex(0, 1);
  m.BindVertex(1, 2);
  m.BindEdge(0, 0, 100);
  EXPECT_TRUE(m.FitsWindowWith(104, 5));   // span 4 < 5
  EXPECT_FALSE(m.FitsWindowWith(105, 5));  // span 5 is not < 5
  EXPECT_TRUE(m.FitsWindowWith(96, 5));
  EXPECT_FALSE(m.FitsWindowWith(95, 5));
}

TEST(MatchTest, SignaturesDistinguishMappings) {
  Interner interner;
  const QueryGraph q = PathQuery(&interner);
  Match a(q);
  a.BindVertex(0, 1);
  a.BindVertex(1, 2);
  a.BindEdge(0, 10, 5);
  Match b = a;
  EXPECT_EQ(a.MappingSignature(), b.MappingSignature());
  EXPECT_EQ(a.EdgeSetSignature(), b.EdgeSetSignature());
  EXPECT_TRUE(a == b);

  Match c(q);
  c.BindVertex(0, 1);
  c.BindVertex(1, 3);  // different data vertex
  c.BindEdge(0, 10, 5);
  EXPECT_NE(a.MappingSignature(), c.MappingSignature());
  EXPECT_EQ(a.EdgeSetSignature(), c.EdgeSetSignature());  // same edge set
  EXPECT_FALSE(a == c);
}

TEST(MatchTest, UnionMergesBindings) {
  Interner interner;
  const QueryGraph q = PathQuery(&interner);
  Match a(q);
  a.BindVertex(0, 1);
  a.BindVertex(1, 2);
  a.BindEdge(0, 10, 5);
  Match b(q);
  b.BindVertex(1, 2);
  b.BindVertex(2, 3);
  b.BindEdge(1, 11, 9);
  const Match u = Match::Union(a, b);
  EXPECT_EQ(u.vertex(0), 1u);
  EXPECT_EQ(u.vertex(2), 3u);
  EXPECT_EQ(u.edge(1), 11u);
  EXPECT_EQ(u.min_ts(), 5);
  EXPECT_EQ(u.max_ts(), 9);
  EXPECT_EQ(u.bound_edges().Count(), 2);
}

/// The largest query QueryGraphBuilder accepts: a directed cycle over
/// kMaxQuerySize vertices and kMaxQuerySize edges, far past Match's inline
/// capacity.
QueryGraph MaxArityCycle(Interner* interner) {
  QueryGraphBuilder builder(interner);
  for (int i = 0; i < kMaxQuerySize; ++i) builder.AddVertex("V");
  for (int i = 0; i < kMaxQuerySize; ++i) {
    builder.AddEdge(static_cast<QueryVertexId>(i),
                    static_cast<QueryVertexId>((i + 1) % kMaxQuerySize), "x");
  }
  return builder.Build("cycle64").value();
}

/// Binds cycle edges [first, last) of `q` and their endpoints: query vertex
/// i -> data vertex i, query edge i -> data edge 500 + i at ts 10 + i.
Match BindCycleArc(const QueryGraph& q, int first, int last) {
  Match m(q);
  for (int i = first; i < last; ++i) {
    const QueryEdge& e = q.edge(static_cast<QueryEdgeId>(i));
    m.BindVertex(e.src, e.src);
    m.BindVertex(e.dst, e.dst);
    m.BindEdge(static_cast<QueryEdgeId>(i), 500 + i, 10 + i);
  }
  return m;
}

TEST(MatchTest, MaxArityBindAndUnbind) {
  Interner interner;
  const QueryGraph q = MaxArityCycle(&interner);
  Match m = BindCycleArc(q, 0, kMaxQuerySize);
  EXPECT_EQ(m.num_bound_edges(), kMaxQuerySize);
  EXPECT_EQ(m.bound_vertices().Count(), kMaxQuerySize);
  EXPECT_EQ(m.vertex(63), 63u);
  EXPECT_EQ(m.edge(63), 563u);
  EXPECT_EQ(m.edge_ts(63), 73);
  EXPECT_EQ(m.min_ts(), 10);
  EXPECT_EQ(m.max_ts(), 73);
  EXPECT_EQ(m.MaxDataEdgeId(), 563u);

  m.UnbindEdge(63);
  EXPECT_FALSE(m.HasEdge(63));
  EXPECT_FALSE(m.UsesDataEdge(563));
  EXPECT_EQ(m.max_ts(), 72);
  m.UnbindEdge(0);
  EXPECT_EQ(m.min_ts(), 11);
  m.UnbindVertex(63);
  EXPECT_FALSE(m.HasVertex(63));
  EXPECT_FALSE(m.UsesDataVertex(63));
  EXPECT_TRUE(m.UsesDataVertex(62));
}

TEST(MatchTest, MaxArityUnionEqualityAndSignatures) {
  Interner interner;
  const QueryGraph q = MaxArityCycle(&interner);
  DynamicGraph graph(&interner);
  const LabelId v = interner.Intern("V");
  for (int i = 0; i < kMaxQuerySize; ++i) {
    ASSERT_EQ(graph.InternVertex(7000 + i, v).value(),
              static_cast<VertexId>(i));
  }
  const Match full = BindCycleArc(q, 0, kMaxQuerySize);
  const Match left = BindCycleArc(q, 0, 32);
  const Match right = BindCycleArc(q, 32, kMaxQuerySize);
  ASSERT_TRUE(JoinCompatible(left, right, 100));
  ASSERT_TRUE(JoinCompatible(right, left, 100));
  EXPECT_FALSE(JoinCompatible(left, right, 63));  // span 63 is not < 63

  const Match joined = Match::Union(left, right);
  EXPECT_TRUE(joined == full);
  EXPECT_EQ(joined.MappingSignature(), full.MappingSignature());
  EXPECT_EQ(joined.EdgeSetSignature(), full.EdgeSetSignature());
  EXPECT_EQ(joined.ExternalMappingSignature(graph),
            full.ExternalMappingSignature(graph));
  EXPECT_EQ(joined.ToString(), full.ToString());

  // Copies are deep: changing one binding changes only the copy.
  Match copy = full;
  copy.UnbindEdge(40);
  copy.BindEdge(40, 999, 50);
  EXPECT_FALSE(copy == full);
  EXPECT_NE(copy.MappingSignature(), full.MappingSignature());
  EXPECT_NE(copy.EdgeSetSignature(), full.EdgeSetSignature());
  EXPECT_NE(copy.ExternalMappingSignature(graph),
            full.ExternalMappingSignature(graph));
  EXPECT_EQ(full.edge(40), 540u);
  Match moved = std::move(copy);
  EXPECT_EQ(moved.edge(40), 999u);
  // A moved-from match is the empty default shape, readable as such.
  EXPECT_TRUE(copy == Match());
  EXPECT_EQ(copy.num_bound_edges(), 0);
  EXPECT_EQ(copy.ToString(), Match().ToString());
  copy = full;  // ... and takes a new value
  EXPECT_TRUE(copy == full);
}

TEST(MatchTest, CopyAndMoveAcrossInlineAndWideShapes) {
  Interner interner;
  const QueryGraph wide_q = MaxArityCycle(&interner);
  const QueryGraph path_q = PathQuery(&interner);
  const Match wide = BindCycleArc(wide_q, 0, 10);
  Match path(path_q);
  path.BindVertex(0, 1);
  path.BindVertex(1, 2);
  path.BindEdge(0, 100, 5);

  Match m = wide;
  EXPECT_TRUE(m == wide);
  m = path;  // wide -> inline
  EXPECT_TRUE(m == path);
  EXPECT_EQ(m.edge_ts(0), 5);
  m = wide;  // inline -> wide
  EXPECT_TRUE(m == wide);
  EXPECT_EQ(m.edge_ts(9), 19);

  Match inline_moved = path;
  Match target = std::move(inline_moved);
  EXPECT_TRUE(target == path);
  EXPECT_TRUE(inline_moved == Match());
  target = std::move(m);  // inline target takes a wide match
  EXPECT_TRUE(target == wide);
  EXPECT_TRUE(m == Match());
}

TEST(MatchTest, JoinCompatibleAcceptsConsistentPair) {
  Interner interner;
  const QueryGraph q = PathQuery(&interner);
  Match a(q);
  a.BindVertex(0, 1);
  a.BindVertex(1, 2);
  a.BindEdge(0, 10, 5);
  Match b(q);
  b.BindVertex(1, 2);
  b.BindVertex(2, 3);
  b.BindEdge(1, 11, 9);
  EXPECT_TRUE(JoinCompatible(a, b, 100));
  EXPECT_TRUE(JoinCompatible(b, a, 100));
}

TEST(MatchTest, JoinCompatibleRejectsCutDisagreement) {
  Interner interner;
  const QueryGraph q = PathQuery(&interner);
  Match a(q);
  a.BindVertex(0, 1);
  a.BindVertex(1, 2);
  a.BindEdge(0, 10, 5);
  Match b(q);
  b.BindVertex(1, 99);  // disagrees with a on shared query vertex 1
  b.BindVertex(2, 3);
  b.BindEdge(1, 11, 9);
  EXPECT_FALSE(JoinCompatible(a, b, 100));
}

TEST(MatchTest, JoinCompatibleRejectsVertexInjectivityViolation) {
  Interner interner;
  const QueryGraph q = PathQuery(&interner);
  Match a(q);
  a.BindVertex(0, 1);
  a.BindVertex(1, 2);
  a.BindEdge(0, 10, 5);
  Match b(q);
  b.BindVertex(1, 2);
  b.BindVertex(2, 1);  // data vertex 1 already used for query vertex 0
  b.BindEdge(1, 11, 9);
  EXPECT_FALSE(JoinCompatible(a, b, 100));
}

TEST(MatchTest, JoinCompatibleRejectsSharedDataEdge) {
  Interner interner;
  QueryGraphBuilder builder(&interner);
  const auto v0 = builder.AddVertex("V");
  const auto v1 = builder.AddVertex("V");
  builder.AddEdge(v0, v1, "x");
  builder.AddEdge(v0, v1, "x");  // parallel query edges
  const QueryGraph q = builder.Build().value();
  Match a(q);
  a.BindVertex(0, 1);
  a.BindVertex(1, 2);
  a.BindEdge(0, 10, 5);
  Match b(q);
  b.BindVertex(0, 1);
  b.BindVertex(1, 2);
  b.BindEdge(1, 10, 5);  // same data edge for the other query edge
  EXPECT_FALSE(JoinCompatible(a, b, 100));
}

TEST(MatchTest, JoinCompatibleRejectsWindowViolation) {
  Interner interner;
  const QueryGraph q = PathQuery(&interner);
  Match a(q);
  a.BindVertex(0, 1);
  a.BindVertex(1, 2);
  a.BindEdge(0, 10, 0);
  Match b(q);
  b.BindVertex(1, 2);
  b.BindVertex(2, 3);
  b.BindEdge(1, 11, 10);
  EXPECT_TRUE(JoinCompatible(a, b, 11));   // span 10 < 11
  EXPECT_FALSE(JoinCompatible(a, b, 10));  // span 10 not < 10
}

TEST(MatchTest, JoinCompatibleRejectsOverlappingQueryEdges) {
  Interner interner;
  const QueryGraph q = PathQuery(&interner);
  Match a(q);
  a.BindVertex(0, 1);
  a.BindVertex(1, 2);
  a.BindEdge(0, 10, 5);
  EXPECT_FALSE(JoinCompatible(a, a, 100));
}

// --- ConnectedEdgeOrder --------------------------------------------------------

TEST(ConnectedEdgeOrderTest, EveryPrefixIsConnected) {
  Interner interner;
  Rng rng(123);
  for (int trial = 0; trial < 40; ++trial) {
    const int nv = 3 + static_cast<int>(rng.NextBounded(4));
    const int ne = nv - 1 + static_cast<int>(rng.NextBounded(4));
    const QueryGraph q =
        GenerateRandomConnectedQuery(rng, nv, ne, 2, 2, &interner).value();
    for (int first = 0; first < q.num_edges(); ++first) {
      const auto order = ConnectedEdgeOrder(
          q, q.AllEdges(), static_cast<QueryEdgeId>(first));
      ASSERT_EQ(order.size(), static_cast<size_t>(q.num_edges()));
      EXPECT_EQ(order[0], first);
      Bitset64 prefix;
      std::set<QueryEdgeId> unique(order.begin(), order.end());
      EXPECT_EQ(unique.size(), order.size());
      for (QueryEdgeId e : order) {
        prefix.Add(e);
        EXPECT_TRUE(q.IsEdgeSetConnected(prefix));
      }
    }
  }
}

TEST(ConnectedEdgeOrderTest, SubsetOrder) {
  Interner interner;
  const QueryGraph q = TriangleQuery(&interner);
  const Bitset64 two = Bitset64::Single(0) | Bitset64::Single(2);
  const auto order = ConnectedEdgeOrder(q, two, 2);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 2);
  EXPECT_EQ(order[1], 0);
}

// --- TryBindEdge ---------------------------------------------------------------

TEST(TryBindEdgeTest, BindsAndUndoes) {
  Interner interner;
  DynamicGraph g(&interner);
  const EdgeId e0 = g.AddEdge(MakeEdge(&interner, 1, 2, "x", 5)).value();
  const QueryGraph q = OneEdgeQuery(&interner);
  Match m(q);
  BindUndo undo;
  ASSERT_TRUE(TryBindEdge(g, q, 0, e0, g.edge_record(e0), 100, &m, &undo));
  EXPECT_TRUE(m.HasEdge(0));
  EXPECT_TRUE(undo.bound_src);
  EXPECT_TRUE(undo.bound_dst);
  UndoBindEdge(q, 0, undo, &m);
  EXPECT_FALSE(m.HasEdge(0));
  EXPECT_TRUE(m.bound_vertices().Empty());
}

TEST(TryBindEdgeTest, RejectsLabelMismatch) {
  Interner interner;
  DynamicGraph g(&interner);
  const EdgeId e0 =
      g.AddEdge(MakeEdge(&interner, 1, 2, "y", 5)).value();  // label y
  const QueryGraph q = OneEdgeQuery(&interner);               // wants x
  Match m(q);
  BindUndo undo;
  EXPECT_FALSE(TryBindEdge(g, q, 0, e0, g.edge_record(e0), 100, &m, &undo));
}

TEST(TryBindEdgeTest, RejectsVertexLabelMismatch) {
  Interner interner;
  DynamicGraph g(&interner);
  const EdgeId e0 =
      g.AddEdge(MakeEdge(&interner, 1, 2, "x", 5, "Host", "User")).value();
  const QueryGraph q = OneEdgeQuery(&interner, "Host", "Host");
  Match m(q);
  BindUndo undo;
  EXPECT_FALSE(TryBindEdge(g, q, 0, e0, g.edge_record(e0), 100, &m, &undo));
}

TEST(TryBindEdgeTest, SelfLoopQueryEdgeNeedsSelfLoopDataEdge) {
  Interner interner;
  DynamicGraph g(&interner);
  const EdgeId plain = g.AddEdge(MakeEdge(&interner, 1, 2, "x", 0)).value();
  const EdgeId loop = g.AddEdge(MakeEdge(&interner, 3, 3, "x", 1)).value();
  QueryGraphBuilder builder(&interner);
  const auto v = builder.AddVertex("V");
  builder.AddEdge(v, v, "x");
  const QueryGraph q = builder.Build().value();

  Match m(q);
  BindUndo undo;
  EXPECT_FALSE(
      TryBindEdge(g, q, 0, plain, g.edge_record(plain), 100, &m, &undo));
  ASSERT_TRUE(
      TryBindEdge(g, q, 0, loop, g.edge_record(loop), 100, &m, &undo));
  EXPECT_TRUE(undo.bound_src);
  EXPECT_FALSE(undo.bound_dst);  // single vertex bound once
}

TEST(TryBindEdgeTest, RejectsDataSelfLoopForTwoDistinctQueryVertices) {
  Interner interner;
  DynamicGraph g(&interner);
  const EdgeId loop = g.AddEdge(MakeEdge(&interner, 3, 3, "x", 1)).value();
  const QueryGraph q = OneEdgeQuery(&interner);
  Match m(q);
  BindUndo undo;
  EXPECT_FALSE(
      TryBindEdge(g, q, 0, loop, g.edge_record(loop), 100, &m, &undo));
}

// --- Batch oracle ---------------------------------------------------------------

TEST(SubgraphIsoTest, FindsSingleEdgeMatches) {
  Interner interner;
  DynamicGraph g(&interner);
  ASSERT_TRUE(g.AddEdge(MakeEdge(&interner, 1, 2, "x", 0)).ok());
  ASSERT_TRUE(g.AddEdge(MakeEdge(&interner, 2, 3, "y", 1)).ok());
  ASSERT_TRUE(g.AddEdge(MakeEdge(&interner, 3, 4, "x", 2)).ok());
  const QueryGraph q = OneEdgeQuery(&interner);
  const auto matches = FindAllMatches(g, q);
  EXPECT_EQ(matches.size(), 2u);
}

TEST(SubgraphIsoTest, FindsPathMatchesAcrossSharedVertex) {
  Interner interner;
  DynamicGraph g(&interner);
  // 1 -x-> 2 -y-> 3 and 1 -x-> 2 -y-> 4: two matches sharing the first edge.
  ASSERT_TRUE(g.AddEdge(MakeEdge(&interner, 1, 2, "x", 0)).ok());
  ASSERT_TRUE(g.AddEdge(MakeEdge(&interner, 2, 3, "y", 1)).ok());
  ASSERT_TRUE(g.AddEdge(MakeEdge(&interner, 2, 4, "y", 2)).ok());
  const QueryGraph q = PathQuery(&interner);
  const auto matches = FindAllMatches(g, q);
  ASSERT_EQ(matches.size(), 2u);
  for (const Match& m : matches) {
    EXPECT_EQ(m.bound_edges().Count(), 2);
    EXPECT_EQ(m.vertex(0), g.FindVertex(1));
  }
}

TEST(SubgraphIsoTest, PathRequiresDistinctEndpoints) {
  Interner interner;
  DynamicGraph g(&interner);
  // 1 -x-> 2 -y-> 1 would map query vertices 0 and 2 to the same data
  // vertex; isomorphism forbids that.
  ASSERT_TRUE(g.AddEdge(MakeEdge(&interner, 1, 2, "x", 0)).ok());
  ASSERT_TRUE(g.AddEdge(MakeEdge(&interner, 2, 1, "y", 1)).ok());
  const QueryGraph q = PathQuery(&interner);
  EXPECT_TRUE(FindAllMatches(g, q).empty());
}

TEST(SubgraphIsoTest, TriangleAutomorphismsAreDistinctMappings) {
  Interner interner;
  DynamicGraph g(&interner);
  ASSERT_TRUE(g.AddEdge(MakeEdge(&interner, 1, 2, "x", 0)).ok());
  ASSERT_TRUE(g.AddEdge(MakeEdge(&interner, 2, 3, "x", 1)).ok());
  ASSERT_TRUE(g.AddEdge(MakeEdge(&interner, 3, 1, "x", 2)).ok());
  const QueryGraph q = TriangleQuery(&interner);
  // The directed triangle has 3 rotational automorphisms.
  const auto matches = FindAllMatches(g, q);
  EXPECT_EQ(matches.size(), 3u);
  std::set<uint64_t> mapping_sigs;
  std::set<uint64_t> edge_sigs;
  for (const Match& m : matches) {
    mapping_sigs.insert(m.MappingSignature());
    edge_sigs.insert(m.EdgeSetSignature());
  }
  EXPECT_EQ(mapping_sigs.size(), 3u);  // distinct mappings
  EXPECT_EQ(edge_sigs.size(), 1u);     // one underlying data subgraph
}

TEST(SubgraphIsoTest, ParallelDataEdgesYieldDistinctMatches) {
  Interner interner;
  DynamicGraph g(&interner);
  ASSERT_TRUE(g.AddEdge(MakeEdge(&interner, 1, 2, "x", 0)).ok());
  ASSERT_TRUE(g.AddEdge(MakeEdge(&interner, 1, 2, "x", 1)).ok());
  const QueryGraph q = OneEdgeQuery(&interner);
  EXPECT_EQ(FindAllMatches(g, q).size(), 2u);

  // A 2-parallel-edge query on 2 parallel data edges: 2 bijections.
  QueryGraphBuilder builder(&interner);
  const auto v0 = builder.AddVertex("V");
  const auto v1 = builder.AddVertex("V");
  builder.AddEdge(v0, v1, "x");
  builder.AddEdge(v0, v1, "x");
  const QueryGraph q2 = builder.Build().value();
  EXPECT_EQ(FindAllMatches(g, q2).size(), 2u);
}

TEST(SubgraphIsoTest, WindowConstraintFiltersMatches) {
  Interner interner;
  DynamicGraph g(&interner);
  ASSERT_TRUE(g.AddEdge(MakeEdge(&interner, 1, 2, "x", 0)).ok());
  ASSERT_TRUE(g.AddEdge(MakeEdge(&interner, 2, 3, "y", 7)).ok());
  const QueryGraph q = PathQuery(&interner);
  IsoOptions opt;
  opt.window = 8;  // span 7 < 8: ok
  EXPECT_EQ(FindAllMatches(g, q, opt).size(), 1u);
  opt.window = 7;  // span 7 not < 7: rejected
  EXPECT_TRUE(FindAllMatches(g, q, opt).empty());
}

TEST(SubgraphIsoTest, MinTsAndMaxEdgeIdRestrictTheSearch) {
  Interner interner;
  DynamicGraph g(&interner);
  ASSERT_TRUE(g.AddEdge(MakeEdge(&interner, 1, 2, "x", 0)).ok());
  ASSERT_TRUE(g.AddEdge(MakeEdge(&interner, 3, 4, "x", 5)).ok());
  ASSERT_TRUE(g.AddEdge(MakeEdge(&interner, 5, 6, "x", 9)).ok());
  const QueryGraph q = OneEdgeQuery(&interner);
  IsoOptions opt;
  opt.min_ts = 5;
  EXPECT_EQ(FindAllMatches(g, q, opt).size(), 2u);
  opt.min_ts = kMinTimestamp;
  opt.max_edge_id = 1;  // exclusive: only edge 0
  EXPECT_EQ(FindAllMatches(g, q, opt).size(), 1u);
}

TEST(SubgraphIsoTest, MaxMatchesStopsEarly) {
  Interner interner;
  DynamicGraph g(&interner);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(g.AddEdge(MakeEdge(&interner, i, i + 100, "x", i)).ok());
  }
  const QueryGraph q = OneEdgeQuery(&interner);
  IsoOptions opt;
  opt.max_matches = 7;
  EXPECT_EQ(FindAllMatches(g, q, opt).size(), 7u);
}

TEST(SubgraphIsoTest, EmptyGraphHasNoMatches) {
  Interner interner;
  DynamicGraph g(&interner);
  const QueryGraph q = OneEdgeQuery(&interner);
  EXPECT_TRUE(FindAllMatches(g, q).empty());
}

// --- Local search: incremental exactly-once discovery ---------------------------

/// Replays `edges` one at a time; after each insertion runs the anchored
/// local search with the whole query as one leaf (the §3.1 "simplistic"
/// incremental strategy) and collects every discovered mapping signature.
/// Returns (signatures, number of duplicate discoveries).
std::pair<std::set<uint64_t>, int> ReplayIncrementally(
    const std::vector<StreamEdge>& edges, const QueryGraph& q,
    Interner* interner, Timestamp window) {
  DynamicGraph g(interner);
  std::set<uint64_t> sigs;
  int duplicates = 0;
  for (const StreamEdge& e : edges) {
    const EdgeId id = g.AddEdge(e).value();
    for (const Match& m : FindLeafMatches(g, q, q.AllEdges(), id, window)) {
      if (!sigs.insert(m.MappingSignature()).second) ++duplicates;
    }
  }
  return {sigs, duplicates};
}

std::set<uint64_t> BatchSignatures(const std::vector<StreamEdge>& edges,
                                   const QueryGraph& q, Interner* interner,
                                   Timestamp window) {
  DynamicGraph g(interner);
  for (const StreamEdge& e : edges) SW_CHECK_OK(g.AddEdge(e).status());
  IsoOptions opt;
  opt.window = window;
  std::set<uint64_t> sigs;
  for (const Match& m : FindAllMatches(g, q, opt)) {
    sigs.insert(m.MappingSignature());
  }
  return sigs;
}

TEST(LocalSearchTest, AnchoredSearchFindsMatchWhenLastEdgeArrives) {
  Interner interner;
  const QueryGraph q = PathQuery(&interner);
  std::vector<StreamEdge> edges = {
      MakeEdge(&interner, 1, 2, "x", 0),
      MakeEdge(&interner, 2, 3, "y", 1),
  };
  DynamicGraph g(&interner);
  const EdgeId e0 = g.AddEdge(edges[0]).value();
  EXPECT_TRUE(FindLeafMatches(g, q, q.AllEdges(), e0, 100).empty());
  const EdgeId e1 = g.AddEdge(edges[1]).value();
  const auto found = FindLeafMatches(g, q, q.AllEdges(), e1, 100);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].edge(0), e0);
  EXPECT_EQ(found[0].edge(1), e1);
}

TEST(LocalSearchTest, OutOfOrderQueryEdgeArrivalStillFound) {
  Interner interner;
  const QueryGraph q = PathQuery(&interner);
  // The "y" edge arrives before the "x" edge.
  std::vector<StreamEdge> edges = {
      MakeEdge(&interner, 2, 3, "y", 0),
      MakeEdge(&interner, 1, 2, "x", 1),
  };
  auto [sigs, dups] = ReplayIncrementally(edges, q, &interner, 100);
  EXPECT_EQ(sigs.size(), 1u);
  EXPECT_EQ(dups, 0);
}

TEST(LocalSearchTest, NoDuplicateDiscoveriesOnDenseStream) {
  Interner interner;
  const QueryGraph q = TriangleQuery(&interner);
  std::vector<StreamEdge> edges;
  // A K5-ish dense pattern of "x" edges in both directions.
  Timestamp ts = 0;
  for (int a = 1; a <= 5; ++a) {
    for (int b = 1; b <= 5; ++b) {
      if (a != b) edges.push_back(MakeEdge(&interner, a, b, "x", ts++));
    }
  }
  auto [sigs, dups] = ReplayIncrementally(edges, q, &interner, 1000);
  EXPECT_EQ(dups, 0);
  EXPECT_EQ(sigs, BatchSignatures(edges, q, &interner, 1000));
  EXPECT_GT(sigs.size(), 10u);
}

TEST(LocalSearchTest, WindowExcludesStaleCombinations) {
  Interner interner;
  const QueryGraph q = PathQuery(&interner);
  std::vector<StreamEdge> edges = {
      MakeEdge(&interner, 1, 2, "x", 0),
      MakeEdge(&interner, 2, 3, "y", 50),  // span 50 >= window 10: no match
      MakeEdge(&interner, 1, 2, "x", 60),  // with y@50: span 10, still >= 10
      MakeEdge(&interner, 2, 3, "y", 65),  // with x@60: span 5 < 10: match
  };
  auto [sigs, dups] = ReplayIncrementally(edges, q, &interner, 10);
  EXPECT_EQ(sigs.size(), 1u);
  EXPECT_EQ(dups, 0);
  EXPECT_EQ(sigs, BatchSignatures(edges, q, &interner, 10));
}

/// Property sweep: on random streams and random connected queries, the
/// incremental anchored search discovers exactly the batch-oracle match
/// set, with zero duplicates, across window sizes.
struct IncrementalEquivalenceCase {
  uint64_t seed;
  int num_vertices;
  int num_edges;
  int query_vertices;
  int query_edges;
  Timestamp window;
};

class IncrementalEquivalenceTest
    : public testing::TestWithParam<IncrementalEquivalenceCase> {};

TEST_P(IncrementalEquivalenceTest, MatchesBatchOracle) {
  const IncrementalEquivalenceCase& c = GetParam();
  Interner interner;
  RandomStreamOptions opt;
  opt.seed = c.seed;
  opt.num_vertices = c.num_vertices;
  opt.num_edges = c.num_edges;
  opt.num_vertex_labels = 2;
  opt.num_edge_labels = 2;
  opt.edges_per_tick = 4;
  const auto edges = GenerateUniformStream(opt, &interner);

  Rng rng(c.seed * 7919 + 13);
  const QueryGraph q =
      GenerateRandomConnectedQuery(rng, c.query_vertices, c.query_edges, 2,
                                   2, &interner)
          .value();

  auto [incremental, dups] = ReplayIncrementally(edges, q, &interner,
                                                 c.window);
  EXPECT_EQ(dups, 0) << q.ToString(interner);
  EXPECT_EQ(incremental, BatchSignatures(edges, q, &interner, c.window))
      << q.ToString(interner);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IncrementalEquivalenceTest,
    testing::Values(
        IncrementalEquivalenceCase{1, 20, 150, 2, 1, 10},
        IncrementalEquivalenceCase{2, 20, 150, 3, 2, 10},
        IncrementalEquivalenceCase{3, 15, 200, 3, 3, 15},
        IncrementalEquivalenceCase{4, 15, 200, 4, 3, 20},
        IncrementalEquivalenceCase{5, 12, 250, 4, 4, 12},
        IncrementalEquivalenceCase{6, 10, 200, 4, 5, 25},
        IncrementalEquivalenceCase{7, 25, 300, 3, 2, 5},
        IncrementalEquivalenceCase{8, 25, 300, 3, 2, kMaxTimestamp},
        IncrementalEquivalenceCase{9, 8, 150, 5, 5, 30},
        IncrementalEquivalenceCase{10, 30, 400, 2, 1, 3}));

}  // namespace
}  // namespace streamworks
