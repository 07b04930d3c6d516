// Checked-precondition (death) tests and randomized structural-invariant
// stress tests: the SW_CHECK contracts on public APIs must fire, and the
// dynamic graph's internal structures must stay mutually consistent under
// long random workloads with eviction.

#include <gtest/gtest.h>

#include <unordered_map>

#include "streamworks/common/interner.h"
#include "streamworks/common/random.h"
#include "streamworks/core/engine.h"
#include "streamworks/core/shard_runtime.h"
#include "streamworks/graph/partition.h"
#include "streamworks/graph/dynamic_graph.h"
#include "streamworks/graph/query_graph.h"
#include "streamworks/graph/random_graphs.h"
#include "streamworks/sjtree/decomposition.h"

namespace streamworks {
namespace {

StreamEdge MakeEdge(Interner* interner, uint64_t src, uint64_t dst,
                    std::string_view elabel, Timestamp ts) {
  StreamEdge e;
  e.src = src;
  e.dst = dst;
  e.src_label = interner->Intern("V");
  e.dst_label = interner->Intern("V");
  e.edge_label = interner->Intern(elabel);
  e.ts = ts;
  return e;
}

// --- Death tests: SW_CHECK contracts ----------------------------------------------

using InvariantDeathTest = testing::Test;

TEST(InvariantDeathTest, InternerNameOnUnknownIdAborts) {
  Interner interner;
  interner.Intern("only");
  EXPECT_DEATH(interner.Name(5), "unknown label id");
}

TEST(InvariantDeathTest, EvictedEdgeRecordAborts) {
  Interner interner;
  DynamicGraph g(&interner);
  g.set_retention(2);
  SW_CHECK_OK(g.AddEdge(MakeEdge(&interner, 1, 2, "x", 0)).status());
  SW_CHECK_OK(g.AddEdge(MakeEdge(&interner, 2, 3, "x", 10)).status());
  EXPECT_DEATH(g.edge_record(0), "not stored");
}

TEST(InvariantDeathTest, EngineSjtreeOnUnknownIdAborts) {
  Interner interner;
  StreamWorksEngine engine(&interner);
  EXPECT_DEATH(engine.sjtree(3), "unknown query id");
}

TEST(InvariantDeathTest, ExchangeItemOutsideTheTreeAborts) {
  Interner interner;
  QueryGraphBuilder builder(&interner);
  const auto a = builder.AddVertex("V");
  const auto b = builder.AddVertex("V");
  const auto c = builder.AddVertex("V");
  builder.AddEdge(a, b, "x");
  builder.AddEdge(b, c, "y");
  const QueryGraph query = builder.Build("path2").value();
  const HashModuloPartitioner partitioner;
  ShardRuntime shard(&interner, EngineOptions{}, 0, 2, &partitioner);
  const Decomposition plan =
      Decomposition::MakeLeftDeep(query, {Bitset64::Single(0),
                                          Bitset64::Single(1)})
          .value();
  const int id = shard.Register(query, plan, 10, nullptr).value();
  const LabelId v = interner.Intern("V");

  ExchangeItem item;
  item.query_id = id;
  item.match.vertices = {{0, 1, v}, {1, 2, v}};
  item.match.edges = {{0, 0, 1}};
  item.kind = ExchangeKind::kExpand;
  item.plan = 99;
  EXPECT_DEATH(shard.ApplyItem(item), "unknown anchor plan");
  item.plan = 0;
  item.step = 5;
  EXPECT_DEATH(shard.ApplyItem(item), "outside its expansion order");
  item.kind = ExchangeKind::kInsert;
  item.node = 7;
  EXPECT_DEATH(shard.ApplyItem(item), "inserts at unknown node");
  item.node = plan.root();
  EXPECT_DEATH(shard.ApplyItem(item), "inserts at unknown node");
  item.node = plan.leaves()[1];  // the leaf of e1, but the match binds e0
  EXPECT_DEATH(shard.ApplyItem(item), "does not bind node");
}

TEST(InvariantDeathTest, NegativeRetentionAborts) {
  Interner interner;
  DynamicGraph g(&interner);
  EXPECT_DEATH(g.set_retention(0), "retention must be positive");
}

TEST(InvariantDeathTest, ReplanWithoutStatisticsAborts) {
  Interner interner;
  EngineOptions options;
  options.replan_interval = 10;  // without collect_statistics
  EXPECT_DEATH(StreamWorksEngine engine(&interner, options),
               "statistics collection");
}

TEST(InvariantDeathTest, DecompositionSiblingOfRootAborts) {
  Interner interner;
  QueryGraphBuilder builder(&interner);
  const auto v0 = builder.AddVertex("V");
  const auto v1 = builder.AddVertex("V");
  builder.AddEdge(v0, v1, "x");
  const QueryGraph q = builder.Build().value();
  const Decomposition d = Decomposition::MakeSingleLeaf(q).value();
  EXPECT_DEATH(d.Sibling(d.root()), "root has no sibling");
}

// --- Randomized structural consistency ------------------------------------------------

TEST(GraphConsistencyStressTest, AdjacencyAndEdgeStoreStayConsistent) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Interner interner;
    DynamicGraph g(&interner);
    g.set_retention(64);
    Rng rng(seed);
    Timestamp ts = 0;
    for (int step = 0; step < 4000; ++step) {
      ts += rng.NextBounded(3);
      SW_CHECK_OK(g.AddEdge(MakeEdge(&interner, rng.NextBounded(40),
                                     rng.NextBounded(40), "x", ts))
                      .status());
      if (step % 512 != 0) continue;

      // Invariant sweep: every stored edge appears exactly once in its
      // source's out-list and its target's in-list; every adjacency entry
      // points at a stored edge with consistent fields; lists are
      // ts-sorted.
      std::unordered_map<EdgeId, int> out_seen;
      std::unordered_map<EdgeId, int> in_seen;
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        Timestamp prev = kMinTimestamp;
        for (const AdjEntry& entry : g.OutEdges(v)) {
          ASSERT_TRUE(g.IsStored(entry.edge));
          const EdgeRecord& rec = g.edge_record(entry.edge);
          ASSERT_EQ(rec.src, v);
          ASSERT_EQ(rec.dst, entry.other);
          ASSERT_EQ(rec.ts, entry.ts);
          ASSERT_EQ(rec.label, entry.label);
          ASSERT_GE(entry.ts, prev);
          prev = entry.ts;
          ++out_seen[entry.edge];
        }
        prev = kMinTimestamp;
        for (const AdjEntry& entry : g.InEdges(v)) {
          ASSERT_TRUE(g.IsStored(entry.edge));
          ASSERT_GE(entry.ts, prev);
          prev = entry.ts;
          ++in_seen[entry.edge];
        }
      }
      for (EdgeId id = g.first_stored_edge_id(); id < g.next_edge_id();
           ++id) {
        ASSERT_EQ(out_seen[id], 1) << "edge " << id;
        ASSERT_EQ(in_seen[id], 1) << "edge " << id;
        ASSERT_GE(g.edge_record(id).ts, g.MinLiveTs());
      }
    }
  }
}

TEST(GraphConsistencyStressTest, ExternalIdMappingIsStableUnderEviction) {
  Interner interner;
  DynamicGraph g(&interner);
  g.set_retention(16);
  Rng rng(9);
  Timestamp ts = 0;
  std::unordered_map<ExternalVertexId, VertexId> first_mapping;
  for (int step = 0; step < 2000; ++step) {
    ts += rng.NextBounded(2);
    const ExternalVertexId a = rng.NextBounded(25);
    const ExternalVertexId b = rng.NextBounded(25);
    SW_CHECK_OK(g.AddEdge(MakeEdge(&interner, a, b, "x", ts)).status());
    for (const ExternalVertexId ext : {a, b}) {
      const VertexId v = g.FindVertex(ext);
      ASSERT_NE(v, kInvalidVertexId);
      auto [it, inserted] = first_mapping.try_emplace(ext, v);
      ASSERT_EQ(it->second, v) << "dense id changed for " << ext;
      ASSERT_EQ(g.external_id(v), ext);
    }
  }
}

}  // namespace
}  // namespace streamworks
