// Cross-path equivalence: one seeded stream and one query set — including
// a mid-stream registration and an unregister — fed through the
// in-process partitioned group (ParallelGroupBackend over a 2-shard
// kPartitionedData ParallelEngineGroup) and through the cluster
// (DistributedBackend over 2 worker daemons on localhost TCP), with the
// same partitioner seed. Both run the same EpochDriver over a different
// ShardChannel, so they must agree with each other and with a single
// engine: the same match multiset, the same Info completions, and the
// same per-shard retained edges after Flush.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "streamworks/cluster/coordinator.h"
#include "streamworks/cluster/worker.h"
#include "streamworks/common/interner.h"
#include "streamworks/core/engine.h"
#include "streamworks/core/parallel.h"
#include "streamworks/graph/partition.h"
#include "streamworks/graph/query_graph.h"
#include "streamworks/service/backend.h"
#include "streamworks/stream/netflow_gen.h"

namespace streamworks {
namespace {

constexpr uint64_t kPartitionerSeed = 77;

/// Delivered matches as "q<index> <external-id rendering>", thread-safe:
/// the in-process group delivers on shard threads.
class TaggedSink {
 public:
  MatchCallback Callback(int query_index) {
    return [this, query_index](const CompleteMatch& cm) {
      std::string line = "q" + std::to_string(query_index) + " " +
                         cm.match.ToExternalString(*cm.graph);
      std::lock_guard<std::mutex> lock(mu_);
      lines_.push_back(std::move(line));
    };
  }

  std::vector<std::string> Sorted() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> out = lines_;
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::string> lines_;
};

QueryGraph Chain(Interner* interner, const char* name) {
  QueryGraphBuilder b(interner);
  const auto a = b.AddVertex("Host");
  const auto h = b.AddVertex("Host");
  const auto x = b.AddVertex("Host");
  b.AddEdge(a, h, "exploit");
  b.AddEdge(h, x, "exploit");
  return b.Build(name).value();
}

QueryGraph Probe(Interner* interner) {
  QueryGraphBuilder b(interner);
  const auto s = b.AddVertex("Host");
  const auto t = b.AddVertex("Host");
  b.AddEdge(s, t, "synProbe");
  return b.Build("probe").value();
}

EdgeBatch Stream(Interner* interner) {
  NetflowGenerator::Options opt;
  opt.seed = 4242;
  opt.background_edges = 600;
  NetflowGenerator gen(opt, interner);
  gen.InjectWorm(50, 2);
  gen.InjectWorm(300, 2);
  gen.InjectWorm(500, 2);
  return gen.Generate();
}

/// What one run leaves behind for comparison.
struct Outcome {
  std::vector<std::string> matches;
  std::vector<uint64_t> completions;  ///< Info per still-live query.
  std::vector<uint64_t> retained_edges;  ///< Per shard, after Flush.
};

/// The scenario, against any backend: probe and chain registered up
/// front, a wider chain registered after the first third, the probe
/// unregistered after the second third.
Outcome RunScenario(QueryBackend* backend, Interner* interner,
                    const EdgeBatch& edges) {
  TaggedSink sink;
  const auto feed = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; i += 97) {
      const EdgeBatch batch(edges.begin() + static_cast<ptrdiff_t>(i),
                            edges.begin() + static_cast<ptrdiff_t>(
                                                std::min(end, i + 97)));
      EXPECT_TRUE(backend->FeedBatch(batch, nullptr).ok());
    }
  };
  const auto reg = [&](const QueryGraph& q, Timestamp window, int index) {
    auto id = backend->Register(q, DecompositionStrategy::kLeftDeepEdgeOrder,
                                window, sink.Callback(index));
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    return id.value_or(-1);
  };
  const size_t third = edges.size() / 3;
  const int probe = reg(Probe(interner), 60, 0);
  const int chain = reg(Chain(interner, "chain"), 40, 1);
  feed(0, third);
  const int wide = reg(Chain(interner, "wide_chain"), 300, 2);
  feed(third, 2 * third);
  EXPECT_TRUE(backend->Unregister(probe).ok());
  feed(2 * third, edges.size());
  backend->Flush();

  Outcome out;
  out.matches = sink.Sorted();
  for (const int id : {chain, wide}) {
    auto info = backend->Info(id);
    EXPECT_TRUE(info.ok()) << info.status().ToString();
    out.completions.push_back(info.ok() ? info->completions : 0);
  }
  EXPECT_FALSE(backend->Info(probe).ok());
  for (const ShardLoadSnapshot& load : backend->ShardLoads()) {
    out.retained_edges.push_back(load.retained_edges);
  }
  return out;
}

/// The same scenario on one engine.
std::vector<std::string> Reference(Interner* interner,
                                   const EdgeBatch& edges) {
  StreamWorksEngine engine(interner);
  SingleEngineBackend backend(&engine);
  return RunScenario(&backend, interner, edges).matches;
}

class WorkerThread {
 public:
  WorkerThread() : daemon_(WorkerOptions{}) {}
  ~WorkerThread() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  bool Start() {
    if (!daemon_.Start().ok()) return false;
    thread_ = std::thread([this] { daemon_.Serve(stop_).ok(); });
    return true;
  }
  int port() const { return daemon_.port(); }

 private:
  WorkerDaemon daemon_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

TEST(CrossPathTest, GroupAndClusterAgreeWithEachOtherAndOneEngine) {
  Interner interner;
  const EdgeBatch edges = Stream(&interner);
  const std::vector<std::string> expected = Reference(&interner, edges);
  ASSERT_FALSE(expected.empty());

  HashModuloPartitioner partitioner(kPartitionerSeed);
  Outcome group_run;
  {
    ParallelEngineGroup group(&interner, 2, {},
                              ShardingMode::kPartitionedData, &partitioner);
    ParallelGroupBackend backend(&group);
    group_run = RunScenario(&backend, &interner, edges);
  }

  WorkerThread w0;
  WorkerThread w1;
  ASSERT_TRUE(w0.Start());
  ASSERT_TRUE(w1.Start());
  DistributedBackendOptions options;
  options.workers = {"127.0.0.1:" + std::to_string(w0.port()),
                     "127.0.0.1:" + std::to_string(w1.port())};
  options.partitioner_seed = kPartitionerSeed;
  DistributedBackend cluster(options, &interner);
  ASSERT_TRUE(cluster.Start().ok());
  const Outcome cluster_run = RunScenario(&cluster, &interner, edges);
  cluster.Stop();

  EXPECT_EQ(group_run.matches, expected);
  EXPECT_EQ(cluster_run.matches, expected);
  EXPECT_EQ(group_run.completions, cluster_run.completions);
  ASSERT_EQ(group_run.retained_edges.size(), 2u);
  EXPECT_EQ(group_run.retained_edges, cluster_run.retained_edges);

  // The completions Info reports are the deliveries each query received.
  for (size_t q = 0; q < group_run.completions.size(); ++q) {
    const std::string tag = "q" + std::to_string(q + 1) + " ";
    const auto delivered = std::count_if(
        expected.begin(), expected.end(),
        [&](const std::string& line) { return line.rfind(tag, 0) == 0; });
    EXPECT_EQ(group_run.completions[q], static_cast<uint64_t>(delivered));
  }
}

}  // namespace
}  // namespace streamworks
