// Tests for streamworks/cluster: the multi-process sharding protocol run
// in-process — real worker daemons on real localhost TCP sockets, driven
// by a real DistributedBackend — asserted byte-identical (external-id
// match rendering) against a single StreamWorksEngine fed the same
// stream. The crash tests stop a worker daemon without any graceful
// drain, restart a fresh one on the same frame log, and require the
// recovered cluster to deliver exactly the reference multiset: nothing
// lost, nothing repeated.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "streamworks/cluster/coordinator.h"
#include "streamworks/cluster/worker.h"
#include "streamworks/common/interner.h"
#include "streamworks/core/engine.h"
#include "streamworks/graph/query_graph.h"
#include "streamworks/obs/json_render.h"
#include "streamworks/obs/metric_registry.h"
#include "streamworks/obs/stage_trace.h"
#include "streamworks/stream/netflow_gen.h"

namespace streamworks {
namespace {

namespace fs = std::filesystem;

/// One worker daemon on its own thread, with an abrupt-stop story: Kill()
/// stops the serve loop and joins, but (like a kill -9) performs no
/// protocol goodbye — the coordinator discovers the death as a link
/// failure. A fresh WorkerHarness on the same data_dir is the restart.
class WorkerHarness {
 public:
  explicit WorkerHarness(std::string data_dir) {
    WorkerOptions options;
    options.data_dir = std::move(data_dir);
    options.poll_interval_ms = 20;
    daemon_ = std::make_unique<WorkerDaemon>(std::move(options));
  }

  ~WorkerHarness() { Kill(); }

  Status Start() {
    Status status = daemon_->Start();
    if (!status.ok()) return status;
    thread_ = std::thread([this] { serve_status_ = daemon_->Serve(stop_); });
    return OkStatus();
  }

  void Kill() {
    if (!thread_.joinable()) return;
    stop_.store(true);
    thread_.join();
  }

  int port() const { return daemon_->port(); }
  const Status& serve_status() const { return serve_status_; }
  const WorkerCounters& counters() const { return daemon_->counters(); }
  MetricRegistry* registry() { return daemon_->registry(); }

 private:
  std::unique_ptr<WorkerDaemon> daemon_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  Status serve_status_;
};

/// Thread-safe sink for delivered matches in deployment-invariant text
/// form. Callbacks run under the coordinator's cluster mutex (or on the
/// single engine's feeding thread), where dereferencing cm.graph is safe.
class MatchSink {
 public:
  MatchCallback Callback() {
    return [this](const CompleteMatch& cm) {
      std::lock_guard<std::mutex> lock(mu_);
      rendered_.push_back(cm.match.ToExternalString(*cm.graph));
    };
  }

  std::vector<std::string> Sorted() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> out = rendered_;
    std::sort(out.begin(), out.end());
    return out;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return rendered_.size();
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::string> rendered_;
};

/// Two-hop exploit chain — the worm motif the generator injects, and a
/// multi-edge pattern whose partial matches genuinely cross shards (the
/// chain's middle host rarely owns both edges).
QueryGraph BuildWormChain(Interner* interner) {
  QueryGraphBuilder b(interner);
  const auto a = b.AddVertex("Host");
  const auto h = b.AddVertex("Host");
  const auto x = b.AddVertex("Host");
  b.AddEdge(a, h, "exploit");
  b.AddEdge(h, x, "exploit");
  auto built = b.Build("worm_chain");
  EXPECT_TRUE(built.ok());
  return *built;
}

QueryGraph BuildProbe(Interner* interner) {
  QueryGraphBuilder b(interner);
  const auto s = b.AddVertex("Host");
  const auto t = b.AddVertex("Host");
  b.AddEdge(s, t, "synProbe");
  auto built = b.Build("probe");
  EXPECT_TRUE(built.ok());
  return *built;
}

/// A deterministic netflow stream with planted attacks: the generator
/// uses fixed seeds, so cluster and reference see identical bytes.
EdgeBatch TestStream(Interner* interner, int background) {
  NetflowGenerator::Options opt;
  opt.seed = 1234;
  opt.background_edges = background;
  NetflowGenerator gen(opt, interner);
  gen.InjectWorm(40, 2);
  gen.InjectWorm(background / 2, 2);
  return gen.Generate();
}

/// Reference run: one engine, same queries, same stream.
std::vector<std::string> SingleEngineReference(
    Interner* interner, const std::vector<std::pair<QueryGraph, Timestamp>>&
                            queries,
    const EdgeBatch& edges) {
  StreamWorksEngine engine(interner, EngineOptions{});
  MatchSink sink;
  for (const auto& [query, window] : queries) {
    auto id = engine.RegisterQuery(
        query, DecompositionStrategy::kLeftDeepEdgeOrder, window,
        sink.Callback());
    EXPECT_TRUE(id.ok());
  }
  for (const StreamEdge& edge : edges) {
    engine.ProcessEdge(edge).ok();  // rejects match cluster admission
  }
  return sink.Sorted();
}

struct ClusterFixture {
  /// Check `ok` (ASSERT_TRUE) before using; gtest fatal asserts cannot
  /// run inside a constructor.
  explicit ClusterFixture(int num_workers, const std::string& dir_prefix = "") {
    for (int i = 0; i < num_workers; ++i) {
      std::string dir;
      if (!dir_prefix.empty()) {
        dir = dir_prefix + "/worker" + std::to_string(i);
        fs::create_directories(dir);
      }
      workers.push_back(std::make_unique<WorkerHarness>(dir));
      if (!workers.back()->Start().ok()) return;
    }
    DistributedBackendOptions options;
    for (const auto& w : workers) {
      options.workers.push_back("127.0.0.1:" + std::to_string(w->port()));
    }
    options.epoch_edges = 64;  // small epochs: many barriers, more traffic
    options.reconnect_deadline_ms = 10000;
    // Federate worker metrics into a fixture-owned registry; cache 0 so
    // every scrape pulls fresh reports, which is what exactness tests need.
    options.registry = &registry;
    options.pipeline = &pipeline;
    options.metrics_cache_ms = 0;
    backend = std::make_unique<DistributedBackend>(options, &interner);
    ok = backend->Start().ok();
  }

  bool ok = false;
  Interner interner;
  MetricRegistry registry;
  PipelineMetrics pipeline;
  std::vector<std::unique_ptr<WorkerHarness>> workers;
  std::unique_ptr<DistributedBackend> backend;
};

TEST(ClusterTest, MatchesByteIdenticalToSingleEngine) {
  ClusterFixture cluster(2);
  ASSERT_TRUE(cluster.ok);
  MatchSink sink;
  const QueryGraph worm_chain = BuildWormChain(&cluster.interner);
  const QueryGraph probe = BuildProbe(&cluster.interner);
  auto id0 = cluster.backend->Register(
      worm_chain, DecompositionStrategy::kLeftDeepEdgeOrder, 50, sink.Callback());
  ASSERT_TRUE(id0.ok());
  EXPECT_EQ(*id0, 0);
  auto id1 = cluster.backend->Register(
      probe, DecompositionStrategy::kLeftDeepEdgeOrder, 100, sink.Callback());
  ASSERT_TRUE(id1.ok());
  EXPECT_EQ(*id1, 1);

  const EdgeBatch edges = TestStream(&cluster.interner, 400);
  ASSERT_TRUE(cluster.backend->FeedBatch(edges, nullptr).ok());
  cluster.backend->Flush();

  const std::vector<std::string> expected = SingleEngineReference(
      &cluster.interner, {{worm_chain, 50}, {probe, 100}}, edges);
  EXPECT_FALSE(expected.empty());
  EXPECT_EQ(sink.Sorted(), expected);
  cluster.backend->Stop();
}

TEST(ClusterTest, ThreeWorkersAgreeWithSingleEngine) {
  ClusterFixture cluster(3);
  ASSERT_TRUE(cluster.ok);
  MatchSink sink;
  const QueryGraph worm_chain = BuildWormChain(&cluster.interner);
  ASSERT_TRUE(cluster.backend
                  ->Register(worm_chain, DecompositionStrategy::kLeftDeepEdgeOrder,
                             60, sink.Callback())
                  .ok());
  const EdgeBatch edges = TestStream(&cluster.interner, 300);
  ASSERT_TRUE(cluster.backend->FeedBatch(edges, nullptr).ok());
  cluster.backend->Flush();
  EXPECT_EQ(sink.Sorted(),
            SingleEngineReference(&cluster.interner, {{worm_chain, 60}}, edges));
  cluster.backend->Stop();
}

TEST(ClusterTest, MidStreamRegistrationBackfillsAcrossShards) {
  ClusterFixture cluster(2);
  ASSERT_TRUE(cluster.ok);
  MatchSink sink;
  const QueryGraph worm_chain = BuildWormChain(&cluster.interner);
  const EdgeBatch edges = TestStream(&cluster.interner, 200);
  const size_t half = edges.size() / 2;
  const EdgeBatch first(edges.begin(), edges.begin() + half);
  const EdgeBatch second(edges.begin() + half, edges.end());

  ASSERT_TRUE(cluster.backend->FeedBatch(first, nullptr).ok());
  // Register mid-stream: the distributed backfill seeds the new trees
  // from every shard's stored window before live flow resumes.
  ASSERT_TRUE(cluster.backend
                  ->Register(worm_chain, DecompositionStrategy::kLeftDeepEdgeOrder,
                             80, sink.Callback())
                  .ok());
  ASSERT_TRUE(cluster.backend->FeedBatch(second, nullptr).ok());
  cluster.backend->Flush();

  // Reference: one engine, same mid-stream registration point.
  StreamWorksEngine engine(&cluster.interner, EngineOptions{});
  MatchSink ref;
  for (const StreamEdge& e : first) engine.ProcessEdge(e).ok();
  ASSERT_TRUE(engine
                  .RegisterQuery(worm_chain,
                                 DecompositionStrategy::kLeftDeepEdgeOrder, 80,
                                 ref.Callback())
                  .ok());
  for (const StreamEdge& e : second) engine.ProcessEdge(e).ok();

  EXPECT_EQ(sink.Sorted(), ref.Sorted());
  EXPECT_FALSE(sink.Sorted().empty());
  cluster.backend->Stop();
}

TEST(ClusterTest, InfoAggregatesAcrossWorkers) {
  ClusterFixture cluster(2);
  ASSERT_TRUE(cluster.ok);
  MatchSink sink;
  const QueryGraph probe = BuildProbe(&cluster.interner);
  auto id = cluster.backend->Register(
      probe, DecompositionStrategy::kLeftDeepEdgeOrder, 100, sink.Callback());
  ASSERT_TRUE(id.ok());
  const EdgeBatch edges = TestStream(&cluster.interner, 200);
  ASSERT_TRUE(cluster.backend->FeedBatch(edges, nullptr).ok());
  cluster.backend->Flush();

  auto info = cluster.backend->Info(*id);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->name, "probe");
  EXPECT_EQ(info->window, 100);
  EXPECT_EQ(info->completions, sink.size());
  EXPECT_FALSE(info->nodes.empty());

  const auto loads = cluster.backend->ShardLoads();
  ASSERT_EQ(loads.size(), 2u);
  uint64_t processed = 0;
  for (const auto& load : loads) {
    EXPECT_EQ(load.sharding, "distributed");
    processed += load.edges_processed;
  }
  // Every admitted edge lands on one or two owner shards.
  EXPECT_GE(processed, edges.size() - cluster.backend->rejected_edges());
  cluster.backend->Stop();
}

/// Value of one exposition line, e.g. `name{labels} 42`.
uint64_t SeriesValue(const std::string& text, const std::string& series) {
  const std::string needle = series + " ";
  const size_t pos = text.find(needle);
  EXPECT_NE(pos, std::string::npos) << series << " missing in:\n" << text;
  if (pos == std::string::npos) return 0;
  return std::stoull(text.substr(pos + needle.size()));
}

TEST(ClusterTest, FederatedMetricsMatchWorkerLocalScrapes) {
  ClusterFixture cluster(2);
  ASSERT_TRUE(cluster.ok);
  MatchSink sink;
  const QueryGraph worm_chain = BuildWormChain(&cluster.interner);
  ASSERT_TRUE(cluster.backend
                  ->Register(worm_chain, DecompositionStrategy::kLeftDeepEdgeOrder,
                             60, sink.Callback())
                  .ok());
  const EdgeBatch edges = TestStream(&cluster.interner, 300);
  ASSERT_TRUE(cluster.backend->FeedBatch(edges, nullptr).ok());
  cluster.backend->Flush();

  // The coordinator scrape must answer exactly the sum of the workers'
  // own registries — federation adds no edges and loses none.
  const std::string series = "streamworks_edges_fed_total{role=\"worker\"}";
  const uint64_t federated =
      SeriesValue(cluster.registry.RenderPrometheus(), series);
  uint64_t local_sum = 0;
  for (auto& w : cluster.workers) {
    local_sum += SeriesValue(w->registry()->RenderPrometheus(), series);
  }
  EXPECT_EQ(federated, local_sum);
  // Every admitted edge is applied by at least its owner shard.
  EXPECT_GE(federated, edges.size() - cluster.backend->rejected_edges());

  // The coordinator contributes its own families alongside the workers'.
  const std::string merged = cluster.registry.RenderPrometheus();
  EXPECT_NE(merged.find("streamworks_epochs_total "), std::string::npos);
  EXPECT_NE(merged.find("streamworks_epoch_phase_us_bucket{phase=\"barrier\""),
            std::string::npos);

  cluster.backend->Stop();
}

TEST(ClusterTest, EpochTimelineAndHealthTrackTheCluster) {
  ClusterFixture cluster(2);
  ASSERT_TRUE(cluster.ok);
  MatchSink sink;
  const QueryGraph probe = BuildProbe(&cluster.interner);
  ASSERT_TRUE(cluster.backend
                  ->Register(probe, DecompositionStrategy::kLeftDeepEdgeOrder,
                             100, sink.Callback())
                  .ok());
  const EdgeBatch edges = TestStream(&cluster.interner, 300);
  ASSERT_TRUE(cluster.backend->FeedBatch(edges, nullptr).ok());
  cluster.backend->Flush();

  // Epoch timeline: every fed edge shows up in exactly one traced epoch
  // (admission rejects happen inside the epoch, after the take), and
  // phase durations are populated.
  ASSERT_GT(cluster.backend->epochs_completed(), 0u);
  const std::vector<EpochTraceEntry> epochs = cluster.backend->EpochTrace();
  ASSERT_FALSE(epochs.empty());
  uint64_t traced_edges = 0;
  for (const EpochTraceEntry& e : epochs) {
    EXPECT_GT(e.epoch, 0u);
    EXPECT_GT(e.edges, 0u);
    EXPECT_GT(e.total_us, 0u);
    EXPECT_GE(e.total_us, e.apply_us);
    traced_edges += e.edges;
  }
  EXPECT_EQ(traced_edges, edges.size());
  const std::string epochs_json = RenderEpochsJson(
      epochs, cluster.backend->epochs_completed(), PipelineMetrics::NowMicros());
  EXPECT_NE(epochs_json.find("\"barrier_us\""), std::string::npos);

  // Healthy cluster: both workers connected with fresh reports.
  ClusterObsSnapshot healthy = cluster.backend->ObsSnapshot(/*refresh=*/true);
  EXPECT_TRUE(healthy.healthy);
  ASSERT_EQ(healthy.workers.size(), 2u);
  for (const WorkerObsSnapshot& w : healthy.workers) {
    EXPECT_TRUE(w.connected);
    EXPECT_TRUE(w.has_report);
    EXPECT_GT(w.wal_seq, 0u);
  }
  EXPECT_NE(RenderClusterJson(healthy).find("\"wal_seq\""), std::string::npos);
  EXPECT_NE(RenderClusterHealthJson(healthy).find("\"ok\""), std::string::npos);

  // Kill one worker: the next refreshing scrape discovers the dead link
  // (the pull fails fast) and degrades without waiting out staleness.
  cluster.workers[0]->Kill();
  ClusterObsSnapshot degraded = cluster.backend->ObsSnapshot(/*refresh=*/true);
  EXPECT_FALSE(degraded.healthy);
  EXPECT_FALSE(degraded.workers[0].connected);
  EXPECT_TRUE(degraded.workers[1].connected);
  EXPECT_NE(RenderClusterHealthJson(degraded).find("\"degraded\""),
            std::string::npos);
  cluster.backend->Stop();
}

TEST(ClusterTest, UnregisterStopsDeliveriesAndFreesNothingElse) {
  ClusterFixture cluster(2);
  ASSERT_TRUE(cluster.ok);
  MatchSink keep_sink;
  MatchSink drop_sink;
  const QueryGraph probe = BuildProbe(&cluster.interner);
  const QueryGraph worm_chain = BuildWormChain(&cluster.interner);
  auto keep = cluster.backend->Register(
      probe, DecompositionStrategy::kLeftDeepEdgeOrder, 100,
      keep_sink.Callback());
  auto drop = cluster.backend->Register(
      worm_chain, DecompositionStrategy::kLeftDeepEdgeOrder, 100,
      drop_sink.Callback());
  ASSERT_TRUE(keep.ok());
  ASSERT_TRUE(drop.ok());

  const EdgeBatch edges = TestStream(&cluster.interner, 200);
  const size_t half = edges.size() / 2;
  ASSERT_TRUE(cluster.backend
                  ->FeedBatch(EdgeBatch(edges.begin(), edges.begin() + half),
                              nullptr)
                  .ok());
  ASSERT_TRUE(cluster.backend->Unregister(*drop).ok());
  const size_t dropped_at = drop_sink.size();
  ASSERT_TRUE(cluster.backend
                  ->FeedBatch(EdgeBatch(edges.begin() + half, edges.end()),
                              nullptr)
                  .ok());
  cluster.backend->Flush();
  EXPECT_EQ(drop_sink.size(), dropped_at) << "delivery after Unregister";
  EXPECT_GT(keep_sink.size(), 0u);
  EXPECT_FALSE(cluster.backend->Unregister(*drop).ok()) << "double unregister";
  cluster.backend->Stop();
}

TEST(ClusterTest, RegistrationValidationFailsCleanly) {
  ClusterFixture cluster(2);
  ASSERT_TRUE(cluster.ok);
  MatchSink sink;
  const QueryGraph probe = BuildProbe(&cluster.interner);
  // Non-positive window: every worker refuses identically, no id burned.
  EXPECT_FALSE(cluster.backend
                   ->Register(probe, DecompositionStrategy::kLeftDeepEdgeOrder,
                              0, sink.Callback())
                   .ok());
  auto id = cluster.backend->Register(
      probe, DecompositionStrategy::kLeftDeepEdgeOrder, 100, sink.Callback());
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 0) << "failed registration must not consume an id";
  cluster.backend->Stop();
}

TEST(ClusterTest, FreshCoordinatorRefusesWorkersWithPriorState) {
  const std::string root =
      (fs::temp_directory_path() / "sw_cluster_refuse_test").string();
  fs::remove_all(root);
  {
    ClusterFixture cluster(2, root);
  ASSERT_TRUE(cluster.ok);
    MatchSink sink;
    const QueryGraph probe = BuildProbe(&cluster.interner);
    ASSERT_TRUE(cluster.backend
                    ->Register(probe,
                               DecompositionStrategy::kLeftDeepEdgeOrder, 100,
                               sink.Callback())
                    .ok());
    ASSERT_TRUE(
        cluster.backend->FeedBatch(TestStream(&cluster.interner, 100), nullptr)
            .ok());
    cluster.backend->Flush();
    cluster.backend->Stop();
  }
  // The daemons died with frame logs on disk. Restart them (same
  // topology); a *fresh* coordinator (cursors at zero) must refuse:
  // silently adopting a stateful worker would replay a window the new
  // coordinator never fed.
  WorkerHarness restarted0(root + "/worker0");
  WorkerHarness restarted1(root + "/worker1");
  ASSERT_TRUE(restarted0.Start().ok());
  ASSERT_TRUE(restarted1.Start().ok());
  Interner interner;
  DistributedBackendOptions options;
  options.workers = {"127.0.0.1:" + std::to_string(restarted0.port()),
                     "127.0.0.1:" + std::to_string(restarted1.port())};
  DistributedBackend fresh(options, &interner);
  const Status refused = fresh.Start();
  EXPECT_FALSE(refused.ok());
  EXPECT_NE(refused.ToString().find("previous cluster run"),
            std::string::npos);
  fs::remove_all(root);
}

TEST(ClusterTest, WorkerKillAndRestartContinuesExactlyOnce) {
  const std::string root =
      (fs::temp_directory_path() / "sw_cluster_restart_test").string();
  fs::remove_all(root);

  // Workers on *fixed* ports so the coordinator's reconnect finds the
  // restarted daemon at the address it already knows.
  auto start_worker = [&](int index, int port) {
    WorkerOptions options;
    options.port = port;
    options.data_dir = root + "/worker" + std::to_string(index);
    fs::create_directories(options.data_dir);
    options.poll_interval_ms = 20;
    auto daemon = std::make_unique<WorkerDaemon>(std::move(options));
    return daemon;
  };

  Interner interner;
  auto w0 = start_worker(0, 0);
  ASSERT_TRUE(w0->Start().ok());
  const int port0 = w0->port();
  auto w1 = start_worker(1, 0);
  ASSERT_TRUE(w1->Start().ok());
  const int port1 = w1->port();
  std::atomic<bool> stop0{false};
  std::atomic<bool> stop1{false};
  std::thread t0([&] { w0->Serve(stop0); });
  std::thread t1([&] { w1->Serve(stop1); });

  DistributedBackendOptions options;
  options.workers = {"127.0.0.1:" + std::to_string(port0),
                     "127.0.0.1:" + std::to_string(port1)};
  options.epoch_edges = 64;
  options.reconnect_deadline_ms = 15000;
  DistributedBackend backend(options, &interner);
  ASSERT_TRUE(backend.Start().ok());

  MatchSink sink;
  const QueryGraph worm_chain = BuildWormChain(&interner);
  const QueryGraph probe = BuildProbe(&interner);
  ASSERT_TRUE(backend
                  .Register(worm_chain, DecompositionStrategy::kLeftDeepEdgeOrder,
                            50, sink.Callback())
                  .ok());
  ASSERT_TRUE(backend
                  .Register(probe, DecompositionStrategy::kLeftDeepEdgeOrder,
                            100, sink.Callback())
                  .ok());

  const EdgeBatch edges = TestStream(&interner, 400);
  const size_t half = edges.size() / 2;
  ASSERT_TRUE(
      backend.FeedBatch(EdgeBatch(edges.begin(), edges.begin() + half), nullptr)
          .ok());
  backend.Flush();

  // Kill worker 0 abruptly and restart it on the same port + frame log.
  // The daemon thread performs no drain or goodbye; the restarted daemon
  // replays the log when the coordinator's recovery Hello arrives.
  stop0.store(true);
  t0.join();
  w0.reset();  // releases the frame-log flock and the listen socket
  w0 = start_worker(0, port0);
  ASSERT_TRUE(w0->Start().ok());
  stop0.store(false);
  std::thread t0b([&] { w0->Serve(stop0); });

  ASSERT_TRUE(
      backend.FeedBatch(EdgeBatch(edges.begin() + half, edges.end()), nullptr)
          .ok());
  backend.Flush();
  EXPECT_GT(w0->counters().replayed_frames, 0u)
      << "restart must have replayed the frame log";

  const std::vector<std::string> expected = SingleEngineReference(
      &interner, {{worm_chain, 50}, {probe, 100}}, edges);
  EXPECT_FALSE(expected.empty());
  EXPECT_EQ(sink.Sorted(), expected)
      << "crash + recovery must deliver exactly the reference multiset";

  backend.Stop();
  stop0.store(true);
  stop1.store(true);
  t0b.join();
  t1.join();
  fs::remove_all(root);
}

TEST(ClusterTest, RequestsAfterWorkerRestartRecoverTheLink) {
  const std::string root =
      (fs::temp_directory_path() / "sw_cluster_request_restart_test").string();
  fs::remove_all(root);

  auto start_worker = [&](int index, int port) {
    WorkerOptions options;
    options.port = port;
    options.data_dir = root + "/worker" + std::to_string(index);
    fs::create_directories(options.data_dir);
    options.poll_interval_ms = 20;
    return std::make_unique<WorkerDaemon>(std::move(options));
  };

  Interner interner;
  auto w0 = start_worker(0, 0);
  ASSERT_TRUE(w0->Start().ok());
  const int port0 = w0->port();
  auto w1 = start_worker(1, 0);
  ASSERT_TRUE(w1->Start().ok());
  std::atomic<bool> stop0{false};
  std::atomic<bool> stop1{false};
  std::thread t0([&] { w0->Serve(stop0); });
  std::thread t1([&] { w1->Serve(stop1); });

  DistributedBackendOptions options;
  options.workers = {"127.0.0.1:" + std::to_string(port0),
                     "127.0.0.1:" + std::to_string(w1->port())};
  options.epoch_edges = 64;
  options.reconnect_deadline_ms = 15000;
  DistributedBackend backend(options, &interner);
  ASSERT_TRUE(backend.Start().ok());

  MatchSink sink;
  const QueryGraph worm_chain = BuildWormChain(&interner);
  auto id = backend.Register(
      worm_chain, DecompositionStrategy::kLeftDeepEdgeOrder, 50,
      sink.Callback());
  ASSERT_TRUE(id.ok());
  const EdgeBatch edges = TestStream(&interner, 400);
  const size_t half = edges.size() / 2;
  ASSERT_TRUE(
      backend.FeedBatch(EdgeBatch(edges.begin(), edges.begin() + half), nullptr)
          .ok());
  backend.Flush();
  const size_t delivered_before = sink.size();

  // Restart worker 0 and ask for Info and ShardLoads before any ingest
  // could heal the link: the request frames themselves must recover it.
  stop0.store(true);
  t0.join();
  w0.reset();
  w0 = start_worker(0, port0);
  ASSERT_TRUE(w0->Start().ok());
  stop0.store(false);
  std::thread t0b([&] { w0->Serve(stop0); });

  // EXPECT, not ASSERT, from here on: the daemon threads must be joined.
  auto info = backend.Info(*id);
  EXPECT_TRUE(info.ok()) << info.status().ToString();
  if (info.ok()) {
    EXPECT_EQ(info->name, "worm_chain");
    EXPECT_EQ(info->completions, delivered_before);
  }
  const auto loads = backend.ShardLoads();
  EXPECT_EQ(loads.size(), 2u) << "a restarted worker's row went missing";
  if (!loads.empty()) {
    EXPECT_GT(loads[0].retained_edges, 0u);
  }
  EXPECT_GT(w0->counters().replayed_frames, 0u);

  EXPECT_TRUE(
      backend.FeedBatch(EdgeBatch(edges.begin() + half, edges.end()), nullptr)
          .ok());
  backend.Flush();
  EXPECT_EQ(sink.Sorted(),
            SingleEngineReference(&interner, {{worm_chain, 50}}, edges));

  backend.Stop();
  stop0.store(true);
  stop1.store(true);
  t0b.join();
  t1.join();
  fs::remove_all(root);
}

// Every Flush is a round of small frames (batch, barrier, ack) on each
// worker link. If either end of a TCP link leaves Nagle on, a small frame
// behind an unacknowledged one waits out the peer's delayed ACK (~40 ms),
// so 200 one-edge epochs would take 8 s or more.
TEST(ClusterTest, SmallEpochsDoNotWaitOnDelayedAck) {
  ClusterFixture cluster(2);
  ASSERT_TRUE(cluster.ok);
  MatchSink sink;
  ASSERT_TRUE(cluster.backend
                  ->Register(BuildProbe(&cluster.interner),
                             DecompositionStrategy::kLeftDeepEdgeOrder, 1000,
                             sink.Callback())
                  .ok());
  const LabelId host = cluster.interner.Intern("Host");
  const LabelId probe = cluster.interner.Intern("synProbe");
  constexpr int kCycles = 200;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kCycles; ++i) {
    StreamEdge edge;
    edge.src = static_cast<ExternalVertexId>(i);
    edge.dst = static_cast<ExternalVertexId>(i + 1);
    edge.src_label = host;
    edge.dst_label = host;
    edge.edge_label = probe;
    edge.ts = i;
    ASSERT_TRUE(cluster.backend->Feed(edge).ok());
    cluster.backend->Flush();
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_EQ(sink.size(), static_cast<size_t>(kCycles));
  EXPECT_LT(seconds, 2.0) << kCycles << " flushed one-edge epochs took "
                          << seconds << " s";
  cluster.backend->Stop();
}

TEST(ClusterTest, ParseHostPortAcceptsValidRejectsJunk) {
  auto ok = ParseHostPort("127.0.0.1:8080");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->first, "127.0.0.1");
  EXPECT_EQ(ok->second, 8080);
  EXPECT_FALSE(ParseHostPort("nohost").ok());
  EXPECT_FALSE(ParseHostPort(":90").ok());
  EXPECT_FALSE(ParseHostPort("h:").ok());
  EXPECT_FALSE(ParseHostPort("h:abc").ok());
  EXPECT_FALSE(ParseHostPort("h:70000").ok());
}

}  // namespace
}  // namespace streamworks
