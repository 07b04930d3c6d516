// The two in-process deployments — dense-join (QueryService over one
// engine) and cluster-2w (QueryService over a DistributedBackend with two
// worker daemons on localhost TCP) — plus what every workload shares.
#include <algorithm>
#include <chrono>

#include "streamworks/cluster/coordinator.h"
#include "streamworks/cluster/worker.h"
#include "streamworks/common/logging.h"
#include "streamworks/graph/dynamic_graph.h"
#include "streamworks/stream/netflow_gen.h"
#include "streamworks/stream/news_gen.h"
#include "workloads.h"

namespace perfbench {

using streamworks::CompleteMatch;
using streamworks::DecompositionStrategy;
using streamworks::EdgeBatch;
using streamworks::PipelineMetrics;
using streamworks::PipelineStage;
using streamworks::QueryService;
using streamworks::Status;
using streamworks::StreamEdge;

// --- Shared pieces -------------------------------------------------------------

void QueueConsumer::Add(std::shared_ptr<streamworks::ResultQueue> queue,
                        std::string query_name) {
  queues_.push_back(std::move(queue));
  names_.push_back(std::move(query_name));
}

void QueueConsumer::Start() {
  stop_.store(false);
  thread_ = std::thread([this] { Run(); });
}

void QueueConsumer::Stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

bool QueueConsumer::Idle() const {
  for (const auto& q : queues_) {
    if (q->size() > 0) return false;
  }
  return true;
}

void QueueConsumer::Run() {
  std::vector<CompleteMatch> batch;
  auto record = [&](const CompleteMatch& cm, size_t q) {
    const int64_t now = NowNs();
    const uint64_t newest = cm.match.MaxDataEdgeId();
    // Matches of the set-up load belong to set-up, not to the run.
    if (newest < first_timed_id_) return;
    const uint64_t key = MatchKey(names_[q], cm.rendered);
    log_->Add(key, newest, now);
    if (tracer_ != nullptr) tracer_->NoteReceived(key, now);
  };
  while (!stop_.load()) {
    bool any = false;
    for (size_t q = 0; q < queues_.size(); ++q) {
      batch.clear();
      if (queues_[q]->DrainUpTo(&batch, 256) == 0) continue;
      any = true;
      for (const CompleteMatch& cm : batch) record(cm, q);
    }
    // ResultQueue can only block on one queue, and its wait has 1 ms
    // granularity; a short sleep between passes over every queue keeps
    // the benchmark's own pickup delay far below the latencies measured.
    if (!any) std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
}

void SjTreeLayerMetrics(QueryService* service, const PipelineMetrics& pipeline,
                        std::map<std::string, double>* out) {
  double peak = 0, attempts = 0, joined = 0, leaf_in = 0, leaf_probes = 0;
  for (const auto& q : service->QueryInfos()) {
    peak += static_cast<double>(q.info.peak_partial_matches);
    for (const auto& node : q.info.nodes) {
      attempts += static_cast<double>(node.join_attempts);
      joined += static_cast<double>(node.joins_succeeded);
      if (node.is_leaf) {
        leaf_in += static_cast<double>(node.matches_inserted);
        leaf_probes += static_cast<double>(node.probes);
      }
    }
  }
  (*out)["sjtree.partial_matches_peak"] = peak;
  (*out)["sjtree.join_success_ratio"] = attempts > 0 ? joined / attempts : 0;
  (*out)["match.leaf_yield"] = leaf_probes > 0 ? leaf_in / leaf_probes : 0;
  const auto joins =
      pipeline.stage_histogram(PipelineStage::kSjTreeJoin).Snapshot();
  (*out)["sjtree.join_us.p50"] = static_cast<double>(joins.Quantile(0.50));
  (*out)["sjtree.join_us.p99"] = static_cast<double>(joins.Quantile(0.99));
}

double GraphInsertNsPerEdge(const Workload& w, size_t timed) {
  streamworks::Timestamp retention = 1;
  for (const QuerySpec& q : w.queries) retention = std::max(retention, q.window);
  streamworks::DynamicGraph graph(&w.interner);
  graph.set_retention(retention);
  const int64_t t0 = NowNs();
  for (const StreamEdge& e : w.load) SW_CHECK(graph.AddEdge(e).ok());
  for (size_t i = 0; i < timed; ++i) SW_CHECK(graph.AddEdge(w.timed[i]).ok());
  const int64_t t1 = NowNs();
  return static_cast<double>(t1 - t0) /
         static_cast<double>(w.load.size() + timed);
}

namespace {

/// QueryService + subscriptions + consumer over some backend: the part
/// the two in-process deployments share.
class InProcessSystem : public System {
 public:
  InProcessSystem(Workload* w, Tracer* tracer) : w_(w), tracer_(tracer) {}

  Status Send(size_t begin, size_t end) override {
    const EdgeBatch batch(w_->timed.begin() + static_cast<ptrdiff_t>(begin),
                          w_->timed.begin() + static_cast<ptrdiff_t>(end));
    ScopedSpan span(tracer_, Layer::kServiceFeed, batch.size());
    sent_ += batch.size();
    return service_->FeedBatch(batch);
  }
  Status Churn(int) override {
    return Status::Unimplemented("no churn in-process");
  }
  uint64_t DroppedMatches() override {
    return service_->Snapshot().matches_dropped;
  }

 protected:
  /// Builds the service over `backend`, submits every query, starts the
  /// consumer and feeds the set-up load.
  Status StartService(streamworks::QueryBackend* backend) {
    service_ = std::make_unique<QueryService>(backend);
    service_->set_pipeline_metrics(pipeline_.get());
    SW_ASSIGN_OR_RETURN(const int session, service_->OpenSession("bench"));
    consumer_ = std::make_unique<QueueConsumer>(&deliveries, tracer_,
                                                w_->first_timed_id());
    for (const QuerySpec& q : w_->queries) {
      streamworks::SubmitOptions so;
      so.window = q.window;
      so.strategy = q.strategy;
      so.queue_capacity = kQueueCapacity;
      so.tag = q.name;
      ++submits;
      SW_ASSIGN_OR_RETURN(const int sub,
                          service_->Submit(session, q.graph, so));
      consumer_->Add(service_->queue_handle(session, sub), q.name);
    }
    consumer_->Start();
    for (size_t i = 0; i < w_->load.size(); i += w_->peak_batch) {
      const size_t end = std::min(w_->load.size(), i + w_->peak_batch);
      SW_RETURN_IF_ERROR(service_->FeedBatch(
          EdgeBatch(w_->load.begin() + static_cast<ptrdiff_t>(i),
                    w_->load.begin() + static_cast<ptrdiff_t>(end))));
    }
    service_->Flush();
    while (!consumer_->Idle()) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return streamworks::OkStatus();
  }

  void StopService() {
    if (consumer_) consumer_->Stop();
    consumer_.reset();
    service_.reset();
  }

  Workload* w_;
  Tracer* tracer_;
  std::unique_ptr<PipelineMetrics> pipeline_;
  std::unique_ptr<QueryService> service_;
  std::unique_ptr<QueueConsumer> consumer_;
  uint64_t sent_ = 0;
};

// --- dense-join ------------------------------------------------------------------

class DenseJoinSystem final : public InProcessSystem {
 public:
  using InProcessSystem::InProcessSystem;
  ~DenseJoinSystem() override { Teardown(); }

  Status Setup() override {
    pipeline_ = std::make_unique<PipelineMetrics>();
    streamworks::EngineOptions eo;
    eo.pipeline = pipeline_.get();
    engine_ = std::make_unique<streamworks::StreamWorksEngine>(&w_->interner,
                                                                eo);
    single_ = std::make_unique<streamworks::SingleEngineBackend>(engine_.get());
    streamworks::QueryBackend* backend = single_.get();
    if (tracer_ != nullptr) {
      traced_ = std::make_unique<TracedBackend>(backend, Layer::kCore, tracer_,
                                                /*wrap_callbacks=*/true,
                                                /*adopt_remote_root=*/false);
      backend = traced_.get();
    }
    sent_ = 0;
    return StartService(backend);
  }

  void Teardown() override {
    StopService();
    traced_.reset();
    single_.reset();
    engine_.reset();
  }

  uint64_t Processed() override { return sent_; }

  void LayerMetrics(std::map<std::string, double>* out) override {
    SjTreeLayerMetrics(service_.get(), *pipeline_, out);
    (*out)["graph.vertices_retained"] =
        static_cast<double>(engine_->graph().num_vertices());
    (*out)["graph.insert_ns_per_edge"] = GraphInsertNsPerEdge(*w_, sent_);
  }

 private:
  std::unique_ptr<streamworks::StreamWorksEngine> engine_;
  std::unique_ptr<streamworks::SingleEngineBackend> single_;
  std::unique_ptr<TracedBackend> traced_;
};

// --- cluster-2w ------------------------------------------------------------------

/// One worker daemon on its own thread, listening on an ephemeral port.
class WorkerThread {
 public:
  Status Start() {
    daemon_ = std::make_unique<streamworks::WorkerDaemon>(
        streamworks::WorkerOptions{});
    SW_RETURN_IF_ERROR(daemon_->Start());
    thread_ = std::thread([this] { (void)daemon_->Serve(stop_); });
    return streamworks::OkStatus();
  }
  ~WorkerThread() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  int port() const { return daemon_->port(); }

 private:
  std::unique_ptr<streamworks::WorkerDaemon> daemon_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

class ClusterSystem final : public InProcessSystem {
 public:
  using InProcessSystem::InProcessSystem;
  ~ClusterSystem() override { Teardown(); }

  Status Setup() override {
    pipeline_ = std::make_unique<PipelineMetrics>();
    // Defaults everywhere but the endpoints and the stage sink, so the
    // cluster runs as shipped.
    streamworks::DistributedBackendOptions options;
    for (int i = 0; i < 2; ++i) {
      workers_.push_back(std::make_unique<WorkerThread>());
      SW_RETURN_IF_ERROR(workers_.back()->Start());
      options.workers.push_back("127.0.0.1:" +
                                std::to_string(workers_.back()->port()));
    }
    options.pipeline = pipeline_.get();
    cluster_ = std::make_unique<streamworks::DistributedBackend>(
        options, &w_->interner);
    SW_RETURN_IF_ERROR(cluster_->Start());
    streamworks::QueryBackend* backend = cluster_.get();
    if (tracer_ != nullptr) {
      traced_ = std::make_unique<TracedBackend>(backend, Layer::kClusterFeed,
                                                tracer_, true, false);
      backend = traced_.get();
    }
    sent_ = 0;
    next_epoch_ = 0;
    SW_RETURN_IF_ERROR(StartService(backend));
    Processed();  // the load's epochs are set-up, not run
    run_ = RunTotals{};
    return streamworks::OkStatus();
  }

  void Teardown() override {
    StopService();
    traced_.reset();
    if (cluster_) cluster_->Stop();
    cluster_.reset();
    workers_.clear();
  }

  void Quiesce() override {
    ScopedSpan span(tracer_, Layer::kFlush, 0);
    service_->Flush();
  }

  /// Edges the cluster committed, summed from the epoch trace ring. It is
  /// called after every send and every phase, well before the ring wraps,
  /// so the run's totals include every epoch.
  uint64_t Processed() override {
    for (const auto& e : cluster_->EpochTrace()) {
      if (e.epoch < next_epoch_) continue;
      run_.edges += e.edges;
      run_.relayed_items += e.relayed_items;
      ++run_.epochs;
      next_epoch_ = e.epoch + 1;
    }
    return run_.edges;
  }

  void LayerMetrics(std::map<std::string, double>* out) override {
    SjTreeLayerMetrics(service_.get(), *pipeline_, out);
    const auto barrier =
        pipeline_->stage_histogram(PipelineStage::kBarrierWait).Snapshot();
    (*out)["cluster.barrier_wait_us.p50"] =
        static_cast<double>(barrier.Quantile(0.50));
    (*out)["cluster.barrier_wait_us.p99"] =
        static_cast<double>(barrier.Quantile(0.99));
    const auto relay =
        pipeline_->stage_histogram(PipelineStage::kExchangeRelay).Snapshot();
    const double epochs = static_cast<double>(cluster_->epochs_completed());
    (*out)["cluster.relay_us_per_epoch"] =
        epochs > 0 ? static_cast<double>(relay.sum()) / epochs : 0;
    Processed();
    const double edges = static_cast<double>(run_.edges);
    (*out)["cluster.edges_per_epoch"] =
        run_.epochs > 0 ? edges / static_cast<double>(run_.epochs) : 0;
    (*out)["cluster.exchange_items_per_edge"] =
        edges > 0 ? static_cast<double>(run_.relayed_items) / edges : 0;
    (*out)["graph.insert_ns_per_edge"] = GraphInsertNsPerEdge(*w_, sent_);
  }

 private:
  std::vector<std::unique_ptr<WorkerThread>> workers_;
  std::unique_ptr<streamworks::DistributedBackend> cluster_;
  std::unique_ptr<TracedBackend> traced_;
  /// Totals over the run's epochs, from Processed().
  struct RunTotals {
    uint64_t edges = 0;
    uint64_t relayed_items = 0;
    uint64_t epochs = 0;
  };
  RunTotals run_;
  uint64_t next_epoch_ = 0;
};

}  // namespace

// --- Inputs ------------------------------------------------------------------------

void BuildDenseJoin(const Options& opt, Workload* w) {
  // The news stream with strong popularity skew (the selectivity
  // ablation's entity set), and one Fig. 2 event subscription per topic
  // planned structurally: the common hasLocation edges come first, so
  // partial matches pile up before the keyword edge prunes them.
  constexpr int kWindow = 40;
  // Set-up feeds 200 ticks (~2.5k edges) of history before the first
  // timed edge, so setup_s times the joins of the load, not thread starts.
  constexpr int kLoadTicks = 200;
  // Saturation chunks are multiples of the engine's 1024-edge expiry sweep
  // interval, so every chunk carries the same number of sweeps.
  w->peak_edges = 57344;
  w->peak_batch = 256;
  w->setup_repeats = 9;
  const size_t timed_edges = MakePlan(opt, *w).total;
  streamworks::NewsGenerator::Options no;
  no.seed = opt.seed;
  no.entity_skew = 1.1;
  // ~3.1 edges per article; generate comfortably more than needed.
  no.num_articles =
      4 * kLoadTicks + static_cast<int>(timed_edges / 2.9) + 1000;
  streamworks::NewsGenerator gen(no, &w->interner);
  const streamworks::Timestamp span = no.num_articles / no.articles_per_tick;
  int k = 0;
  for (streamworks::Timestamp t = kLoadTicks + 20; t + 10 < span;
       t += 150, ++k) {
    gen.InjectEvent(t, no.topics[k % no.topics.size()], 2);
  }
  const std::vector<StreamEdge> stream = gen.Generate();
  w->SetStream(stream, kLoadTicks);
  SW_CHECK_GE(w->timed.size(), timed_edges) << "news stream too short";
  for (const std::string& topic : no.topics) {
    w->AddQuery("event_" + topic,
                "node kw " + topic + "\nnode loc Location\n"
                "node a1 Article\nnode a2 Article\n"
                "edge a1 loc hasLocation\nedge a2 loc hasLocation\n"
                "edge a1 kw hasKeyword\nedge a2 kw hasKeyword\n",
                kWindow, DecompositionStrategy::kLeftDeepEdgeOrder);
  }
  k = 0;
  for (const auto& inj : gen.injections()) {
    w->AddMotif(inj.kind, k++ % static_cast<int>(no.topics.size()), inj.edges);
  }
}

void BuildCluster2w(const Options& opt, Workload* w) {
  // Netflow over a moderate host set, so chains span both shards, with
  // the bench_cluster query set.
  constexpr int kWindow = 200;
  constexpr int kPerTick = 20;
  w->peak_edges = 40000;
  w->peak_batch = 256;
  w->setup_repeats = 5;
  const size_t timed_edges = MakePlan(opt, *w).total;
  streamworks::NetflowGenerator::Options no;
  no.seed = opt.seed;
  no.num_hosts = 256;
  no.edges_per_tick = kPerTick;
  // A flatter protocol mix than the generator's default, so exploit and
  // synProbe flows are common enough to give every rung a tail sample.
  no.protocol_skew = 0.6;
  const size_t window_edges = static_cast<size_t>(kWindow) * kPerTick;
  no.background_edges = static_cast<int>(window_edges + timed_edges);
  streamworks::NetflowGenerator gen(no, &w->interner);
  const streamworks::Timestamp span = no.background_edges / kPerTick;
  for (streamworks::Timestamp t = kWindow + 10; t + 10 < span; t += 100) {
    if ((t / 100) % 2 == 0) {
      gen.InjectWorm(t, 3);
    } else {
      gen.InjectPortScan(t, 4);
    }
  }
  const std::vector<StreamEdge> stream = gen.Generate();
  w->SetStream(stream, kWindow);
  w->AddQuery("worm_chain",
              "node a Host\nnode h Host\nnode x Host\n"
              "edge a h exploit\nedge h x exploit\n",
              kWindow, DecompositionStrategy::kLeftDeepEdgeOrder);
  w->AddQuery("probe", "node s Host\nnode t Host\nedge s t synProbe\n",
              kWindow, DecompositionStrategy::kLeftDeepEdgeOrder);
  for (const auto& inj : gen.injections()) {
    w->AddMotif(inj.kind, inj.kind == "worm" ? 0 : 1, inj.edges);
  }
}

std::unique_ptr<System> MakeDenseJoin(Workload* w, Tracer* tracer) {
  return std::make_unique<DenseJoinSystem>(w, tracer);
}

std::unique_ptr<System> MakeCluster2w(Workload* w, Tracer* tracer) {
  return std::make_unique<ClusterSystem>(w, tracer);
}

}  // namespace perfbench
