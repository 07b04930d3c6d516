#include "streamworks/core/parallel.h"

#include <algorithm>

#include "streamworks/common/logging.h"
#include "streamworks/planner/selectivity.h"

namespace streamworks {

ParallelEngineGroup::ParallelEngineGroup(Interner* interner, int num_shards,
                                         EngineOptions options,
                                         ShardingMode mode,
                                         const Partitioner* partitioner)
    : mode_(mode),
      options_(options),
      partitioner_(partitioner != nullptr ? partitioner
                                          : &default_partitioner_) {
  SW_CHECK_GT(num_shards, 0);
  shards_.reserve(static_cast<size_t>(num_shards));
  for (int i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(interner, options));
  }
  if (mode_ == ShardingMode::kPartitionedData) {
    for (int i = 0; i < num_shards; ++i) {
      ShardConfig config;
      config.shard_index = i;
      config.num_shards = num_shards;
      config.partitioner = partitioner_;
      config.exchange = &shards_[static_cast<size_t>(i)]->exchange;
      shards_[static_cast<size_t>(i)]->engine.EnableShardMode(config);
    }
  }
  for (auto& shard : shards_) {
    shard->worker = std::thread([this, s = shard.get()] { WorkerLoop(s); });
  }
}

ParallelEngineGroup::~ParallelEngineGroup() { Close(); }

std::unique_lock<std::mutex> ParallelEngineGroup::Quiesce(Shard* shard) {
  std::unique_lock<std::mutex> lock(shard->mu);
  shard->cv_producer.wait(lock, [&] {
    return shard->idle && shard->queue.empty();
  });
  // With the queue empty and the lock held, the worker is parked in (or on
  // its way into) cv_consumer.wait and cannot touch the engine until a new
  // task is enqueued — which requires this lock.
  return lock;
}

void ParallelEngineGroup::WaitDrained() {
  std::unique_lock<std::mutex> lock(drained_mu_);
  drained_cv_.wait(lock, [&] { return pending_.load() == 0; });
}

void ParallelEngineGroup::QuiesceAll() {
  WaitDrained();
  // pending_ == 0 and the control thread (the sole external producer) is
  // here, so no new work can appear; wait out each worker's parking. Once
  // this returns the control thread may touch every engine/exchange: the
  // per-shard mutex handoff orders those accesses against the workers.
  for (auto& shard : shards_) {
    auto lock = Quiesce(shard.get());
  }
}

Status ParallelEngineGroup::ResolveGroupId(int group_query_id,
                                           int* shard_index,
                                           int* local_id) const {
  const int n = static_cast<int>(shards_.size());
  if (group_query_id < 0) {
    return Status::InvalidArgument("negative group query id");
  }
  *shard_index = group_query_id % n;
  *local_id = group_query_id / n;
  return OkStatus();
}

StatusOr<Decomposition> ParallelEngineGroup::PlanForGroup(
    const QueryGraph& query, DecompositionStrategy strategy) const {
  // One plan for every shard: the replicated trees must agree on node
  // numbering and cut vertices or the exchange's homing would scatter
  // siblings. Shard 0's statistics stand in for the group's (each shard
  // observes only its own edge subset; planning quality, not correctness).
  const StreamWorksEngine& engine0 = shards_[0]->engine;
  const SummaryStatistics* stats =
      (options_.collect_statistics &&
       engine0.statistics().num_edges_observed() > 0)
          ? &engine0.statistics()
          : nullptr;
  SelectivityEstimator estimator(stats);
  QueryPlanner planner(&estimator);
  return planner.Plan(query, strategy);
}

StatusOr<int> ParallelEngineGroup::RegisterQuery(
    const QueryGraph& query, DecompositionStrategy strategy,
    Timestamp window, MatchCallback callback) {
  if (mode_ == ShardingMode::kBroadcastData) {
    Shard& shard = *shards_[static_cast<size_t>(next_shard_)];
    auto lock = Quiesce(&shard);
    SW_ASSIGN_OR_RETURN(
        const int local_id,
        shard.engine.RegisterQuery(query, strategy, window,
                                   std::move(callback)));
    const int group_id =
        next_shard_ + local_id * static_cast<int>(shards_.size());
    next_shard_ = (next_shard_ + 1) % static_cast<int>(shards_.size());
    return group_id;
  }

  QuiesceAll();
  SW_ASSIGN_OR_RETURN(const Decomposition planned,
                      PlanForGroup(query, strategy));
  // Replicate onto every shard. Identical registration sequences keep the
  // per-engine ids aligned, so the group id is the engine id.
  auto first = shards_[0]->engine.RegisterQuery(query, planned, window,
                                                callback);
  SW_RETURN_IF_ERROR(first.status());
  const int group_id = first.value();
  for (size_t s = 1; s < shards_.size(); ++s) {
    auto replicated =
        shards_[s]->engine.RegisterQuery(query, planned, window, callback);
    // Shard 0 already passed the same deterministic validation.
    SW_CHECK(replicated.ok()) << replicated.status().ToString();
    SW_CHECK_EQ(replicated.value(), group_id)
        << "shard registration sequences diverged";
  }
  BackfillQueryDistributed(group_id);
  return group_id;
}

void ParallelEngineGroup::BackfillQueryDistributed(int query_id) {
  bool any_edges = false;
  for (auto& shard : shards_) {
    any_edges = any_edges || shard->engine.graph().num_stored_edges() > 0;
  }
  if (!any_edges) return;

  // Replay the retained window through the sharded pipeline with
  // completions suppressed — the distributed analogue of the engine's
  // BuildBackfilledTree. Only the new query's tree is touched (anchors run
  // per query id), so the group-wide suppression flag is safe. Order
  // across shards is irrelevant: the graph is static here and the anchor
  // discipline bounds candidates by edge id, not by ingest recency.
  for (auto& shard : shards_) {
    shard->engine.set_suppress_completions(true);
  }
  const int n = num_shards();
  for (int s = 0; s < n; ++s) {
    StreamWorksEngine& engine = shards_[static_cast<size_t>(s)]->engine;
    const DynamicGraph& graph = engine.graph();
    for (size_t i = 0; i < graph.num_stored_edges(); ++i) {
      const EdgeId id = graph.stored_edge_id(i);
      const EdgeRecord& record = graph.edge_record(id);
      // Anchor each edge once group-wide: on its source-owner shard, the
      // same shard that gets run_anchors during live ingest.
      if (partitioner_->OwnerShard(graph.external_id(record.src), n) != s) {
        continue;
      }
      engine.BackfillQueryEdge(query_id, id);
    }
    PumpExchange();
  }
  for (auto& shard : shards_) {
    shard->engine.set_suppress_completions(false);
  }
}

void ParallelEngineGroup::PumpExchange() {
  // Control-thread fixpoint (group quiesced): deliver forwarded items
  // directly until no shard produces more.
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto& shard : shards_) {
      for (auto& [dest, item] : shard->exchange.Drain()) {
        shards_[static_cast<size_t>(dest)]->engine.HandleExchangeItem(item);
        progress = true;
      }
    }
  }
}

Status ParallelEngineGroup::UnregisterQuery(int group_query_id) {
  if (mode_ == ShardingMode::kBroadcastData) {
    int shard_index = 0, local_id = 0;
    SW_RETURN_IF_ERROR(
        ResolveGroupId(group_query_id, &shard_index, &local_id));
    Shard& shard = *shards_[static_cast<size_t>(shard_index)];
    auto lock = Quiesce(&shard);
    return shard.engine.UnregisterQuery(local_id);
  }

  // Any shard may hold the query's partials and in-flight exchange items
  // reference it by id, so the whole group quiesces first.
  QuiesceAll();
  Status status = OkStatus();
  for (auto& shard : shards_) {
    const Status s = shard->engine.UnregisterQuery(group_query_id);
    if (!s.ok()) status = s;
  }
  return status;
}

StatusOr<QueryRuntimeInfo> ParallelEngineGroup::query_info(
    int group_query_id) {
  if (mode_ == ShardingMode::kBroadcastData) {
    int shard_index = 0, local_id = 0;
    SW_RETURN_IF_ERROR(
        ResolveGroupId(group_query_id, &shard_index, &local_id));
    Shard& shard = *shards_[static_cast<size_t>(shard_index)];
    auto lock = Quiesce(&shard);
    if (!shard.engine.has_query(local_id)) {
      return Status::NotFound("unknown or unregistered group query id");
    }
    QueryRuntimeInfo info = shard.engine.query_info(local_id);
    info.query_id = group_query_id;
    return info;
  }

  QuiesceAll();
  if (group_query_id < 0 || !shards_[0]->engine.has_query(group_query_id)) {
    return Status::NotFound("unknown or unregistered group query id");
  }
  // Completions are counted where they are delivered: the callback home.
  const size_t home =
      static_cast<size_t>(group_query_id % num_shards());
  QueryRuntimeInfo info = shards_[home]->engine.query_info(group_query_id);
  info.query_id = group_query_id;
  info.live_partial_matches = 0;
  info.peak_partial_matches = 0;
  // Every shard runs a replica of the same tree shape, so the per-node
  // counters sum element-wise; start from zeroed nodes and fold each
  // shard's contribution in (including the home's, re-read below).
  for (SjNodeRuntime& node : info.nodes) {
    node.matches_inserted = 0;
    node.probes = 0;
    node.join_attempts = 0;
    node.joins_succeeded = 0;
    node.live_partial_matches = 0;
  }
  for (auto& shard : shards_) {
    const QueryRuntimeInfo per = shard->engine.query_info(group_query_id);
    info.live_partial_matches += per.live_partial_matches;
    info.peak_partial_matches += per.peak_partial_matches;
    for (size_t n = 0; n < info.nodes.size() && n < per.nodes.size(); ++n) {
      info.nodes[n].matches_inserted += per.nodes[n].matches_inserted;
      info.nodes[n].probes += per.nodes[n].probes;
      info.nodes[n].join_attempts += per.nodes[n].join_attempts;
      info.nodes[n].joins_succeeded += per.nodes[n].joins_succeeded;
      info.nodes[n].live_partial_matches += per.nodes[n].live_partial_matches;
    }
  }
  return info;
}

void ParallelEngineGroup::EnqueueTask(Shard* shard, ShardTask task,
                                      bool bounded) {
  std::unique_lock<std::mutex> lock(shard->mu);
  if (bounded) {
    shard->cv_producer.wait(lock, [&] {
      return shard->queue.size() < kMaxQueuedEdges;
    });
  }
  const bool was_empty = shard->queue.empty();
  shard->queue.push_back(std::move(task));
  shard->idle = false;
  pending_.fetch_add(1);
  // The worker only sleeps when the queue is empty, so a wakeup is needed
  // just on the empty -> non-empty transition (it re-checks the queue
  // after finishing its current swap buffer regardless).
  if (was_empty) shard->cv_consumer.notify_one();
}

void ParallelEngineGroup::PartitionedIngest(const StreamEdge& edge) {
  const auto route = admission_.Admit(edge, *partitioner_, num_shards());
  if (!route.has_value()) {
    ++group_rejected_;
    return;
  }
  ++edges_since_epoch_;
  ShardTask task;
  task.kind = ShardTask::Kind::kEdge;
  task.run_anchors = true;  // the src owner anchors; exactly one shard
  task.edge = edge;
  task.edge_id = route->id;
  EnqueueTask(shards_[static_cast<size_t>(route->src_owner)].get(),
              std::move(task), /*bounded=*/true);
  if (route->dst_owner != route->src_owner) {
    ShardTask copy;
    copy.kind = ShardTask::Kind::kEdge;
    copy.run_anchors = false;
    copy.edge = edge;
    copy.edge_id = route->id;
    EnqueueTask(shards_[static_cast<size_t>(route->dst_owner)].get(),
                std::move(copy), /*bounded=*/true);
  }
}

void ParallelEngineGroup::EpochFlush() {
  edges_since_epoch_ = 0;
  // Drain every queue and everything the exchange spawned, so no in-flight
  // match still needs a neighbourhood the watermark broadcast may evict.
  WaitDrained();
  if (admission_.watermark() <= last_broadcast_watermark_) return;
  last_broadcast_watermark_ = admission_.watermark();
  for (auto& shard : shards_) {
    ShardTask task;
    task.kind = ShardTask::Kind::kWatermark;
    task.watermark = admission_.watermark();
    EnqueueTask(shard.get(), std::move(task), /*bounded=*/false);
  }
}

void ParallelEngineGroup::ProcessEdge(const StreamEdge& edge) {
  if (mode_ == ShardingMode::kPartitionedData) {
    PartitionedIngest(edge);
    if (edges_since_epoch_ >= kEpochEdges) EpochFlush();
    return;
  }
  for (auto& shard : shards_) {
    ShardTask task;
    task.kind = ShardTask::Kind::kEdge;
    task.edge = edge;
    EnqueueTask(shard.get(), std::move(task), /*bounded=*/true);
  }
}

void ParallelEngineGroup::ProcessBatch(const EdgeBatch& batch) {
  if (batch.empty()) return;
  if (mode_ == ShardingMode::kPartitionedData) {
    for (const StreamEdge& edge : batch) {
      PartitionedIngest(edge);
      // One huge batch must not suspend eviction for its whole duration —
      // keep the same per-kEpochEdges bound the single-edge path has.
      if (edges_since_epoch_ >= kEpochEdges) EpochFlush();
    }
    // The batch boundary is an epoch boundary: exchange drained, watermark
    // broadcast, expiry advanced consistently on every shard.
    EpochFlush();
    return;
  }
  for (auto& shard : shards_) {
    size_t appended = 0;
    while (appended < batch.size()) {
      std::unique_lock<std::mutex> lock(shard->mu);
      shard->cv_producer.wait(lock, [&] {
        return shard->queue.size() < kMaxQueuedEdges;
      });
      const bool was_empty = shard->queue.empty();
      const size_t room = kMaxQueuedEdges - shard->queue.size();
      const size_t take = std::min(room, batch.size() - appended);
      shard->queue.reserve(shard->queue.size() + take);
      for (size_t i = 0; i < take; ++i) {
        ShardTask task;
        task.kind = ShardTask::Kind::kEdge;
        task.edge = batch[appended + i];
        shard->queue.push_back(std::move(task));
      }
      appended += take;
      shard->idle = false;
      pending_.fetch_add(take);
      if (was_empty) shard->cv_consumer.notify_one();
    }
  }
}

void ParallelEngineGroup::ExecuteTask(Shard* shard, ShardTask& task) {
  switch (task.kind) {
    case ShardTask::Kind::kEdge:
      // Rejected edges are counted by the engine; a parallel consumer has
      // no way to surface per-edge status, matching the callback model.
      if (mode_ == ShardingMode::kBroadcastData) {
        shard->engine.ProcessEdge(task.edge).ok();
      } else {
        shard->engine
            .ProcessShardEdge(task.edge, task.edge_id, task.run_anchors)
            .ok();
      }
      break;
    case ShardTask::Kind::kItem:
      shard->engine.HandleExchangeItem(*task.item);
      break;
    case ShardTask::Kind::kWatermark:
      shard->engine.AdvanceWatermark(task.watermark);
      break;
  }
}

void ParallelEngineGroup::DispatchExchange(Shard* from) {
  if (from->exchange.empty()) return;
  auto items = from->exchange.Drain();
  // One lock acquisition per destination: group the batch first.
  std::vector<std::vector<std::unique_ptr<ExchangeItem>>> per_dest(
      shards_.size());
  for (auto& [dest, item] : items) {
    per_dest[static_cast<size_t>(dest)].push_back(
        std::make_unique<ExchangeItem>(std::move(item)));
  }
  for (size_t d = 0; d < per_dest.size(); ++d) {
    if (per_dest[d].empty()) continue;
    Shard* dst = shards_[d].get();
    std::unique_lock<std::mutex> lock(dst->mu);
    const bool was_empty = dst->queue.empty();
    for (auto& item : per_dest[d]) {
      ShardTask task;
      task.kind = ShardTask::Kind::kItem;
      task.item = std::move(item);
      dst->queue.push_back(std::move(task));
    }
    dst->idle = false;
    pending_.fetch_add(per_dest[d].size());
    if (was_empty) dst->cv_consumer.notify_one();
  }
}

void ParallelEngineGroup::WorkerLoop(Shard* shard) {
  while (true) {
    {
      std::unique_lock<std::mutex> lock(shard->mu);
      shard->cv_consumer.wait(lock, [&] {
        return !shard->queue.empty() || shard->closing;
      });
      if (shard->queue.empty() && shard->closing) return;
      shard->taking.swap(shard->queue);
      shard->cv_producer.notify_all();
    }
    const size_t taken = shard->taking.size();
    for (ShardTask& task : shard->taking) {
      ExecuteTask(shard, task);
    }
    // Forward everything the batch produced before retiring it from
    // pending_, so "drained" can never be observed with items in flight.
    DispatchExchange(shard);
    shard->taking.clear();
    {
      std::unique_lock<std::mutex> lock(shard->mu);
      if (shard->queue.empty()) {
        shard->idle = true;
        shard->cv_producer.notify_all();
      }
    }
    if (pending_.fetch_sub(taken) == taken) {
      std::lock_guard<std::mutex> guard(drained_mu_);
      drained_cv_.notify_all();
    }
  }
}

void ParallelEngineGroup::Flush() {
  if (mode_ == ShardingMode::kPartitionedData) {
    EpochFlush();   // drain + final watermark broadcast
    WaitDrained();  // drain the watermark tasks themselves
  } else {
    WaitDrained();
  }
  for (auto& shard : shards_) {
    auto lock = Quiesce(shard.get());
  }
}

void ParallelEngineGroup::Close() {
  if (closed_) return;
  if (mode_ == ShardingMode::kPartitionedData) {
    // Partitioned workers forward to each other; a worker must never exit
    // while a peer might still send it work, so drain globally first.
    Flush();
  }
  closed_ = true;
  for (auto& shard : shards_) {
    {
      std::unique_lock<std::mutex> lock(shard->mu);
      shard->closing = true;
      shard->cv_consumer.notify_one();
    }
    shard->worker.join();
  }
}

uint64_t ParallelEngineGroup::total_completions() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->engine.metrics().completions;
  }
  return total;
}

uint64_t ParallelEngineGroup::total_rejected() const {
  uint64_t total = group_rejected_;
  for (const auto& shard : shards_) {
    total += shard->engine.metrics().edges_rejected;
  }
  return total;
}

double ParallelEngineGroup::total_processing_seconds() const {
  double total = 0;
  for (const auto& shard : shards_) {
    total += shard->engine.metrics().processing_seconds;
  }
  return total;
}

WindowSnapshot ParallelEngineGroup::ExportWindow() {
  QuiesceAll();
  if (mode_ == ShardingMode::kBroadcastData) {
    // Every shard retains the identical window and id sequence.
    return shards_[0]->engine.ExportWindow();
  }
  WindowSnapshot merged;
  merged.next_edge_id = admission_.next_edge_id();
  merged.watermark = admission_.watermark();
  for (auto& shard : shards_) {
    WindowSnapshot per = shard->engine.ExportWindow();
    merged.edges.insert(merged.edges.end(), per.edges.begin(),
                        per.edges.end());
  }
  // An edge stored on both endpoint owners was exported twice; ids are
  // group-global, so sort + unique restores the single ingest sequence.
  std::sort(merged.edges.begin(), merged.edges.end(),
            [](const PersistedEdge& a, const PersistedEdge& b) {
              return a.id < b.id;
            });
  merged.edges.erase(std::unique(merged.edges.begin(), merged.edges.end(),
                                 [](const PersistedEdge& a,
                                    const PersistedEdge& b) {
                                   return a.id == b.id;
                                 }),
                     merged.edges.end());
  return merged;
}

Status ParallelEngineGroup::RestoreWindow(const WindowSnapshot& snapshot) {
  QuiesceAll();
  const int n = num_shards();
  for (const PersistedEdge& pe : snapshot.edges) {
    if (mode_ == ShardingMode::kBroadcastData) {
      for (auto& shard : shards_) {
        SW_RETURN_IF_ERROR(shard->engine.RestoreWindowEdge(pe.edge, pe.id));
      }
      continue;
    }
    const int src_owner = partitioner_->OwnerShard(pe.edge.src, n);
    const int dst_owner = partitioner_->OwnerShard(pe.edge.dst, n);
    SW_RETURN_IF_ERROR(
        shards_[static_cast<size_t>(src_owner)]->engine.RestoreWindowEdge(
            pe.edge, pe.id));
    if (dst_owner != src_owner) {
      SW_RETURN_IF_ERROR(
          shards_[static_cast<size_t>(dst_owner)]->engine.RestoreWindowEdge(
              pe.edge, pe.id));
    }
  }
  for (auto& shard : shards_) {
    shard->engine.FinishWindowRestore(snapshot.next_edge_id,
                                      snapshot.watermark);
  }
  if (mode_ == ShardingMode::kPartitionedData) {
    // A post-recovery label clash on a retained vertex must be rejected
    // exactly as before the crash.
    admission_.Restore(snapshot.edges, snapshot.next_edge_id,
                       snapshot.watermark);
    last_broadcast_watermark_ = snapshot.watermark;
  }
  return OkStatus();
}

void ParallelEngineGroup::SetSuppressCompletions(bool suppress) {
  QuiesceAll();
  for (auto& shard : shards_) {
    shard->engine.set_suppress_completions(suppress);
  }
}

std::vector<ShardStatsSnapshot> ParallelEngineGroup::ShardStats() {
  QuiesceAll();
  std::vector<ShardStatsSnapshot> out;
  out.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    const StreamWorksEngine& engine = shards_[s]->engine;
    ShardStatsSnapshot snap;
    snap.shard = static_cast<int>(s);
    snap.retained_edges = engine.graph().num_stored_edges();
    snap.retained_vertices = engine.graph().num_vertices();
    snap.evicted_edges = engine.graph().num_evicted_edges();
    snap.edges_processed = engine.metrics().edges_processed;
    snap.completions = engine.metrics().completions;
    snap.live_partial_matches = engine.total_live_partial_matches();
    snap.exchange = shards_[s]->exchange.counters();
    out.push_back(snap);
  }
  return out;
}

}  // namespace streamworks
