#include "streamworks/core/parallel.h"

#include <algorithm>

#include "streamworks/common/logging.h"

namespace streamworks {

ParallelEngineGroup::ParallelEngineGroup(Interner* interner, int num_shards,
                                         EngineOptions options,
                                         ShardingMode mode,
                                         const Partitioner* partitioner)
    : mode_(mode),
      partitioner_(partitioner != nullptr ? partitioner
                                          : &default_partitioner_) {
  SW_CHECK_GT(num_shards, 0);
  const bool partitioned = mode_ == ShardingMode::kPartitionedData;
  shards_.reserve(static_cast<size_t>(num_shards));
  for (int i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(
        interner, options, i, num_shards,
        partitioned ? partitioner_ : nullptr));
  }
  if (partitioned) {
    ShardChannel* channel = this;  // a private base: convert in here
    driver_ = std::make_unique<EpochDriver>(channel, partitioner_, num_shards,
                                            kDefaultEpochEdges);
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

StatusOr<int> ParallelEngineGroup::RegisterQuery(
    const QueryGraph& query, DecompositionStrategy strategy,
    Timestamp window, MatchCallback callback) {
  if (driver_ != nullptr) {
    return driver_->Register(query, strategy, window, std::move(callback));
  }
  Shard& shard = *shards_[static_cast<size_t>(next_shard_)];
  auto lock = Quiesce(&shard);
  SW_ASSIGN_OR_RETURN(
      const int local_id,
      shard.runtime.engine().RegisterQuery(query, strategy, window,
                                           std::move(callback)));
  const int group_id =
      next_shard_ + local_id * static_cast<int>(shards_.size());
  next_shard_ = (next_shard_ + 1) % static_cast<int>(shards_.size());
  return group_id;
}

Status ParallelEngineGroup::UnregisterQuery(int group_query_id) {
  if (driver_ != nullptr) return driver_->Unregister(group_query_id);
  int shard_index = 0, local_id = 0;
  SW_RETURN_IF_ERROR(ResolveGroupId(group_query_id, &shard_index, &local_id));
  Shard& shard = *shards_[static_cast<size_t>(shard_index)];
  auto lock = Quiesce(&shard);
  return shard.runtime.Unregister(local_id);
}

StatusOr<QueryRuntimeInfo> ParallelEngineGroup::query_info(
    int group_query_id) {
  if (driver_ != nullptr) return driver_->Info(group_query_id);
  int shard_index = 0, local_id = 0;
  SW_RETURN_IF_ERROR(ResolveGroupId(group_query_id, &shard_index, &local_id));
  Shard& shard = *shards_[static_cast<size_t>(shard_index)];
  auto lock = Quiesce(&shard);
  SW_ASSIGN_OR_RETURN(QueryRuntimeInfo info, shard.runtime.Info(local_id));
  info.query_id = group_query_id;
  return info;
}

void ParallelEngineGroup::EnqueueTasks(Shard* shard,
                                       std::span<ShardTask> tasks,
                                       bool bounded) {
  size_t appended = 0;
  while (appended < tasks.size()) {
    std::unique_lock<std::mutex> lock(shard->mu);
    size_t take = tasks.size() - appended;
    if (bounded) {
      shard->cv_producer.wait(lock, [&] {
        return shard->queue.size() < kDefaultMaxQueuedEdges;
      });
      take = std::min(take, kDefaultMaxQueuedEdges - shard->queue.size());
    }
    const bool was_empty = shard->queue.empty();
    for (size_t i = 0; i < take; ++i) {
      shard->queue.push_back(std::move(tasks[appended + i]));
    }
    appended += take;
    shard->idle = false;
    pending_.fetch_add(take);
    // The worker only sleeps when the queue is empty, so a wakeup is
    // needed just on the empty -> non-empty transition (it re-checks the
    // queue after finishing its current swap buffer regardless).
    if (was_empty) shard->cv_consumer.notify_one();
  }
}

void ParallelEngineGroup::ProcessEdge(const StreamEdge& edge) {
  if (driver_ != nullptr) {
    SW_CHECK_OK(driver_->Ingest(edge));
    return;
  }
  for (auto& shard : shards_) {
    ShardTask task;
    task.kind = ShardTask::Kind::kEdge;
    task.edge = edge;
    EnqueueTasks(shard.get(), {&task, 1}, /*bounded=*/true);
  }
}

void ParallelEngineGroup::ProcessBatch(const EdgeBatch& batch) {
  if (batch.empty()) return;
  if (driver_ != nullptr) {
    for (const StreamEdge& edge : batch) SW_CHECK_OK(driver_->Ingest(edge));
    // The batch boundary is an epoch boundary: exchange settled, watermark
    // committed, expiry advanced consistently on every shard.
    SW_CHECK_OK(driver_->CloseEpoch());
    return;
  }
  std::vector<ShardTask> tasks(batch.size());
  for (auto& shard : shards_) {
    for (size_t i = 0; i < batch.size(); ++i) tasks[i].edge = batch[i];
    EnqueueTasks(shard.get(), tasks, /*bounded=*/true);
  }
}

void ParallelEngineGroup::ExecuteTask(Shard* shard, ShardTask& task) {
  switch (task.kind) {
    case ShardTask::Kind::kEdge:
      if (mode_ == ShardingMode::kBroadcastData) {
        // Rejected edges are counted by the engine; a parallel consumer
        // has no way to surface per-edge status, matching the callback
        // model.
        shard->runtime.engine().ProcessEdge(task.edge).ok();
      } else {
        shard->runtime.ApplyEdge(task.edge, task.edge_id, task.run_anchors);
      }
      break;
    case ShardTask::Kind::kItem:
      shard->runtime.ApplyItem(*task.item);
      break;
    case ShardTask::Kind::kWatermark:
      shard->runtime.Commit(task.watermark);
      break;
  }
}

void ParallelEngineGroup::Dispatch(
    std::vector<std::pair<int, ExchangeItem>> items) {
  if (items.empty()) return;
  // One lock acquisition per destination: group the batch first.
  std::vector<std::vector<ShardTask>> per_dest(shards_.size());
  for (auto& [dest, item] : items) {
    ShardTask& task = per_dest[static_cast<size_t>(dest)].emplace_back();
    task.kind = ShardTask::Kind::kItem;
    task.item = std::make_unique<ExchangeItem>(std::move(item));
  }
  for (size_t d = 0; d < per_dest.size(); ++d) {
    EnqueueTasks(shards_[d].get(), per_dest[d], /*bounded=*/false);
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
    if (!shard->runtime.exchange().empty()) {
      Dispatch(shard->runtime.exchange().Drain());
    }
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
  if (driver_ != nullptr) SW_CHECK_OK(driver_->CloseEpoch());
  QuiesceAll();
}

void ParallelEngineGroup::Close() {
  if (closed_) return;
  // Partitioned workers forward to each other; a worker must never exit
  // while a peer might still send it work, so drain globally first.
  if (driver_ != nullptr) Flush();
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
    total += shard->runtime.engine().metrics().completions;
  }
  return total;
}

uint64_t ParallelEngineGroup::total_rejected() const {
  uint64_t total = driver_ != nullptr ? driver_->rejected() : 0;
  for (const auto& shard : shards_) {
    total += shard->runtime.engine().metrics().edges_rejected;
  }
  return total;
}

std::vector<ShardStatsSnapshot> ParallelEngineGroup::ShardStats() {
  if (driver_ != nullptr) {
    auto stats = driver_->Stats();
    SW_CHECK_OK(stats.status());
    return std::move(stats).value();
  }
  QuiesceAll();
  std::vector<ShardStatsSnapshot> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) out.push_back(shard->runtime.Stats());
  return out;
}

WindowSnapshot ParallelEngineGroup::ExportWindow() {
  QuiesceAll();
  if (driver_ == nullptr) {
    // Every shard retains the identical window and id sequence.
    return shards_[0]->runtime.engine().ExportWindow();
  }
  WindowSnapshot merged;
  merged.next_edge_id = driver_->admission().next_edge_id();
  merged.watermark = driver_->admission().watermark();
  for (auto& shard : shards_) {
    WindowSnapshot per = shard->runtime.engine().ExportWindow();
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
    if (driver_ == nullptr) {
      for (auto& shard : shards_) {
        SW_RETURN_IF_ERROR(
            shard->runtime.engine().RestoreWindowEdge(pe.edge, pe.id));
      }
      continue;
    }
    const int src_owner = partitioner_->OwnerShard(pe.edge.src, n);
    const int dst_owner = partitioner_->OwnerShard(pe.edge.dst, n);
    SW_RETURN_IF_ERROR(shards_[static_cast<size_t>(src_owner)]
                           ->runtime.engine()
                           .RestoreWindowEdge(pe.edge, pe.id));
    if (dst_owner != src_owner) {
      SW_RETURN_IF_ERROR(shards_[static_cast<size_t>(dst_owner)]
                             ->runtime.engine()
                             .RestoreWindowEdge(pe.edge, pe.id));
    }
  }
  for (auto& shard : shards_) {
    shard->runtime.engine().FinishWindowRestore(snapshot.next_edge_id,
                                                snapshot.watermark);
  }
  if (driver_ != nullptr) {
    // A post-recovery label clash on a retained vertex must be rejected
    // exactly as before the crash.
    driver_->Restore(snapshot.edges, snapshot.next_edge_id,
                     snapshot.watermark);
  }
  return OkStatus();
}

void ParallelEngineGroup::SetSuppressCompletions(bool suppress) {
  QuiesceAll();
  for (auto& shard : shards_) {
    shard->runtime.engine().set_suppress_completions(suppress);
  }
}

// --- ShardChannel ------------------------------------------------------------

void ParallelEngineGroup::RouteEdge(int shard, const StreamEdge& edge,
                                    EdgeId id, bool run_anchors) {
  ShardTask task;
  task.kind = ShardTask::Kind::kEdge;
  task.run_anchors = run_anchors;
  task.edge = edge;
  task.edge_id = id;
  EnqueueTasks(shards_[static_cast<size_t>(shard)].get(), {&task, 1},
               /*bounded=*/true);
}

Status ParallelEngineGroup::Settle() {
  // Workers dispatch whatever their tasks forward, so only the control
  // thread's own forwards (a registration's backfill) can still sit in an
  // outbox. Drain them all while quiesced, before any worker wakes up and
  // touches its outbox again.
  QuiesceAll();
  std::vector<std::pair<int, ExchangeItem>> forwarded;
  for (auto& shard : shards_) {
    for (auto& routed : shard->runtime.exchange().Drain()) {
      forwarded.push_back(std::move(routed));
    }
  }
  Dispatch(std::move(forwarded));
  WaitDrained();
  return OkStatus();
}

Status ParallelEngineGroup::CommitWatermark(Timestamp watermark) {
  for (auto& shard : shards_) {
    ShardTask task;
    task.kind = ShardTask::Kind::kWatermark;
    task.watermark = watermark;
    EnqueueTasks(shard.get(), {&task, 1}, /*bounded=*/false);
  }
  return OkStatus();
}

Status ParallelEngineGroup::RegisterOnShards(int query_id,
                                             const QueryGraph& query,
                                             DecompositionStrategy strategy,
                                             Timestamp window,
                                             MatchCallback callback) {
  QuiesceAll();
  SW_ASSIGN_OR_RETURN(const Decomposition planned,
                      shards_[0]->runtime.engine().PlanWithCurrentStats(
                          query, strategy));
  for (size_t s = 0; s < shards_.size(); ++s) {
    auto registered =
        shards_[s]->runtime.Register(query, planned, window, callback);
    // Validation is deterministic: a refusal happens on shard 0, before
    // any shard registered anything.
    if (s == 0) SW_RETURN_IF_ERROR(registered.status());
    SW_CHECK(registered.ok()) << registered.status().ToString();
    SW_CHECK_EQ(registered.value(), query_id)
        << "shard registration sequences diverged";
  }
  return OkStatus();
}

Status ParallelEngineGroup::EndBackfill() {
  QuiesceAll();
  for (auto& shard : shards_) shard->runtime.EndBackfill();
  return OkStatus();
}

Status ParallelEngineGroup::UnregisterOnShards(int query_id) {
  // Any shard may hold the query's partials and in-flight exchange items
  // reference it by id, so the whole group quiesces first.
  QuiesceAll();
  Status status = OkStatus();
  for (auto& shard : shards_) {
    const Status s = shard->runtime.Unregister(query_id);
    if (!s.ok()) status = s;
  }
  return status;
}

StatusOr<QueryRuntimeInfo> ParallelEngineGroup::ShardInfo(int shard,
                                                          int query_id) {
  Shard* s = shards_[static_cast<size_t>(shard)].get();
  auto lock = Quiesce(s);
  return s->runtime.Info(query_id);
}

StatusOr<ShardStatsSnapshot> ParallelEngineGroup::ShardStatsAt(int shard) {
  Shard* s = shards_[static_cast<size_t>(shard)].get();
  auto lock = Quiesce(s);
  return s->runtime.Stats();
}

}  // namespace streamworks
