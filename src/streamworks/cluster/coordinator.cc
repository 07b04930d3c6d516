#include "streamworks/cluster/coordinator.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "streamworks/common/str_util.h"
#include "streamworks/sjtree/exchange.h"

namespace streamworks {

StatusOr<std::pair<std::string, int>> ParseHostPort(const std::string& spec) {
  const size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= spec.size()) {
    return Status::InvalidArgument(StrCat("expected host:port, got '", spec,
                                          "'"));
  }
  int port = 0;
  for (size_t i = colon + 1; i < spec.size(); ++i) {
    const char c = spec[i];
    if (c < '0' || c > '9') {
      return Status::InvalidArgument(StrCat("bad port in '", spec, "'"));
    }
    port = port * 10 + (c - '0');
    if (port > 65535) {
      return Status::InvalidArgument(StrCat("port out of range in '", spec,
                                            "'"));
    }
  }
  return std::make_pair(spec.substr(0, colon), port);
}

DistributedBackend::DistributedBackend(DistributedBackendOptions options,
                                       Interner* interner)
    : options_(std::move(options)),
      interner_(interner),
      partitioner_(options_.partitioner_seed),
      coord_graph_(&wire_interner_),
      driver_(this, &partitioner_, static_cast<int>(options_.workers.size()),
              options_.epoch_edges),
      epoch_ring_(options_.epoch_trace_capacity) {}

DistributedBackend::~DistributedBackend() { Stop(); }

Status DistributedBackend::Start() {
  if (options_.workers.empty()) {
    return Status::InvalidArgument("a cluster needs at least one worker");
  }
  const int n = static_cast<int>(options_.workers.size());
  workers_.resize(options_.workers.size());
  batches_.resize(options_.workers.size());
  for (int i = 0; i < n; ++i) {
    WorkerState& w = workers_[static_cast<size_t>(i)];
    SW_ASSIGN_OR_RETURN(auto host_port, ParseHostPort(options_.workers[i]));
    w.host = host_port.first;
    w.port = host_port.second;
    SW_ASSIGN_OR_RETURN(const uint64_t durable,
                        Connect(&w, options_.connect_deadline_ms));
    if (durable != 0) {
      return Status::FailedPrecondition(
          StrCat("worker ", i, " (", options_.workers[i], ") holds ", durable,
                 " frames of state from a previous cluster run; clear its "
                 "data dir (or point it elsewhere) to join a fresh cluster"));
    }
  }
  started_ = true;
  if (options_.registry != nullptr) {
    federation_token_ = options_.registry->AddCollector(
        [this](MetricSnapshotBuilder* out) { ContributeClusterMetrics(out); });
  }
  pump_ = std::thread([this] { PumpLoop(); });
  return OkStatus();
}

void DistributedBackend::Stop() {
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    if (stop_) return;
    stop_ = true;
  }
  pending_cv_.notify_all();
  space_cv_.notify_all();
  if (pump_.joinable()) pump_.join();
  if (federation_token_ >= 0) {
    options_.registry->RemoveCollector(federation_token_);
    federation_token_ = -1;
  }
  std::lock_guard<std::mutex> lock(cluster_mu_);
  for (WorkerState& w : workers_) {
    if (w.link.has_value()) w.link->Close();
  }
}

void DistributedBackend::SyncLabelNames() {
  std::lock_guard<std::mutex> lock(label_mu_);
  while (label_names_.size() < interner_->size()) {
    label_names_.push_back(
        interner_->Name(static_cast<LabelId>(label_names_.size())));
  }
}

std::string_view DistributedBackend::CachedLabelName(LabelId id) {
  // Deque elements are append-only and never move, so the view outlives
  // the lock — encoders may keep it across the whole frame build.
  std::lock_guard<std::mutex> lock(label_mu_);
  return label_names_[id];
}

Status DistributedBackend::SendStateFrame(WorkerState* w, std::string frame) {
  w->retained.push_back(std::move(frame));
  ++w->sent_state;
  // A recovery resends every retained frame the worker's log lacks, this
  // one included.
  if (w->link.has_value() && w->link->connected() &&
      w->link->SendFrame(w->retained.back()).ok()) {
    return OkStatus();
  }
  return RecoverLink(w);
}

StatusOr<uint64_t> DistributedBackend::Connect(WorkerState* w,
                                               int deadline_ms) {
  if (w->link.has_value()) w->link->Close();
  SW_ASSIGN_OR_RETURN(auto link,
                      PeerLink::ConnectTcpRetry(w->host, w->port, deadline_ms));
  w->link.emplace(std::move(link));
  CtrlHello hello;
  hello.num_shards = static_cast<int32_t>(workers_.size());
  hello.shard_index = static_cast<int32_t>(w - workers_.data());
  hello.partitioner_seed = options_.partitioner_seed;
  hello.exchange_items_received = w->exchange_received;
  hello.completions_received = w->completions_received;
  SW_RETURN_IF_ERROR(w->link->SendFrame(EncodeHelloFrame(hello)));
  // The worker replays before answering, then sends HelloAck first and
  // its regenerated-but-undelivered outputs right after — so the ack is
  // always the first frame on the link.
  SW_ASSIGN_OR_RETURN(const CtrlFrame ack, w->link->ReadFrame(
                                               &wire_interner_,
                                               options_.ack_timeout_ms));
  if (ack.type != CtrlType::kHelloAck) {
    return Status::Internal(StrCat("worker ", hello.shard_index,
                                   " answered Hello with frame type ",
                                   static_cast<int>(ack.type)));
  }
  return ack.hello_ack.applied_frames;
}

Status DistributedBackend::RecoverLink(WorkerState* w) {
  SW_ASSIGN_OR_RETURN(const uint64_t durable,
                      Connect(w, options_.reconnect_deadline_ms));
  if (durable < w->pruned_base || durable > w->sent_state) {
    return Status::Internal(
        StrCat("worker log has ", durable, " frames but coordinator retains [",
               w->pruned_base, ", ", w->sent_state,
               ") — state streams diverged"));
  }
  // Resend what the crash swallowed: frames [durable, sent_state).
  for (uint64_t seq = durable; seq < w->sent_state; ++seq) {
    SW_RETURN_IF_ERROR(
        w->link->SendFrame(w->retained[seq - w->pruned_base]));
  }
  return OkStatus();
}

Status DistributedBackend::HandleWorkerFrame(WorkerState* from,
                                             const CtrlFrame& frame) {
  switch (frame.type) {
    case CtrlType::kExchange: {
      from->exchange_received += frame.exchange.items.size();
      relays_total_ += frame.exchange.items.size();
      const uint64_t relay_start = PipelineMetrics::NowMicros();
      // Star relay: group by destination shard, forward as state frames
      // (a relayed item mutates the receiver, so it must survive a
      // receiver crash like any batch would).
      std::map<int32_t, CtrlExchange> by_dest;
      for (const CtrlExchangeItem& item : frame.exchange.items) {
        if (item.dest < 0 ||
            item.dest >= static_cast<int32_t>(workers_.size())) {
          return Status::Internal(
              StrCat("exchange item routed to shard ", item.dest, " of ",
                     workers_.size()));
        }
        by_dest[item.dest].items.push_back(item);
      }
      const LabelNameFn name = [this](LabelId id) -> std::string_view {
        return wire_interner_.Name(id);
      };
      for (const auto& [dest, exchange] : by_dest) {
        WorkerState* to = &workers_[static_cast<size_t>(dest)];
        for (std::string& chunk : EncodeExchangeFrames(exchange.items, name)) {
          SW_RETURN_IF_ERROR(SendStateFrame(to, std::move(chunk)));
        }
      }
      const uint64_t relay_us = PipelineMetrics::NowMicros() - relay_start;
      relay_forward_us_ += relay_us;
      if (options_.pipeline != nullptr) {
        options_.pipeline->Record(PipelineStage::kExchangeRelay, relay_us, -1,
                                  -1, frame.exchange.items.size());
      }
      return OkStatus();
    }
    case CtrlType::kCompletion: {
      ++from->completions_received;
      const auto it = queries_.find(frame.completion.query_id);
      if (it == queries_.end()) {
        // Unregistered while the completion was in flight; the contract
        // ("no callbacks after Unregister returns") says drop it.
        return OkStatus();
      }
      auto match_or = MatchExchange::Localize(&coord_graph_, it->second.query,
                                              frame.completion.match);
      SW_RETURN_IF_ERROR(match_or.status());
      if (suppress_.load(std::memory_order_relaxed)) return OkStatus();
      CompleteMatch cm;
      cm.query_id = frame.completion.query_id;
      cm.match = std::move(match_or).value();
      cm.completed_at = frame.completion.completed_at;
      cm.graph = &coord_graph_;
      it->second.callback(cm);
      return OkStatus();
    }
    default:
      // Stale acks from an abandoned await survive a reconnect race;
      // ignoring them is always safe (awaits match on round/type).
      return OkStatus();
  }
}

StatusOr<CtrlFrame> DistributedBackend::AwaitFrame(WorkerState* w,
                                                   CtrlType type,
                                                   int timeout_ms,
                                                   const std::string* resend) {
  while (true) {
    auto frame_or = w->link->ReadFrame(&wire_interner_, timeout_ms);
    if (!frame_or.ok()) {
      if (resend == nullptr) return frame_or.status();
      // Recovery (replay + resend) restores the worker past every state
      // frame; the lost request is simply asked again.
      SW_RETURN_IF_ERROR(RecoverLink(w));
      SW_RETURN_IF_ERROR(w->link->SendFrame(*resend));
      continue;
    }
    if (frame_or.value().type == type) return frame_or;
    SW_RETURN_IF_ERROR(HandleWorkerFrame(w, frame_or.value()));
  }
}

Status DistributedBackend::SendRequest(WorkerState* w,
                                       const std::string& request) {
  if (w->link.has_value() && w->link->connected() &&
      w->link->SendFrame(request).ok()) {
    return OkStatus();
  }
  SW_RETURN_IF_ERROR(RecoverLink(w));
  return w->link->SendFrame(request);
}

StatusOr<CtrlFrame> DistributedBackend::Request(WorkerState* w,
                                                const std::string& request,
                                                CtrlType reply) {
  SW_RETURN_IF_ERROR(SendRequest(w, request));
  return AwaitFrame(w, reply, options_.ack_timeout_ms, &request);
}

Status DistributedBackend::BroadcastStateFrame(const std::string& frame) {
  for (WorkerState& w : workers_) {
    SW_RETURN_IF_ERROR(SendStateFrame(&w, frame));
  }
  return OkStatus();
}

void DistributedBackend::RouteEdge(int shard, const StreamEdge& edge,
                                   EdgeId id, bool run_anchors) {
  CtrlShardEdge routed;
  routed.edge = edge;
  routed.global_id = id;
  routed.run_anchors = run_anchors;
  batches_[static_cast<size_t>(shard)].edges.push_back(routed);
}

Status DistributedBackend::Settle() {
  const LabelNameFn name = [this](LabelId id) -> std::string_view {
    return CachedLabelName(id);
  };
  for (size_t i = 0; i < workers_.size(); ++i) {
    if (batches_[i].edges.empty()) continue;
    std::string frame = EncodeBatchFrame(batches_[i], name);
    batches_[i].edges.clear();
    SW_RETURN_IF_ERROR(SendStateFrame(&workers_[i], std::move(frame)));
  }
  uint64_t before;
  bool first_round = true;
  do {
    before = relays_total_;
    const uint64_t forward_before = relay_forward_us_;
    const uint64_t round_start = PipelineMetrics::NowMicros();
    ++barrier_round_;
    CtrlBarrier barrier;
    barrier.round = barrier_round_;
    const std::string frame = EncodeBarrierFrame(barrier);
    for (WorkerState& w : workers_) {
      SW_RETURN_IF_ERROR(SendRequest(&w, frame));
    }
    for (WorkerState& w : workers_) {
      const uint64_t wait_start = PipelineMetrics::NowMicros();
      CtrlFrame ack;
      do {  // acks of an abandoned earlier round may still arrive
        SW_ASSIGN_OR_RETURN(ack, AwaitFrame(&w, CtrlType::kBarrierAck,
                                            options_.ack_timeout_ms, &frame));
      } while (ack.barrier_ack.round != barrier_round_);
      // The ack's durable-frame count lets us drop the retained prefix:
      // those frames survive in the worker's log, so a crash replays them
      // locally and we will never need to resend them.
      while (w.pruned_base < ack.barrier_ack.applied_frames &&
             !w.retained.empty()) {
        w.retained.pop_front();
        ++w.pruned_base;
      }
      if (options_.pipeline != nullptr) {
        options_.pipeline->Record(PipelineStage::kBarrierWait,
                                  PipelineMetrics::NowMicros() - wait_start);
      }
    }
    // Relays sent during the acks are state frames queued behind nothing:
    // if any moved, another round flushes their consequences.
    const uint64_t items_moved = relays_total_ - before;
    if (items_moved > 0) relay_items_per_round_.Record(items_moved);
    const uint64_t round_us = PipelineMetrics::NowMicros() - round_start;
    // Relay forwarding nests inside the round's ack waits; the difference
    // of the accumulator carves it out so apply/barrier time never
    // double-counts it.
    const uint64_t forward_us =
        std::min(relay_forward_us_ - forward_before, round_us);
    phases_.relay_us += forward_us;
    // Round 1's wait is dominated by workers applying the epoch's batches;
    // later rounds are exchange settle.
    (first_round ? phases_.apply_us : phases_.barrier_us) +=
        round_us - forward_us;
    if (items_moved > 0) {
      ++phases_.relay_rounds;
      phases_.relayed_items += items_moved;
    }
    first_round = false;
  } while (relays_total_ != before);
  return OkStatus();
}

Status DistributedBackend::CommitWatermark(Timestamp watermark) {
  const uint64_t commit_start = PipelineMetrics::NowMicros();
  CtrlCommit commit;
  commit.watermark = watermark;
  SW_RETURN_IF_ERROR(BroadcastStateFrame(EncodeCommitFrame(commit)));
  phases_.commit_us += PipelineMetrics::NowMicros() - commit_start;
  return OkStatus();
}

Status DistributedBackend::RegisterOnShards(int query_id,
                                            const QueryGraph& query,
                                            DecompositionStrategy strategy,
                                            Timestamp window,
                                            MatchCallback callback) {
  CtrlRegister reg;
  reg.expect_id = query_id;
  reg.strategy = static_cast<uint8_t>(strategy);
  reg.window = window;
  reg.name = query.name();
  reg.vertex_labels.reserve(static_cast<size_t>(query.num_vertices()));
  for (int v = 0; v < query.num_vertices(); ++v) {
    reg.vertex_labels.push_back(interner_->Name(query.vertex_label(v)));
  }
  reg.edges.reserve(query.edges().size());
  for (const QueryEdge& e : query.edges()) {
    CtrlQueryEdge edge;
    edge.src = static_cast<uint8_t>(e.src);
    edge.dst = static_cast<uint8_t>(e.dst);
    edge.label = interner_->Name(e.label);
    reg.edges.push_back(std::move(edge));
  }
  SW_RETURN_IF_ERROR(BroadcastStateFrame(EncodeRegisterFrame(reg)));
  // Await every ack: registration is a group decision, and backfill
  // exchange items interleave with the acks.
  std::string first_error;
  for (WorkerState& w : workers_) {
    SW_ASSIGN_OR_RETURN(const CtrlFrame ack,
                        AwaitFrame(&w, CtrlType::kRegisterAck,
                                   options_.ack_timeout_ms));
    if (!ack.register_ack.ok) {
      // Deterministic validation failure: every worker refused the same
      // way, no id was consumed anywhere.
      if (first_error.empty()) first_error = ack.register_ack.error;
      continue;
    }
    if (ack.register_ack.id != query_id) {
      return Status::Internal(StrCat("worker assigned query id ",
                                     ack.register_ack.id,
                                     ", coordinator expected ", query_id));
    }
  }
  if (!first_error.empty()) return Status::InvalidArgument(first_error);
  QueryState state;
  state.query = query;
  state.callback = std::move(callback);
  queries_.emplace(query_id, std::move(state));
  return OkStatus();
}

Status DistributedBackend::EndBackfill() {
  return BroadcastStateFrame(EncodeEndBackfillFrame());
}

Status DistributedBackend::UnregisterOnShards(int query_id) {
  CtrlUnregister unreg;
  unreg.query_id = query_id;
  SW_RETURN_IF_ERROR(BroadcastStateFrame(EncodeUnregisterFrame(unreg)));
  // Completions still in flight for it are dropped on arrival.
  queries_.erase(query_id);
  return OkStatus();
}

StatusOr<QueryRuntimeInfo> DistributedBackend::ShardInfo(int shard,
                                                         int query_id) {
  CtrlInfo info;
  info.query_id = query_id;
  SW_ASSIGN_OR_RETURN(CtrlFrame ack,
                      Request(&workers_[static_cast<size_t>(shard)],
                              EncodeInfoFrame(info), CtrlType::kInfoAck));
  if (!ack.info_ack.ok) {
    return Status::Internal(StrCat("worker ", shard, ": ", ack.info_ack.error));
  }
  QueryRuntimeInfo out = std::move(ack.info_ack);
  return out;
}

StatusOr<ShardStatsSnapshot> DistributedBackend::ShardStatsAt(int shard) {
  SW_ASSIGN_OR_RETURN(const CtrlFrame ack,
                      Request(&workers_[static_cast<size_t>(shard)],
                              EncodeStatsFrame(), CtrlType::kStatsAck));
  return ack.stats_ack;
}

StatusOr<size_t> DistributedBackend::RunEpoch() {
  std::vector<StreamEdge> epoch;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    const size_t take =
        std::min(pending_.size(), static_cast<size_t>(options_.epoch_edges));
    epoch.assign(pending_.begin(),
                 pending_.begin() + static_cast<ptrdiff_t>(take));
    pending_.erase(pending_.begin(),
                   pending_.begin() + static_cast<ptrdiff_t>(take));
  }
  if (epoch.empty()) return size_t{0};
  space_cv_.notify_all();

  const uint64_t start_us = PipelineMetrics::NowMicros();
  phases_ = EpochPhases{};
  for (const StreamEdge& edge : epoch) {
    SW_RETURN_IF_ERROR(driver_.Ingest(edge));
  }
  SW_RETURN_IF_ERROR(driver_.CloseEpoch());
  const uint64_t end_us = PipelineMetrics::NowMicros();

  EpochTraceEntry entry;
  entry.epoch = epoch_ring_.total_pushed() + 1;  // 1-based epoch id
  entry.edges = epoch.size();
  entry.relay_rounds = phases_.relay_rounds;
  entry.relayed_items = phases_.relayed_items;
  entry.apply_us = phases_.apply_us;
  entry.relay_us = phases_.relay_us;
  entry.barrier_us = phases_.barrier_us;
  entry.commit_us = phases_.commit_us;
  entry.total_us = end_us - start_us;
  // Batch: routing, encoding and shipping — whatever the timed phases
  // did not cover.
  const uint64_t timed = phases_.apply_us + phases_.relay_us +
                         phases_.barrier_us + phases_.commit_us;
  entry.batch_us = entry.total_us > timed ? entry.total_us - timed : 0;
  entry.at_us = end_us;
  epoch_ring_.Push(entry);
  phase_batch_us_.Record(entry.batch_us);
  phase_apply_us_.Record(phases_.apply_us);
  phase_relay_us_.Record(phases_.relay_us);
  phase_barrier_us_.Record(phases_.barrier_us);
  phase_commit_us_.Record(phases_.commit_us);
  return epoch.size();
}

Status DistributedBackend::DrainPending() {
  while (true) {
    SW_ASSIGN_OR_RETURN(const size_t taken, RunEpoch());
    if (taken == 0) return OkStatus();
  }
}

void DistributedBackend::PumpLoop() {
  while (true) {
    {
      std::unique_lock<std::mutex> lock(pending_mu_);
      pending_cv_.wait(lock, [this] { return stop_ || !pending_.empty(); });
      if (stop_) return;
    }
    std::lock_guard<std::mutex> lock(cluster_mu_);
    auto taken_or = RunEpoch();
    if (!taken_or.ok()) {
      // An epoch failure (a worker past its recovery deadline) poisons
      // ingest but not the control surface: report and keep trying — a
      // returning worker is replayed back to health by the next attempt.
      std::fprintf(stderr, "coordinator: epoch failed: %s\n",
                   taken_or.status().ToString().c_str());
    }
  }
}

StatusOr<int> DistributedBackend::Register(const QueryGraph& query,
                                           DecompositionStrategy strategy,
                                           Timestamp window,
                                           MatchCallback callback) {
  SyncLabelNames();
  std::lock_guard<std::mutex> lock(cluster_mu_);
  SW_RETURN_IF_ERROR(DrainPending());
  return driver_.Register(query, strategy, window, std::move(callback));
}

Status DistributedBackend::Unregister(int query_id) {
  std::lock_guard<std::mutex> lock(cluster_mu_);
  SW_RETURN_IF_ERROR(DrainPending());
  return driver_.Unregister(query_id);
}

StatusOr<QueryRuntimeInfo> DistributedBackend::Info(int query_id) {
  std::lock_guard<std::mutex> lock(cluster_mu_);
  SW_RETURN_IF_ERROR(DrainPending());
  return driver_.Info(query_id);
}

Status DistributedBackend::Feed(const StreamEdge& edge) {
  SyncLabelNames();
  std::unique_lock<std::mutex> lock(pending_mu_);
  space_cv_.wait(lock, [this] {
    return stop_ || pending_.size() < options_.max_pending_edges;
  });
  if (stop_) return Status::FailedPrecondition("backend is stopped");
  pending_.push_back(edge);
  lock.unlock();
  pending_cv_.notify_one();
  return OkStatus();
}

Status DistributedBackend::FeedBatch(const EdgeBatch& batch,
                                     size_t* rejected_out) {
  // Asynchronous ingest: admission rejections surface only in the
  // aggregate counter, per the backend contract.
  if (rejected_out != nullptr) *rejected_out = 0;
  SyncLabelNames();
  std::unique_lock<std::mutex> lock(pending_mu_);
  for (const StreamEdge& edge : batch) {
    space_cv_.wait(lock, [this] {
      return stop_ || pending_.size() < options_.max_pending_edges;
    });
    if (stop_) return Status::FailedPrecondition("backend is stopped");
    pending_.push_back(edge);
  }
  lock.unlock();
  pending_cv_.notify_one();
  return OkStatus();
}

void DistributedBackend::Flush() {
  std::lock_guard<std::mutex> lock(cluster_mu_);
  Status flushed = DrainPending();
  if (flushed.ok()) flushed = driver_.CloseEpoch();
  if (!flushed.ok()) {
    std::fprintf(stderr, "coordinator: flush failed: %s\n",
                 flushed.ToString().c_str());
  }
}

std::vector<ShardLoadSnapshot> DistributedBackend::ShardLoads() {
  std::lock_guard<std::mutex> lock(cluster_mu_);
  using Stats = StatusOr<std::vector<ShardStatsSnapshot>>;
  const Status drained = DrainPending();
  const Stats stats = drained.ok() ? driver_.Stats() : Stats(drained);
  if (!stats.ok()) {
    std::fprintf(stderr, "coordinator: shard loads failed: %s\n",
                 stats.status().ToString().c_str());
    return {};
  }
  return ToShardLoads(stats.value(), "distributed");
}

Status DistributedBackend::PullMetricsReport(WorkerState* w) {
  if (!w->link.has_value() || !w->link->connected()) {
    return Status::Unavailable("worker link is down");
  }
  const Status sent = w->link->SendFrame(EncodeMetricsRequestFrame());
  if (!sent.ok()) {
    w->link->Close();
    return sent;
  }
  auto report_or =
      AwaitFrame(w, CtrlType::kMetricsReport, options_.metrics_timeout_ms);
  if (!report_or.ok()) {
    // Never RecoverLink here: a scrape must not block on the 30s reconnect
    // budget. Close the link and keep the stale cache; the next state
    // frame, barrier or request recovers the worker.
    w->link->Close();
    return report_or.status();
  }
  w->report = std::move(report_or.value().metrics_report);
  w->has_report = true;
  w->report_at_us = PipelineMetrics::NowMicros();
  return OkStatus();
}

void DistributedBackend::RefreshReports(uint64_t now_us) {
  const uint64_t cache_us =
      static_cast<uint64_t>(options_.metrics_cache_ms) * 1000;
  for (WorkerState& w : workers_) {
    if (w.has_report && now_us - w.report_at_us < cache_us) continue;
    const Status pulled = PullMetricsReport(&w);
    if (!pulled.ok()) {
      std::fprintf(stderr, "coordinator: metrics pull from %s:%d failed: %s\n",
                   w.host.c_str(), w.port, pulled.ToString().c_str());
    }
  }
}

ClusterObsSnapshot DistributedBackend::BuildObsSnapshot(uint64_t now_us) {
  ClusterObsSnapshot snap;
  snap.epochs = epoch_ring_.total_pushed();
  snap.stale_threshold_us =
      static_cast<uint64_t>(options_.stale_report_threshold_ms) * 1000;
  snap.healthy = !workers_.empty();
  for (size_t i = 0; i < workers_.size(); ++i) {
    WorkerState& w = workers_[i];
    WorkerObsSnapshot row;
    row.shard = static_cast<int>(i);
    row.host = w.host;
    row.port = w.port;
    row.connected = w.link.has_value() && w.link->connected();
    row.has_report = w.has_report;
    row.report_age_us = w.has_report ? now_us - w.report_at_us : 0;
    row.sent_state = w.sent_state;
    row.retained_frames = w.retained.size();
    if (w.has_report) {
      row.wal_seq = w.report.wal_seq;
      row.replayed_frames = w.report.replayed_frames;
      row.exchange_items_sent = w.report.exchange_items_sent;
      row.completions_sent = w.report.completions_sent;
      for (const MetricSample& s : w.report.samples) {
        if (s.name != "streamworks_stage_duration_us" ||
            s.kind != MetricSample::Kind::kHistogram) {
          continue;
        }
        for (const auto& [key, value] : s.labels) {
          if (key != "stage") continue;
          WorkerStageSummary stage;
          stage.stage = value;
          stage.count = s.histogram.total_count();
          stage.sum_us = s.histogram.sum();
          stage.p50_us = s.histogram.Quantile(0.5);
          stage.p99_us = s.histogram.Quantile(0.99);
          row.stages.push_back(std::move(stage));
        }
      }
    }
    const bool stale =
        !row.has_report || row.report_age_us > snap.stale_threshold_us;
    if (!row.connected || stale) snap.healthy = false;
    snap.workers.push_back(std::move(row));
  }
  return snap;
}

ClusterObsSnapshot DistributedBackend::ObsSnapshot(bool refresh) {
  std::lock_guard<std::mutex> lock(cluster_mu_);
  if (refresh) RefreshReports(PipelineMetrics::NowMicros());
  return BuildObsSnapshot(PipelineMetrics::NowMicros());
}

void DistributedBackend::ContributeClusterMetrics(MetricSnapshotBuilder* out) {
  std::lock_guard<std::mutex> lock(cluster_mu_);
  RefreshReports(PipelineMetrics::NowMicros());
  out->EmitCounter("streamworks_epochs_total",
                   "Distributed ingest epochs committed by the coordinator.",
                   {}, epoch_ring_.total_pushed());
  static constexpr const char* kPhaseNames[] = {"batch", "apply", "relay",
                                                "barrier", "commit"};
  const AtomicHistogram* phase_hists[] = {&phase_batch_us_, &phase_apply_us_,
                                          &phase_relay_us_, &phase_barrier_us_,
                                          &phase_commit_us_};
  for (size_t i = 0; i < 5; ++i) {
    out->EmitHistogram(
        "streamworks_epoch_phase_us",
        "Coordinator time per epoch phase in microseconds.",
        {{"phase", kPhaseNames[i]}}, phase_hists[i]->Snapshot());
  }
  out->EmitHistogram("streamworks_epoch_relay_items",
                     "Exchange items moved per barrier relay round.", {},
                     relay_items_per_round_.Snapshot());
  // Federation: merge every worker's last report additively into the
  // scrape, so /metrics families are cluster-wide sums.
  for (const WorkerState& w : workers_) {
    if (!w.has_report) continue;
    for (const MetricSample& s : w.report.samples) out->EmitSample(s);
  }
}

}  // namespace streamworks
