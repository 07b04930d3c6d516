// Spans recorded from outside the program, around calls into its public
// API. A span has a layer, a start and an end, the span that caused it
// and the id of the edge batch it belongs to; spans are kept in memory
// and written out when the run ends. Nothing here runs in an untraced
// run: the deployment is then wired exactly as a user wires it.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "streamworks/service/backend.h"

namespace perfbench {

enum class Layer : uint8_t {
  kNetFrame,     ///< Feeder: FEEDB frame sent until its terminator read.
  kServiceFeed,  ///< QueryService::FeedBatch as the in-process feeder calls it.
  kPersist,      ///< DurableBackend::FeedBatch (WAL append + inner apply).
  kCore,         ///< The engine backend's FeedBatch (graph + SJ-Tree).
  kClusterFeed,  ///< DistributedBackend::FeedBatch (enqueue to the pump).
  kFlush,        ///< QueryService::Flush (waiting for the backend to drain).
  kEnqueue,      ///< One wrapped MatchCallback (service enqueue).
  kRegister,     ///< Backend Register (plan + backfill) during churn.
  kRecovery,     ///< DurabilityManager::Start during set-up.
};
inline constexpr int kNumLayers = 9;
const char* LayerName(Layer layer);

struct Span {
  int32_t parent = -1;
  Layer layer = Layer::kNetFrame;
  uint64_t batch = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t items = 0;  ///< Edges in the batch, or 1 for a match.
};

struct LayerTotals {
  uint64_t spans = 0;
  uint64_t items = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};

int64_t NowNs();

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span. Its parent is the innermost open span on this thread;
  /// failing that, when `adopt_remote_root` is set, the root span another
  /// thread published with SetRemoteRoot (a server thread serving the
  /// feeder's frame). Returns the span id.
  int32_t Begin(Layer layer, bool adopt_remote_root = false);
  void End(int32_t id, uint64_t items);

  /// The batch id new root spans take, set by the feeder per batch.
  void SetBatch(uint64_t batch) { batch_.store(batch); }
  void SetRemoteRoot(int32_t id) { remote_root_.store(id); }

  /// Delivery bookkeeping: when a match entered its queue, and when the
  /// consumer (or the push watcher) saw it.
  void NoteEnqueued(uint64_t key, int64_t ns);
  void NoteReceived(uint64_t key, int64_t ns);
  /// Per matched key: received - enqueued, in microseconds.
  std::vector<double> DeliveryDelaysUs() const;

  std::vector<Span> Spans() const;
  /// Per-layer totals over spans that started in [lo, hi).
  std::array<LayerTotals, kNumLayers> Totals(int64_t lo, int64_t hi) const;
  /// Durations (us) of every span of `layer`.
  std::vector<double> DurationsUs(Layer layer) const;
  /// Writes every span as CSV. Returns false on an IO error.
  bool WriteCsv(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::deque<Span> spans_;
  std::atomic<uint64_t> batch_{0};
  std::atomic<int32_t> remote_root_{-1};

  mutable std::mutex delivery_mu_;
  std::unordered_map<uint64_t, int64_t> enqueued_;
  std::vector<std::pair<uint64_t, int64_t>> received_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, Layer layer, uint64_t items,
             bool adopt_remote_root = false)
      : tracer_(tracer), items_(items) {
    if (tracer_ != nullptr) id_ = tracer_->Begin(layer, adopt_remote_root);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_, items_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  uint64_t items_;
  int32_t id_ = -1;
};

/// Key identifying one delivered match across layers and processes: the
/// query's name plus the deployment-invariant rendering (external vertex
/// ids, global edge ids).
uint64_t MatchKey(const std::string& query_name, std::string_view rendered);

/// A QueryBackend decorator that records a span of `layer` around every
/// Feed/FeedBatch, a kRegister span around Register and, when
/// `wrap_callbacks` is set, a kEnqueue span around every MatchCallback the
/// service handed in.
class TracedBackend final : public streamworks::QueryBackend {
 public:
  TracedBackend(streamworks::QueryBackend* inner, Layer layer, Tracer* tracer,
                bool wrap_callbacks, bool adopt_remote_root)
      : inner_(inner),
        layer_(layer),
        tracer_(tracer),
        wrap_callbacks_(wrap_callbacks),
        adopt_remote_root_(adopt_remote_root) {}

  streamworks::StatusOr<int> Register(
      const streamworks::QueryGraph& query,
      streamworks::DecompositionStrategy strategy,
      streamworks::Timestamp window,
      streamworks::MatchCallback callback) override;
  streamworks::Status Unregister(int query_id) override {
    return inner_->Unregister(query_id);
  }
  streamworks::StatusOr<streamworks::QueryRuntimeInfo> Info(
      int query_id) override {
    return inner_->Info(query_id);
  }
  streamworks::Status Feed(const streamworks::StreamEdge& edge) override {
    ScopedSpan span(tracer_, layer_, 1, adopt_remote_root_);
    return inner_->Feed(edge);
  }
  streamworks::Status FeedBatch(const streamworks::EdgeBatch& batch,
                                size_t* rejected_out) override {
    ScopedSpan span(tracer_, layer_, batch.size(), adopt_remote_root_);
    return inner_->FeedBatch(batch, rejected_out);
  }
  void Flush() override { inner_->Flush(); }
  std::vector<streamworks::ShardLoadSnapshot> ShardLoads() override {
    return inner_->ShardLoads();
  }
  streamworks::StatusOr<streamworks::WindowSnapshot> ExportWindow() override {
    return inner_->ExportWindow();
  }
  streamworks::Status RestoreWindow(
      const streamworks::WindowSnapshot& snapshot) override {
    return inner_->RestoreWindow(snapshot);
  }
  void SetSuppressCompletions(bool suppress) override {
    inner_->SetSuppressCompletions(suppress);
  }

 private:
  streamworks::QueryBackend* inner_;
  Layer layer_;
  Tracer* tracer_;
  bool wrap_callbacks_;
  bool adopt_remote_root_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
