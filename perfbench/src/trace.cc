#include "trace.h"

#include <chrono>
#include <fstream>
#include <functional>

#include "bench_math.h"

namespace perfbench {

using streamworks::CompleteMatch;
using streamworks::MatchCallback;
using streamworks::QueryGraph;

namespace {
/// Open spans of the calling thread, innermost last.
thread_local std::vector<int32_t> open_spans;
}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kNetFrame: return "net.frame";
    case Layer::kServiceFeed: return "service.feed";
    case Layer::kPersist: return "persist.feed";
    case Layer::kCore: return "core.feed";
    case Layer::kClusterFeed: return "cluster.feed";
    case Layer::kFlush: return "service.flush";
    case Layer::kEnqueue: return "service.enqueue";
    case Layer::kRegister: return "service.register";
    case Layer::kRecovery: return "persist.recovery";
  }
  return "?";
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int32_t Tracer::Begin(Layer layer, bool adopt_remote_root) {
  Span span;
  span.layer = layer;
  int32_t id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!open_spans.empty()) {
      span.parent = open_spans.back();
      span.batch = spans_[static_cast<size_t>(span.parent)].batch;
    } else {
      span.parent = adopt_remote_root ? remote_root_.load() : -1;
      span.batch = batch_.load();
    }
    id = static_cast<int32_t>(spans_.size());
    span.start_ns = NowNs();
    spans_.push_back(span);
  }
  open_spans.push_back(id);
  return id;
}

void Tracer::End(int32_t id, uint64_t items) {
  const int64_t end = NowNs();
  if (!open_spans.empty() && open_spans.back() == id) open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  Span& span = spans_[static_cast<size_t>(id)];
  span.end_ns = end;
  span.items = items;
}

void Tracer::NoteEnqueued(uint64_t key, int64_t ns) {
  std::lock_guard<std::mutex> lock(delivery_mu_);
  enqueued_[key] = ns;
}

void Tracer::NoteReceived(uint64_t key, int64_t ns) {
  std::lock_guard<std::mutex> lock(delivery_mu_);
  received_.emplace_back(key, ns);
}

std::vector<double> Tracer::DeliveryDelaysUs() const {
  std::lock_guard<std::mutex> lock(delivery_mu_);
  std::vector<double> out;
  out.reserve(received_.size());
  for (const auto& [key, at] : received_) {
    auto it = enqueued_.find(key);
    if (it != enqueued_.end()) {
      out.push_back(static_cast<double>(at - it->second) / 1e3);
    }
  }
  return out;
}

std::vector<Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<Span>(spans_.begin(), spans_.end());
}

std::array<LayerTotals, kNumLayers> Tracer::Totals(int64_t lo,
                                                   int64_t hi) const {
  const std::vector<Span> spans = Spans();
  std::vector<std::vector<Interval>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && s.end_ns > 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                           s.end_ns);
    }
  }
  std::array<LayerTotals, kNumLayers> totals{};
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end_ns == 0 || s.start_ns < lo || s.start_ns >= hi) continue;
    LayerTotals& t = totals[static_cast<size_t>(s.layer)];
    ++t.spans;
    t.items += s.items;
    t.total_ns += s.end_ns - s.start_ns;
    t.self_ns += SelfNs({s.start_ns, s.end_ns}, children[i]);
  }
  return totals;
}

std::vector<double> Tracer::DurationsUs(Layer layer) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.layer == layer && s.end_ns > 0) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  return out;
}

bool Tracer::WriteCsv(const std::string& path) const {
  std::ofstream out(path);
  out << "id,parent,layer,batch,start_ns,end_ns,items\n";
  const std::vector<Span> spans = Spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << i << ',' << s.parent << ',' << LayerName(s.layer) << ','
        << s.batch << ',' << s.start_ns << ',' << s.end_ns << ',' << s.items
        << '\n';
  }
  return static_cast<bool>(out);
}

uint64_t MatchKey(const std::string& query_name, std::string_view rendered) {
  const uint64_t h1 = std::hash<std::string>{}(query_name);
  const uint64_t h2 = std::hash<std::string_view>{}(rendered);
  return h1 ^ (h2 + 0x9e3779b97f4a7c15ull + (h1 << 6) + (h1 >> 2));
}

streamworks::StatusOr<int> TracedBackend::Register(
    const QueryGraph& query, streamworks::DecompositionStrategy strategy,
    streamworks::Timestamp window, MatchCallback callback) {
  if (wrap_callbacks_) {
    Tracer* tracer = tracer_;
    callback = [tracer, inner = std::move(callback),
                name = query.name()](const CompleteMatch& cm) {
      int64_t done_ns;
      {
        ScopedSpan span(tracer, Layer::kEnqueue, 1);
        inner(cm);
        done_ns = NowNs();
      }
      const std::string rendered =
          cm.rendered.empty() ? cm.match.ToExternalString(*cm.graph)
                              : cm.rendered;
      tracer->NoteEnqueued(MatchKey(name, rendered), done_ns);
    };
  }
  ScopedSpan span(tracer_, Layer::kRegister, 1);
  return inner_->Register(query, strategy, window, std::move(callback));
}

}  // namespace perfbench
