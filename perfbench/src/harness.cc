#include "harness.h"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <set>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "bench_math.h"
#include "streamworks/common/logging.h"

namespace perfbench {

using streamworks::CompleteMatch;
using streamworks::Status;
using streamworks::StatusOr;
using streamworks::StreamEdge;
using streamworks::StreamWorksEngine;

// --- Plan --------------------------------------------------------------------

Plan MakePlan(const Options& opt, const Workload& w) {
  Plan plan;
  const double unit =
      opt.seconds / static_cast<double>(opt.ladder.size() + 1);
  const size_t chunk =
      w.peak_edges / (Plan::kRounds * Plan::kChunksPerRound + 1);
  size_t at = 0;
  auto add = [&](Plan::Phase phase) {
    phase.begin = at;
    at += phase.edges;
    plan.phases.push_back(phase);
  };
  add({.peak = true, .warmup = true, .edges = chunk});
  for (int round = 0; round < Plan::kRounds; ++round) {
    for (int c = 0; c < Plan::kChunksPerRound; ++c) {
      add({.peak = true, .edges = chunk});
    }
    for (size_t r = 0; r < opt.ladder.size(); ++r) {
      const double units = opt.ladder[r] == opt.nominal_eps ? 2 : 1;
      Plan::Phase phase;
      phase.rung = static_cast<int>(r);
      phase.seconds = units * unit / Plan::kRounds;
      phase.edges =
          static_cast<size_t>(std::llround(opt.ladder[r] * phase.seconds));
      add(phase);
    }
  }
  plan.total = at;
  return plan;
}

// --- Workload ----------------------------------------------------------------

void Workload::AddQuery(const std::string& query_name, const std::string& dsl,
                        streamworks::Timestamp window_ts,
                        streamworks::DecompositionStrategy strategy) {
  auto parsed = streamworks::ParseQueryText(
      "query " + query_name + "\n" + dsl, &interner);
  SW_CHECK(parsed.ok()) << parsed.status().ToString();
  QuerySpec spec;
  spec.name = query_name;
  spec.dsl = dsl;
  spec.graph = parsed->graph;
  spec.window = window_ts;
  spec.strategy = strategy;
  queries.push_back(std::move(spec));
}

void Workload::SetStream(const std::vector<StreamEdge>& stream,
                         streamworks::Timestamp load_ticks) {
  auto split = stream.begin();
  while (split != stream.end() && split->ts < load_ticks) ++split;
  load.assign(stream.begin(), split);
  timed.assign(split, stream.end());
}

void Workload::AddMotif(const std::string& kind, int query,
                        const std::vector<StreamEdge>& edges) {
  Motif motif;
  motif.kind = kind;
  motif.query = query;
  // Injected edges carry their injection timestamp, so search the stream
  // from the first edge of that tick.
  auto find = [&](const std::vector<StreamEdge>& stream, const StreamEdge& e,
                  uint64_t base) -> std::optional<uint64_t> {
    auto it = std::lower_bound(
        stream.begin(), stream.end(), e.ts,
        [](const StreamEdge& a, streamworks::Timestamp ts) {
          return a.ts < ts;
        });
    for (; it != stream.end() && it->ts == e.ts; ++it) {
      if (*it == e) return base + static_cast<uint64_t>(it - stream.begin());
    }
    return std::nullopt;
  };
  for (const StreamEdge& e : edges) {
    auto id = find(load, e, 0);
    if (!id) id = find(timed, e, first_timed_id());
    SW_CHECK(id.has_value()) << "motif edge missing from the stream";
    motif.edge_ids.push_back(*id);
  }
  motifs.push_back(std::move(motif));
}

// --- Deliveries ----------------------------------------------------------------

void DeliveryLog::Add(uint64_t key, uint64_t newest_id, int64_t recv_ns) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    deliveries_.push_back({key, newest_id, recv_ns});
  }
  cv_.notify_all();
}

bool DeliveryLog::WaitForCount(size_t n, int timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  return cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                      [&] { return deliveries_.size() >= n; });
}

std::vector<Delivery> DeliveryLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return deliveries_;
}

uint64_t NewestIdFromRendered(std::string_view rendered) {
  uint64_t newest = 0;
  for (size_t pos = rendered.find('#'); pos != std::string_view::npos;
       pos = rendered.find('#', pos + 1)) {
    uint64_t id = 0;
    size_t i = pos + 1;
    while (i < rendered.size() && rendered[i] >= '0' && rendered[i] <= '9') {
      id = id * 10 + static_cast<uint64_t>(rendered[i] - '0');
      ++i;
    }
    newest = std::max(newest, id);
  }
  return newest;
}

// --- Reference -----------------------------------------------------------------

namespace {

/// The expected output: every match a single in-process engine reports
/// for the same stream, queries and churn, computed in forked children so
/// its memory stays out of the measured process's peak RSS.
struct Reference {
  std::vector<Delivery> matches;  ///< recv_ns unused; sorted by newest_id.
  /// Per motif: keys of reference matches made only of the motif's edges.
  std::vector<std::vector<uint64_t>> motif_keys;

  size_t CountBefore(uint64_t id) const {
    return static_cast<size_t>(
        std::lower_bound(matches.begin(), matches.end(), id,
                         [](const Delivery& d, uint64_t v) {
                           return d.newest_id < v;
                         }) -
        matches.begin());
  }
};

bool WriteAll(int fd, const void* data, size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    p += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

bool ReadAll(int fd, void* data, size_t n) {
  char* p = static_cast<char*>(data);
  while (n > 0) {
    const ssize_t r = ::read(fd, p, n);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    p += r;
    n -= static_cast<size_t>(r);
  }
  return true;
}

/// The single-engine replay of queries q with q % parts == part, run in a
/// child. Every query is planned with the statistics-driven left-deep
/// strategy whatever plan the system under test uses: match sets do not
/// depend on the plan, so a plan bug shows as a mismatch. Queries are
/// independent and edge ids do not depend on which queries are
/// registered, so the parts can be replayed in parallel.
Reference Replay(const Workload& w, size_t part, size_t parts) {
  streamworks::Interner interner = w.interner;
  StreamWorksEngine engine(&interner);
  Reference ref;
  ref.motif_keys.resize(w.motifs.size());
  std::unordered_map<uint64_t, size_t> motif_of_edge;
  for (size_t m = 0; m < w.motifs.size(); ++m) {
    for (uint64_t id : w.motifs[m].edge_ids) motif_of_edge[id] = m;
  }
  const uint64_t first_timed = w.first_timed_id();
  auto callback_for = [&](int q) {
    return [&, q](const CompleteMatch& cm) {
      const uint64_t newest = cm.match.MaxDataEdgeId();
      if (newest < first_timed) return;
      const QuerySpec& spec = w.queries[static_cast<size_t>(q)];
      const uint64_t key =
          MatchKey(spec.name, cm.match.ToExternalString(*cm.graph));
      ref.matches.push_back({key, newest, 0});
      auto it = motif_of_edge.find(newest);
      if (it == motif_of_edge.end()) return;
      const Motif& motif = w.motifs[it->second];
      if (motif.query != q) return;
      for (int qe = 0; qe < spec.graph.num_edges(); ++qe) {
        const uint64_t id = cm.match.edge(qe);
        if (std::find(motif.edge_ids.begin(), motif.edge_ids.end(), id) ==
            motif.edge_ids.end()) {
          return;
        }
      }
      ref.motif_keys[it->second].push_back(key);
    };
  };
  std::vector<int> engine_id(w.queries.size());
  auto register_query = [&](int q) {
    const QuerySpec& spec = w.queries[static_cast<size_t>(q)];
    auto id = engine.RegisterQuery(
        spec.graph, streamworks::DecompositionStrategy::kSelectivityLeftDeep,
        spec.window, callback_for(q));
    SW_CHECK(id.ok()) << id.status().ToString();
    engine_id[static_cast<size_t>(q)] = *id;
  };
  for (size_t q = part; q < w.queries.size(); q += parts) {
    register_query(static_cast<int>(q));
  }
  for (const StreamEdge& e : w.load) {
    SW_CHECK(engine.ProcessEdge(e).ok());
  }
  size_t churn = 0;
  for (size_t i = 0; i < w.timed.size(); ++i) {
    while (churn < w.churn_at.size() && w.churn_at[churn] == i) {
      const int q = w.churn_query[churn];
      if (static_cast<size_t>(q) % parts != part) {
        ++churn;
        continue;
      }
      SW_CHECK(engine.UnregisterQuery(engine_id[static_cast<size_t>(q)]).ok());
      register_query(q);
      ++churn;
    }
    SW_CHECK(engine.ProcessEdge(w.timed[i]).ok());
  }
  return ref;
}

StatusOr<Reference> ComputeReference(const Workload& workload) {
  // Two children: the replay's graph is as large as the deployment's, so
  // more would multiply the run's memory for little gain.
  const size_t parts = std::min<size_t>(workload.queries.size(), 2);
  std::vector<std::pair<pid_t, int>> children;  // pid, read end
  bool ok = true;
  std::cout.flush();
  for (size_t part = 0; part < parts && ok; ++part) {
    int fds[2];
    if (::pipe(fds) != 0) {
      ok = false;
      break;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      ok = false;
      break;
    }
    if (pid == 0) {
      ::close(fds[0]);
      const Reference ref = Replay(workload, part, parts);
      const uint64_t n = ref.matches.size();
      bool ok = WriteAll(fds[1], &n, sizeof(n)) &&
                WriteAll(fds[1], ref.matches.data(), n * sizeof(Delivery));
      for (const auto& keys : ref.motif_keys) {
        const uint64_t k = keys.size();
        ok = ok && WriteAll(fds[1], &k, sizeof(k)) &&
             WriteAll(fds[1], keys.data(), k * sizeof(uint64_t));
      }
      ::close(fds[1]);
      ::_exit(ok ? 0 : 1);
    }
    ::close(fds[1]);
    children.emplace_back(pid, fds[0]);
  }
  Reference ref;
  ref.motif_keys.resize(workload.motifs.size());
  for (const auto& [pid, fd] : children) {
    uint64_t n = 0;
    ok = ok && ReadAll(fd, &n, sizeof(n));
    if (ok) {
      const size_t base = ref.matches.size();
      ref.matches.resize(base + n);
      ok = ReadAll(fd, ref.matches.data() + base, n * sizeof(Delivery));
    }
    for (auto& keys : ref.motif_keys) {
      uint64_t k = 0;
      ok = ok && ReadAll(fd, &k, sizeof(k));
      if (!ok) break;
      const size_t base = keys.size();
      keys.resize(base + k);
      ok = ReadAll(fd, keys.data() + base, k * sizeof(uint64_t));
    }
    ::close(fd);
    int wstatus = 0;
    while (::waitpid(pid, &wstatus, 0) < 0 && errno == EINTR) {
    }
    ok = ok && WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0;
  }
  if (!ok) return Status::Internal("reference replay failed");
  std::stable_sort(ref.matches.begin(), ref.matches.end(),
                   [](const Delivery& a, const Delivery& b) {
                     return a.newest_id < b.newest_id;
                   });
  return ref;
}

int64_t ReadVmHwmKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoll(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

// --- Driver --------------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/// The per-layer metrics every traced run reports, with their units. A
/// layer a workload bypasses reports 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerNames() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"net.frame_rtt_us.p50", "us"},
      {"net.frame_rtt_us.p99", "us"},
      {"net.push_delay_us.p50", "us"},
      {"net.push_delay_us.p99", "us"},
      {"stream.decode_ns_per_edge", "ns/edge"},
      {"service.admit_ns_per_edge", "ns/edge"},
      {"service.enqueue_ns_per_match", "ns/match"},
      {"service.queue_wait_us.p99", "us"},
      {"service.submit_ms.max", "ms"},
      {"service.dropped_matches", "count"},
      {"persist.wal_ns_per_edge", "ns/edge"},
      {"persist.recovery_s", "s"},
      {"persist.wal_bytes_per_edge", "bytes/edge"},
      {"core.engine_ns_per_edge", "ns/edge"},
      {"graph.insert_ns_per_edge", "ns/edge"},
      {"graph.vertices_retained", "count"},
      {"sjtree.join_us.p50", "us"},
      {"sjtree.join_us.p99", "us"},
      {"sjtree.partial_matches_peak", "count"},
      {"sjtree.join_success_ratio", "ratio"},
      {"match.leaf_yield", "ratio"},
      {"cluster.feed_wait_us.p99", "us"},
      {"cluster.barrier_wait_us.p50", "us"},
      {"cluster.barrier_wait_us.p99", "us"},
      {"cluster.relay_us_per_epoch", "us/epoch"},
      {"cluster.edges_per_epoch", "edges/epoch"},
      {"cluster.exchange_items_per_edge", "items/edge"},
      {"match_latency_p50_ms", "ms"},
      {"match_latency_p99_ms", "ms"},
      {"gen.lag_ms.p99", "ms"},
      {"failed_ops_frac", "ratio"},
      {"trace.uncovered_share", "ratio"},
  };
  return names;
}

/// A tail percentile for a per-layer metric, by the ladder's rule: the
/// percentile when the sample supports it, else the highest supported
/// one (flagged on stderr), else the maximum.
double Tail(const std::vector<double>& samples, double p, const char* what) {
  if (samples.empty()) return 0;
  if (samples.size() < MinSamplesFor(p)) {
    std::cerr << "note: " << what << ": " << samples.size()
              << " samples cannot support p" << p * 100
              << "; reporting the highest supported percentile\n";
  }
  if (auto v = TailPercentile(samples, p)) return *v;
  return *std::max_element(samples.begin(), samples.end());
}

std::string Fmt(double v) {
  std::ostringstream out;
  out << std::setprecision(12) << v;
  return out.str();
}

/// The end-to-end latency percentiles are medians over this many
/// consecutive windows of the nominal rung's samples, one per piece when
/// the pieces are large enough (see WindowedPercentile).
constexpr size_t kLatencyWindows = Plan::kRounds;

/// What one open-loop piece of a rung measured.
struct PieceResult {
  std::vector<std::pair<int64_t, double>> latencies;  ///< (due ns, ms)
  std::vector<double> lag_ms;
  bool backlog_grew = false;
  size_t missing = 0;
  size_t edges = 0;
  double seconds = 0;
};

/// One rung, all its pieces together.
struct RungReport {
  double offered_eps = 0;
  double achieved_eps = 0;
  std::vector<PieceOutcome> pieces;
  bool passes = false;
  size_t samples = 0;
  std::optional<double> p50_ms;
  std::optional<double> p99_ms;
  double gen_lag_p99_ms = 0;
  size_t missing = 0;
};

RungReport Summarize(double rate, const std::vector<PieceResult>& pieces,
                     double limit_ms) {
  RungReport rep;
  rep.offered_eps = rate;
  std::vector<std::pair<int64_t, double>> timed_lat;
  std::vector<double> lags;
  size_t edges = 0;
  double seconds = 0;
  for (const PieceResult& p : pieces) {
    timed_lat.insert(timed_lat.end(), p.latencies.begin(), p.latencies.end());
    lags.insert(lags.end(), p.lag_ms.begin(), p.lag_ms.end());
    rep.missing += p.missing;
    edges += p.edges;
    seconds += p.seconds;
    PieceOutcome outcome;
    outcome.offered_eps = rate;
    outcome.achieved_eps = static_cast<double>(p.edges) / p.seconds;
    std::vector<double> ms;
    for (const auto& [due, l] : p.latencies) ms.push_back(l);
    outcome.tail_ms = TailPercentile(ms, 0.99);
    outcome.backlog_grew = p.backlog_grew;
    outcome.failed_ops = p.missing > 0;
    rep.pieces.push_back(outcome);
  }
  rep.passes = RungPasses(rep.pieces, limit_ms);
  std::sort(timed_lat.begin(), timed_lat.end());
  std::vector<double> lat_ms;
  for (const auto& [due, ms] : timed_lat) lat_ms.push_back(ms);
  rep.samples = lat_ms.size();
  rep.achieved_eps = static_cast<double>(edges) / seconds;
  rep.p99_ms = WindowedPercentile(lat_ms, 0.99, kLatencyWindows);
  rep.p50_ms = WindowedPercentile(lat_ms, 0.50, kLatencyWindows);
  if (!rep.p50_ms && !lat_ms.empty()) rep.p50_ms = Median(lat_ms);
  if (!rep.p99_ms) rep.p99_ms = TailPercentile(lat_ms, 0.99);
  rep.gen_lag_p99_ms = Tail(lags, 0.99, "gen.lag_ms");
  return rep;
}

/// Why each piece of a rung failed, for the report: "ok", or the failed
/// checks joined by '+'.
std::string PieceVerdicts(const RungReport& rep, double limit_ms) {
  std::string out;
  for (const PieceOutcome& p : rep.pieces) {
    std::string why;
    auto add = [&](const char* what) {
      if (!why.empty()) why += '+';
      why += what;
    };
    if (!p.tail_ms || *p.tail_ms >= limit_ms) add("tail");
    if (p.backlog_grew) add("grew");
    if (p.achieved_eps < kMinAchievedShare * p.offered_eps) add("behind");
    if (p.failed_ops) add("lost");
    if (!out.empty()) out += ' ';
    out += why.empty() ? "ok" : why;
  }
  return out;
}

class Driver {
 public:
  Driver(const Options& opt, Workload* w, System* sys, Tracer* tracer,
         const Reference* ref)
      : opt_(opt), w_(*w), sys_(sys), tracer_(tracer), ref_(*ref),
        log_(sys->deliveries), due_(w->timed.size(), 0) {}

  /// Sends timed edges [b, e), running any churn scheduled inside.
  void SendWithChurn(size_t b, size_t e) {
    while (b < e) {
      while (churn_next_ < w_.churn_at.size() && w_.churn_at[churn_next_] <= b) {
        if (w_.churn_at[churn_next_] == b) {
          const int64_t t0 = NowNs();
          ++sys_->submits;
          if (!sys_->Churn(w_.churn_query[churn_next_]).ok()) {
            ++sys_->refused_ops;
          }
          churn_ms_.push_back(static_cast<double>(NowNs() - t0) / 1e6);
        }
        ++churn_next_;
      }
      size_t stop = e;
      if (churn_next_ < w_.churn_at.size() && w_.churn_at[churn_next_] < e) {
        stop = w_.churn_at[churn_next_];
      }
      if (tracer_ != nullptr) tracer_->SetBatch(b);
      if (!sys_->Send(b, stop).ok()) sys_->refused_ops += stop - b;
      b = stop;
    }
  }

  /// Waits (bounded) until every match whose newest edge precedes timed
  /// edge `end` was received; returns how many that is.
  size_t WaitDelivered(size_t end) {
    const size_t want = ref_.CountBefore(w_.first_timed_id() + end);
    log_.WaitForCount(want, 10000);
    return want;
  }

  /// One saturation chunk: sent back to back with one batch in flight and
  /// timed until its last match was received. Returns its seconds.
  double PeakChunk(const Plan::Phase& phase) {
    const size_t b = phase.begin, e = phase.begin + phase.edges;
    const int64_t t0 = NowNs();
    for (size_t i = b; i < e; i += w_.peak_batch) {
      const size_t stop = std::min(e, i + w_.peak_batch);
      const int64_t now = NowNs();
      for (size_t j = i; j < stop; ++j) due_[j] = now;
      SendWithChurn(i, stop);
    }
    sys_->Quiesce();
    WaitDelivered(e);
    const int64_t t1 = NowNs();
    sys_->Processed();
    if (!phase.warmup) chunk_intervals_.emplace_back(t0, t1);
    next_ = std::max(next_, e);
    return static_cast<double>(t1 - t0) / 1e9;
  }

  /// One open-loop piece of a rung: edge i is due at t0 + i / rate, and
  /// every send carries the edges due by then, at most the workload's
  /// peak batch: a sender that falls behind then sends as the saturation
  /// phase does, and the backlog is sampled after every such send.
  PieceResult Piece(const Plan::Phase& phase, double rate) {
    PieceResult res;
    const size_t b = phase.begin;
    const size_t n = phase.edges;
    const size_t max_batch = w_.peak_batch;
    const int64_t t0 = NowNs() + 2'000'000;
    for (size_t i = 0; i < n; ++i) due_[b + i] = DueNs(t0, rate, i);
    const uint64_t processed0 = sys_->Processed();
    std::vector<BacklogSample> backlog;
    size_t sent = 0;
    while (sent < n) {
      const int64_t now = NowNs();
      const size_t due = DueCount(t0, rate, now, n);
      if (due > sent) {
        const size_t e = std::min(due, sent + max_batch);
        res.lag_ms.push_back(static_cast<double>(now - due_[b + sent]) / 1e6);
        SendWithChurn(b + sent, b + e);
        sent = e;
        // Backlog is sampled only while the schedule still runs: once
        // every edge is due, a system behind schedule shows a shrinking
        // backlog as it catches up.
        const int64_t after = NowNs();
        if (DueCount(t0, rate, after, n) < n) {
          const double processed =
              static_cast<double>(sys_->Processed() - processed0);
          backlog.push_back(
              {static_cast<double>(after - t0) / 1e9,
               static_cast<double>(DueCount(t0, rate, after, n)) - processed});
        }
      } else {
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(due_[b + sent])));
      }
    }
    const int64_t t_end = NowNs();
    sys_->Quiesce();
    sys_->Processed();
    const size_t want_before = ref_.CountBefore(w_.first_timed_id() + b);
    const size_t want = WaitDelivered(b + n);
    next_ = std::max(next_, b + n);
    for (const Delivery& d : log_.Snapshot()) {
      if (d.newest_id < w_.first_timed_id() + b ||
          d.newest_id >= w_.first_timed_id() + b + n) {
        continue;
      }
      const int64_t due = due_[d.newest_id - w_.first_timed_id()];
      res.latencies.emplace_back(due, LatencyMs(due, d.recv_ns));
    }
    const size_t got = res.latencies.size();
    res.missing = want - want_before > got ? want - want_before - got : 0;
    res.backlog_grew = BacklogGrows(backlog, rate);
    res.edges = n;
    res.seconds = static_cast<double>(t_end - t0) / 1e9;
    return res;
  }

  size_t next() const { return next_; }
  /// Wall-clock intervals of the counted saturation chunks.
  const std::vector<Interval>& chunk_intervals() const {
    return chunk_intervals_;
  }
  const std::vector<double>& churn_ms() const { return churn_ms_; }

 private:
  const Options& opt_;
  Workload& w_;
  System* sys_;
  Tracer* tracer_;
  const Reference& ref_;
  DeliveryLog& log_;
  std::vector<int64_t> due_;
  size_t next_ = 0;
  size_t churn_next_ = 0;
  std::vector<double> churn_ms_;
  std::vector<Interval> chunk_intervals_;
};

/// Share of timed edges that can anchor some query (their edge and
/// endpoint labels match a query edge) and share that introduce a vertex
/// not seen before in the stream.
std::pair<double, double> StreamProperties(const Workload& w, size_t n) {
  std::set<std::tuple<uint32_t, uint32_t, uint32_t>> anchors;
  for (const QuerySpec& q : w.queries) {
    for (const auto& qe : q.graph.edges()) {
      anchors.insert({q.graph.vertex_label(qe.src), qe.label,
                      q.graph.vertex_label(qe.dst)});
    }
  }
  std::unordered_set<uint64_t> seen;
  for (const StreamEdge& e : w.load) {
    seen.insert(e.src);
    seen.insert(e.dst);
  }
  size_t anchoring = 0, fresh = 0;
  for (size_t i = 0; i < n; ++i) {
    const StreamEdge& e = w.timed[i];
    if (anchors.count({e.src_label, e.edge_label, e.dst_label})) ++anchoring;
    const bool a = seen.insert(e.src).second;
    const bool b = seen.insert(e.dst).second;
    if (a || b) ++fresh;
  }
  const double d = n == 0 ? 1 : static_cast<double>(n);
  return {static_cast<double>(anchoring) / d, static_cast<double>(fresh) / d};
}

}  // namespace

int RunBenchmark(const Options& opt, Workload* w, System* sys,
                 Tracer* tracer) {
  const int64_t ref_t0 = NowNs();
  auto ref_or = ComputeReference(*w);
  if (!ref_or.ok()) {
    std::cerr << "error: " << ref_or.status().ToString() << "\n";
    return 2;
  }
  const Reference& ref = *ref_or;
  std::cout << "workload " << w->name << " seed " << opt.seed
            << ": set-up load " << w->load.size() << " edges, timed stream "
            << w->timed.size()
            << " edges, " << w->queries.size() << " queries, "
            << w->motifs.size() << " planted motifs, " << ref.matches.size()
            << " expected matches (reference replay "
            << Fmt(static_cast<double>(NowNs() - ref_t0) / 1e9) << " s)\n";

  if (const Status status = sys->Prepare(); !status.ok()) {
    std::cerr << "error: preparation failed: " << status.ToString() << "\n";
    return 2;
  }
  // Set-up, repeated; the last deployment stays up for the run.
  std::vector<double> setup_s;
  for (int k = 0; k < w->setup_repeats; ++k) {
    const int64_t t0 = NowNs();
    const Status status = sys->Setup();
    const int64_t t1 = NowNs();
    if (!status.ok()) {
      std::cerr << "error: set-up failed: " << status.ToString() << "\n";
      sys->Teardown();
      return 2;
    }
    setup_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    if (k + 1 < w->setup_repeats) sys->Teardown();
  }
  const int64_t run_start_ns = NowNs();

  Driver driver(opt, w, sys, tracer, &ref);

  const Plan plan = MakePlan(opt, *w);
  std::vector<std::pair<double, double>> chunk_work;  // edges, seconds
  std::vector<std::vector<PieceResult>> pieces(opt.ladder.size());
  for (const Plan::Phase& phase : plan.phases) {
    if (phase.peak) {
      const double seconds = driver.PeakChunk(phase);
      const double edges = static_cast<double>(phase.edges);
      std::cout << "peak chunk: " << Fmt(edges / seconds) << " e/s"
                << (phase.warmup ? " (warm-up)" : "") << "\n";
      if (!phase.warmup) chunk_work.emplace_back(edges, seconds);
    } else {
      const size_t r = static_cast<size_t>(phase.rung);
      pieces[r].push_back(driver.Piece(phase, opt.ladder[r]));
    }
  }
  // Throughput over the counted chunks together: edges over time. The
  // chunks sit at fixed stream positions, so the position-dependent costs
  // every run carries (the graph grows through the run; a table resize
  // lands in the same chunk) weigh the same in every run.
  double chunk_edges = 0, chunk_seconds = 0;
  for (const auto& [edges, seconds] : chunk_work) {
    chunk_edges += edges;
    chunk_seconds += seconds;
  }
  const double peak_eps = chunk_edges / chunk_seconds;
  std::vector<RungReport> rungs;
  for (size_t r = 0; r < opt.ladder.size(); ++r) {
    const RungReport rep =
        Summarize(opt.ladder[r], pieces[r], opt.latency_limit_ms);
    std::cout << "rung " << Fmt(rep.offered_eps) << " e/s: achieved "
              << Fmt(rep.achieved_eps) << " e/s, " << rep.samples
              << " matches, p50 "
              << (rep.p50_ms ? Fmt(*rep.p50_ms) : std::string("n/a"))
              << " ms, p99 "
              << (rep.p99_ms ? Fmt(*rep.p99_ms) : std::string("n/a"))
              << " ms, pieces [" << PieceVerdicts(rep, opt.latency_limit_ms)
              << "], missing " << rep.missing << ", gen lag p99 "
              << Fmt(rep.gen_lag_p99_ms) << " ms"
              << (rep.passes ? "" : "  [FAILS]") << "\n";
    rungs.push_back(rep);
  }
  const RungReport nominal = *std::find_if(
      rungs.begin(), rungs.end(), [&](const RungReport& r) {
        return r.offered_eps == opt.nominal_eps;
      });
  if (!driver.churn_ms().empty()) {
    const auto& c = driver.churn_ms();
    std::cout << "churn: " << c.size() << " detach+resubmit, median "
              << Fmt(Median(c)) << " ms, max "
              << Fmt(*std::max_element(c.begin(), c.end())) << " ms\n";
  }
  const size_t sent = driver.next();
  sys->Quiesce();
  driver.WaitDelivered(sent);

  const double rss_mb = static_cast<double>(ReadVmHwmKb()) / 1024.0;
  std::map<std::string, double> layer;
  if (tracer != nullptr) sys->LayerMetrics(&layer);
  const uint64_t dropped = sys->DroppedMatches();
  sys->Teardown();

  // Correctness: delivered multiset against the reference prefix.
  const uint64_t end_id = w->first_timed_id() + sent;
  std::vector<uint64_t> expected, delivered;
  for (const Delivery& d : ref.matches) {
    if (d.newest_id < end_id) expected.push_back(d.key);
  }
  const std::vector<Delivery> got = sys->deliveries.Snapshot();
  for (const Delivery& d : got) delivered.push_back(d.key);
  std::sort(expected.begin(), expected.end());
  std::sort(delivered.begin(), delivered.end());
  std::vector<uint64_t> missing, extra;
  std::set_difference(expected.begin(), expected.end(), delivered.begin(),
                      delivered.end(), std::back_inserter(missing));
  std::set_difference(delivered.begin(), delivered.end(), expected.begin(),
                      expected.end(), std::back_inserter(extra));
  size_t motifs_due = 0, undetected = 0;
  for (size_t m = 0; m < w->motifs.size(); ++m) {
    const auto& ids = w->motifs[m].edge_ids;
    if (*std::max_element(ids.begin(), ids.end()) >= end_id) continue;
    ++motifs_due;
    bool found = false;
    for (uint64_t key : ref.motif_keys[m]) {
      found = found ||
              std::binary_search(delivered.begin(), delivered.end(), key);
    }
    if (!found) {
      ++undetected;
      std::cerr << "motif " << w->motifs[m].kind << " #" << m
                << " not detected\n";
    }
  }
  const uint64_t failed = sys->refused_ops + missing.size() + extra.size() +
                          undetected;
  const uint64_t attempted = sent + sys->submits + expected.size();
  const bool correct = failed == 0;
  std::cout << "correctness: " << expected.size() << " expected, "
            << delivered.size() << " delivered, " << missing.size()
            << " missing, " << extra.size() << " unexpected, "
            << dropped << " dropped by queues, " << sys->refused_ops
            << " refused ops, " << motifs_due - undetected << "/"
            << motifs_due << " planted motifs detected -> "
            << (correct ? "OK" : "MISMATCH") << "\n";

  // End-to-end metrics.
  MetricMap e2e;
  e2e["setup_s"] = {Median(setup_s), "s"};
  e2e["peak_eps"] = {peak_eps, "1/s"};
  std::vector<std::vector<PieceOutcome>> verdicts;
  for (const RungReport& rep : rungs) verdicts.push_back(rep.pieces);
  const auto best = SustainedRung(verdicts, opt.latency_limit_ms);
  e2e["sustained_eps"] = {
      best ? PassingEps(rungs[*best].pieces, opt.latency_limit_ms) : 0.0,
      "1/s"};
  const double p50 = nominal.p50_ms.value_or(0);
  const double p99 = nominal.p99_ms.value_or(0);
  if (nominal.samples < MinSamplesFor(0.99)) {
    std::cerr << "note: nominal rung has " << nominal.samples
              << " latency samples, too few for p99; reporting the "
                 "highest supported percentile\n";
  }
  e2e["peak_rss_mb"] = {rss_mb, "MB"};
  for (double s : setup_s) std::cout << "setup run " << Fmt(s) << " s\n";
  std::cout << "peak input size " << w->peak_edges << " edges in batches of "
            << w->peak_batch << "; ladder limit p99 < "
            << Fmt(opt.latency_limit_ms) << " ms; nominal "
            << Fmt(opt.nominal_eps) << " e/s\n";

  const auto [anchor_share, new_vertex_share] = StreamProperties(*w, sent);
  std::cout << "workload property: anchor share " << Fmt(anchor_share)
            << ", new-vertex share " << Fmt(new_vertex_share) << "\n";

  MetricMap per_layer;
  for (const auto& [name, unit] : PerLayerNames()) per_layer[name] = {0, unit};
  per_layer["failed_ops_frac"].value =
      static_cast<double>(failed) / static_cast<double>(attempted);
  per_layer["service.dropped_matches"].value = static_cast<double>(dropped);
  per_layer["gen.lag_ms.p99"].value = nominal.gen_lag_p99_ms;
  // The nominal rung's latency percentiles are reported with the
  // per-layer set: on a shared VM the cyber-daemon's vary between runs
  // of identical code by more than any end-to-end bound allows.
  per_layer["match_latency_p50_ms"].value = p50;
  per_layer["match_latency_p99_ms"].value = p99;

  if (tracer != nullptr) {
    for (const auto& [name, value] : layer) per_layer[name].value = value;
    const auto totals = tracer->Totals(run_start_ns, NowNs());
    auto per_item = [&](Layer l) {
      const LayerTotals& t = totals[static_cast<size_t>(l)];
      return t.items == 0 ? 0.0
                          : static_cast<double>(t.self_ns) /
                                static_cast<double>(t.items);
    };
    const std::vector<double> frames = tracer->DurationsUs(Layer::kNetFrame);
    const std::vector<double> delays = tracer->DeliveryDelaysUs();
    if (!frames.empty()) {
      per_layer["net.frame_rtt_us.p50"].value = Median(frames);
      per_layer["net.frame_rtt_us.p99"].value =
          Tail(frames, 0.99, "net.frame_rtt_us");
      per_layer["net.push_delay_us.p50"].value = Median(delays);
      per_layer["net.push_delay_us.p99"].value =
          Tail(delays, 0.99, "net.push_delay_us");
    } else {
      per_layer["service.queue_wait_us.p99"].value =
          Tail(delays, 0.99, "service.queue_wait_us");
    }
    per_layer["service.admit_ns_per_edge"].value = per_item(Layer::kServiceFeed);
    per_layer["persist.wal_ns_per_edge"].value = per_item(Layer::kPersist);
    const LayerTotals& enq = totals[static_cast<size_t>(Layer::kEnqueue)];
    per_layer["service.enqueue_ns_per_match"].value =
        enq.spans == 0 ? 0.0
                       : static_cast<double>(enq.total_ns) /
                             static_cast<double>(enq.spans);
    const LayerTotals& core = totals[static_cast<size_t>(Layer::kCore)];
    const LayerTotals& cl = totals[static_cast<size_t>(Layer::kClusterFeed)];
    const LayerTotals& fl = totals[static_cast<size_t>(Layer::kFlush)];
    if (core.items > 0) {
      per_layer["core.engine_ns_per_edge"].value = per_item(Layer::kCore);
    } else if (cl.items > 0) {
      // The coordinator's engines run in the workers: from outside, the
      // engine layer is the time the feeder spent inside the backend.
      per_layer["core.engine_ns_per_edge"].value =
          static_cast<double>(cl.total_ns + fl.total_ns) /
          static_cast<double>(cl.items);
      per_layer["cluster.feed_wait_us.p99"].value =
          Tail(tracer->DurationsUs(Layer::kClusterFeed), 0.99,
               "cluster.feed_wait_us");
    }
    double submit_max = 0;
    for (const Span& s : tracer->Spans()) {
      if (s.layer == Layer::kRegister && s.start_ns >= run_start_ns &&
          s.end_ns > 0) {
        submit_max = std::max(
            submit_max, static_cast<double>(s.end_ns - s.start_ns) / 1e6);
      }
    }
    per_layer["service.submit_ms.max"].value = submit_max;

    // Ledger over the counted saturation chunks, where the feeder never
    // idles.
    std::vector<Interval> roots;
    for (const Span& s : tracer->Spans()) {
      if (s.parent < 0 && s.end_ns > 0 &&
          (s.layer == Layer::kNetFrame || s.layer == Layer::kServiceFeed ||
           s.layer == Layer::kFlush)) {
        roots.emplace_back(s.start_ns, s.end_ns);
      }
    }
    double wall = 0, covered = 0;
    std::array<LayerTotals, kNumLayers> peak_totals{};
    for (const auto& [lo, hi] : driver.chunk_intervals()) {
      wall += static_cast<double>(hi - lo);
      covered += static_cast<double>(CoveredNs(roots, lo, hi));
      const auto t = tracer->Totals(lo, hi);
      for (int l = 0; l < kNumLayers; ++l) {
        peak_totals[l].spans += t[l].spans;
        peak_totals[l].items += t[l].items;
        peak_totals[l].total_ns += t[l].total_ns;
        peak_totals[l].self_ns += t[l].self_ns;
      }
    }
    const double uncovered = 1.0 - covered / wall;
    per_layer["trace.uncovered_share"].value = uncovered;
    std::cout << "ledger (saturation chunks, " << Fmt(wall / 1e6)
              << " ms wall): layer spans items total_ms self_ms self_share\n";
    for (int l = 0; l < kNumLayers; ++l) {
      const LayerTotals& t = peak_totals[static_cast<size_t>(l)];
      if (t.spans == 0) continue;
      std::cout << "  " << LayerName(static_cast<Layer>(l)) << " " << t.spans
                << " " << t.items << " "
                << Fmt(static_cast<double>(t.total_ns) / 1e6) << " "
                << Fmt(static_cast<double>(t.self_ns) / 1e6) << " "
                << Fmt(static_cast<double>(t.self_ns) / wall) << "\n";
    }
    std::cout << "  uncovered by any feeder span: " << Fmt(uncovered)
              << (uncovered > 0.10 ? "  [instrumentation gap]" : "") << "\n";
    std::filesystem::create_directories(kOutDir);
    const std::string path = std::string(kOutDir) + "/" + w->name + "-seed" +
                             std::to_string(opt.seed) + "-spans.csv";
    if (tracer->WriteCsv(path)) std::cout << "spans written to " << path << "\n";
  }

  for (const auto& [name, m] : e2e) {
    std::cout << "metric " << name << " = " << Fmt(m.value) << " " << m.unit
              << (opt.trace ? "  (traced run)" : "") << "\n";
  }
  for (const auto& [name, m] : per_layer) {
    std::cout << "layer " << name << " = " << Fmt(m.value) << " " << m.unit
              << "\n";
  }
  const MetricMap& out = opt.trace ? per_layer : e2e;
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : out) {
    if (!first) json << ", ";
    first = false;
    json << "\"" << name << "\": {\"value\": " << Fmt(m.value)
         << ", \"unit\": \"" << m.unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace perfbench
