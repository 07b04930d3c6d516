// Prices the multi-process sharding path: a DistributedBackend feeding
// worker daemons over real localhost TCP, at 1, 2 and 4 workers. Reports
// ingest throughput (edges/s through Feed -> epoch batches -> barrier ->
// commit) and completion delivery lag (enqueue-to-callback, p50/p99) for
// a netflow stream with planted worm/probe motifs.
//
//   $ ./build/bench/bench_cluster [num_edges] [--json PATH] [--no-overhead]
//
// The default 2M edges keeps every row above a second of wall time on a
// 4-core x86 host (0.9-1.2M edges/s at 1 worker); shorter runs are
// dominated by scheduling noise.
//
// Workers run in-process on their own threads, without frame logs: the
// number is the cluster wire + barrier protocol, not disk. Machine-
// readable results land in bench-results/bench_cluster.json; the
// committed baseline is bench-results/BENCH_cluster.json (gated by
// ci/bench_gate.py on ingest_eps; the lag percentiles ride along for
// humans). Run on an idle machine for stable numbers.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "bench/bench_util.h"
#include "streamworks/cluster/coordinator.h"
#include "streamworks/cluster/worker.h"
#include "streamworks/common/interner.h"
#include "streamworks/common/timer.h"
#include "streamworks/graph/query_graph.h"
#include "streamworks/obs/metric_registry.h"
#include "streamworks/obs/stage_trace.h"
#include "streamworks/stream/netflow_gen.h"

namespace streamworks::bench {
namespace {

struct Result {
  std::string scenario;
  uint64_t edges = 0;
  double seconds = 0;
  double cpu_seconds = 0;
  uint64_t completions = 0;
  double p50_ms = 0;
  double p99_ms = 0;

  double eps() const { return seconds > 0 ? edges / seconds : 0; }
};

/// Observed cost of cluster observability on the ingest path: paired
/// obs-off/obs-on runs of the 2-worker scenario, scraped live while
/// feeding. The gated number is the wall-clock ingest slowdown — the
/// "ingest cost" a deployment actually pays. The absolute observability
/// CPU (scrapes, report pulls, phase records) rides along: the run's CPU
/// is spread over coordinator and worker threads, so a CPU ratio says
/// less than milliseconds of work per wall second.
struct Overhead {
  int workers = 0;
  int pairs = 0;
  double median_ingest_pct = 0;
  double mean_ingest_pct = 0;
  double obs_cpu_ms_per_s = 0;
  double gate_pct = 3.0;
};

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// One worker daemon on its own thread (same shape as the cluster tests):
/// port 0 binds an ephemeral listener, Serve runs until stop.
class BenchWorker {
 public:
  BenchWorker() {
    WorkerOptions options;
    options.poll_interval_ms = 20;
    daemon_ = std::make_unique<WorkerDaemon>(std::move(options));
    if (!daemon_->Start().ok()) {
      std::cerr << "worker failed to start\n";
      std::exit(1);
    }
    thread_ = std::thread([this] { daemon_->Serve(stop_).ok(); });
  }

  ~BenchWorker() {
    stop_.store(true);
    thread_.join();
  }

  int port() const { return daemon_->port(); }

 private:
  std::unique_ptr<WorkerDaemon> daemon_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
};

std::vector<StreamEdge> BenchStream(Interner* interner, int num_edges) {
  NetflowGenerator::Options opt;
  opt.seed = 99;
  opt.background_edges = num_edges;
  NetflowGenerator gen(opt, interner);
  gen.InjectWorm(num_edges / 4, 3);
  gen.InjectPortScan(num_edges / 2, 8);
  gen.InjectWorm((num_edges * 3) / 4, 3);
  return gen.Generate();
}

QueryGraph WormChain(Interner* interner) {
  QueryGraphBuilder b(interner);
  const auto a = b.AddVertex("Host");
  const auto h = b.AddVertex("Host");
  const auto x = b.AddVertex("Host");
  b.AddEdge(a, h, "exploit");
  b.AddEdge(h, x, "exploit");
  return b.Build("worm_chain").value();
}

QueryGraph Probe(Interner* interner) {
  QueryGraphBuilder b(interner);
  const auto s = b.AddVertex("Host");
  const auto t = b.AddVertex("Host");
  b.AddEdge(s, t, "synProbe");
  return b.Build("probe").value();
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t idx = std::min(
      samples.size() - 1,
      static_cast<size_t>(p * static_cast<double>(samples.size())));
  return samples[idx];
}

Result RunScenario(int num_workers, const std::vector<StreamEdge>& edges,
                   Interner* interner, bool with_obs = false) {
  std::vector<std::unique_ptr<BenchWorker>> workers;
  DistributedBackendOptions options;
  for (int i = 0; i < num_workers; ++i) {
    workers.push_back(std::make_unique<BenchWorker>());
    options.workers.push_back("127.0.0.1:" +
                              std::to_string(workers.back()->port()));
  }
  // Paced ingest: a shallow pending queue makes Feed backpressure against
  // the pump, so the delivery lag measures steady-state epoch latency
  // rather than the depth of an unbounded buffer.
  options.epoch_edges = 512;
  options.max_pending_edges = 2048;
  // The obs-on configuration is the full production wiring: federation
  // registry + stage pipeline on the coordinator, scraped concurrently
  // while the stream flows (each scrape pulls worker reports over the
  // control links, contending with the epoch pump for the cluster lock).
  MetricRegistry registry;
  PipelineMetrics pipeline;
  if (with_obs) {
    options.registry = &registry;
    options.pipeline = &pipeline;
  }
  DistributedBackend backend(options, interner);

  // Lag sampling: the callback runs on the pump thread; its sample is
  // now - enqueue time of the most recently fed edge. The completing edge
  // was fed no later than that, so this underestimates slightly — the
  // same slight bias at every worker count, which is what a comparison
  // needs.
  Timer clock;
  std::atomic<double> last_feed_s{0.0};
  std::mutex lag_mu;
  std::vector<double> lag_ms;
  uint64_t completions = 0;
  auto sink = [&](const CompleteMatch&) {
    const double lag =
        (clock.ElapsedSeconds() - last_feed_s.load(std::memory_order_relaxed)) *
        1000.0;
    std::lock_guard<std::mutex> lock(lag_mu);
    lag_ms.push_back(std::max(lag, 0.0));
    ++completions;
  };

  if (!backend.Start().ok()) {
    std::cerr << "cluster failed to start\n";
    std::exit(1);
  }
  backend.Register(WormChain(interner),
                   DecompositionStrategy::kLeftDeepEdgeOrder, 200, sink)
      .value();
  backend.Register(Probe(interner), DecompositionStrategy::kLeftDeepEdgeOrder,
                   200, sink)
      .value();

  std::atomic<bool> scrape_stop{false};
  std::thread scraper;
  if (with_obs) {
    scraper = std::thread([&] {
      while (!scrape_stop.load(std::memory_order_relaxed)) {
        (void)registry.RenderPrometheus();
        std::this_thread::sleep_for(std::chrono::milliseconds(250));
      }
    });
  }

  Timer timer;
  const double cpu_start = ProcessCpuSeconds();
  for (const StreamEdge& e : edges) {
    last_feed_s.store(clock.ElapsedSeconds(), std::memory_order_relaxed);
    if (!backend.Feed(e).ok()) {
      std::cerr << "ingest error\n";
      std::exit(1);
    }
  }
  backend.Flush();
  const double cpu_seconds = ProcessCpuSeconds() - cpu_start;
  const double seconds = timer.ElapsedSeconds();
  if (with_obs) {
    scrape_stop.store(true);
    scraper.join();
  }
  backend.Stop();

  Result result;
  result.scenario = "workers" + std::to_string(num_workers);
  result.edges = edges.size();
  result.seconds = seconds;
  result.cpu_seconds = cpu_seconds;
  result.completions = completions;
  result.p50_ms = Percentile(lag_ms, 0.50);
  result.p99_ms = Percentile(lag_ms, 0.99);
  return result;
}

/// One 2-worker run on a fresh interner + stream, like the scenario sweep.
Result RunOverheadSide(int num_edges, bool with_obs) {
  Interner interner;
  const auto edges = BenchStream(&interner, num_edges);
  return RunScenario(2, edges, &interner, with_obs);
}

/// Obs-off/obs-on pairs at 2 workers, alternating which side runs first
/// so drift (thermal, page cache, a neighbour's load) does not always
/// land on the same side. Each pair's percentage is the wall-clock ingest
/// slowdown (seconds_on - seconds_off) / seconds_off. Median defends
/// against one noisy pair; the mean rides along for honesty about the
/// spread.
Overhead MeasureOverhead(int num_edges, int pairs) {
  Overhead result;
  result.workers = 2;
  result.pairs = pairs;
  std::vector<double> pcts;
  double sum = 0;
  double cpu_delta = 0;
  double wall_on = 0;
  for (int i = 0; i < pairs; ++i) {
    const bool on_first = i % 2 == 1;
    Result off, on;
    if (on_first) on = RunOverheadSide(num_edges, /*with_obs=*/true);
    off = RunOverheadSide(num_edges, /*with_obs=*/false);
    if (!on_first) on = RunOverheadSide(num_edges, /*with_obs=*/true);
    const double pct =
        off.seconds > 0 ? (on.seconds - off.seconds) / off.seconds * 100.0
                        : 0.0;
    pcts.push_back(pct);
    sum += pct;
    cpu_delta += on.cpu_seconds - off.cpu_seconds;
    wall_on += on.seconds;
    std::cout << "overhead pair " << (i + 1) << "/" << pairs
              << (on_first ? " (on first)" : " (off first)") << ": off="
              << FormatDouble(off.seconds, 3) << "s on="
              << FormatDouble(on.seconds, 3) << "s (" << FormatDouble(pct, 2)
              << "% wall; cpu " << FormatDouble(off.cpu_seconds, 3) << "s -> "
              << FormatDouble(on.cpu_seconds, 3) << "s)\n";
  }
  std::sort(pcts.begin(), pcts.end());
  result.median_ingest_pct = pcts[pcts.size() / 2];
  result.mean_ingest_pct = sum / static_cast<double>(pairs);
  result.obs_cpu_ms_per_s =
      wall_on > 0 ? std::max(cpu_delta, 0.0) / wall_on * 1000.0 : 0.0;
  return result;
}

void WriteJson(const std::vector<Result>& rows, const Overhead* overhead,
               const std::string& path) {
  namespace fs = std::filesystem;
  const fs::path parent = fs::path(path).parent_path();
  if (!parent.empty()) fs::create_directories(parent);
  std::ofstream out(path);
  out << "{\n  \"bench\": \"cluster\",\n  \"rows\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Result& r = rows[i];
    out << "    {\"scenario\": \"" << r.scenario << "\", \"edges\": "
        << r.edges << ", \"seconds\": " << FormatDouble(r.seconds, 4)
        << ", \"ingest_eps\": " << FormatDouble(r.eps(), 1)
        << ", \"completions\": " << r.completions
        << ", \"p50_ms\": " << FormatDouble(r.p50_ms, 3)
        << ", \"p99_ms\": " << FormatDouble(r.p99_ms, 3) << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]";
  if (overhead != nullptr) {
    out << ",\n  \"overhead\": {\"workers\": " << overhead->workers
        << ", \"pairs\": " << overhead->pairs << ", \"median_ingest_pct\": "
        << FormatDouble(overhead->median_ingest_pct, 2)
        << ", \"mean_ingest_pct\": "
        << FormatDouble(overhead->mean_ingest_pct, 2)
        << ", \"obs_cpu_ms_per_s\": "
        << FormatDouble(overhead->obs_cpu_ms_per_s, 3)
        << ", \"gate_pct\": " << FormatDouble(overhead->gate_pct, 1) << "}";
  }
  out << "\n}\n";
  std::cout << "\nwrote " << path << "\n";
}

void RunAll(int num_edges, const std::string& json_path, int overhead_pairs) {
  Banner("cluster", "multi-process sharding: ingest + delivery lag");
  std::vector<Result> rows;
  for (int workers : {1, 2, 4}) {
    // A fresh interner per scenario: each cluster run is an independent
    // deployment, like the correctness tests.
    Interner interner;
    const auto edges = BenchStream(&interner, num_edges);
    rows.push_back(RunScenario(workers, edges, &interner));
  }

  Table table({12, 10, 10, 14, 13, 11, 11});
  table.Row({"scenario", "edges", "seconds", "ingest e/s", "completions",
             "p50 ms", "p99 ms"});
  table.Separator();
  for (const Result& r : rows) {
    table.Row({r.scenario, std::to_string(r.edges),
               FormatDouble(r.seconds, 3), FormatDouble(r.eps(), 0),
               std::to_string(r.completions), FormatDouble(r.p50_ms, 2),
               FormatDouble(r.p99_ms, 2)});
  }

  Overhead overhead;
  if (overhead_pairs > 0) {
    std::cout << "\nobservability overhead (" << overhead_pairs
              << " obs-off/obs-on pairs at 2 workers, scraped live):\n";
    overhead = MeasureOverhead(num_edges, overhead_pairs);
    std::cout << "median " << FormatDouble(overhead.median_ingest_pct, 2)
              << "% mean " << FormatDouble(overhead.mean_ingest_pct, 2)
              << "% ingest slowdown, obs cpu "
              << FormatDouble(overhead.obs_cpu_ms_per_s, 2)
              << " ms/s (budget " << FormatDouble(overhead.gate_pct, 1)
              << "%)\n";
  }
  WriteJson(rows, overhead_pairs > 0 ? &overhead : nullptr, json_path);
}

}  // namespace
}  // namespace streamworks::bench

int main(int argc, char** argv) {
  int num_edges = 2000000;
  int overhead_pairs = 9;  // odd, so the median is one pair's reading
  std::string json_path = "bench-results/bench_cluster.json";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json") {
      if (i + 1 >= argc) {
        std::cerr << "--json needs a path\n";
        return 1;
      }
      json_path = argv[++i];
      continue;
    }
    if (arg == "--no-overhead") {
      overhead_pairs = 0;
      continue;
    }
    int64_t n = 0;
    if (!streamworks::ParseInt64(arg, &n) || n <= 0) {
      std::cerr << "usage: bench_cluster [num_edges] [--json PATH]"
                << " [--no-overhead]\n";
      return 1;
    }
    num_edges = static_cast<int>(n);
  }
  streamworks::bench::RunAll(num_edges, json_path, overhead_pairs);
  return 0;
}
