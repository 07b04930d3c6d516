// The open-loop driver shared by every workload: one generator thread
// sends the timed stream on a fixed schedule, one receiver records every
// delivered match, and the driver turns those records into the
// end-to-end metrics and the correctness verdict.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "streamworks/common/interner.h"
#include "streamworks/core/engine.h"
#include "streamworks/graph/query_graph.h"
#include "streamworks/graph/stream_edge.h"
#include "trace.h"

namespace perfbench {

/// Everything the command line and the workload table decide.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::vector<double> ladder;   ///< Offered rates, edges/s, ascending.
  double nominal_eps = 0;       ///< Rung whose latency is reported.
  double latency_limit_ms = 0;  ///< p99 limit a sustained rung must meet.
};

/// Where a run writes its spans, data dirs and sockets, relative to the
/// working directory (unix socket paths are limited to 108 bytes).
inline constexpr const char* kOutDir = ".bench_out";

struct Workload;

/// The phases of a run, in run order, and where each sits in the timed
/// stream. After one warm-up saturation chunk the run is kRounds rounds,
/// each kChunksPerRound saturation chunks and then one piece of every
/// rung, ascending. peak_eps is the throughput over all counted chunks
/// and a rung passes on its best piece (see RungPasses); both are spread
/// across the whole run, so a burst of outside load, or a slow stretch of
/// a shared machine, spoils some of them, not the result. Every rung gets
/// one time unit of the run, the nominal rung two.
struct Plan {
  static constexpr int kRounds = 3;
  static constexpr int kChunksPerRound = 2;
  struct Phase {
    bool peak = false;    ///< A saturation chunk, else an open-loop piece.
    bool warmup = false;  ///< The first chunk: run, not counted.
    int rung = -1;        ///< Index into Options::ladder (pieces only).
    double seconds = 0;   ///< Schedule length (pieces only).
    size_t begin = 0;     ///< Timed-edge index of the phase's first edge.
    size_t edges = 0;
  };
  std::vector<Phase> phases;
  size_t total = 0;  ///< Timed edges the whole plan uses.
};
Plan MakePlan(const Options& options, const Workload& workload);

/// One continuous query of a workload, in the query DSL (the daemon
/// receives exactly this text) and parsed.
struct QuerySpec {
  std::string name;
  std::string dsl;  ///< node/edge lines, no `query`/`window` lines.
  streamworks::QueryGraph graph;
  streamworks::Timestamp window = 0;
  streamworks::DecompositionStrategy strategy =
      streamworks::DecompositionStrategy::kSelectivityLeftDeep;
};

/// A planted motif: the query that must report it and the global edge
/// ids of its edges.
struct Motif {
  std::string kind;
  int query = -1;
  std::vector<uint64_t> edge_ids;
};

/// The seeded inputs of one run. Global edge id of load edge i is i; of
/// timed edge i it is load.size() + i.
struct Workload {
  std::string name;
  /// The run shape each workload fixes before it builds its stream: the
  /// saturation phase's input size, the most edges one send carries (in
  /// saturation and in the open loop), and how many set-ups setup_s is
  /// the median of.
  size_t peak_edges = 0;
  size_t peak_batch = 0;
  int setup_repeats = 0;
  streamworks::Interner interner;
  /// What set-up loads: the stream up to the first timed edge, a full
  /// query window at least. Edges older than the window have expired
  /// when set-up ends; a workload that loads more (a history) does so to
  /// make its set-up, such as WAL recovery, as long as a real restart's.
  std::vector<streamworks::StreamEdge> load;
  std::vector<streamworks::StreamEdge> timed;
  std::vector<QuerySpec> queries;
  /// Timed-edge positions where query churn_query[k] is detached and
  /// resubmitted before edge churn_at[k] is sent (ascending).
  std::vector<size_t> churn_at;
  std::vector<int> churn_query;
  std::vector<Motif> motifs;

  uint64_t first_timed_id() const { return load.size(); }
  /// Splits `stream`: every edge of the first `load_ticks` ticks is what
  /// set-up loads, the rest is timed.
  void SetStream(const std::vector<streamworks::StreamEdge>& stream,
                 streamworks::Timestamp load_ticks);
  /// Adds a query from DSL body lines; aborts on a malformed definition.
  void AddQuery(const std::string& name, const std::string& dsl,
                streamworks::Timestamp window_ts,
                streamworks::DecompositionStrategy strategy);
  /// Finds the global ids of `edges` (in stream order) and records them
  /// as a motif `query` must report.
  void AddMotif(const std::string& kind, int query,
                const std::vector<streamworks::StreamEdge>& edges);
};

struct Delivery {
  uint64_t key = 0;
  uint64_t newest_id = 0;
  int64_t recv_ns = 0;
};

/// Every match the receiver saw. Thread-safe.
class DeliveryLog {
 public:
  void Add(uint64_t key, uint64_t newest_id, int64_t recv_ns);
  /// Blocks until at least `n` deliveries arrived or `timeout_ms` passed.
  bool WaitForCount(size_t n, int timeout_ms);
  std::vector<Delivery> Snapshot() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Delivery> deliveries_;
};

/// Parses the largest `#<id>` of a rendered match (its newest edge).
uint64_t NewestIdFromRendered(std::string_view rendered);

/// One deployment under test. Setup() is what setup_s times.
class System {
 public:
  virtual ~System() = default;
  /// Untimed preparation before the first Setup (e.g. a data dir to
  /// recover from). Must leave no thread running.
  virtual streamworks::Status Prepare() { return streamworks::OkStatus(); }
  /// Builds the deployment with the set-up load in; returns once the first
  /// timed edge can be sent.
  virtual streamworks::Status Setup() = 0;
  /// Stops every thread and releases everything Setup built.
  virtual void Teardown() = 0;
  /// Sends timed edges [begin, end) and returns once the system accepted
  /// them.
  virtual streamworks::Status Send(size_t begin, size_t end) = 0;
  /// Detaches query `q`'s subscription and submits it again.
  virtual streamworks::Status Churn(int q) = 0;
  /// Timed edges fully processed so far.
  virtual uint64_t Processed() = 0;
  /// Returns once every sent edge is processed.
  virtual void Quiesce() {}
  /// Per-layer numbers only the deployment can read (Info(), engine
  /// graph, epoch trace); called after the last phase, before Teardown.
  virtual void LayerMetrics(std::map<std::string, double>* out) {
    (void)out;
  }
  /// Matches lost to queue overflow; called after Quiesce.
  virtual uint64_t DroppedMatches() = 0;
  /// Every match the receiver saw.
  DeliveryLog deliveries;
  /// Operations the deployment refused (ERR frames, failed submits).
  uint64_t refused_ops = 0;
  uint64_t submits = 0;
};

/// Runs a workload end to end and prints its report. Returns the process
/// exit code: 0 when every output was correct.
int RunBenchmark(const Options& options, Workload* workload, System* system,
                 Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
