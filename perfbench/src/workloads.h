// The three workloads: how each builds its seeded inputs and the
// deployment it drives.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "streamworks/obs/stage_trace.h"
#include "streamworks/service/query_service.h"

namespace perfbench {

/// Fills `w` with the workload's run shape, its set-up load, at least as
/// many timed edges as the run's plan sends, its queries and planted
/// motifs.
void BuildCyberDaemon(const Options& opt, Workload* w);
void BuildDenseJoin(const Options& opt, Workload* w);
void BuildCluster2w(const Options& opt, Workload* w);

/// The cyber-daemon's control-plane churn: in every open-loop phase, one
/// subscription (round-robin) is detached and resubmitted every 0.5 s of
/// the schedule. Positions are fixed by the plan, so the reference replay
/// churns at the same edges.
void ScheduleChurn(const Plan& plan, Workload* w);

std::unique_ptr<System> MakeCyberDaemon(Workload* w, Tracer* tracer);
std::unique_ptr<System> MakeDenseJoin(Workload* w, Tracer* tracer);
std::unique_ptr<System> MakeCluster2w(Workload* w, Tracer* tracer);

/// Result-queue capacity of every benchmark subscription: large enough
/// that a run at the sustained rate never overflows, so a drop is a
/// failure of the system, not of the benchmark's sizing.
inline constexpr size_t kQueueCapacity = 1u << 18;

/// The in-process consumer: one thread draining every subscription's
/// ResultQueue into the delivery log.
class QueueConsumer {
 public:
  QueueConsumer(DeliveryLog* log, Tracer* tracer, uint64_t first_timed_id)
      : log_(log), tracer_(tracer), first_timed_id_(first_timed_id) {}
  ~QueueConsumer() { Stop(); }
  QueueConsumer(const QueueConsumer&) = delete;
  QueueConsumer& operator=(const QueueConsumer&) = delete;

  void Add(std::shared_ptr<streamworks::ResultQueue> queue,
           std::string query_name);
  void Start();
  void Stop();
  /// True when every queue is empty.
  bool Idle() const;

 private:
  void Run();

  DeliveryLog* log_;
  Tracer* tracer_;
  uint64_t first_timed_id_;
  std::vector<std::shared_ptr<streamworks::ResultQueue>> queues_;
  std::vector<std::string> names_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Per-layer numbers every in-process deployment reads the same way:
/// SJ-Tree counters through QueryService::QueryInfos (Info() per query)
/// and the kSjTreeJoin stage histogram.
void SjTreeLayerMetrics(streamworks::QueryService* service,
                        const streamworks::PipelineMetrics& pipeline,
                        std::map<std::string, double>* out);

/// ns per edge of a bare DynamicGraph::AddEdge replay of the set-up load
/// plus the first `timed` timed edges, at the workload's longest window.
double GraphInsertNsPerEdge(const Workload& w, size_t timed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
