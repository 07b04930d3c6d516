// swbench: runs one StreamWorks benchmark workload and prints every
// metric by name with its unit; the last line is one JSON object.
//
//   swbench --workload cyber-daemon|dense-join|cluster-2w --seed N
//           --seconds S --trace 0|1 --ladder R1,R2,... --nominal R
//           --limit-ms L
//
// perfbench/run.py builds this binary and passes each workload's ladder,
// nominal rung and latency limit from perfbench/workloads.json. Input
// sizes and set-up repeats are fixed by the workload builders.
#include <cstdlib>
#include <iostream>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

std::vector<double> ParseList(const std::string& text) {
  std::vector<double> out;
  size_t pos = 0;
  while (pos < text.size()) {
    const size_t comma = text.find(',', pos);
    out.push_back(std::atof(text.substr(pos, comma - pos).c_str()));
    pos = comma == std::string::npos ? text.size() : comma + 1;
  }
  return out;
}

int Usage(const std::string& why) {
  std::cerr << "swbench: " << why << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") opt.workload = value;
    else if (key == "--seed") opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") opt.seconds = std::atof(value.c_str());
    else if (key == "--trace") opt.trace = value == "1";
    else if (key == "--ladder") opt.ladder = ParseList(value);
    else if (key == "--nominal") opt.nominal_eps = std::atof(value.c_str());
    else if (key == "--limit-ms") opt.latency_limit_ms = std::atof(value.c_str());
    else return Usage("unknown argument " + key);
  }
  if (argc % 2 == 0) return Usage("arguments come in --key value pairs");
  if (opt.ladder.empty() || opt.nominal_eps <= 0 || opt.latency_limit_ms <= 0 ||
      opt.seconds <= 0) {
    return Usage("--ladder, --nominal, --limit-ms and --seconds are required");
  }
  bool nominal_on_ladder = false;
  for (double r : opt.ladder) nominal_on_ladder |= r == opt.nominal_eps;
  if (!nominal_on_ladder) return Usage("--nominal must be a ladder rung");

  perfbench::Workload workload;
  workload.name = opt.workload;
  std::unique_ptr<perfbench::Tracer> tracer;
  if (opt.trace) tracer = std::make_unique<perfbench::Tracer>();
  std::unique_ptr<perfbench::System> system;
  if (opt.workload == "cyber-daemon") {
    perfbench::BuildCyberDaemon(opt, &workload);
    perfbench::ScheduleChurn(perfbench::MakePlan(opt, workload), &workload);
    system = perfbench::MakeCyberDaemon(&workload, tracer.get());
  } else if (opt.workload == "dense-join") {
    perfbench::BuildDenseJoin(opt, &workload);
    system = perfbench::MakeDenseJoin(&workload, tracer.get());
  } else if (opt.workload == "cluster-2w") {
    perfbench::BuildCluster2w(opt, &workload);
    system = perfbench::MakeCluster2w(&workload, tracer.get());
  } else {
    return Usage("unknown workload " + opt.workload);
  }
  const size_t timed = perfbench::MakePlan(opt, workload).total;
  if (workload.timed.size() < timed) return Usage("stream shorter than the plan");
  // The reference replays the whole timed stream: keep only what the plan
  // can send, and the motifs inside it.
  workload.timed.resize(timed);
  const uint64_t end_id = workload.first_timed_id() + timed;
  std::erase_if(workload.motifs, [&](const perfbench::Motif& m) {
    for (uint64_t id : m.edge_ids) {
      if (id >= end_id) return true;
    }
    return false;
  });
  return perfbench::RunBenchmark(opt, &workload, system.get(), tracer.get());
}
