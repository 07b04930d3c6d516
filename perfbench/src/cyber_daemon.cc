// cyber-daemon: the deployment users run. A SocketServer on a unix socket
// in front of QueryService -> DurableBackend (WAL, shipped fsync default)
// -> SingleEngineBackend, restarted over a data dir prepared untimed. One
// feeder connection sends FEEDB frames; one watcher connection receives
// every subscription's pushed EVENT lines and runs the churn commands.
#include <unistd.h>

#include <cmath>

#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <optional>

#include "streamworks/common/logging.h"
#include "streamworks/net/client.h"
#include "streamworks/net/server.h"
#include "streamworks/persist/manager.h"
#include "streamworks/stream/netflow_gen.h"
#include "streamworks/stream/wire_format.h"
#include "workloads.h"

namespace perfbench {

namespace fs = std::filesystem;
using streamworks::EdgeBatch;
using streamworks::LineClient;
using streamworks::Status;
using streamworks::StatusOr;

namespace {

constexpr const char* kSession = "tenants";
constexpr auto kTimeout = std::chrono::milliseconds(30000);

uint64_t WalBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (entry.is_regular_file() && name.rfind("wal-", 0) == 0) {
      bytes += entry.file_size();
    }
  }
  return bytes;
}

class CyberDaemonSystem final : public System {
 public:
  CyberDaemonSystem(Workload* w, Tracer* tracer) : w_(w), tracer_(tracer) {
    root_ = std::string(kOutDir) + "/cd" + std::to_string(::getpid());
  }
  ~CyberDaemonSystem() override {
    Teardown();
    std::error_code ec;
    fs::remove_all(root_, ec);
  }

  /// Builds, untimed, the data dir every set-up recovers from: the
  /// subscriptions, a snapshot after half the load and a WAL tail with
  /// the other half, then one copy per set-up.
  Status Prepare() override {
    const std::string prep = root_ + "/prep";
    std::error_code ec;
    fs::remove_all(root_, ec);
    fs::create_directories(prep);
    {
      streamworks::StreamWorksEngine engine(&w_->interner);
      streamworks::SingleEngineBackend single(&engine);
      streamworks::DurableBackend durable(&single);
      streamworks::QueryService service(&durable);
      streamworks::DurabilityOptions dopt;
      dopt.data_dir = prep;
      streamworks::DurabilityManager manager(dopt, &service, &durable,
                                             &w_->interner);
      SW_RETURN_IF_ERROR(manager.Start().status());
      SW_ASSIGN_OR_RETURN(const int session, service.OpenSession(kSession));
      for (size_t q = 0; q < w_->queries.size(); ++q) {
        const QuerySpec& spec = w_->queries[q];
        streamworks::SubmitOptions so;
        so.window = spec.window;
        so.strategy = spec.strategy;
        so.queue_capacity = kQueueCapacity;
        so.tag = Tag(static_cast<int>(q), 0);
        SW_RETURN_IF_ERROR(service.Submit(session, spec.graph, so).status());
      }
      const size_t half = w_->load.size() / 2;
      SW_RETURN_IF_ERROR(service.FeedBatch(
          EdgeBatch(w_->load.begin(),
                    w_->load.begin() + static_cast<ptrdiff_t>(half))));
      SW_RETURN_IF_ERROR(manager.SnapshotNow().status());
      SW_RETURN_IF_ERROR(service.FeedBatch(EdgeBatch(
          w_->load.begin() + static_cast<ptrdiff_t>(half), w_->load.end())));
    }
    for (int k = 0; k < w_->setup_repeats; ++k) {
      fs::copy(prep, RunDir(k), fs::copy_options::recursive, ec);
      if (ec) return Status::IoError("copy data dir: " + ec.message());
    }
    return streamworks::OkStatus();
  }

  Status Setup() override {
    const std::string data_dir = RunDir(setup_count_);
    socket_path_ = root_ + "-" + std::to_string(setup_count_) + ".sock";
    ++setup_count_;
    incarnation_.assign(w_->queries.size(), 0);
    interner_ = std::make_unique<streamworks::Interner>();
    pipeline_ = std::make_unique<streamworks::PipelineMetrics>();
    streamworks::EngineOptions eo;
    eo.pipeline = pipeline_.get();
    engine_ = std::make_unique<streamworks::StreamWorksEngine>(interner_.get(),
                                                                eo);
    single_ = std::make_unique<streamworks::SingleEngineBackend>(engine_.get());
    streamworks::QueryBackend* inner = single_.get();
    if (tracer_ != nullptr) {
      core_ = std::make_unique<TracedBackend>(inner, Layer::kCore, tracer_,
                                              true, false);
      inner = core_.get();
    }
    durable_ = std::make_unique<streamworks::DurableBackend>(inner);
    streamworks::QueryBackend* top = durable_.get();
    if (tracer_ != nullptr) {
      persist_ = std::make_unique<TracedBackend>(top, Layer::kPersist, tracer_,
                                                 false, true);
      top = persist_.get();
    }
    service_ = std::make_unique<streamworks::QueryService>(top);
    service_->set_pipeline_metrics(pipeline_.get());
    streamworks::DurabilityOptions dopt;
    dopt.data_dir = data_dir;
    data_dir_ = data_dir;
    manager_ = std::make_unique<streamworks::DurabilityManager>(
        dopt, service_.get(), durable_.get(), interner_.get());
    {
      ScopedSpan span(tracer_, Layer::kRecovery, 0);
      const int64_t t0 = NowNs();
      SW_RETURN_IF_ERROR(manager_->Start().status());
      recovery_s_ = static_cast<double>(NowNs() - t0) / 1e9;
    }
    streamworks::ServerOptions so;
    so.unix_path = socket_path_;
    so.io_loops = 2;
    so.pipeline = pipeline_.get();
    server_ = std::make_unique<streamworks::SocketServer>(
        service_.get(), interner_.get(), so);
    SW_RETURN_IF_ERROR(server_->Start());

    SW_ASSIGN_OR_RETURN(LineClient watcher, LineClient::ConnectUnix(socket_path_));
    watcher_.emplace(std::move(watcher));
    std::vector<std::string> script = {std::string("ATTACH ") + kSession};
    for (size_t q = 0; q < w_->queries.size(); ++q) {
      const QuerySpec& spec = w_->queries[q];
      script.push_back("DEFINE " + spec.name);
      size_t pos = 0;
      while (pos < spec.dsl.size()) {
        const size_t nl = spec.dsl.find('\n', pos);
        const std::string line = spec.dsl.substr(pos, nl - pos);
        if (!line.empty()) script.push_back(line);
        pos = nl == std::string::npos ? spec.dsl.size() : nl + 1;
      }
      script.push_back("END");
      script.push_back(std::string("STREAM ") + kSession + " " +
                       Tag(static_cast<int>(q), 0));
    }
    SW_RETURN_IF_ERROR(Run(script));
    SW_ASSIGN_OR_RETURN(LineClient feeder, LineClient::ConnectUnix(socket_path_));
    feeder_.emplace(std::move(feeder));
    wal_bytes_at_start_ = WalBytes(data_dir_);
    acked_ = 0;
    frames_.clear();
    stop_ = false;
    watch_thread_ = std::thread([this] { Watch(); });
    return streamworks::OkStatus();
  }

  void Teardown() override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (watch_thread_.joinable()) watch_thread_.join();
    watcher_.reset();
    feeder_.reset();
    if (server_) server_->Stop();
    server_.reset();
    manager_.reset();
    service_.reset();
    persist_.reset();
    durable_.reset();
    core_.reset();
    single_.reset();
    engine_.reset();
    if (!data_dir_.empty()) {
      std::error_code ec;
      fs::remove_all(data_dir_, ec);
      data_dir_.clear();
    }
  }

  Status Send(size_t begin, size_t end) override {
    const EdgeBatch batch(w_->timed.begin() + static_cast<ptrdiff_t>(begin),
                          w_->timed.begin() + static_cast<ptrdiff_t>(end));
    if (tracer_ != nullptr) frames_.emplace_back(begin, end);
    ScopedSpan span(tracer_, Layer::kNetFrame, batch.size());
    if (tracer_ != nullptr) tracer_->SetRemoteRoot(span.id());
    auto reply = feeder_->FeedBatch(batch, w_->interner, kTimeout);
    if (!reply.ok()) return reply.status();
    acked_ += batch.size();
    refused_ops += reply->second;  // edges the server rejected
    return streamworks::OkStatus();
  }

  /// Hands the detach + resubmit to the watcher thread (the connection
  /// that owns the session and its streams) and waits for it, so the
  /// churn lands at exactly this stream position.
  Status Churn(int q) override {
    std::unique_lock<std::mutex> lock(mu_);
    churn_request_ = q;
    cv_.notify_all();
    cv_.wait(lock, [&] { return !churn_request_.has_value(); });
    return churn_status_;
  }

  uint64_t Processed() override { return acked_; }

  uint64_t DroppedMatches() override {
    return service_->Snapshot().matches_dropped;
  }

  void LayerMetrics(std::map<std::string, double>* out) override {
    SjTreeLayerMetrics(service_.get(), *pipeline_, out);
    (*out)["persist.recovery_s"] = recovery_s_;
    if (acked_ > 0) {
      (*out)["persist.wal_bytes_per_edge"] =
          static_cast<double>(WalBytes(data_dir_) - wal_bytes_at_start_) /
          static_cast<double>(acked_);
    }
    (*out)["graph.vertices_retained"] =
        static_cast<double>(engine_->graph().num_vertices());
    (*out)["graph.insert_ns_per_edge"] = GraphInsertNsPerEdge(*w_, acked_);
    (*out)["stream.decode_ns_per_edge"] = DecodeNsPerEdge();
  }

 private:
  static std::string Tag(int q, int incarnation) {
    std::string tag = "q";
    tag += std::to_string(q);
    tag += '_';
    tag += std::to_string(incarnation);
    return tag;
  }
  std::string RunDir(int k) const {
    return root_ + "/run" + std::to_string(k);
  }

  /// Sends `lines` on the watcher connection in one write and reads each
  /// one's response (payload lines, then "."). A payload line starting
  /// with ERR or REJECTED is a refusal; EVENT lines arriving meanwhile are
  /// recorded as deliveries. Pipelining keeps set-up and churn from paying
  /// one round trip per line.
  Status Run(const std::vector<std::string>& lines) {
    std::string script;
    for (const std::string& line : lines) {
      script += line;
      script += '\n';
    }
    SW_RETURN_IF_ERROR(watcher_->SendRaw(script));
    Status first_error = streamworks::OkStatus();
    for (const std::string& line : lines) {
      while (true) {
        StatusOr<std::string> reply = watcher_->ReadLine(kTimeout);
        if (!reply.ok()) return reply.status();
        if (*reply == ".") break;
        if (reply->rfind("EVENT ", 0) == 0) {
          Record(*reply);
        } else if ((reply->rfind("ERR", 0) == 0 ||
                    reply->rfind("REJECTED", 0) == 0) &&
                   first_error.ok()) {
          first_error = Status::Internal(line + ": " + *reply);
        }
      }
    }
    return first_error;
  }

  /// DecodeFeedFrame replayed over the frames this run sent.
  double DecodeNsPerEdge() {
    std::vector<std::string> encoded;
    size_t edges = 0;
    for (const auto& [b, e] : frames_) {
      auto frame = streamworks::EncodeFeedFrame(
          EdgeBatch(w_->timed.begin() + static_cast<ptrdiff_t>(b),
                    w_->timed.begin() + static_cast<ptrdiff_t>(e)),
          w_->interner);
      if (!frame.ok()) continue;
      encoded.push_back(std::move(*frame));
      edges += e - b;
    }
    if (edges == 0) return 0;
    streamworks::Interner interner;
    const int64_t t0 = NowNs();
    for (const std::string& f : encoded) {
      const auto r = streamworks::DecodeFeedFrame(
          f, streamworks::kDefaultMaxFrameBodyBytes, &interner);
      SW_CHECK(r.status == streamworks::FrameDecodeStatus::kOk);
    }
    return static_cast<double>(NowNs() - t0) / static_cast<double>(edges);
  }

  void DoChurn(int q) {
    const QuerySpec& spec = w_->queries[static_cast<size_t>(q)];
    const std::string old_tag = Tag(q, incarnation_[static_cast<size_t>(q)]);
    const std::string new_tag =
        Tag(q, ++incarnation_[static_cast<size_t>(q)]);
    const Status status = Run(
        {std::string("DETACH ") + kSession + " " + old_tag,
         std::string("SUBMIT ") + kSession + " " + new_tag + " " + spec.name +
             " WINDOW " + std::to_string(spec.window) + " CAP " +
             std::to_string(kQueueCapacity),
         std::string("STREAM ") + kSession + " " + new_tag});
    std::lock_guard<std::mutex> lock(mu_);
    churn_status_ = status;
    churn_request_.reset();
    cv_.notify_all();
  }

  void Record(const std::string& line) {
    // EVENT MATCH tenants.q<i>_<k> completed_at=<ts> <rendered>
    const int64_t now = NowNs();
    if (line.rfind("EVENT MATCH ", 0) != 0) return;
    const size_t label = line.find('.', 12);
    const size_t space = line.find(' ', label);
    const size_t rendered = line.find(' ', space + 1);
    if (label == std::string::npos || space == std::string::npos ||
        rendered == std::string::npos || line[label + 1] != 'q') {
      return;
    }
    const int q = std::atoi(line.c_str() + label + 2);
    const std::string_view text(line.data() + rendered + 1,
                                line.size() - rendered - 1);
    const uint64_t newest = NewestIdFromRendered(text);
    if (newest < w_->first_timed_id()) return;
    const uint64_t key =
        MatchKey(w_->queries[static_cast<size_t>(q)].name, text);
    deliveries.Add(key, newest, now);
    if (tracer_ != nullptr) tracer_->NoteReceived(key, now);
  }

  void Watch() {
    while (true) {
      std::optional<int> churn;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (stop_) return;
        churn = churn_request_;
      }
      if (churn) {
        DoChurn(*churn);
        continue;
      }
      // 2 ms, not 1: the client truncates its remaining wait to whole
      // milliseconds, and a 1 ms budget would never reach the socket.
      auto line = watcher_->NextEvent(std::chrono::milliseconds(2));
      if (line.ok()) Record(*line);
    }
  }

  Workload* w_;
  Tracer* tracer_;
  std::string root_;
  std::string data_dir_;
  std::string socket_path_;
  int setup_count_ = 0;
  std::vector<int> incarnation_;

  std::unique_ptr<streamworks::Interner> interner_;
  std::unique_ptr<streamworks::PipelineMetrics> pipeline_;
  std::unique_ptr<streamworks::StreamWorksEngine> engine_;
  std::unique_ptr<streamworks::SingleEngineBackend> single_;
  std::unique_ptr<TracedBackend> core_;
  std::unique_ptr<streamworks::DurableBackend> durable_;
  std::unique_ptr<TracedBackend> persist_;
  std::unique_ptr<streamworks::QueryService> service_;
  std::unique_ptr<streamworks::DurabilityManager> manager_;
  std::unique_ptr<streamworks::SocketServer> server_;
  std::optional<LineClient> watcher_;
  std::optional<LineClient> feeder_;

  double recovery_s_ = 0;
  uint64_t wal_bytes_at_start_ = 0;
  uint64_t acked_ = 0;
  std::vector<std::pair<size_t, size_t>> frames_;

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::optional<int> churn_request_;
  Status churn_status_;
  std::thread watch_thread_;
};

}  // namespace

void BuildCyberDaemon(const Options& opt, Workload* w) {
  // Netflow over a host space large enough that new vertex ids keep
  // arriving, with the four attack motifs planted on a fixed cadence.
  constexpr int kWindow = 30;
  constexpr int kPerTick = 20;
  // The data dir set-up recovers from holds 5000 ticks (100k edges) of
  // history, as a daemon restarted after a crash replays the WAL since
  // its last snapshot; a single 600-edge window would recover in about a
  // millisecond, too short to time.
  constexpr int kLoadTicks = 5000;
  w->peak_edges = 840000;
  w->peak_batch = 4096;
  w->setup_repeats = 11;
  const size_t timed_edges = MakePlan(opt, *w).total;
  streamworks::NetflowGenerator::Options no;
  no.seed = opt.seed;
  no.num_hosts = 1 << 22;
  no.num_subnets = 64;
  no.edges_per_tick = kPerTick;
  const size_t load_edges = static_cast<size_t>(kLoadTicks) * kPerTick;
  no.background_edges = static_cast<int>(load_edges + timed_edges);
  streamworks::NetflowGenerator gen(no, &w->interner);
  const streamworks::Timestamp span = no.background_edges / kPerTick;
  int k = 0;
  for (streamworks::Timestamp t = kLoadTicks + 5; t + 10 < span;
       t += 25, ++k) {
    switch (k % 4) {
      case 0: gen.InjectWorm(t, 3); break;
      case 1: gen.InjectPortScan(t, 4); break;
      case 2: gen.InjectSmurf(t, 3); break;
      default: gen.InjectExfiltration(t); break;
    }
  }
  const std::vector<streamworks::StreamEdge> stream = gen.Generate();
  w->SetStream(stream, kLoadTicks);
  const auto left_deep = streamworks::DecompositionStrategy::kSelectivityLeftDeep;
  w->AddQuery("worm",
              "node a Host\nnode b Host\nnode c Host\nnode d Host\n"
              "edge a b exploit\nedge b c exploit\nedge c d exploit\n",
              kWindow, left_deep);
  w->AddQuery("port_scan",
              "node s Host\nnode t1 Host\nnode t2 Host\nnode t3 Host\n"
              "node t4 Host\nedge s t1 synProbe\nedge s t2 synProbe\n"
              "edge s t3 synProbe\nedge s t4 synProbe\n",
              kWindow, left_deep);
  w->AddQuery("smurf",
              "node atk Host\nnode a1 Host\nnode a2 Host\nnode a3 Host\n"
              "node vic Host\nedge atk a1 icmpEchoReq\nedge atk a2 icmpEchoReq\n"
              "edge atk a3 icmpEchoReq\nedge a1 vic icmpEchoReply\n"
              "edge a2 vic icmpEchoReply\nedge a3 vic icmpEchoReply\n",
              kWindow, left_deep);
  w->AddQuery("exfiltration",
              "node i Host\nnode s Host\nnode x Host\n"
              "edge i s copy\nedge s x upload\n",
              kWindow, left_deep);
  w->AddQuery("probe", "node s Host\nnode t Host\nedge s t synProbe\n",
              kWindow, left_deep);
  for (const auto& inj : gen.injections()) {
    const int q = inj.kind == "worm"        ? 0
                  : inj.kind == "port_scan" ? 1
                  : inj.kind == "smurf"     ? 2
                                            : 3;
    w->AddMotif(inj.kind, q, inj.edges);
  }
}

void ScheduleChurn(const Plan& plan, Workload* w) {
  constexpr double kChurnEverySeconds = 0.5;
  size_t q = 0;
  for (const Plan::Phase& phase : plan.phases) {
    if (phase.peak) continue;
    const double rate = static_cast<double>(phase.edges) / phase.seconds;
    for (int k = 1;; ++k) {
      const size_t at =
          static_cast<size_t>(std::llround(rate * kChurnEverySeconds * k));
      if (at >= phase.edges) break;
      w->churn_at.push_back(phase.begin + at);
      w->churn_query.push_back(static_cast<int>(q++ % w->queries.size()));
    }
  }
}

std::unique_ptr<System> MakeCyberDaemon(Workload* w, Tracer* tracer) {
  return std::make_unique<CyberDaemonSystem>(w, tracer);
}

}  // namespace perfbench
