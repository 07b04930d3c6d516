// Tests for streamworks/net: the socket server frontend end-to-end over
// loopback — request/response framing, TCP + unix-domain listeners,
// multi-client isolation, POLL→push streaming (EVENT lines), write
// backpressure falling through to the ResultQueue overflow policies,
// malformed input, abrupt disconnect with session reclamation, and
// graceful shutdown. Every QueryService control-plane call during a
// server's lifetime goes through the wire; direct service introspection
// happens only after Stop() (single-threaded again), keeping the suite
// race-clean under TSan.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <filesystem>
#include <set>

#include "streamworks/common/interner.h"
#include "streamworks/common/str_util.h"
#include "streamworks/core/engine.h"
#include "streamworks/core/parallel.h"
#include "streamworks/net/client.h"
#include "streamworks/net/peer_link.h"
#include "streamworks/net/server.h"
#include "streamworks/net/socket.h"
#include "streamworks/obs/json_render.h"
#include "streamworks/obs/metric_registry.h"
#include "streamworks/obs/stage_trace.h"
#include "streamworks/persist/durable_backend.h"
#include "streamworks/persist/manager.h"
#include "streamworks/service/backend.h"
#include "streamworks/service/query_service.h"
#include "streamworks/stream/wire_format.h"

namespace streamworks {
namespace {

using std::chrono::milliseconds;

constexpr milliseconds kTimeout{5000};

/// A single-edge query over the wire; one FEED of a "ping" edge completes
/// exactly one match, which keeps every delivery count exact.
const char* const kDefinePing =
    "DEFINE ping\n"
    "  node a V\n"
    "  node b V\n"
    "  edge a b ping\n"
    "  window 1000\n"
    "END";

std::string FeedPing(uint64_t src, uint64_t dst, int64_t ts) {
  return "FEED " + std::to_string(src) + " V " + std::to_string(dst) +
         " V ping " + std::to_string(ts);
}

/// Engine + service + server over a unix socket (and optionally TCP),
/// torn down in order.
class NetTest : public ::testing::Test {
 protected:
  NetTest() : engine_(&interner_), backend_(&engine_) {}

  ~NetTest() override {
    if (server_ != nullptr) server_->Stop();
  }

  std::string UniqueSocketPath() {
    static std::atomic<int> counter{0};
    return "/tmp/sw_net_test_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter.fetch_add(1)) + ".sock";
  }

  /// Starts the server; default options serve a unix socket only.
  void StartServer(ServerOptions options = {}) {
    if (options.unix_path.empty() && options.tcp_port < 0) {
      options.unix_path = UniqueSocketPath();
    }
    service_ = std::make_unique<QueryService>(&backend_, limits_);
    server_ = std::make_unique<SocketServer>(service_.get(), &interner_,
                                             options);
    ASSERT_TRUE(server_->Start().ok());
  }

  LineClient Connect() {
    auto client = server_->unix_path().empty()
                      ? LineClient::ConnectTcp("127.0.0.1",
                                               server_->tcp_port())
                      : LineClient::ConnectUnix(server_->unix_path());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  /// One command over the wire, asserting the exchange itself worked.
  std::vector<std::string> Run(LineClient& client, const std::string& line) {
    auto payload = client.Command(line, kTimeout);
    EXPECT_TRUE(payload.ok()) << line << ": " << payload.status().ToString();
    return payload.ok() ? *payload : std::vector<std::string>{};
  }

  /// Runs a multi-line script, returning every payload line in order.
  std::vector<std::string> RunScript(LineClient& client,
                                     const std::string& script) {
    std::vector<std::string> all;
    for (std::string_view line : Split(script, '\n')) {
      for (std::string& reply : Run(client, std::string(line))) {
        all.push_back(std::move(reply));
      }
    }
    return all;
  }

  /// "key=<number>" extractor for STATS lines.
  static uint64_t Counter(const std::string& line, std::string_view key) {
    const std::string needle = std::string(key) + "=";
    const size_t pos = line.find(needle);
    if (pos == std::string::npos) return 0;
    size_t end = pos + needle.size();
    while (end < line.size() && std::isdigit(line[end])) ++end;
    uint64_t value = 0;
    ParseUint64(line.substr(pos + needle.size(), end - pos - needle.size()),
                &value);
    return value;
  }

  static bool Contains(const std::vector<std::string>& lines,
                       std::string_view needle) {
    for (const std::string& line : lines) {
      if (line.find(needle) != std::string::npos) return true;
    }
    return false;
  }

  static size_t CountPrefix(const std::vector<std::string>& lines,
                            std::string_view prefix) {
    size_t n = 0;
    for (const std::string& line : lines) {
      if (StartsWith(line, prefix)) ++n;
    }
    return n;
  }

  /// Waits until the server has torn a disconnected connection down (the
  /// poll loop owns teardown, so it is asynchronous to the client Close).
  void AwaitConnections(size_t expected) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (server_->active_connections() != expected &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(milliseconds(1));
    }
    EXPECT_EQ(server_->active_connections(), expected);
  }

  Interner interner_;
  StreamWorksEngine engine_;
  SingleEngineBackend backend_;
  ServiceLimits limits_;
  std::unique_ptr<QueryService> service_;
  std::unique_ptr<SocketServer> server_;
};

TEST_F(NetTest, UnixRoundTripSubscribeIngestPoll) {
  StartServer();
  LineClient client = Connect();
  const std::vector<std::string> lines = RunScript(
      client, std::string(kDefinePing) +
                  "\nSESSION alice\nSUBMIT alice live ping CAP 8\n" +
                  FeedPing(1, 2, 10) + "\nFLUSH\nPOLL alice live");
  EXPECT_TRUE(Contains(lines, "OK define ping"));
  EXPECT_TRUE(Contains(lines, "OK session alice"));
  EXPECT_TRUE(Contains(lines, "OK submit alice.live"));
  EXPECT_EQ(CountPrefix(lines, "MATCH alice.live"), 1u);
  EXPECT_TRUE(Contains(lines, "POLLED alice.live n=1"));
  client.Quit();
}

TEST_F(NetTest, TcpAndUnixListenersServeTheSameService) {
  ServerOptions options;
  options.tcp_port = 0;  // ephemeral
  options.unix_path = UniqueSocketPath();
  StartServer(options);
  ASSERT_GT(server_->tcp_port(), 0);

  auto tcp = LineClient::ConnectTcp("127.0.0.1", server_->tcp_port());
  ASSERT_TRUE(tcp.ok()) << tcp.status().ToString();
  LineClient tcp_client = std::move(tcp).value();
  LineClient unix_client = Connect();

  RunScript(tcp_client, std::string(kDefinePing) +
                            "\nSESSION tcp_tenant\n"
                            "SUBMIT tcp_tenant live ping");
  RunScript(unix_client, std::string(kDefinePing) +
                             "\nSESSION unix_tenant\n"
                             "SUBMIT unix_tenant live ping");
  // One service behind both transports: either client's STATS sees both
  // tenants' sessions.
  const std::vector<std::string> stats = Run(unix_client, "STATS");
  EXPECT_TRUE(Contains(stats, "'tcp_tenant'"));
  EXPECT_TRUE(Contains(stats, "'unix_tenant'"));
  tcp_client.Quit();
  unix_client.Quit();
}

TEST_F(NetTest, MalformedInputGetsErrAndConnectionSurvives) {
  StartServer();
  LineClient client = Connect();
  std::vector<std::string> lines = Run(client, "FROBNICATE the graph");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(StartsWith(lines[0], "ERR "));
  EXPECT_TRUE(Contains(lines, "unknown command"));

  // Arity and lookup failures are reported the same way...
  EXPECT_TRUE(StartsWith(Run(client, "SUBMIT nosession nosub noquery")[0],
                         "ERR "));
  EXPECT_TRUE(StartsWith(Run(client, "FEED not numbers")[0], "ERR "));

  // ...and the session keeps working afterwards.
  const std::vector<std::string> ok = RunScript(
      client, std::string(kDefinePing) + "\nSESSION bob\n"
              "SUBMIT bob live ping\n" +
              FeedPing(5, 6, 1) + "\nFLUSH\nPOLL bob live");
  EXPECT_EQ(CountPrefix(ok, "MATCH bob.live"), 1u);
  client.Quit();
}

TEST_F(NetTest, StreamPushesMatchesAsEvents) {
  StartServer();
  LineClient client = Connect();
  RunScript(client, std::string(kDefinePing) +
                        "\nSESSION eve\nSUBMIT eve live ping CAP 32");
  EXPECT_TRUE(Contains(Run(client, "STREAM eve live"), "OK stream eve.live"));

  Run(client, FeedPing(1, 2, 10));
  Run(client, FeedPing(3, 4, 11));
  Run(client, "FLUSH");
  for (int i = 0; i < 2; ++i) {
    auto event = client.NextEvent(kTimeout);
    ASSERT_TRUE(event.ok()) << event.status().ToString();
    EXPECT_TRUE(StartsWith(*event, "EVENT MATCH eve.live"));
  }

  // UNSTREAM reverts to pull delivery: the next match stays queued for
  // POLL instead of surfacing as an EVENT.
  EXPECT_TRUE(Contains(Run(client, "UNSTREAM eve live"),
                       "OK unstream eve.live"));
  Run(client, FeedPing(5, 6, 12));
  const std::vector<std::string> polled =
      RunScript(client, "FLUSH\nPOLL eve live");
  EXPECT_EQ(CountPrefix(polled, "MATCH eve.live"), 1u);
  EXPECT_EQ(client.buffered_events(), 0u);
  client.Quit();
}

TEST_F(NetTest, StreamEndsWhenSubscriptionDetaches) {
  StartServer();
  LineClient client = Connect();
  RunScript(client, std::string(kDefinePing) +
                        "\nSESSION eve\nSUBMIT eve live ping\n"
                        "STREAM eve live\n" +
                        FeedPing(1, 2, 10) + "\nFLUSH");
  auto match = client.NextEvent(kTimeout);
  ASSERT_TRUE(match.ok()) << match.status().ToString();
  EXPECT_TRUE(StartsWith(*match, "EVENT MATCH eve.live"));

  Run(client, "DETACH eve live");
  auto end = client.NextEvent(kTimeout);
  ASSERT_TRUE(end.ok()) << end.status().ToString();
  EXPECT_EQ(*end, "EVENT END eve.live");
  client.Quit();
}

TEST_F(NetTest, MultiClientStreamsAreIsolated) {
  StartServer();
  LineClient alice = Connect();
  LineClient bob = Connect();
  LineClient feeder = Connect();

  RunScript(alice, std::string(kDefinePing) +
                       "\nSESSION alice\nSUBMIT alice live ping\n"
                       "STREAM alice live");
  RunScript(bob, std::string(kDefinePing) +
                     "\nSESSION bob\nSUBMIT bob live ping\n"
                     "STREAM bob live");
  RunScript(feeder, FeedPing(1, 2, 10) + "\nFLUSH");

  auto alice_event = alice.NextEvent(kTimeout);
  ASSERT_TRUE(alice_event.ok()) << alice_event.status().ToString();
  EXPECT_TRUE(StartsWith(*alice_event, "EVENT MATCH alice.live"));
  auto bob_event = bob.NextEvent(kTimeout);
  ASSERT_TRUE(bob_event.ok()) << bob_event.status().ToString();
  EXPECT_TRUE(StartsWith(*bob_event, "EVENT MATCH bob.live"));

  // One edge, one match per subscription, nothing cross-delivered.
  EXPECT_EQ(alice.buffered_events(), 0u);
  EXPECT_EQ(bob.buffered_events(), 0u);
  alice.Quit();
  bob.Quit();
  feeder.Quit();
}

TEST_F(NetTest, DisconnectMidStreamClosesSessionsAndReclaims) {
  StartServer();
  LineClient doomed = Connect();
  RunScript(doomed, std::string(kDefinePing) +
                        "\nSESSION doomed\n"
                        "SUBMIT doomed live ping CAP 2 POLICY block\n"
                        "STREAM doomed live\n" +
                        FeedPing(1, 2, 10) + "\nFLUSH");
  // Vanish without BYE, mid-stream.
  doomed.Close();
  AwaitConnections(0);

  // The stream keeps flowing for everyone else: a second tenant can
  // subscribe and see matches (a wedged shard/worker would hang FLUSH
  // here, failing the Command timeout).
  LineClient survivor = Connect();
  const std::vector<std::string> lines = RunScript(
      survivor, std::string(kDefinePing) +
                    "\nSESSION survivor\nSUBMIT survivor live ping\n" +
                    FeedPing(3, 4, 20) + "\nFLUSH\nPOLL survivor live");
  EXPECT_EQ(CountPrefix(lines, "MATCH survivor.live"), 1u);
  // The doomed tenant left no tombstone: its session was closed AND
  // compacted away, so STATS no longer lists it at all.
  const std::vector<std::string> stats = Run(survivor, "STATS");
  EXPECT_FALSE(Contains(stats, "'doomed'"));
  EXPECT_TRUE(Contains(stats, "'survivor'"));
  survivor.Quit();
  AwaitConnections(0);

  server_->Stop();
  EXPECT_GE(server_->stats().subscriptions_reclaimed, 1u);
  // Both tenants' subscriptions (and their sessions) really are gone from
  // the service: DeliveryStates reclaimed, tables compacted.
  const ServiceStatsSnapshot snap = service_->Snapshot();
  EXPECT_EQ(snap.reclaimed, 2u);  // doomed.live and survivor.live
  EXPECT_EQ(snap.sessions_opened, 2u);  // history survives compaction
  EXPECT_TRUE(snap.sessions.empty());
  EXPECT_EQ(service_->queue(0, 0), nullptr);
}

TEST_F(NetTest, SlowReaderOverflowFallsThroughToQueuePolicy) {
  ServerOptions options;
  options.unix_path = UniqueSocketPath();
  // Tiny socket buffer + low high-water: the pump parks after a few KB of
  // unread events and the queue's own policy takes over.
  options.so_sndbuf = 4096;
  options.write_high_water = 2048;
  StartServer(options);

  LineClient slow = Connect();
  RunScript(slow, std::string(kDefinePing) +
                      "\nSESSION slow\n"
                      "SUBMIT slow live ping CAP 4 POLICY drop_oldest\n"
                      "STREAM slow live");
  // `slow` now stops reading entirely while a producer floods.
  LineClient producer = Connect();
  constexpr int kEdges = 2000;
  for (int i = 0; i < kEdges; ++i) {
    Run(producer, FeedPing(2 * i, 2 * i + 1, i + 1));
  }
  Run(producer, "FLUSH");

  // Every callback ran inside FLUSH (single-engine backend): the overflow
  // verdicts are final. The slow reader's queue dropped matches instead
  // of stalling the stream or growing without bound.
  const std::vector<std::string> stats = Run(producer, "STATS");
  bool found_sub = false;
  for (const std::string& line : stats) {
    if (line.find("query='ping'") == std::string::npos) continue;
    found_sub = true;
    EXPECT_NE(line.find("policy=drop_oldest"), std::string::npos) << line;
    // drop_oldest admits every match (enqueued counts all kEdges) and
    // evicts from the front to make room: the drops are the evictions,
    // and what the reader can still get is delivered + queued.
    const uint64_t enqueued = Counter(line, "enqueued");
    const uint64_t dropped = Counter(line, "dropped");
    const uint64_t delivered = Counter(line, "delivered");
    const uint64_t depth = Counter(line, "depth");
    EXPECT_EQ(enqueued, static_cast<uint64_t>(kEdges)) << line;
    EXPECT_GT(dropped, 0u) << line;
    // delivered and depth are read in separate lock scopes while the pump
    // may still pop, so the sum can lag enqueued by up to the capacity.
    EXPECT_LE(delivered + depth + dropped, enqueued) << line;
    EXPECT_GE(delivered + depth + dropped, enqueued - 4) << line;
  }
  EXPECT_TRUE(found_sub);

  // The slow reader wakes up and still receives a coherent (newest-first
  // retained) suffix of the stream.
  auto event = slow.NextEvent(kTimeout);
  EXPECT_TRUE(event.ok()) << event.status().ToString();
  producer.Quit();
  slow.Close();
}

TEST_F(NetTest, PipelinedResponsesSurviveResponsePathBackpressure) {
  // A client that fires hundreds of commands before reading anything
  // parks the server's execution behind the write high-water (bounding
  // server memory) and must still receive every response once it drains.
  ServerOptions options;
  options.unix_path = UniqueSocketPath();
  options.so_sndbuf = 4096;
  options.write_high_water = 2048;
  StartServer(options);
  LineClient client = Connect();

  // The burst must fit the client->server socket buffers unread: once the
  // server parks past the high-water mark it stops reading, and a client
  // that only sends would block mid-burst — which is precisely the
  // flow-control contract, but this test wants to get to the drain phase.
  // (100 one-line sends ≈ 77KB of af_unix skb accounting < the default
  // 208KB sndbuf; their ~25KB of responses still dwarf the 2KB
  // high-water, so the park/resume path genuinely engages.)
  constexpr int kCommands = 100;
  for (int i = 0; i < kCommands; ++i) {
    ASSERT_TRUE(client.SendLine("STATS").ok());
  }
  int terminators = 0;
  while (terminators < kCommands) {
    auto line = client.ReadLine(kTimeout);
    ASSERT_TRUE(line.ok()) << "after " << terminators << " responses: "
                           << line.status().ToString();
    if (*line == ".") ++terminators;
  }
  client.Quit();
}

TEST_F(NetTest, BlockPolicyIsAutoStreamedSoItCannotWedgeTheServer) {
  // Regression: a kBlock subscription that is never STREAMed or POLLed
  // used to have no consumer at all — its first overflowing delivery
  // blocked the poll thread (or, via FLUSH, parked it behind a blocked
  // worker) and three protocol lines from one tenant froze every
  // connection including SIGTERM. The server now auto-upgrades kBlock
  // submissions to push streaming, making the socket the consumer.
  StartServer();
  LineClient careless = Connect();
  RunScript(careless, std::string(kDefinePing) +
                          "\nSESSION careless\n"
                          "SUBMIT careless s ping CAP 1 POLICY block");
  LineClient other = Connect();
  // More matches than capacity; without a consumer this FLUSH deadlocked.
  const std::vector<std::string> fed = RunScript(
      other, FeedPing(1, 2, 1) + "\n" + FeedPing(3, 4, 2) + "\n" +
                 FeedPing(5, 6, 3) + "\nFLUSH");
  EXPECT_TRUE(Contains(fed, "OK flush"));
  // Every tenant still gets service...
  EXPECT_FALSE(Run(other, "STATS").empty());
  // ...and the kBlock matches reach their subscriber as pushed events.
  for (int i = 0; i < 3; ++i) {
    auto event = careless.NextEvent(kTimeout);
    ASSERT_TRUE(event.ok()) << event.status().ToString();
    EXPECT_TRUE(StartsWith(*event, "EVENT MATCH careless.s")) << *event;
  }
  // Opting out of the only consumer is refused while attached...
  const std::vector<std::string> unstream =
      Run(careless, "UNSTREAM careless s");
  ASSERT_EQ(unstream.size(), 1u);
  EXPECT_TRUE(StartsWith(unstream[0], "ERR ")) << unstream[0];
  EXPECT_NE(unstream[0].find("must stay streamed"), std::string::npos);
  // ...while DETACH remains the clean exit (stream ENDs).
  EXPECT_TRUE(Contains(Run(careless, "DETACH careless s"),
                       "OK DETACH careless.s"));
  auto end = careless.NextEvent(kTimeout);
  ASSERT_TRUE(end.ok()) << end.status().ToString();
  EXPECT_EQ(*end, "EVENT END careless.s");
  careless.Quit();
  other.Quit();
}

TEST_F(NetTest, StopUnwedgesABlockedStreamBehindASlowReader) {
  ServerOptions options;
  options.unix_path = UniqueSocketPath();
  options.so_sndbuf = 4096;
  options.write_high_water = 1024;  // wedge well within the 200-feed burst
  StartServer(options);

  // A kBlock subscription whose reader never reads: once the socket
  // buffer + write high-water fill, the pump parks, the queue fills, and
  // the next delivery blocks the producer — here the poll thread itself
  // (single-engine backend executes callbacks inside FEED).
  LineClient slow = Connect();
  RunScript(slow, std::string(kDefinePing) +
                      "\nSESSION slow\n"
                      "SUBMIT slow live ping CAP 2 POLICY block\n"
                      "STREAM slow live");
  LineClient producer = Connect();
  // Fire-and-forget: waiting for responses would wedge this test the
  // moment the poll thread blocks in the kBlock Push. The burst must fit
  // the client->server kernel buffers unread (~208KB of af_unix skb
  // accounting, ~768B per one-line send), because once the server wedges
  // it stops reading and a blocking send past that budget would deadlock
  // the test itself before it ever calls Stop.
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(producer.SendLine(FeedPing(2 * i, 2 * i + 1, i + 1)).ok());
  }
  // Let the wedge actually engage (server executing feeds, pump having
  // pushed at least something) before pulling the plug — otherwise Stop
  // could win the race before the server even read the burst.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server_->stats().events_pushed == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(1));
  }

  // Stop must complete anyway: during shutdown every queue is closed and
  // the pump ignores the high-water valve, so the blocked producer frees
  // and the poll thread unparks to exit. (Before the two-phase stop this
  // join deadlocked.)
  server_->Stop();
  EXPECT_GT(server_->stats().events_pushed, 0u);
}

TEST_F(NetTest, ParallelBackendStreamsAcrossShardThreads) {
  // Same wire surface over a sharded group: deliveries originate on shard
  // worker threads and cross the pump into the socket (the TSan-relevant
  // path).
  Interner interner;
  ParallelEngineGroup group(&interner, /*num_shards=*/2, {},
                            ShardingMode::kPartitionedData);
  ParallelGroupBackend backend(&group);
  QueryService service(&backend);
  ServerOptions options;
  options.unix_path = UniqueSocketPath();
  SocketServer server(&service, &interner, options);
  ASSERT_TRUE(server.Start().ok());
  {
    auto connected = LineClient::ConnectUnix(options.unix_path);
    ASSERT_TRUE(connected.ok()) << connected.status().ToString();
    LineClient client = std::move(connected).value();
    const std::string script = std::string(kDefinePing) +
                               "\nSESSION p\nSUBMIT p live ping\nSTREAM p "
                               "live";
    for (std::string_view line : Split(script, '\n')) {
      auto payload = client.Command(std::string(line), kTimeout);
      ASSERT_TRUE(payload.ok()) << payload.status().ToString();
      for (const std::string& reply : *payload) {
        EXPECT_FALSE(StartsWith(reply, "ERR ")) << reply;
      }
    }
    for (int i = 0; i < 8; ++i) {
      auto payload =
          client.Command(FeedPing(2 * i, 2 * i + 1, i + 1), kTimeout);
      ASSERT_TRUE(payload.ok()) << payload.status().ToString();
    }
    ASSERT_TRUE(client.Command("FLUSH", kTimeout).ok());
    for (int i = 0; i < 8; ++i) {
      auto event = client.NextEvent(kTimeout);
      ASSERT_TRUE(event.ok()) << event.status().ToString();
      EXPECT_TRUE(StartsWith(*event, "EVENT MATCH p.live"));
    }
    client.Quit();
  }
  server.Stop();
  group.Close();
}

TEST_F(NetTest, ServerFullRefusesPolitely) {
  ServerOptions options;
  options.unix_path = UniqueSocketPath();
  options.max_connections = 1;
  StartServer(options);
  LineClient first = Connect();
  Run(first, "STATS");  // the accepted one works

  auto second = LineClient::ConnectUnix(server_->unix_path());
  ASSERT_TRUE(second.ok());
  auto line = second->ReadLine(kTimeout);
  ASSERT_TRUE(line.ok()) << line.status().ToString();
  EXPECT_EQ(*line, "ERR server full");
  first.Quit();
}

TEST_F(NetTest, StopDisconnectsClientsAndUnlinksSocket) {
  StartServer();
  const std::string path = server_->unix_path();
  LineClient client = Connect();
  RunScript(client, std::string(kDefinePing) +
                        "\nSESSION s\nSUBMIT s live ping");
  server_->Stop();
  // The client observes the close (EOF) rather than a hang.
  auto line = client.ReadLine(kTimeout);
  EXPECT_FALSE(line.ok());
  EXPECT_NE(::access(path.c_str(), F_OK), 0);  // socket file unlinked
  // Sessions were closed and compacted on the way down.
  const ServiceStatsSnapshot snap = service_->Snapshot();
  EXPECT_EQ(snap.reclaimed, 1u);
  EXPECT_TRUE(snap.sessions.empty());
}

// --- Binary FEEDB frames ---------------------------------------------------

/// The shared stream both wire modes must agree on: distinct ping edges,
/// each completing exactly one match.
EdgeBatch PingStream(Interner* interner, int n) {
  EdgeBatch batch;
  for (int i = 0; i < n; ++i) {
    StreamEdge e;
    e.src = 2 * static_cast<uint64_t>(i);
    e.dst = 2 * static_cast<uint64_t>(i) + 1;
    e.src_label = interner->Intern("V");
    e.dst_label = interner->Intern("V");
    e.edge_label = interner->Intern("ping");
    e.ts = 10 + i;
    batch.push_back(e);
  }
  return batch;
}

TEST_F(NetTest, BinaryFeedbMatchesTextFeedByteForByte) {
  // Two servers over two fresh engines, one fed the stream as text FEED
  // lines, one as FEEDB frames: the polled MATCH lines must be the same
  // multiset, byte for byte.
  const int kEdges = 37;
  const auto run = [&](bool binary) -> std::vector<std::string> {
    Interner interner;
    StreamWorksEngine engine(&interner);
    SingleEngineBackend backend(&engine);
    QueryService service(&backend);
    ServerOptions options;
    options.unix_path = UniqueSocketPath();
    SocketServer server(&service, &interner, options);
    EXPECT_TRUE(server.Start().ok());
    auto connected = LineClient::ConnectUnix(options.unix_path);
    EXPECT_TRUE(connected.ok());
    LineClient client = std::move(connected).value();
    for (std::string_view line : Split(kDefinePing, '\n')) {
      client.Command(std::string(line), kTimeout).value();
    }
    client.Command("SESSION s", kTimeout).value();
    client
        .Command("SUBMIT s live ping CAP " + std::to_string(kEdges + 8),
                 kTimeout)
        .value();
    Interner wire_interner;
    const EdgeBatch stream = PingStream(&wire_interner, kEdges);
    if (binary) {
      // Uneven chunks on purpose: frame boundaries must not show up in
      // the match set.
      size_t at = 0;
      for (size_t chunk : {5u, 1u, 17u, 14u}) {
        EdgeBatch frame(stream.begin() + at, stream.begin() + at + chunk);
        auto counts = client.FeedBatch(frame, wire_interner, kTimeout);
        EXPECT_TRUE(counts.ok()) << counts.status().ToString();
        EXPECT_EQ(counts->first, chunk);
        EXPECT_EQ(counts->second, 0u);
        at += chunk;
      }
      EXPECT_EQ(at, stream.size());
    } else {
      for (const StreamEdge& e : stream) {
        client
            .Command("FEED " + std::to_string(e.src) + " V " +
                         std::to_string(e.dst) + " V ping " +
                         std::to_string(e.ts),
                     kTimeout)
            .value();
      }
    }
    auto flushed = client.Command("FLUSH", kTimeout);
    EXPECT_TRUE(flushed.ok());
    std::vector<std::string> polled =
        client.Command("POLL s live", kTimeout).value();
    std::vector<std::string> matches;
    for (std::string& line : polled) {
      if (StartsWith(line, "MATCH ")) matches.push_back(std::move(line));
    }
    client.Quit();
    server.Stop();
    std::sort(matches.begin(), matches.end());
    return matches;
  };
  const std::vector<std::string> text_matches = run(/*binary=*/false);
  const std::vector<std::string> binary_matches = run(/*binary=*/true);
  ASSERT_EQ(text_matches.size(), static_cast<size_t>(kEdges));
  EXPECT_EQ(text_matches, binary_matches);
}

TEST_F(NetTest, TornFramesAcrossArbitraryReadBoundaries) {
  StartServer();
  LineClient client = Connect();
  RunScript(client, std::string(kDefinePing) +
                        "\nSESSION torn\nSUBMIT torn live ping CAP 64");
  Interner wire_interner;
  const EdgeBatch stream = PingStream(&wire_interner, 8);
  std::string bytes;
  bytes += EncodeFeedFrame(EdgeBatch(stream.begin(), stream.begin() + 3),
                           wire_interner)
               .value();
  bytes += EncodeFeedFrame(EdgeBatch(stream.begin() + 3, stream.end()),
                           wire_interner)
               .value();
  // Dribble the two frames out in prime-sized slivers with pauses, so
  // the server's reads observe boundaries inside the magic, the length
  // prefix, the string table, and edge records.
  for (size_t at = 0; at < bytes.size(); at += 7) {
    ASSERT_TRUE(
        client.SendRaw(std::string_view(bytes).substr(at, 7)).ok());
    if (at % 21 == 0) std::this_thread::sleep_for(milliseconds(1));
  }
  for (int frame = 0; frame < 2; ++frame) {
    // Each frame is answered exactly like a command: payload + ".".
    auto line = client.ReadLine(kTimeout);
    ASSERT_TRUE(line.ok()) << line.status().ToString();
    EXPECT_EQ(*line, frame == 0 ? "OK feedb 3 0" : "OK feedb 5 0");
    line = client.ReadLine(kTimeout);
    ASSERT_TRUE(line.ok());
    EXPECT_EQ(*line, ".");
  }
  const std::vector<std::string> polled =
      RunScript(client, "FLUSH\nPOLL torn live");
  EXPECT_EQ(CountPrefix(polled, "MATCH torn.live"), 8u);
  client.Quit();
}

TEST_F(NetTest, TextLinesInterleaveWithBinaryFrames) {
  StartServer();
  LineClient client = Connect();
  RunScript(client, std::string(kDefinePing) +
                        "\nSESSION mix\nSUBMIT mix live ping CAP 64");
  Interner wire_interner;
  const EdgeBatch stream = PingStream(&wire_interner, 6);
  // One write carrying: frame, text command, frame, text command.
  std::string bytes;
  bytes += EncodeFeedFrame(EdgeBatch(stream.begin(), stream.begin() + 2),
                           wire_interner)
               .value();
  bytes += "FLUSH\n";
  bytes += EncodeFeedFrame(EdgeBatch(stream.begin() + 2, stream.end()),
                           wire_interner)
               .value();
  bytes += "FLUSH\n";
  ASSERT_TRUE(client.SendRaw(bytes).ok());
  std::vector<std::string> replies;
  int terminators = 0;
  while (terminators < 4) {
    auto line = client.ReadLine(kTimeout);
    ASSERT_TRUE(line.ok()) << line.status().ToString();
    if (*line == ".") {
      ++terminators;
    } else {
      replies.push_back(std::move(*line));
    }
  }
  // Responses come back in stream order.
  ASSERT_EQ(replies.size(), 4u);
  EXPECT_EQ(replies[0], "OK feedb 2 0");
  EXPECT_EQ(replies[1], "OK flush");
  EXPECT_EQ(replies[2], "OK feedb 4 0");
  EXPECT_EQ(replies[3], "OK flush");
  const std::vector<std::string> polled =
      RunScript(client, "POLL mix live");
  EXPECT_EQ(CountPrefix(polled, "MATCH mix.live"), 6u);
  client.Quit();
}

TEST_F(NetTest, OversizedFrameIsRefusedWithoutDesyncOrDisconnect) {
  ServerOptions options;
  options.unix_path = UniqueSocketPath();
  options.max_frame_body_bytes = 256;
  StartServer(options);
  LineClient client = Connect();
  RunScript(client, std::string(kDefinePing) +
                        "\nSESSION big\nSUBMIT big live ping CAP 64");
  Interner wire_interner;
  // ~40 edges * 36B > 256B body limit.
  const std::string oversized =
      EncodeFeedFrame(PingStream(&wire_interner, 40), wire_interner).value();
  ASSERT_GT(oversized.size(), 256u + 8u);
  // Send the refused frame, a valid small frame, and a text command in
  // one burst: the declared length lets the server skip the oversized
  // body exactly, so everything after it still executes.
  std::string bytes = oversized;
  const EdgeBatch small = PingStream(&wire_interner, 2);
  bytes += EncodeFeedFrame(small, wire_interner).value();
  bytes += "FLUSH\n";
  ASSERT_TRUE(client.SendRaw(bytes).ok());
  std::vector<std::string> replies;
  int terminators = 0;
  while (terminators < 3) {
    auto line = client.ReadLine(kTimeout);
    ASSERT_TRUE(line.ok()) << line.status().ToString();
    if (*line == ".") {
      ++terminators;
    } else {
      replies.push_back(std::move(*line));
    }
  }
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_TRUE(StartsWith(replies[0], "ERR ")) << replies[0];
  EXPECT_NE(replies[0].find("exceeds"), std::string::npos) << replies[0];
  EXPECT_EQ(replies[1], "OK feedb 2 0");
  EXPECT_EQ(replies[2], "OK flush");
  const std::vector<std::string> polled =
      RunScript(client, "POLL big live");
  EXPECT_EQ(CountPrefix(polled, "MATCH big.live"), 2u);
  client.Quit();
  server_->Stop();
  EXPECT_GE(server_->stats().protocol_errors, 1u);
}

TEST_F(NetTest, TruncatedFrameAtEofReportsAndCloses) {
  StartServer();
  // Raw fd client: we need a half-close (shutdown(WR)) after a partial
  // frame, which LineClient doesn't model.
  auto fd = ConnectUnix(server_->unix_path());
  ASSERT_TRUE(fd.ok());
  Interner wire_interner;
  const std::string frame =
      EncodeFeedFrame(PingStream(&wire_interner, 4), wire_interner).value();
  const std::string partial = frame.substr(0, frame.size() - 5);
  ASSERT_EQ(::send(fd->get(), partial.data(), partial.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(partial.size()));
  ASSERT_EQ(::shutdown(fd->get(), SHUT_WR), 0);
  // The server answers ERR (the frame can never complete) and closes.
  std::string response;
  char buf[256];
  while (true) {
    const ssize_t n = ::read(fd->get(), buf, sizeof(buf));
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  EXPECT_NE(response.find("ERR truncated binary frame at EOF"),
            std::string::npos)
      << response;
  AwaitConnections(0);
  server_->Stop();
  EXPECT_GE(server_->stats().protocol_errors, 1u);
}

TEST_F(NetTest, CorruptMagicClosesTheConnection) {
  StartServer();
  LineClient client = Connect();
  Run(client, "STATS");  // session works first
  // Lead byte promises a frame, magic lies: position is unrecoverable.
  ASSERT_TRUE(client.SendRaw("\xFBXXX garbage\n").ok());
  auto line = client.ReadLine(kTimeout);
  ASSERT_TRUE(line.ok()) << line.status().ToString();
  EXPECT_TRUE(StartsWith(*line, "ERR ")) << *line;
  // Terminator then EOF.
  while (line.ok()) line = client.ReadLine(kTimeout);
  AwaitConnections(0);
}

TEST_F(NetTest, StreamedDeliveryCoalescesAcrossFrames) {
  // FEEDB + STREAM: a batch's worth of matches arrives as EVENT lines
  // and the server reports coalesced pump flushes, not one write per
  // event.
  StartServer();
  LineClient client = Connect();
  RunScript(client, std::string(kDefinePing) +
                        "\nSESSION c\nSUBMIT c live ping CAP 600\n"
                        "STREAM c live");
  Interner wire_interner;
  auto counts =
      client.FeedBatch(PingStream(&wire_interner, 500), wire_interner,
                       kTimeout);
  ASSERT_TRUE(counts.ok()) << counts.status().ToString();
  EXPECT_EQ(counts->first, 500u);
  Run(client, "FLUSH");
  for (int i = 0; i < 500; ++i) {
    auto event = client.NextEvent(kTimeout);
    ASSERT_TRUE(event.ok()) << "event " << i << ": "
                            << event.status().ToString();
    EXPECT_TRUE(StartsWith(*event, "EVENT MATCH c.live"));
  }
  client.Quit();
  server_->Stop();
  const ServerStats stats = server_->stats();
  EXPECT_EQ(stats.frames_executed, 1u);
  EXPECT_EQ(stats.batch_edges_in, 500u);
  EXPECT_EQ(stats.events_pushed, 500u);
  // Coalescing: far fewer drain-pass flushes than events.
  EXPECT_GT(stats.pump_flushes, 0u);
  EXPECT_LT(stats.pump_flushes, 250u);
}

TEST_F(NetTest, ByeIsAcknowledgedThenDisconnects) {
  StartServer();
  LineClient client = Connect();
  auto payload = client.Command("BYE", kTimeout);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  ASSERT_EQ(payload->size(), 1u);
  EXPECT_EQ((*payload)[0], "OK bye");
  auto after = client.ReadLine(kTimeout);
  EXPECT_FALSE(after.ok());  // EOF after the farewell
  AwaitConnections(0);
}

// --- Crash recovery through the socket frontend ----------------------------

/// One durable deployment generation: service -> DurableBackend ->
/// (engine | partition4 group), recovered from `dir` and served on a
/// socket — the full service_demo --data-dir stack, in-process.
struct DurableServer {
  Interner interner;
  std::unique_ptr<StreamWorksEngine> engine;
  std::unique_ptr<ParallelEngineGroup> group;
  std::unique_ptr<QueryBackend> inner;
  std::unique_ptr<DurableBackend> durable;
  std::unique_ptr<QueryService> service;
  std::unique_ptr<DurabilityManager> manager;
  std::unique_ptr<SocketServer> server;
  RecoveryReport recovered;

  static std::unique_ptr<DurableServer> Start(const std::string& dir,
                                              const std::string& sock,
                                              bool partitioned) {
    auto s = std::make_unique<DurableServer>();
    if (partitioned) {
      s->group = std::make_unique<ParallelEngineGroup>(
          &s->interner, 4, EngineOptions{},
          ShardingMode::kPartitionedData);
      s->inner = std::make_unique<ParallelGroupBackend>(s->group.get());
    } else {
      s->engine = std::make_unique<StreamWorksEngine>(&s->interner);
      s->inner = std::make_unique<SingleEngineBackend>(s->engine.get());
    }
    s->durable = std::make_unique<DurableBackend>(s->inner.get());
    s->service = std::make_unique<QueryService>(s->durable.get());
    DurabilityOptions options;
    options.data_dir = dir;
    s->manager = std::make_unique<DurabilityManager>(
        options, s->service.get(), s->durable.get(), &s->interner);
    auto recovered = s->manager->Start();
    EXPECT_TRUE(recovered.ok()) << recovered.status().ToString();
    if (recovered.ok()) s->recovered = *recovered;

    ServerOptions server_options;
    server_options.unix_path = sock;
    DurabilityManager* manager = s->manager.get();
    server_options.snapshot_hook = [manager]() -> StatusOr<std::string> {
      SW_ASSIGN_OR_RETURN(const SnapshotInfo info, manager->SnapshotNow());
      return "wal_seq=" + std::to_string(info.wal_seq);
    };
    // The durable deployment shape: Stop leaves connected tenants'
    // sessions open for the shutdown snapshot.
    server_options.preserve_sessions_on_stop = true;
    s->server = std::make_unique<SocketServer>(s->service.get(),
                                               &s->interner,
                                               server_options);
    EXPECT_TRUE(s->server->Start().ok());
    return s;
  }

  /// Simulated kill -9: tear the frontend down without any shutdown
  /// snapshot — only the WAL and mid-stream snapshots survive.
  void Crash() { server->Stop(); }
};

void RunSocketCrashRecovery(bool partitioned) {
  const std::string dir =
      std::filesystem::path(::testing::TempDir()) /
      ("sw_net_recovery_" + std::to_string(::getpid()) +
       (partitioned ? "_p" : "_s"));
  std::filesystem::remove_all(dir);
  const std::string sock = "/tmp/sw_net_recov_" +
                           std::to_string(::getpid()) +
                           (partitioned ? "_p" : "_s") + ".sock";
  // Internal vertex ids are per-shard artifacts, and in partitioned mode
  // their first-sight assignment on the delivering shard races between
  // forwarded-match localization and direct ingest — both orders are
  // valid. The durable identity of a match is its query-edge -> global
  // data-edge bindings (+ timestamps), so the partitioned comparison
  // strips the vertex-mapping segment; the single-engine one stays
  // byte-for-byte raw.
  const auto stable_identity = [partitioned](const std::string& line) {
    if (!partitioned) return line;
    const size_t open = line.find('{');
    const size_t bar = line.find('|');
    if (open == std::string::npos || bar == std::string::npos ||
        bar < open) {
      return line;
    }
    return line.substr(0, open + 1) + line.substr(bar);
  };
  const auto match_lines =
      [&stable_identity](const std::vector<std::string>& payload) {
        std::multiset<std::string> matches;
        for (const std::string& line : payload) {
          if (line.starts_with("MATCH ")) {
            matches.insert(stable_identity(line));
          }
        }
        return matches;
      };
  const auto feed_all = [](LineClient& client, int from, int n) {
    for (int i = 0; i < n; ++i) {
      auto reply = client.Command(FeedPing(100 + from + i, 7, from + i),
                                  kTimeout);
      ASSERT_TRUE(reply.ok());
    }
  };
  const auto subscribe = [](LineClient& client) {
    const std::string script = std::string(kDefinePing) +
                               "\nSESSION w\nSUBMIT w live ping CAP 4096";
    for (std::string_view line : Split(script, '\n')) {
      auto reply = client.Command(std::string(line), kTimeout);
      ASSERT_TRUE(reply.ok()) << line;
    }
  };

  // Reference: uninterrupted durable run over the same 8 edges.
  std::multiset<std::string> expected;
  {
    auto ref = DurableServer::Start(dir + "_ref", sock + ".ref",
                                    partitioned);
    auto client = LineClient::ConnectUnix(sock + ".ref").value();
    subscribe(client);
    feed_all(client, 0, 8);
    ASSERT_TRUE(client.Command("FLUSH", kTimeout).ok());
    expected = match_lines(client.Command("POLL w live", kTimeout).value());
    ASSERT_EQ(expected.size(), 8u);
    client.Quit();
    ref->Crash();
  }

  // Crash run: subscribe, feed 4, SNAPSHOT over the wire, feed 2 (the
  // WAL tail), drain what was delivered, then die hard.
  std::multiset<std::string> observed;
  {
    auto gen1 = DurableServer::Start(dir, sock, partitioned);
    auto client = LineClient::ConnectUnix(sock).value();
    subscribe(client);
    feed_all(client, 0, 4);
    const auto snap = client.Command("SNAPSHOT", kTimeout).value();
    ASSERT_FALSE(snap.empty());
    EXPECT_EQ(snap[0], "OK snapshot wal_seq=4");
    feed_all(client, 4, 2);
    ASSERT_TRUE(client.Command("FLUSH", kTimeout).ok());
    auto polled = match_lines(
        client.Command("POLL w live", kTimeout).value());
    EXPECT_EQ(polled.size(), 6u);
    observed.insert(polled.begin(), polled.end());
    client.Close();  // vanish mid-session, like the process about to
    gen1->Crash();   // kill -9
  }

  // Recovered generation: the tenant re-attaches by name, the stream
  // resumes, and the union of everything observed equals the
  // uninterrupted run byte for byte.
  {
    auto gen2 = DurableServer::Start(dir, sock, partitioned);
    EXPECT_TRUE(gen2->recovered.snapshot_loaded);
    EXPECT_EQ(gen2->recovered.snapshot_wal_seq, 4u);
    EXPECT_EQ(gen2->recovered.replayed_edges, 2u);
    EXPECT_EQ(gen2->recovered.sessions, 1u);
    EXPECT_EQ(gen2->recovered.subscriptions, 1u);

    auto client = LineClient::ConnectUnix(sock).value();
    const auto attach = client.Command("ATTACH w", kTimeout).value();
    ASSERT_FALSE(attach.empty());
    EXPECT_EQ(attach[0], "OK attach w id=0 subs=live:active");
    feed_all(client, 6, 2);
    ASSERT_TRUE(client.Command("FLUSH", kTimeout).ok());
    auto polled = match_lines(
        client.Command("POLL w live", kTimeout).value());
    EXPECT_EQ(polled.size(), 2u);
    observed.insert(polled.begin(), polled.end());
    client.Quit();
    gen2->Crash();
  }
  EXPECT_EQ(observed, expected);
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(dir + "_ref");
}

TEST(NetRecoveryTest, GracefulShutdownSnapshotKeepsConnectedSessions) {
  // SIGTERM while a tenant is still connected: Stop() must not close
  // its sessions before the shutdown snapshot, or a *graceful* restart
  // would lose exactly the re-attachable state a kill -9 preserves.
  const std::string dir =
      std::filesystem::path(::testing::TempDir()) /
      ("sw_net_graceful_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  const std::string sock =
      "/tmp/sw_net_graceful_" + std::to_string(::getpid()) + ".sock";
  {
    auto gen1 = DurableServer::Start(dir, sock, /*partitioned=*/false);
    auto client = LineClient::ConnectUnix(sock).value();
    const std::string script =
        std::string(kDefinePing) + "\nSESSION w\nSUBMIT w live ping";
    for (std::string_view line : Split(script, '\n')) {
      ASSERT_TRUE(client.Command(std::string(line), kTimeout).ok());
    }
    // No BYE: the tenant is still connected when the operator stops the
    // daemon. Stop, then the shutdown snapshot (the service_demo
    // SIGTERM sequence).
    gen1->server->Stop();
    ASSERT_TRUE(gen1->manager->SnapshotNow().ok());
  }
  auto gen2 = DurableServer::Start(dir, sock, /*partitioned=*/false);
  EXPECT_EQ(gen2->recovered.sessions, 1u);
  EXPECT_EQ(gen2->recovered.subscriptions, 1u);
  EXPECT_EQ(gen2->recovered.replayed_edges, 0u);  // snapshot is final
  auto client = LineClient::ConnectUnix(sock).value();
  const auto attach = client.Command("ATTACH w", kTimeout).value();
  ASSERT_FALSE(attach.empty());
  EXPECT_EQ(attach[0], "OK attach w id=0 subs=live:active");
  client.Quit();
  gen2->Crash();
  std::filesystem::remove_all(dir);
}

TEST(NetRecoveryTest, RecoveredBlockSubscriptionResumesWithoutWedging) {
  // The PR 3 invariant — every kBlock queue on the socket frontend has
  // the pump as its consumer — must survive crash recovery: a restored
  // kBlock subscription comes back paused, ATTACH auto-streams it (the
  // attach hook mirrors the submit hook), and RESUME + feeding more
  // matches than its tiny capacity must push events instead of wedging
  // the poll thread.
  const std::string dir =
      std::filesystem::path(::testing::TempDir()) /
      ("sw_net_block_recovery_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  const std::string sock =
      "/tmp/sw_net_blockrec_" + std::to_string(::getpid()) + ".sock";
  {
    auto gen1 = DurableServer::Start(dir, sock, /*partitioned=*/false);
    auto client = LineClient::ConnectUnix(sock).value();
    const std::string script =
        std::string(kDefinePing) +
        "\nSESSION t\nSUBMIT t strict ping CAP 2 POLICY block";
    for (std::string_view line : Split(script, '\n')) {
      ASSERT_TRUE(client.Command(std::string(line), kTimeout).ok());
    }
    ASSERT_TRUE(client.Command("SNAPSHOT", kTimeout).ok());
    client.Close();
    gen1->Crash();
  }
  auto gen2 = DurableServer::Start(dir, sock, /*partitioned=*/false);
  auto watcher = LineClient::ConnectUnix(sock).value();
  const auto attach = watcher.Command("ATTACH t", kTimeout).value();
  ASSERT_FALSE(attach.empty());
  EXPECT_EQ(attach[0], "OK attach t id=0 subs=strict:paused");
  ASSERT_TRUE(watcher.Command("RESUME t strict", kTimeout).ok());

  auto feeder = LineClient::ConnectUnix(sock).value();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(feeder.Command(FeedPing(10 + i, 7, i), kTimeout).ok());
  }
  // FLUSH returning proves the control thread never blocked on the full
  // kBlock queue; the watcher then receives every pushed match.
  ASSERT_TRUE(feeder.Command("FLUSH", kTimeout).ok());
  for (int i = 0; i < 5; ++i) {
    auto event = watcher.NextEvent(kTimeout);
    ASSERT_TRUE(event.ok()) << "event " << i << ": "
                            << event.status().ToString();
    EXPECT_TRUE(event->starts_with("EVENT MATCH t.strict"));
  }
  watcher.Quit();
  feeder.Quit();
  gen2->Crash();
  std::filesystem::remove_all(dir);
}

TEST(NetRecoveryTest, SingleEngineCrashRecoveryOverTheWire) {
  RunSocketCrashRecovery(/*partitioned=*/false);
}

TEST(NetRecoveryTest, Partition4CrashRecoveryOverTheWire) {
  RunSocketCrashRecovery(/*partitioned=*/true);
}

// ---------------------------------------------------------------------------
// Observability endpoint: the HTTP listener rides the same poll loop as the
// line protocol, so scrapes see exactly the state the control thread sees.

/// Minimal blocking HTTP/1.1 GET over loopback, returning the raw response
/// (head + body). The endpoint closes after one response, so read-to-EOF is
/// the framing.
std::string HttpGet(int port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return {};
  }
  const std::string request =
      "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string HttpBody(const std::string& response) {
  const size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? std::string() : response.substr(pos + 4);
}

class HttpObsTest : public NetTest {
 protected:
  /// TCP + HTTP listeners on ephemeral ports, with the registry wired the
  /// way service_demo wires it: service + pipeline collectors render at
  /// scrape time on the poll (= control) thread.
  void StartObservableServer() {
    ServerOptions options;
    options.tcp_port = 0;
    options.http_port = 0;
    options.registry = &registry_;
    options.pipeline = &pipeline_;
    // The service-level stage hooks are the owner's wiring (the server only
    // owns frontend stages), so set them before the poll thread exists.
    service_ = std::make_unique<QueryService>(&backend_, limits_);
    service_->set_pipeline_metrics(&pipeline_);
    RegisterServiceCollector(&registry_,
                             [this] { return service_->Snapshot(); });
    RegisterPipelineCollector(&registry_, &pipeline_);
    server_ = std::make_unique<SocketServer>(service_.get(), &interner_,
                                             options);
    ASSERT_TRUE(server_->Start().ok());
  }

  MetricRegistry registry_;
  PipelineMetrics pipeline_;
};

TEST_F(HttpObsTest, ScrapeAgreesWithStatsOverTheLineProtocol) {
  StartObservableServer();
  LineClient client = Connect();
  RunScript(client, std::string(kDefinePing) + "\nSESSION s\nSUBMIT s q ping");
  for (int i = 0; i < 5; ++i) {
    Run(client, FeedPing(100 + i, 7, i));
  }
  Run(client, "FLUSH");

  const std::vector<std::string> stats = Run(client, "STATS");
  uint64_t edges_fed = 0;
  for (const std::string& line : stats) {
    if (line.find("edges_fed=") != std::string::npos) {
      edges_fed = Counter(line, "edges_fed");
    }
  }
  EXPECT_EQ(edges_fed, 5u);
  EXPECT_TRUE(Contains(stats, "frontend: accepted="));
  EXPECT_TRUE(Contains(stats, "pump_flushes="));

  const std::string metrics =
      HttpGet(server_->http_port(), "/metrics");
  EXPECT_TRUE(metrics.starts_with("HTTP/1.1 200 OK"));
  EXPECT_NE(metrics.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  const std::string body = HttpBody(metrics);
  // The scrape and the STATS verb must tell the same story.
  EXPECT_NE(body.find("# TYPE streamworks_edges_fed_total counter"),
            std::string::npos);
  EXPECT_NE(body.find("streamworks_edges_fed_total " +
                      std::to_string(edges_fed)),
            std::string::npos);
  EXPECT_NE(body.find("streamworks_matches_total{event=\"enqueued\"} 5"),
            std::string::npos);
  // Stage hooks recorded every admission and engine apply.
  EXPECT_NE(body.find("streamworks_stage_duration_us_count{stage=\"admission"
                      "\"} 5"),
            std::string::npos);
  EXPECT_NE(
      body.find("streamworks_stage_duration_us_count{stage=\"engine_apply"
                "\"} 5"),
      std::string::npos);
  // Frontend counters flow through the probe into the same scrape.
  EXPECT_NE(body.find("streamworks_frontend_frames_executed_total"),
            std::string::npos);
  EXPECT_NE(body.find("streamworks_frontend_http_requests_total"),
            std::string::npos);
  // Exposition-format invariants: every histogram closes with +Inf.
  EXPECT_NE(body.find("le=\"+Inf\""), std::string::npos);

  const std::string stats_json =
      HttpGet(server_->http_port(), "/stats.json");
  EXPECT_TRUE(stats_json.starts_with("HTTP/1.1 200 OK"));
  EXPECT_NE(stats_json.find("Content-Type: application/json"),
            std::string::npos);
  EXPECT_NE(HttpBody(stats_json).find("\"edges_fed\":5"), std::string::npos);

  const std::string queries =
      HttpGet(server_->http_port(), "/queries.json");
  EXPECT_NE(HttpBody(queries).find("\"query_name\":\"ping\""),
            std::string::npos);
  EXPECT_NE(HttpBody(queries).find("\"matches_inserted\":5"),
            std::string::npos);

  const std::string health = HttpGet(server_->http_port(), "/healthz");
  EXPECT_TRUE(health.starts_with("HTTP/1.1 200 OK"));
  EXPECT_NE(HttpBody(health).find("\"status\":\"ok\""), std::string::npos);

  const std::string trace = HttpGet(server_->http_port(), "/trace.json");
  EXPECT_NE(HttpBody(trace).find("\"slow_threshold_us\""), std::string::npos);

  // A later STATS sees the scrapes themselves in http_requests.
  const std::vector<std::string> stats2 = Run(client, "STATS");
  bool counted = false;
  for (const std::string& line : stats2) {
    if (line.find("http_requests=") != std::string::npos) {
      counted = Counter(line, "http_requests") >= 5;
    }
  }
  EXPECT_TRUE(counted);
  client.Quit();
}

TEST_F(HttpObsTest, TraceVerbAndHttpErrorsBehave) {
  StartObservableServer();
  LineClient client = Connect();
  // TRACE over the wire: no slow ops yet, so just the summary line.
  const std::vector<std::string> trace = Run(client, "TRACE");
  ASSERT_FALSE(trace.empty());
  EXPECT_EQ(trace.back(), "OK trace n=0");

  EXPECT_TRUE(HttpGet(server_->http_port(), "/nope")
                  .starts_with("HTTP/1.1 404"));
  // The listener survives errors and keeps serving.
  EXPECT_TRUE(HttpGet(server_->http_port(), "/healthz")
                  .starts_with("HTTP/1.1 200"));
  client.Quit();
}

int TcpNoDelay(int fd) {
  int value = -1;
  socklen_t len = sizeof(value);
  if (::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &value, &len) != 0) return -1;
  return value;
}

// Cluster control frames are small request/reply pairs; Nagle on either
// end of the link holds each reply for the peer's delayed ACK.
TEST(PeerLinkTest, BothEndsOfATcpLinkSetNoDelay) {
  auto listener = ListenTcp("127.0.0.1", 0, 4);
  ASSERT_TRUE(listener.ok());
  auto port = BoundTcpPort(listener->get());
  ASSERT_TRUE(port.ok());
  auto connected = PeerLink::ConnectTcpRetry("127.0.0.1", *port, 5000);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();

  pollfd pfd{listener->get(), POLLIN, 0};
  ASSERT_EQ(::poll(&pfd, 1, 5000), 1);
  UniqueFd accepted_fd(::accept(listener->get(), nullptr, nullptr));
  ASSERT_TRUE(accepted_fd.valid());
  auto accepted = PeerLink::Adopt(std::move(accepted_fd), /*duplex=*/false);
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();

  EXPECT_EQ(TcpNoDelay(connected->fd()), 1);
  EXPECT_EQ(TcpNoDelay(accepted->fd()), 1);
}

TEST(PeerLinkTest, UnixLinksAdoptWithoutTcpOptions) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  UniqueFd other(fds[1]);
  auto link = PeerLink::Adopt(UniqueFd(fds[0]), /*duplex=*/true);
  ASSERT_TRUE(link.ok()) << link.status().ToString();
  EXPECT_TRUE(link->connected());
}

}  // namespace
}  // namespace streamworks
