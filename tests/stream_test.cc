// Tests for streamworks/stream: batching, the netflow generator with
// attack injection, the news generator with planted events, and the
// workload query builders — including end-to-end detection of every
// injected pattern through the SJ-Tree.

#include <gtest/gtest.h>

#include <set>
#include <unordered_map>
#include <vector>

#include "streamworks/common/interner.h"
#include "streamworks/graph/dynamic_graph.h"
#include "streamworks/match/backtrack.h"
#include "streamworks/sjtree/sj_tree.h"
#include "streamworks/sjtree/exchange.h"
#include "streamworks/stream/batching.h"
#include "streamworks/stream/cluster_wire.h"
#include "streamworks/stream/netflow_gen.h"
#include "streamworks/stream/news_gen.h"
#include "streamworks/stream/wire_format.h"
#include "streamworks/stream/workload_queries.h"

namespace streamworks {
namespace {

// --- Batching --------------------------------------------------------------------

TEST(BatchingTest, BatchByTickGroupsEqualTimestamps) {
  Interner interner;
  std::vector<StreamEdge> edges(6);
  const Timestamp ts[] = {0, 0, 1, 1, 1, 5};
  for (int i = 0; i < 6; ++i) {
    edges[i].src = i;
    edges[i].dst = i + 1;
    edges[i].src_label = edges[i].dst_label = interner.Intern("V");
    edges[i].edge_label = interner.Intern("e");
    edges[i].ts = ts[i];
  }
  const auto batches = BatchByTick(edges);
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(batches[0].size(), 2u);
  EXPECT_EQ(batches[1].size(), 3u);
  EXPECT_EQ(batches[2].size(), 1u);
  EXPECT_TRUE(BatchByTick({}).empty());
}

TEST(BatchingTest, BatchBySizeSplitsEvenly) {
  std::vector<StreamEdge> edges(10);
  const auto batches = BatchBySize(edges, 4);
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(batches[0].size(), 4u);
  EXPECT_EQ(batches[2].size(), 2u);
}

// --- Wire format (FEEDB binary frames) ----------------------------------------------

EdgeBatch WireBatch(Interner* interner, int n) {
  EdgeBatch batch;
  for (int i = 0; i < n; ++i) {
    StreamEdge e;
    e.src = 100 + static_cast<uint64_t>(i);
    e.dst = 200 + static_cast<uint64_t>(i);
    e.src_label = interner->Intern("Host");
    e.dst_label = interner->Intern(i % 2 == 0 ? "Host" : "Server");
    e.edge_label = interner->Intern("connectsTo");
    e.ts = 10 + i;
    batch.push_back(e);
  }
  return batch;
}

TEST(WireFormatTest, EncodeDecodeRoundTripsAcrossInterners) {
  // Encoder and decoder deliberately use different interners (different
  // processes never share LabelIds): labels must survive as strings.
  Interner encode_side;
  const EdgeBatch batch = WireBatch(&encode_side, 5);
  const std::string frame = EncodeFeedFrame(batch, encode_side).value();
  ASSERT_TRUE(IsFrameStart(frame));

  Interner decode_side;
  decode_side.Intern("unrelated");  // skew the id spaces
  const FrameDecodeResult decoded =
      DecodeFeedFrame(frame, kDefaultMaxFrameBodyBytes, &decode_side);
  ASSERT_EQ(decoded.status, FrameDecodeStatus::kOk);
  EXPECT_EQ(decoded.frame_bytes, frame.size());
  ASSERT_EQ(decoded.batch.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(decoded.batch[i].src, batch[i].src);
    EXPECT_EQ(decoded.batch[i].dst, batch[i].dst);
    EXPECT_EQ(decoded.batch[i].ts, batch[i].ts);
    EXPECT_EQ(decode_side.Name(decoded.batch[i].src_label),
              encode_side.Name(batch[i].src_label));
    EXPECT_EQ(decode_side.Name(decoded.batch[i].dst_label),
              encode_side.Name(batch[i].dst_label));
    EXPECT_EQ(decode_side.Name(decoded.batch[i].edge_label),
              encode_side.Name(batch[i].edge_label));
  }
  // The string table interned each distinct label once.
  EXPECT_EQ(decode_side.size(), 1u + 3u);
}

TEST(WireFormatTest, EveryProperPrefixNeedsMoreData) {
  Interner interner;
  const std::string frame =
      EncodeFeedFrame(WireBatch(&interner, 3), interner).value();
  for (size_t len = 0; len < frame.size(); ++len) {
    Interner scratch;
    const FrameDecodeResult decoded = DecodeFeedFrame(
        frame.substr(0, len), kDefaultMaxFrameBodyBytes, &scratch);
    EXPECT_EQ(decoded.status, FrameDecodeStatus::kNeedMore)
        << "prefix of " << len << " bytes";
  }
}

TEST(WireFormatTest, EmptyBatchRoundTrips) {
  Interner interner;
  const std::string frame = EncodeFeedFrame({}, interner).value();
  const FrameDecodeResult decoded =
      DecodeFeedFrame(frame, kDefaultMaxFrameBodyBytes, &interner);
  ASSERT_EQ(decoded.status, FrameDecodeStatus::kOk);
  EXPECT_TRUE(decoded.batch.empty());
}

TEST(WireFormatTest, OversizedBodyIsRefusedWithSkippableLength) {
  Interner interner;
  const std::string frame =
      EncodeFeedFrame(WireBatch(&interner, 10), interner).value();
  const FrameDecodeResult decoded =
      DecodeFeedFrame(frame, /*max_body_bytes=*/16, &interner);
  ASSERT_EQ(decoded.status, FrameDecodeStatus::kOversized);
  // The refusal still reports the full frame length so a server can skip
  // it and stay in sync.
  EXPECT_EQ(decoded.frame_bytes, frame.size());
}

TEST(WireFormatTest, LyingStringTableCountIsRejectedBeforeAllocating) {
  // A 16-byte frame claiming 2^32-1 table entries must be refused
  // outright (a remote peer's counts must never size an allocation).
  std::string frame(kFeedFrameMagic, sizeof(kFeedFrameMagic));
  const auto put_u32 = [&frame](uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      frame.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  };
  put_u32(8);           // body_len
  put_u32(0xFFFFFFFF);  // n_labels, wildly beyond the 4 body bytes left
  put_u32(0);
  Interner interner;
  const FrameDecodeResult decoded =
      DecodeFeedFrame(frame, kDefaultMaxFrameBodyBytes, &interner);
  ASSERT_EQ(decoded.status, FrameDecodeStatus::kMalformed);
  EXPECT_EQ(decoded.frame_bytes, frame.size());  // skippable
}

TEST(WireFormatTest, EncodeRefusesLabelsBeyondU16Length) {
  Interner interner;
  EdgeBatch batch = WireBatch(&interner, 1);
  batch[0].edge_label = interner.Intern(std::string(70000, 'x'));
  const auto encoded = EncodeFeedFrame(batch, interner);
  ASSERT_FALSE(encoded.ok());  // not silently truncated into a bad frame
  EXPECT_EQ(encoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireFormatTest, BadMagicIsUnrecoverable) {
  Interner interner;
  std::string frame =
      EncodeFeedFrame(WireBatch(&interner, 1), interner).value();
  frame[1] = 'X';  // lead byte right, magic wrong
  const FrameDecodeResult decoded =
      DecodeFeedFrame(frame, kDefaultMaxFrameBodyBytes, &interner);
  ASSERT_EQ(decoded.status, FrameDecodeStatus::kMalformed);
  EXPECT_EQ(decoded.frame_bytes, 0u);  // no length to resync by
}

TEST(WireFormatTest, CorruptBodiesAreMalformedButSkippable) {
  Interner interner;
  const EdgeBatch batch = WireBatch(&interner, 2);
  // Label index beyond the string table.
  std::string frame = EncodeFeedFrame(batch, interner).value();
  // Edge records sit at the tail; clobber the first edge's src_label
  // field (offset: header + table + 4-byte edge count + 16).
  const size_t table_bytes = frame.size() - kFeedFrameHeaderBytes - 4 -
                             batch.size() * kFeedFrameEdgeBytes;
  const size_t src_label_at =
      kFeedFrameHeaderBytes + table_bytes + 4 + 16;
  frame[src_label_at] = '\x7F';
  FrameDecodeResult decoded =
      DecodeFeedFrame(frame, kDefaultMaxFrameBodyBytes, &interner);
  ASSERT_EQ(decoded.status, FrameDecodeStatus::kMalformed);
  EXPECT_EQ(decoded.frame_bytes, frame.size());  // still skippable

  // Body length that does not match the edge-record count.
  std::string truncated = EncodeFeedFrame(batch, interner).value();
  truncated.resize(truncated.size() - 1);
  // Patch the body length down by one so the frame is "complete".
  const uint32_t body_len = static_cast<uint32_t>(
      truncated.size() - kFeedFrameHeaderBytes);
  for (int i = 0; i < 4; ++i) {
    truncated[4 + i] = static_cast<char>((body_len >> (8 * i)) & 0xFF);
  }
  decoded = DecodeFeedFrame(truncated, kDefaultMaxFrameBodyBytes,
                            &interner);
  EXPECT_EQ(decoded.status, FrameDecodeStatus::kMalformed);
}

TEST(WireFormatTest, StringEntryLengthBeyondBodyIsRejected) {
  // A frame whose *total* body_len is internally consistent but whose
  // first string-table entry declares a length running past the body:
  // the per-entry bounds check must refuse it (and report the declared
  // frame length so the stream can resync), not read out of bounds.
  Interner interner;
  std::string frame =
      EncodeFeedFrame(WireBatch(&interner, 2), interner).value();
  // First table entry's u16 length sits right after header + n_labels.
  const size_t len_at = kFeedFrameHeaderBytes + 4;
  frame[len_at] = '\xFF';
  frame[len_at + 1] = '\xFF';
  Interner scratch;
  const FrameDecodeResult decoded =
      DecodeFeedFrame(frame, kDefaultMaxFrameBodyBytes, &scratch);
  ASSERT_EQ(decoded.status, FrameDecodeStatus::kMalformed);
  EXPECT_EQ(decoded.frame_bytes, frame.size());
  EXPECT_NE(decoded.error.find("truncated string"), std::string::npos);
  EXPECT_EQ(scratch.size(), 0u);  // nothing bogus interned before...
}

TEST(WireFormatTest, TextNeverLooksLikeAFrame) {
  EXPECT_FALSE(IsFrameStart("FEED 1 V 2 V ping 3"));
  EXPECT_FALSE(IsFrameStart("STATS"));
  EXPECT_FALSE(IsFrameStart(""));
}

// --- NetflowGenerator ---------------------------------------------------------------

TEST(NetflowGeneratorTest, DeterministicAndTimeOrdered) {
  Interner interner;
  NetflowGenerator::Options opt;
  opt.seed = 5;
  opt.background_edges = 2000;
  NetflowGenerator gen_a(opt, &interner);
  NetflowGenerator gen_b(opt, &interner);
  const auto a = gen_a.Generate();
  const auto b = gen_b.Generate();
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), 2000u);
  Timestamp prev = 0;
  for (const StreamEdge& e : a) {
    EXPECT_GE(e.ts, prev);
    prev = e.ts;
    EXPECT_LT(e.src, 256u);
    EXPECT_LT(e.dst, 256u);
  }
}

TEST(NetflowGeneratorTest, SubnetPartition) {
  Interner interner;
  NetflowGenerator::Options opt;
  opt.num_hosts = 64;
  opt.num_subnets = 4;
  NetflowGenerator gen(opt, &interner);
  EXPECT_EQ(gen.hosts_per_subnet(), 16);
  EXPECT_EQ(gen.SubnetOf(0), 0);
  EXPECT_EQ(gen.SubnetOf(15), 0);
  EXPECT_EQ(gen.SubnetOf(16), 1);
  EXPECT_EQ(gen.SubnetOf(63), 3);
}

TEST(NetflowGeneratorTest, ProtocolMixIsSkewed) {
  Interner interner;
  NetflowGenerator::Options opt;
  opt.seed = 7;
  opt.background_edges = 5000;
  NetflowGenerator gen(opt, &interner);
  std::unordered_map<LabelId, int> counts;
  for (const StreamEdge& e : gen.Generate()) ++counts[e.edge_label];
  const LabelId tcp = interner.Find("tcpConn");
  ASSERT_NE(tcp, kInvalidLabelId);
  int max_other = 0;
  for (const auto& [label, count] : counts) {
    if (label != tcp) max_other = std::max(max_other, count);
  }
  EXPECT_GT(counts[tcp], max_other);  // rank-0 protocol dominates
}

TEST(NetflowGeneratorTest, NoAttackNoiseOptionExcludesAttackLabels) {
  Interner interner;
  NetflowGenerator::Options opt;
  opt.seed = 11;
  opt.background_edges = 3000;
  opt.attack_label_noise = false;
  NetflowGenerator gen(opt, &interner);
  const LabelId probe = interner.Find("synProbe");
  const LabelId echo = interner.Find("icmpEchoReq");
  for (const StreamEdge& e : gen.Generate()) {
    EXPECT_NE(e.edge_label, probe);
    EXPECT_NE(e.edge_label, echo);
  }
}

TEST(NetflowGeneratorTest, SmurfInjectionShape) {
  Interner interner;
  NetflowGenerator::Options opt;
  opt.seed = 13;
  opt.background_edges = 100;
  NetflowGenerator gen(opt, &interner);
  gen.InjectSmurf(/*at=*/3, /*num_amplifiers=*/4, /*attacker_subnet=*/0,
                  /*victim_subnet=*/2);
  ASSERT_EQ(gen.injections().size(), 1u);
  const Injection& inj = gen.injections()[0];
  EXPECT_EQ(inj.kind, "smurf");
  ASSERT_EQ(inj.edges.size(), 8u);  // 4 requests + 4 replies
  const LabelId req = interner.Find("icmpEchoReq");
  const LabelId reply = interner.Find("icmpEchoReply");
  std::set<ExternalVertexId> amplifiers;
  ExternalVertexId attacker = inj.edges[0].src;
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(inj.edges[i].edge_label, req);
    EXPECT_EQ(inj.edges[i].src, attacker);
    amplifiers.insert(inj.edges[i].dst);
  }
  EXPECT_EQ(amplifiers.size(), 4u);
  const ExternalVertexId victim = inj.edges[4].dst;
  for (int i = 4; i < 8; ++i) {
    EXPECT_EQ(inj.edges[i].edge_label, reply);
    EXPECT_TRUE(amplifiers.count(inj.edges[i].src));
    EXPECT_EQ(inj.edges[i].dst, victim);
  }
  EXPECT_EQ(gen.SubnetOf(attacker), 0);
  EXPECT_EQ(gen.SubnetOf(victim), 2);
  // The injection lands in the generated stream.
  const auto edges = gen.Generate();
  int found = 0;
  for (const StreamEdge& e : edges) {
    for (const StreamEdge& inj_e : inj.edges) {
      if (e == inj_e) ++found;
    }
  }
  EXPECT_EQ(found, 8);
}

TEST(NetflowGeneratorTest, WormScanExfilInjectionShapes) {
  Interner interner;
  NetflowGenerator::Options opt;
  opt.seed = 17;
  opt.background_edges = 50;
  NetflowGenerator gen(opt, &interner);
  gen.InjectWorm(5, /*hops=*/3);
  gen.InjectPortScan(9, /*num_targets=*/5);
  gen.InjectExfiltration(12);
  ASSERT_EQ(gen.injections().size(), 3u);

  const Injection& worm = gen.injections()[0];
  ASSERT_EQ(worm.edges.size(), 3u);
  EXPECT_EQ(worm.edges[0].dst, worm.edges[1].src);  // chain links
  EXPECT_EQ(worm.edges[1].dst, worm.edges[2].src);

  const Injection& scan = gen.injections()[1];
  ASSERT_EQ(scan.edges.size(), 5u);
  std::set<ExternalVertexId> targets;
  for (const StreamEdge& e : scan.edges) {
    EXPECT_EQ(e.src, scan.edges[0].src);
    targets.insert(e.dst);
  }
  EXPECT_EQ(targets.size(), 5u);

  const Injection& exfil = gen.injections()[2];
  ASSERT_EQ(exfil.edges.size(), 2u);
  EXPECT_EQ(exfil.edges[0].dst, exfil.edges[1].src);
  EXPECT_EQ(exfil.edges[0].edge_label, interner.Find("copy"));
  EXPECT_EQ(exfil.edges[1].edge_label, interner.Find("upload"));
}

// --- NewsGenerator ---------------------------------------------------------------

TEST(NewsGeneratorTest, DeterministicTimeOrderedAndWellLabelled) {
  Interner interner;
  NewsGenerator::Options opt;
  opt.seed = 3;
  opt.num_articles = 500;
  NewsGenerator gen_a(opt, &interner);
  NewsGenerator gen_b(opt, &interner);
  const auto a = gen_a.Generate();
  EXPECT_EQ(a, gen_b.Generate());
  ASSERT_GT(a.size(), 500u);  // >= 1 keyword edge per article

  const LabelId article = interner.Find("Article");
  Timestamp prev = 0;
  for (const StreamEdge& e : a) {
    EXPECT_GE(e.ts, prev);
    prev = e.ts;
    EXPECT_EQ(e.src_label, article);  // article -> entity orientation
    EXPECT_GE(e.src, NewsGenerator::kArticleBase);
    EXPECT_GE(e.dst, NewsGenerator::kKeywordBase);
  }
}

TEST(NewsGeneratorTest, KeywordVerticesCarryTopicLabels) {
  Interner interner;
  NewsGenerator::Options opt;
  opt.seed = 5;
  opt.num_articles = 300;
  NewsGenerator gen(opt, &interner);
  const auto edges = gen.Generate();
  const LabelId has_keyword = interner.Find("hasKeyword");
  std::set<LabelId> keyword_labels;
  for (const StreamEdge& e : edges) {
    if (e.edge_label == has_keyword) keyword_labels.insert(e.dst_label);
  }
  // All six topics should appear among keyword vertex labels.
  for (const char* topic : {"politics", "sports", "business", "accident",
                            "science", "health"}) {
    EXPECT_TRUE(keyword_labels.count(interner.Find(topic)))
        << topic << " missing";
  }
}

TEST(NewsGeneratorTest, EntityPopularityIsSkewed) {
  Interner interner;
  NewsGenerator::Options opt;
  opt.seed = 7;
  opt.num_articles = 1000;
  opt.entity_skew = 1.1;
  NewsGenerator gen(opt, &interner);
  std::unordered_map<ExternalVertexId, int> keyword_counts;
  const LabelId has_keyword = interner.Find("hasKeyword");
  for (const StreamEdge& e : gen.Generate()) {
    if (e.edge_label == has_keyword) ++keyword_counts[e.dst];
  }
  // Rank-0 keyword should be far more popular than the median keyword.
  const int top = keyword_counts[NewsGenerator::kKeywordBase + 0];
  int total = 0;
  for (const auto& [k, c] : keyword_counts) total += c;
  EXPECT_GT(top * 10, total / static_cast<int>(keyword_counts.size()) * 10
                          * 5);  // top >= 5x mean
}

TEST(NewsGeneratorTest, InjectedEventSharesKeywordAndLocation) {
  Interner interner;
  NewsGenerator::Options opt;
  opt.seed = 9;
  opt.num_articles = 200;
  NewsGenerator gen(opt, &interner);
  gen.InjectEvent(10, "accident", 3);
  ASSERT_EQ(gen.injections().size(), 1u);
  const Injection& inj = gen.injections()[0];
  ASSERT_EQ(inj.edges.size(), 6u);  // 3 articles x (keyword + location)
  std::set<ExternalVertexId> keywords;
  std::set<ExternalVertexId> locations;
  std::set<ExternalVertexId> articles;
  for (const StreamEdge& e : inj.edges) {
    articles.insert(e.src);
    if (e.edge_label == interner.Find("hasKeyword")) {
      keywords.insert(e.dst);
      EXPECT_EQ(e.dst_label, interner.Find("accident"));
    } else {
      locations.insert(e.dst);
    }
  }
  EXPECT_EQ(keywords.size(), 1u);
  EXPECT_EQ(locations.size(), 1u);
  EXPECT_EQ(articles.size(), 3u);
}

// --- Workload queries ------------------------------------------------------------

TEST(WorkloadQueriesTest, ShapesAreValid) {
  Interner interner;
  const QueryGraph smurf = BuildSmurfQuery(&interner, 3);
  EXPECT_EQ(smurf.num_vertices(), 5);
  EXPECT_EQ(smurf.num_edges(), 6);
  const QueryGraph worm = BuildWormQuery(&interner, 3);
  EXPECT_EQ(worm.num_vertices(), 4);
  EXPECT_EQ(worm.num_edges(), 3);
  const QueryGraph scan = BuildPortScanQuery(&interner, 4);
  EXPECT_EQ(scan.num_vertices(), 5);
  EXPECT_EQ(scan.num_edges(), 4);
  const QueryGraph exfil = BuildExfiltrationQuery(&interner);
  EXPECT_EQ(exfil.num_edges(), 2);
  const QueryGraph news = BuildNewsEventQuery(&interner, "politics", 3);
  EXPECT_EQ(news.num_vertices(), 5);
  EXPECT_EQ(news.num_edges(), 6);
  EXPECT_EQ(news.vertex_label(0), interner.Find("politics"));
}

// --- End-to-end detection through the SJ-Tree ---------------------------------------

/// Replays a stream through a left-deep SJ-Tree and returns completions.
std::vector<Match> Detect(const std::vector<StreamEdge>& edges,
                          const QueryGraph& q, Interner* interner,
                          Timestamp window) {
  auto order = ConnectedEdgeOrder(q, q.AllEdges(), 0);
  std::vector<Bitset64> leaves;
  for (QueryEdgeId e : order) leaves.push_back(Bitset64::Single(e));
  SjTree tree(&q, Decomposition::MakeLeftDeep(q, leaves).value(), window);
  DynamicGraph g(interner);
  g.set_retention(window);
  std::vector<Match> completed;
  for (const StreamEdge& e : edges) {
    tree.ProcessEdge(g, g.AddEdge(e).value(), &completed);
  }
  return completed;
}

TEST(EndToEndDetectionTest, SmurfInjectionIsDetected) {
  Interner interner;
  NetflowGenerator::Options opt;
  opt.seed = 21;
  opt.background_edges = 4000;
  opt.attack_label_noise = false;  // every detection is the injection
  NetflowGenerator gen(opt, &interner);
  gen.InjectSmurf(/*at=*/100, /*num_amplifiers=*/3);
  const QueryGraph q = BuildSmurfQuery(&interner, 3);
  const auto matches = Detect(gen.Generate(), q, &interner, 50);
  // 3 amplifiers in the query, 3 injected: 3! = 6 automorphic mappings of
  // one underlying attack subgraph.
  ASSERT_EQ(matches.size(), 6u);
  std::set<uint64_t> distinct_subgraphs;
  for (const Match& m : matches) {
    distinct_subgraphs.insert(m.EdgeSetSignature());
  }
  EXPECT_EQ(distinct_subgraphs.size(), 1u);
}

TEST(EndToEndDetectionTest, EverySeparateInjectionFound) {
  Interner interner;
  NetflowGenerator::Options opt;
  opt.seed = 23;
  opt.background_edges = 6000;
  opt.attack_label_noise = false;
  NetflowGenerator gen(opt, &interner);
  gen.InjectPortScan(40, 4);
  gen.InjectPortScan(120, 4);
  gen.InjectWorm(200, 3);
  gen.InjectExfiltration(260);
  const auto edges = gen.Generate();

  const auto scans =
      Detect(edges, BuildPortScanQuery(&interner, 4), &interner, 30);
  // Each injected scan yields 4! = 24 automorphic mappings; two scans.
  std::set<uint64_t> scan_subgraphs;
  for (const Match& m : scans) scan_subgraphs.insert(m.EdgeSetSignature());
  EXPECT_EQ(scan_subgraphs.size(), 2u);
  EXPECT_EQ(scans.size(), 48u);

  const auto worms =
      Detect(edges, BuildWormQuery(&interner, 3), &interner, 30);
  EXPECT_EQ(worms.size(), 1u);

  const auto exfils =
      Detect(edges, BuildExfiltrationQuery(&interner), &interner, 30);
  EXPECT_EQ(exfils.size(), 1u);
}

TEST(EndToEndDetectionTest, WindowSeparatesSlowAttack) {
  Interner interner;
  NetflowGenerator::Options opt;
  opt.seed = 29;
  opt.background_edges = 1000;
  opt.attack_label_noise = false;
  NetflowGenerator gen(opt, &interner);
  gen.InjectWorm(10, 2);  // hops at ts 10, 11
  const auto edges = gen.Generate();
  const QueryGraph q = BuildWormQuery(&interner, 2);
  EXPECT_EQ(Detect(edges, q, &interner, 5).size(), 1u);
  // A window of 1 cannot span the two ticks.
  EXPECT_TRUE(Detect(edges, q, &interner, 1).empty());
}

TEST(EndToEndDetectionTest, NewsEventDetectedPerTopic) {
  Interner interner;
  NewsGenerator::Options opt;
  opt.seed = 31;
  opt.num_articles = 600;
  opt.entity_skew = 0.4;  // flatter popularity: few organic co-occurrences
  NewsGenerator gen(opt, &interner);
  gen.InjectEvent(30, "accident", 3);
  const auto edges = gen.Generate();
  const QueryGraph q = BuildNewsEventQuery(&interner, "accident", 3);
  const auto matches = Detect(edges, q, &interner, 20);
  // The injected event must be found: 3 articles are interchangeable, so
  // its subgraph appears as 3! = 6 mappings; organic accident events may
  // add more.
  ASSERT_GE(matches.size(), 6u);
  std::set<uint64_t> subgraphs;
  for (const Match& m : matches) subgraphs.insert(m.EdgeSetSignature());
  // At least one distinct subgraph is the injection; all its articles link
  // one keyword and one location.
  EXPECT_GE(subgraphs.size(), 1u);
}

// --- Cluster control-frame codec -------------------------------------------

// Decodes a buffer that must hold exactly one well-formed frame.
CtrlFrame MustDecode(const std::string& buf, Interner* interner) {
  const CtrlDecodeResult result =
      DecodeCtrlFrame(buf, kDefaultMaxFrameBodyBytes, interner);
  EXPECT_EQ(result.status, FrameDecodeStatus::kOk) << result.error;
  EXPECT_EQ(result.frame_bytes, buf.size());
  return result.frame;
}

LabelNameFn NameFn(const Interner& interner) {
  return [&interner](LabelId id) -> std::string_view {
    return interner.Name(id);
  };
}

TEST(ClusterWireTest, HelloAndAckRoundTrip) {
  CtrlHello hello;
  hello.num_shards = 4;
  hello.shard_index = 2;
  hello.partitioner_seed = 0xfeedfacecafebeefULL;
  hello.exchange_items_received = 123456789;
  hello.completions_received = 42;
  Interner interner;
  const CtrlFrame frame = MustDecode(EncodeHelloFrame(hello), &interner);
  ASSERT_EQ(frame.type, CtrlType::kHello);
  EXPECT_EQ(frame.hello.protocol, kCtrlProtocolVersion);
  EXPECT_EQ(frame.hello.num_shards, 4);
  EXPECT_EQ(frame.hello.shard_index, 2);
  EXPECT_EQ(frame.hello.partitioner_seed, hello.partitioner_seed);
  EXPECT_EQ(frame.hello.exchange_items_received, 123456789u);
  EXPECT_EQ(frame.hello.completions_received, 42u);

  CtrlHelloAck ack;
  ack.applied_frames = 7;
  const CtrlFrame ackf = MustDecode(EncodeHelloAckFrame(ack), &interner);
  ASSERT_EQ(ackf.type, CtrlType::kHelloAck);
  EXPECT_EQ(ackf.hello_ack.applied_frames, 7u);
}

TEST(ClusterWireTest, RegisterRoundTripPreservesQueryShape) {
  CtrlRegister reg;
  reg.expect_id = 3;
  reg.strategy = 1;
  reg.window = 500;
  reg.name = "lateral";
  reg.vertex_labels = {"User", "Host", "Host"};
  reg.edges = {{0, 1, "login"}, {1, 2, "connect"}};
  Interner interner;
  const CtrlFrame frame = MustDecode(EncodeRegisterFrame(reg), &interner);
  ASSERT_EQ(frame.type, CtrlType::kRegister);
  EXPECT_EQ(frame.reg.expect_id, 3);
  EXPECT_EQ(frame.reg.strategy, 1);
  EXPECT_EQ(frame.reg.window, 500);
  EXPECT_EQ(frame.reg.name, "lateral");
  ASSERT_EQ(frame.reg.vertex_labels.size(), 3u);
  EXPECT_EQ(frame.reg.vertex_labels[1], "Host");
  ASSERT_EQ(frame.reg.edges.size(), 2u);
  EXPECT_EQ(frame.reg.edges[0].src, 0);
  EXPECT_EQ(frame.reg.edges[1].dst, 2);
  EXPECT_EQ(frame.reg.edges[1].label, "connect");

  CtrlRegisterAck ack;
  ack.id = 3;
  ack.ok = false;
  ack.error = "window must be positive";
  const CtrlFrame ackf = MustDecode(EncodeRegisterAckFrame(ack), &interner);
  ASSERT_EQ(ackf.type, CtrlType::kRegisterAck);
  EXPECT_EQ(ackf.register_ack.id, 3);
  EXPECT_FALSE(ackf.register_ack.ok);
  EXPECT_EQ(ackf.register_ack.error, "window must be positive");
}

TEST(ClusterWireTest, BatchRoundTripReResolvesLabelsByString) {
  Interner enc_interner;
  CtrlBatch batch;
  CtrlShardEdge e1;
  e1.edge = {10, 20, enc_interner.Intern("Host"), enc_interner.Intern("IP"),
             enc_interner.Intern("hasIP"), 77};
  e1.global_id = 5;
  e1.run_anchors = true;
  CtrlShardEdge e2;
  e2.edge = {20, 10, enc_interner.Intern("IP"), enc_interner.Intern("Host"),
             enc_interner.Intern("reverse"), 78};
  e2.global_id = 6;
  e2.run_anchors = false;
  batch.edges = {e1, e2};
  // Decode into a *fresh* interner whose id assignment differs — labels
  // must survive as strings, not ids.
  Interner dec_interner;
  dec_interner.Intern("something-else");
  const CtrlFrame frame =
      MustDecode(EncodeBatchFrame(batch, NameFn(enc_interner)), &dec_interner);
  ASSERT_EQ(frame.type, CtrlType::kBatch);
  ASSERT_EQ(frame.batch.edges.size(), 2u);
  const CtrlShardEdge& d1 = frame.batch.edges[0];
  EXPECT_EQ(d1.edge.src, 10u);
  EXPECT_EQ(d1.edge.dst, 20u);
  EXPECT_EQ(dec_interner.Name(d1.edge.src_label), "Host");
  EXPECT_EQ(dec_interner.Name(d1.edge.edge_label), "hasIP");
  EXPECT_EQ(d1.edge.ts, 77);
  EXPECT_EQ(d1.global_id, 5u);
  EXPECT_TRUE(d1.run_anchors);
  EXPECT_FALSE(frame.batch.edges[1].run_anchors);
  EXPECT_EQ(dec_interner.Name(frame.batch.edges[1].edge.edge_label),
            "reverse");
}

TEST(ClusterWireTest, ExchangeRoundTripCarriesFullItem) {
  Interner enc_interner;
  CtrlExchange exchange;
  CtrlExchangeItem item;
  item.dest = 3;
  item.item.kind = ExchangeKind::kInsert;
  item.item.query_id = 9;
  item.item.plan = 2;
  item.item.step = 4;
  item.item.node = 6;
  item.item.match.vertices = {{0, 100, enc_interner.Intern("Host")},
                              {1, 200, enc_interner.Intern("IP")}};
  item.item.match.edges = {{0, 55, 77}};
  exchange.items = {item};
  Interner dec_interner;
  const CtrlFrame frame = MustDecode(
      EncodeExchangeFrame(exchange, NameFn(enc_interner)), &dec_interner);
  ASSERT_EQ(frame.type, CtrlType::kExchange);
  ASSERT_EQ(frame.exchange.items.size(), 1u);
  const CtrlExchangeItem& d = frame.exchange.items[0];
  EXPECT_EQ(d.dest, 3);
  EXPECT_EQ(d.item.kind, ExchangeKind::kInsert);
  EXPECT_EQ(d.item.query_id, 9);
  EXPECT_EQ(d.item.plan, 2u);
  EXPECT_EQ(d.item.step, 4);
  EXPECT_EQ(d.item.node, 6);
  ASSERT_EQ(d.item.match.vertices.size(), 2u);
  EXPECT_EQ(d.item.match.vertices[1].vertex, 200u);
  EXPECT_EQ(dec_interner.Name(d.item.match.vertices[0].label), "Host");
  ASSERT_EQ(d.item.match.edges.size(), 1u);
  EXPECT_EQ(d.item.match.edges[0].edge, 55u);
  EXPECT_EQ(d.item.match.edges[0].ts, 77);
}

TEST(ClusterWireTest, ControlOnlyFramesRoundTrip) {
  Interner interner;
  CtrlBarrier barrier;
  barrier.round = 31;
  CtrlFrame f = MustDecode(EncodeBarrierFrame(barrier), &interner);
  ASSERT_EQ(f.type, CtrlType::kBarrier);
  EXPECT_EQ(f.barrier.round, 31u);

  CtrlBarrierAck back;
  back.round = 31;
  back.applied_frames = 99;
  f = MustDecode(EncodeBarrierAckFrame(back), &interner);
  ASSERT_EQ(f.type, CtrlType::kBarrierAck);
  EXPECT_EQ(f.barrier_ack.round, 31u);
  EXPECT_EQ(f.barrier_ack.applied_frames, 99u);

  CtrlCommit commit;
  commit.watermark = 12345;
  f = MustDecode(EncodeCommitFrame(commit), &interner);
  ASSERT_EQ(f.type, CtrlType::kCommit);
  EXPECT_EQ(f.commit.watermark, 12345);

  f = MustDecode(EncodeEndBackfillFrame(), &interner);
  EXPECT_EQ(f.type, CtrlType::kEndBackfill);

  CtrlUnregister unreg;
  unreg.query_id = 8;
  f = MustDecode(EncodeUnregisterFrame(unreg), &interner);
  ASSERT_EQ(f.type, CtrlType::kUnregister);
  EXPECT_EQ(f.unregister.query_id, 8);

  CtrlInfo info;
  info.query_id = 2;
  f = MustDecode(EncodeInfoFrame(info), &interner);
  ASSERT_EQ(f.type, CtrlType::kInfo);
  EXPECT_EQ(f.info.query_id, 2);

  f = MustDecode(EncodeStatsFrame(), &interner);
  EXPECT_EQ(f.type, CtrlType::kStats);
}

TEST(ClusterWireTest, CompletionAndAckPayloadsRoundTrip) {
  Interner enc_interner;
  CtrlCompletion completion;
  completion.query_id = 4;
  completion.completed_at = 900;
  completion.match.vertices = {{0, 7, enc_interner.Intern("Host")}};
  completion.match.edges = {{0, 3, 899}, {1, 4, 900}};
  Interner dec_interner;
  CtrlFrame f = MustDecode(
      EncodeCompletionFrame(completion, NameFn(enc_interner)), &dec_interner);
  ASSERT_EQ(f.type, CtrlType::kCompletion);
  EXPECT_EQ(f.completion.query_id, 4);
  EXPECT_EQ(f.completion.completed_at, 900);
  ASSERT_EQ(f.completion.match.edges.size(), 2u);
  EXPECT_EQ(f.completion.match.edges[1].edge, 4u);

  CtrlInfoAck info_ack;
  info_ack.ok = true;
  info_ack.name = "probe";
  info_ack.window = 100;
  info_ack.completions = 8;
  info_ack.live_partial_matches = 3;
  info_ack.peak_partial_matches = 5;
  SjNodeRuntime node;
  node.node = 1;
  node.is_leaf = true;
  node.query_edges = 2;
  node.matches_inserted = 10;
  node.probes = 20;
  node.join_attempts = 30;
  node.joins_succeeded = 15;
  node.live_partial_matches = 2;
  info_ack.nodes = {node};
  f = MustDecode(EncodeInfoAckFrame(info_ack), &dec_interner);
  ASSERT_EQ(f.type, CtrlType::kInfoAck);
  EXPECT_TRUE(f.info_ack.ok);
  EXPECT_EQ(f.info_ack.name, "probe");
  ASSERT_EQ(f.info_ack.nodes.size(), 1u);
  EXPECT_EQ(f.info_ack.nodes[0].joins_succeeded, 15u);
  EXPECT_TRUE(f.info_ack.nodes[0].is_leaf);

  ShardStatsSnapshot stats;
  stats.retained_edges = 1;
  stats.retained_vertices = 2;
  stats.evicted_edges = 3;
  stats.edges_processed = 4;
  stats.completions = 5;
  stats.live_partial_matches = 6;
  stats.exchange.sent_inserts = 7;
  stats.exchange.received_completions = 8;
  f = MustDecode(EncodeStatsAckFrame(stats), &dec_interner);
  ASSERT_EQ(f.type, CtrlType::kStatsAck);
  EXPECT_EQ(f.stats_ack.evicted_edges, 3u);
  EXPECT_EQ(f.stats_ack.exchange.sent_inserts, 7u);
  EXPECT_EQ(f.stats_ack.exchange.received_completions, 8u);
}

TEST(ClusterWireTest, TruncatedFrameNeedsMoreAtEveryPrefix) {
  CtrlRegister reg;
  reg.expect_id = 1;
  reg.window = 10;
  reg.name = "q";
  reg.vertex_labels = {"A", "B"};
  reg.edges = {{0, 1, "e"}};
  const std::string whole = EncodeRegisterFrame(reg);
  Interner interner;
  for (size_t len = 0; len < whole.size(); ++len) {
    const CtrlDecodeResult result = DecodeCtrlFrame(
        whole.substr(0, len), kDefaultMaxFrameBodyBytes, &interner);
    EXPECT_EQ(result.status, FrameDecodeStatus::kNeedMore)
        << "prefix of " << len << " bytes";
  }
}

TEST(ClusterWireTest, BadMagicIsUnrecoverablyMalformed) {
  std::string buf = EncodeBarrierFrame(CtrlBarrier{});
  buf[0] = 'X';
  Interner interner;
  const CtrlDecodeResult result =
      DecodeCtrlFrame(buf, kDefaultMaxFrameBodyBytes, &interner);
  EXPECT_EQ(result.status, FrameDecodeStatus::kMalformed);
  // frame_bytes 0 signals desync: the control plane tears the link down.
  EXPECT_EQ(result.frame_bytes, 0u);
}

TEST(ClusterWireTest, LyingInteriorCountIsMalformedNotOverread) {
  CtrlBatch batch;
  CtrlShardEdge e;
  Interner enc;
  e.edge = {1, 2, enc.Intern("A"), enc.Intern("B"), enc.Intern("e"), 3};
  e.global_id = 0;
  batch.edges = {e};
  std::string buf = EncodeBatchFrame(batch, NameFn(enc));
  // The edge count lives right after the 8-byte header + 1-byte type +
  // string table; easier and stronger: bump every interior byte in turn
  // and require the decoder to stay within [kOk with same size,
  // kMalformed] — never a crash, never consuming beyond the buffer.
  Interner interner;
  for (size_t i = kCtrlFrameHeaderBytes; i < buf.size(); ++i) {
    std::string corrupt = buf;
    corrupt[i] = static_cast<char>(corrupt[i] + 0x41);
    const CtrlDecodeResult result =
        DecodeCtrlFrame(corrupt, kDefaultMaxFrameBodyBytes, &interner);
    if (result.status == FrameDecodeStatus::kOk) {
      EXPECT_EQ(result.frame_bytes, corrupt.size());
    } else {
      EXPECT_TRUE(result.status == FrameDecodeStatus::kMalformed ||
                  result.status == FrameDecodeStatus::kNeedMore)
          << "byte " << i;
    }
  }
}

TEST(ClusterWireTest, OversizedBodyReportsSkipBytes) {
  CtrlBatch batch;
  CtrlShardEdge e;
  Interner enc;
  e.edge = {1, 2, enc.Intern("A"), enc.Intern("B"), enc.Intern("e"), 3};
  batch.edges.assign(100, e);
  const std::string buf = EncodeBatchFrame(batch, NameFn(enc));
  Interner interner;
  const CtrlDecodeResult result = DecodeCtrlFrame(buf, /*max_body_bytes=*/64,
                                                  &interner);
  EXPECT_EQ(result.status, FrameDecodeStatus::kOversized);
  EXPECT_EQ(result.frame_bytes, buf.size());
}

TEST(ClusterWireTest, TrailingBytesAreNotConsumed) {
  const std::string frame = EncodeCommitFrame(CtrlCommit{.watermark = 5});
  const std::string buf = frame + "garbage-after-the-frame";
  Interner interner;
  const CtrlDecodeResult result =
      DecodeCtrlFrame(buf, kDefaultMaxFrameBodyBytes, &interner);
  EXPECT_EQ(result.status, FrameDecodeStatus::kOk);
  EXPECT_EQ(result.frame_bytes, frame.size());
  EXPECT_EQ(result.frame.commit.watermark, 5);
}

TEST(ClusterWireTest, StateTypeClassificationMatchesProtocol) {
  EXPECT_TRUE(IsStateCtrlType(CtrlType::kRegister));
  EXPECT_TRUE(IsStateCtrlType(CtrlType::kEndBackfill));
  EXPECT_TRUE(IsStateCtrlType(CtrlType::kUnregister));
  EXPECT_TRUE(IsStateCtrlType(CtrlType::kBatch));
  EXPECT_TRUE(IsStateCtrlType(CtrlType::kExchange));
  EXPECT_TRUE(IsStateCtrlType(CtrlType::kCommit));
  EXPECT_FALSE(IsStateCtrlType(CtrlType::kHello));
  EXPECT_FALSE(IsStateCtrlType(CtrlType::kHelloAck));
  EXPECT_FALSE(IsStateCtrlType(CtrlType::kBarrier));
  EXPECT_FALSE(IsStateCtrlType(CtrlType::kBarrierAck));
  EXPECT_FALSE(IsStateCtrlType(CtrlType::kCompletion));
  EXPECT_FALSE(IsStateCtrlType(CtrlType::kInfo));
  // Metrics federation frames are pure observability — never logged,
  // never replayed.
  EXPECT_FALSE(IsStateCtrlType(CtrlType::kMetricsRequest));
  EXPECT_FALSE(IsStateCtrlType(CtrlType::kMetricsReport));
}

// Builds a representative MetricsReport: one sample of each kind, with
// and without labels, plus a sparse histogram.
CtrlMetricsReport SampleMetricsReport() {
  CtrlMetricsReport report;
  report.wal_seq = 17;
  report.replayed_frames = 3;
  report.exchange_items_sent = 1234;
  report.completions_sent = 56;
  MetricSample counter;
  counter.kind = MetricSample::Kind::kCounter;
  counter.name = "streamworks_edges_fed_total";
  counter.help = "Stream edges admitted through the query service.";
  counter.labels = {{"role", "worker"}};
  counter.counter = 4242;
  MetricSample gauge;
  gauge.kind = MetricSample::Kind::kGauge;
  gauge.name = "streamworks_watermark";
  gauge.help = "Group watermark.";
  gauge.gauge = -12.75;
  MetricSample hist;
  hist.kind = MetricSample::Kind::kHistogram;
  hist.name = "streamworks_stage_duration_us";
  hist.help = "Stage durations.";
  hist.labels = {{"stage", "sjtree_join"}, {"unit", "us"}};
  hist.histogram.Record(0);
  hist.histogram.Record(7);
  hist.histogram.Record(7);
  hist.histogram.Record(1 << 20);
  report.samples = {counter, gauge, hist};
  return report;
}

TEST(ClusterWireTest, MetricsFramesRoundTrip) {
  Interner interner;
  const CtrlFrame req = MustDecode(EncodeMetricsRequestFrame(), &interner);
  EXPECT_EQ(req.type, CtrlType::kMetricsRequest);

  const CtrlMetricsReport report = SampleMetricsReport();
  const CtrlFrame f = MustDecode(EncodeMetricsReportFrame(report), &interner);
  ASSERT_EQ(f.type, CtrlType::kMetricsReport);
  const CtrlMetricsReport& d = f.metrics_report;
  EXPECT_EQ(d.wal_seq, 17u);
  EXPECT_EQ(d.replayed_frames, 3u);
  EXPECT_EQ(d.exchange_items_sent, 1234u);
  EXPECT_EQ(d.completions_sent, 56u);
  ASSERT_EQ(d.samples.size(), 3u);
  EXPECT_EQ(d.samples[0].kind, MetricSample::Kind::kCounter);
  EXPECT_EQ(d.samples[0].name, "streamworks_edges_fed_total");
  ASSERT_EQ(d.samples[0].labels.size(), 1u);
  EXPECT_EQ(d.samples[0].labels[0].first, "role");
  EXPECT_EQ(d.samples[0].labels[0].second, "worker");
  EXPECT_EQ(d.samples[0].counter, 4242u);
  EXPECT_EQ(d.samples[1].kind, MetricSample::Kind::kGauge);
  EXPECT_EQ(d.samples[1].gauge, -12.75);  // bit-exact through bit_cast
  EXPECT_TRUE(d.samples[1].labels.empty());
  EXPECT_EQ(d.samples[2].kind, MetricSample::Kind::kHistogram);
  ASSERT_EQ(d.samples[2].labels.size(), 2u);
  EXPECT_EQ(d.samples[2].labels[0].second, "sjtree_join");
  EXPECT_EQ(d.samples[2].histogram.total_count(), 4u);
  EXPECT_EQ(d.samples[2].histogram.sum(),
            report.samples[2].histogram.sum());
  EXPECT_EQ(d.samples[2].histogram.Quantile(0.5),
            report.samples[2].histogram.Quantile(0.5));
}

TEST(ClusterWireTest, MetricsReportTruncationNeedsMoreAtEveryPrefix) {
  const std::string whole = EncodeMetricsReportFrame(SampleMetricsReport());
  Interner interner;
  for (size_t len = 0; len < whole.size(); ++len) {
    const CtrlDecodeResult result = DecodeCtrlFrame(
        whole.substr(0, len), kDefaultMaxFrameBodyBytes, &interner);
    EXPECT_EQ(result.status, FrameDecodeStatus::kNeedMore)
        << "prefix of " << len << " bytes";
  }
}

TEST(ClusterWireTest, MetricsReportCorruptByteIsCaughtByCrc) {
  const std::string whole = EncodeMetricsReportFrame(SampleMetricsReport());
  Interner interner;
  for (size_t i = 0; i < whole.size(); ++i) {
    std::string corrupt = whole;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x41);
    const CtrlDecodeResult result =
        DecodeCtrlFrame(corrupt, kDefaultMaxFrameBodyBytes, &interner);
    if (i < kCtrlFrameHeaderBytes) {
      // Magic/body_len corruption: malformed, oversized, or starved —
      // never accepted.
      EXPECT_NE(result.status, FrameDecodeStatus::kOk) << "byte " << i;
    } else {
      // Every body byte (the type byte and the whole CRC-covered
      // payload, trailer included) must be rejected outright.
      EXPECT_EQ(result.status, FrameDecodeStatus::kMalformed) << "byte " << i;
    }
  }
}

TEST(ClusterWireTest, MetricsReportCrcMismatchNamesTheCheck) {
  std::string corrupt = EncodeMetricsReportFrame(SampleMetricsReport());
  corrupt.back() = static_cast<char>(corrupt.back() ^ 0x01);  // CRC trailer
  Interner interner;
  const CtrlDecodeResult result =
      DecodeCtrlFrame(corrupt, kDefaultMaxFrameBodyBytes, &interner);
  EXPECT_EQ(result.status, FrameDecodeStatus::kMalformed);
  EXPECT_NE(result.error.find("CRC"), std::string::npos) << result.error;
}

}  // namespace
}  // namespace streamworks
