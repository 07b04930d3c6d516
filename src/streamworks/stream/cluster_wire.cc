#include "streamworks/stream/cluster_wire.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "streamworks/common/binio.h"
#include "streamworks/common/str_util.h"
#include "streamworks/persist/crc32.h"

namespace streamworks {

namespace {

// Each payload's layout is written once, as a Layout* function over an Io
// that is either a Writer (appends each field) or a Reader (reads each
// field back, bounds-checked). The Reader alone enforces the checks that
// keep hostile bytes from over-reading or over-allocating; the Writer
// accepts them as true.

void PutString(std::string* out, std::string_view s) {
  PutU16(out, static_cast<uint16_t>(s.size()));
  out->append(s);
}

/// Frames whose labels travel as indexes into a per-frame string table
/// (FEEDB's scheme) placed between the type byte and the payload.
bool HasLabelTable(CtrlType type) {
  return type == CtrlType::kBatch || type == CtrlType::kExchange ||
         type == CtrlType::kCompletion;
}

/// Appends one frame's payload.
class Writer {
 public:
  explicit Writer(const LabelNameFn* label_name = nullptr)
      : label_name_(label_name) {}

  void U8(uint8_t v, std::string_view) {
    payload_.push_back(static_cast<char>(v));
  }
  void U16(uint16_t v, std::string_view) { PutU16(&payload_, v); }
  void U32(uint32_t v, std::string_view) { PutU32(&payload_, v); }
  void U64(uint64_t v, std::string_view) { PutU64(&payload_, v); }
  void I32(int32_t v, std::string_view) {
    PutU32(&payload_, static_cast<uint32_t>(v));
  }
  void I64(int64_t v, std::string_view) { PutI64(&payload_, v); }
  void F64(double v, std::string_view) {
    PutU64(&payload_, std::bit_cast<uint64_t>(v));
  }
  void Bool(bool v, std::string_view) { payload_.push_back(v ? 1 : 0); }
  void String(std::string_view v, std::string_view) {
    PutString(&payload_, v);
  }
  template <typename E>
  void Enum(E v, E /*max*/, std::string_view) {
    payload_.push_back(static_cast<char>(v));
  }
  /// Labels are numbered in first-seen order (a handful of distinct
  /// labels per frame, so linear scan beats a map).
  void Label(LabelId id, std::string_view) {
    const auto it = std::find(labels_.begin(), labels_.end(), id);
    PutU32(&payload_, static_cast<uint32_t>(it - labels_.begin()));
    if (it == labels_.end()) labels_.push_back(id);
  }
  /// The CRC trailer: a CRC-32 over the payload written so far.
  void Crc(std::string_view) {
    PutU32(&payload_, Crc32(payload_.data(), payload_.size()));
  }

  template <typename V>
  void Resize(const V&, size_t) {}
  bool Require(bool, std::string_view) { return true; }
  bool Records(size_t, size_t, std::string_view) { return true; }
  bool Bounded(size_t, size_t, std::string_view) { return true; }
  bool CheckCrc() { return true; }
  bool ok() const { return true; }

  /// The whole framed message: magic, body length, type byte, the label
  /// table when the type carries one, then the payload.
  std::string Finish(CtrlType type) const {
    std::string body;
    body.push_back(static_cast<char>(type));
    if (HasLabelTable(type)) {
      PutU32(&body, static_cast<uint32_t>(labels_.size()));
      for (LabelId id : labels_) PutString(&body, (*label_name_)(id));
    }
    body.append(payload_);
    std::string frame;
    frame.reserve(kCtrlFrameHeaderBytes + body.size());
    frame.append(kCtrlFrameMagic, sizeof(kCtrlFrameMagic));
    PutU32(&frame, static_cast<uint32_t>(body.size()));
    frame.append(body);
    return frame;
  }

 private:
  const LabelNameFn* label_name_;
  std::vector<LabelId> labels_;
  std::string payload_;
};

/// Bounds-checked little-endian reader over one frame body. Every read
/// fails closed: once `ok` drops the cursor stops moving and fields read
/// as zero, so a layout can read a whole payload and check ok once.
class Reader {
 public:
  Reader(const char* begin, const char* stop) : p_(begin), end_(stop) {}

  void U8(uint8_t& v, std::string_view what) {
    v = Need(1, what) ? static_cast<uint8_t>(*p_++) : 0;
  }
  void U16(uint16_t& v, std::string_view what) { Get(v, what); }
  void U32(uint32_t& v, std::string_view what) { Get(v, what); }
  void U64(uint64_t& v, std::string_view what) { Get(v, what); }
  void I32(int32_t& v, std::string_view what) {
    uint32_t u;
    Get(u, what);
    v = static_cast<int32_t>(u);
  }
  void I64(int64_t& v, std::string_view what) {
    uint64_t u;
    Get(u, what);
    v = static_cast<int64_t>(u);
  }
  void F64(double& v, std::string_view what) {
    uint64_t u;
    Get(u, what);
    v = std::bit_cast<double>(u);
  }
  void Bool(bool& v, std::string_view what) {
    uint8_t u;
    U8(u, what);
    v = u != 0;
  }
  void String(std::string& v, std::string_view what) {
    uint16_t len;
    U16(len, what);
    v = std::string(Bytes(len, what));
  }
  template <typename E>
  void Enum(E& v, E max, std::string_view what) {
    uint8_t u;
    U8(u, what);
    if (u > static_cast<uint8_t>(max)) {
      Fail(StrCat(what, " out of range"));
      return;
    }
    v = static_cast<E>(u);
  }
  void Label(LabelId& v, std::string_view what) {
    uint32_t index;
    U32(index, what);
    if (index >= labels_.size()) {
      Fail("label index out of string-table range");
      v = kInvalidLabelId;
      return;
    }
    v = labels_[index];
  }
  void Crc(std::string_view what) {
    uint32_t crc;
    U32(crc, what);  // verified up front by CheckCrc
  }

  /// Sizes a vector for `n` elements about to be read (n already bounded).
  template <typename V>
  void Resize(V& v, size_t n) {
    v.resize(n);
  }
  /// Fails with `why` unless `cond`; false once anything failed.
  bool Require(bool cond, std::string_view why) {
    if (ok_ && !cond) Fail(why);
    return ok_;
  }
  /// `n` records of exactly `bytes` each must fill the rest of the body.
  bool Records(size_t n, size_t bytes, std::string_view why) {
    return Require(!ok_ || remaining() == n * bytes, why);
  }
  /// `n` items of at least `min_bytes` each must fit in the rest of the
  /// body — checked before anything is reserved for them.
  bool Bounded(size_t n, size_t min_bytes, std::string_view why) {
    return Require(!ok_ || n <= remaining() / min_bytes, why);
  }
  /// Verifies a trailing CRC-32 over the rest of the payload before any
  /// field is trusted: a payload that decodes but lies (one flipped
  /// histogram bucket) would otherwise skew every federated series.
  bool CheckCrc() {
    if (!Require(remaining() >= 4, "metrics report shorter than its CRC")) {
      return false;
    }
    const size_t len = remaining() - 4;
    return Require(Crc32(p_, len) == GetU32(p_ + len),
                   "metrics report CRC mismatch");
  }

  /// Decodes a frame-local label table, interning each entry once.
  void LabelTable(Interner* interner) {
    uint32_t n;
    U32(n, "string-table count");
    // Each entry costs at least its u16 length.
    if (!Bounded(n, 2, "string-table count exceeds body")) return;
    labels_.reserve(n);
    for (uint32_t i = 0; i < n && ok_; ++i) {
      uint16_t len;
      U16(len, "string length");
      const std::string_view bytes = Bytes(len, "string bytes");
      if (ok_) labels_.push_back(interner->Intern(bytes));
    }
  }

  void Fail(std::string_view why) {
    if (ok_) {
      ok_ = false;
      err_ = std::string(why);
    }
  }
  bool ok() const { return ok_; }
  const std::string& err() const { return err_; }
  size_t remaining() const { return static_cast<size_t>(end_ - p_); }

 private:
  bool Need(size_t n, std::string_view what) {
    if (!ok_) return false;
    if (remaining() < n) {
      ok_ = false;
      err_ = StrCat("truncated ", what);
      return false;
    }
    return true;
  }
  template <typename T>
  void Get(T& v, std::string_view what) {
    if (!Need(sizeof(T), what)) {
      v = 0;
      return;
    }
    v = GetLe<T>(p_);
    p_ += sizeof(T);
  }
  std::string_view Bytes(size_t n, std::string_view what) {
    if (!Need(n, what)) return {};
    const std::string_view v(p_, n);
    p_ += n;
    return v;
  }

  const char* p_;
  const char* end_;
  bool ok_ = true;
  std::string err_;
  std::vector<LabelId> labels_;
};

// --- Layouts (the Io parameter is a Writer or a Reader) ----------------------

void LayoutHello(auto& io, auto& h) {
  io.U32(h.protocol, "hello protocol");
  io.I32(h.num_shards, "hello num_shards");
  io.I32(h.shard_index, "hello shard_index");
  io.U64(h.partitioner_seed, "hello seed");
  io.U64(h.exchange_items_received, "hello exchange cursor");
  io.U64(h.completions_received, "hello completion cursor");
}

void LayoutRegister(auto& io, auto& reg) {
  io.I32(reg.expect_id, "register id");
  io.U8(reg.strategy, "register strategy");
  io.I64(reg.window, "register window");
  io.String(reg.name, "register name");
  uint8_t nv = static_cast<uint8_t>(reg.vertex_labels.size());
  uint8_t ne = static_cast<uint8_t>(reg.edges.size());
  io.U8(nv, "register vertex count");
  io.U8(ne, "register edge count");
  if (!io.Require(nv <= kMaxQuerySize && ne <= kMaxQuerySize,
                  "register query exceeds the query-size bound")) {
    return;
  }
  io.Resize(reg.vertex_labels, nv);
  for (auto& label : reg.vertex_labels) {
    io.String(label, "register vertex label");
  }
  io.Resize(reg.edges, ne);
  for (auto& e : reg.edges) {
    io.U8(e.src, "register edge src");
    io.U8(e.dst, "register edge dst");
    io.String(e.label, "register edge label");
    if (!io.Require(e.src < nv && e.dst < nv,
                    "register edge endpoint out of range")) {
      return;
    }
  }
}

void LayoutRegisterAck(auto& io, auto& ack) {
  io.I32(ack.id, "register-ack id");
  io.Bool(ack.ok, "register-ack ok");
  io.String(ack.error, "register-ack error");
}

constexpr size_t kBatchRecordBytes = 8 + 8 + 8 + 4 + 4 + 4 + 8 + 1;

void LayoutBatch(auto& io, auto& batch) {
  uint32_t n = static_cast<uint32_t>(batch.edges.size());
  io.U32(n, "batch edge count");
  if (!io.Records(n, kBatchRecordBytes,
                  "body length does not match batch edge records")) {
    return;
  }
  io.Resize(batch.edges, n);
  for (auto& se : batch.edges) {
    io.U64(se.global_id, "batch edge gid");
    io.U64(se.edge.src, "batch edge src");
    io.U64(se.edge.dst, "batch edge dst");
    io.Label(se.edge.src_label, "batch src label");
    io.Label(se.edge.dst_label, "batch dst label");
    io.Label(se.edge.edge_label, "batch edge label");
    io.I64(se.edge.ts, "batch edge ts");
    io.Bool(se.run_anchors, "batch anchor bit");
  }
}

void LayoutMatch(auto& io, auto& match) {
  uint8_t nv = static_cast<uint8_t>(match.vertices.size());
  io.U8(nv, "match vertex count");
  if (!io.Require(nv <= kMaxQuerySize,
                  "match vertex count exceeds the query-size bound")) {
    return;
  }
  io.Resize(match.vertices, nv);
  for (auto& v : match.vertices) {
    io.U8(v.qv, "vertex binding qv");
    io.U64(v.vertex, "vertex binding external id");
    io.Label(v.label, "vertex binding label");
    if (!io.Require(v.qv < kMaxQuerySize, "vertex binding qv out of range")) {
      return;
    }
  }
  uint8_t ne = static_cast<uint8_t>(match.edges.size());
  io.U8(ne, "match edge count");
  if (!io.Require(ne <= kMaxQuerySize,
                  "match edge count exceeds the query-size bound")) {
    return;
  }
  io.Resize(match.edges, ne);
  for (auto& e : match.edges) {
    io.U8(e.qe, "edge binding qe");
    io.U64(e.edge, "edge binding id");
    io.I64(e.ts, "edge binding ts");
    if (!io.Require(e.qe < kMaxQuerySize, "edge binding qe out of range")) {
      return;
    }
  }
}

template <typename Io, typename Items>
void LayoutExchangeItems(Io& io, Items& items) {
  uint32_t n = static_cast<uint32_t>(items.size());
  io.U32(n, "exchange item count");
  // An item costs at least its fixed header.
  constexpr size_t kMinItemBytes = 4 + 1 + 4 + 4 + 4 + 4 + 1 + 1;
  if (!io.Bounded(n, kMinItemBytes, "exchange item count exceeds body")) {
    return;
  }
  io.Resize(items, n);
  for (auto& ci : items) {
    io.I32(ci.dest, "exchange dest");
    io.Enum(ci.item.kind, ExchangeKind::kComplete, "exchange kind");
    io.I32(ci.item.query_id, "exchange query id");
    io.U32(ci.item.plan, "exchange plan");
    io.I32(ci.item.step, "exchange step");
    io.I32(ci.item.node, "exchange node");
    LayoutMatch(io, ci.item.match);
    if (!io.ok()) return;
  }
}

void LayoutCompletion(auto& io, auto& completion) {
  io.I32(completion.query_id, "completion query id");
  io.I64(completion.completed_at, "completion ts");
  LayoutMatch(io, completion.match);
}

void LayoutInfoAck(auto& io, auto& ack) {
  io.Bool(ack.ok, "info-ack ok");
  io.String(ack.error, "info-ack error");
  io.String(ack.name, "info-ack name");
  io.I64(ack.window, "info-ack window");
  io.U64(ack.completions, "info-ack completions");
  io.U64(ack.live_partial_matches, "info-ack live");
  io.U64(ack.peak_partial_matches, "info-ack peak");
  uint32_t n = static_cast<uint32_t>(ack.nodes.size());
  io.U32(n, "info-ack node count");
  constexpr size_t kNodeBytes = 4 + 1 + 4 + 5 * 8;
  if (!io.Records(n, kNodeBytes,
                  "body length does not match info-ack node records")) {
    return;
  }
  io.Resize(ack.nodes, n);
  for (auto& node : ack.nodes) {
    io.I32(node.node, "info-ack node id");
    io.Bool(node.is_leaf, "info-ack node leaf");
    io.I32(node.query_edges, "info-ack node edges");
    io.U64(node.matches_inserted, "info-ack node inserted");
    io.U64(node.probes, "info-ack node probes");
    io.U64(node.join_attempts, "info-ack node attempts");
    io.U64(node.joins_succeeded, "info-ack node joins");
    io.U64(node.live_partial_matches, "info-ack node live");
  }
}

void LayoutStatsAck(auto& io, auto& ack) {
  io.U64(ack.retained_edges, "stats retained edges");
  io.U64(ack.retained_vertices, "stats retained vertices");
  io.U64(ack.evicted_edges, "stats evicted");
  io.U64(ack.edges_processed, "stats processed");
  io.U64(ack.completions, "stats completions");
  io.U64(ack.live_partial_matches, "stats live");
  io.U64(ack.exchange.sent_expansions, "stats sent expansions");
  io.U64(ack.exchange.sent_inserts, "stats sent inserts");
  io.U64(ack.exchange.sent_completions, "stats sent completions");
  io.U64(ack.exchange.received_expansions, "stats recv expansions");
  io.U64(ack.exchange.received_inserts, "stats recv inserts");
  io.U64(ack.exchange.received_completions, "stats recv completions");
}

// Histograms travel as sparse buckets: (index, count) pairs in strictly
// ascending index order, then the value sum.
void LayoutHistogram(Writer& w, const Histogram& h) {
  uint8_t occupied = 0;
  for (int b = 0; b < Histogram::kNumBuckets; ++b) {
    if (h.bucket_count(b) != 0) ++occupied;
  }
  w.U8(occupied, {});
  for (int b = 0; b < Histogram::kNumBuckets; ++b) {
    if (h.bucket_count(b) == 0) continue;
    w.U8(static_cast<uint8_t>(b), {});
    w.U64(h.bucket_count(b), {});
  }
  w.U64(h.sum(), {});
}

void LayoutHistogram(Reader& r, Histogram& h) {
  uint8_t nb;
  r.U8(nb, "metrics histogram bucket count");
  if (!r.Require(nb <= Histogram::kNumBuckets,
                 "metrics histogram bucket count out of range")) {
    return;
  }
  std::array<uint64_t, Histogram::kNumBuckets> counts{};
  int last = -1;
  for (uint8_t b = 0; b < nb && r.ok(); ++b) {
    uint8_t index;
    r.U8(index, "metrics histogram bucket index");
    if (!r.Require(index < Histogram::kNumBuckets && index > last,
                   "metrics histogram bucket index out of order")) {
      return;
    }
    last = index;
    r.U64(counts[index], "metrics histogram bucket value");
  }
  uint64_t sum;
  r.U64(sum, "metrics histogram sum");
  h = Histogram::FromBuckets(counts, sum);
}

/// The one payload with a CRC-32 trailer (see CtrlMetricsReport).
void LayoutMetricsReport(auto& io, auto& rep) {
  if (!io.CheckCrc()) return;
  io.U64(rep.wal_seq, "metrics wal seq");
  io.U64(rep.replayed_frames, "metrics replayed");
  io.U64(rep.exchange_items_sent, "metrics exchange sent");
  io.U64(rep.completions_sent, "metrics completions sent");
  uint32_t n = static_cast<uint32_t>(rep.samples.size());
  io.U32(n, "metrics sample count");
  // A sample costs at least kind + three u16 lengths.
  if (!io.Bounded(n, 7, "metrics sample count exceeds body")) return;
  io.Resize(rep.samples, n);
  for (auto& s : rep.samples) {
    io.Enum(s.kind, MetricSample::Kind::kHistogram, "metrics sample kind");
    io.String(s.name, "metrics sample name");
    io.String(s.help, "metrics sample help");
    uint16_t nl = static_cast<uint16_t>(s.labels.size());
    io.U16(nl, "metrics label count");
    if (!io.Bounded(nl, 4, "metrics label count exceeds body")) return;
    io.Resize(s.labels, nl);
    for (auto& [key, value] : s.labels) {
      io.String(key, "metrics label key");
      io.String(value, "metrics label value");
    }
    switch (s.kind) {
      case MetricSample::Kind::kCounter:
        io.U64(s.counter, "metrics counter value");
        break;
      case MetricSample::Kind::kGauge:
        io.F64(s.gauge, "metrics gauge bits");
        break;
      case MetricSample::Kind::kHistogram:
        LayoutHistogram(io, s.histogram);
        break;
    }
    if (!io.ok()) return;
  }
  io.Crc("metrics report crc");
}

void DecodeBody(Reader* r, CtrlFrame* frame) {
  switch (frame->type) {
    case CtrlType::kHello:
      return LayoutHello(*r, frame->hello);
    case CtrlType::kHelloAck:
      return r->U64(frame->hello_ack.applied_frames, "hello-ack applied");
    case CtrlType::kRegister:
      return LayoutRegister(*r, frame->reg);
    case CtrlType::kRegisterAck:
      return LayoutRegisterAck(*r, frame->register_ack);
    case CtrlType::kEndBackfill:
    case CtrlType::kStats:
    case CtrlType::kMetricsRequest:
      return;
    case CtrlType::kUnregister:
      return r->I32(frame->unregister.query_id, "unregister id");
    case CtrlType::kBatch:
      return LayoutBatch(*r, frame->batch);
    case CtrlType::kExchange:
      return LayoutExchangeItems(*r, frame->exchange.items);
    case CtrlType::kBarrier:
      return r->U32(frame->barrier.round, "barrier round");
    case CtrlType::kBarrierAck:
      r->U32(frame->barrier_ack.round, "barrier-ack round");
      return r->U64(frame->barrier_ack.applied_frames, "barrier-ack applied");
    case CtrlType::kCommit:
      return r->I64(frame->commit.watermark, "commit watermark");
    case CtrlType::kCompletion:
      return LayoutCompletion(*r, frame->completion);
    case CtrlType::kInfo:
      return r->I32(frame->info.query_id, "info query id");
    case CtrlType::kInfoAck:
      return LayoutInfoAck(*r, frame->info_ack);
    case CtrlType::kStatsAck:
      return LayoutStatsAck(*r, frame->stats_ack);
    case CtrlType::kMetricsReport:
      return LayoutMetricsReport(*r, frame->metrics_report);
  }
}

}  // namespace

bool IsStateCtrlType(CtrlType type) {
  switch (type) {
    case CtrlType::kRegister:
    case CtrlType::kEndBackfill:
    case CtrlType::kUnregister:
    case CtrlType::kBatch:
    case CtrlType::kExchange:
    case CtrlType::kCommit:
      return true;
    default:
      return false;
  }
}

bool IsCtrlFrameStart(std::string_view buf) {
  return !buf.empty() && buf[0] == kCtrlFrameMagic[0];
}

CtrlDecodeResult DecodeCtrlFrame(std::string_view buf, size_t max_body_bytes,
                                 Interner* interner) {
  CtrlDecodeResult result;
  if (buf.size() < kCtrlFrameHeaderBytes) return result;  // kNeedMore
  if (std::memcmp(buf.data(), kCtrlFrameMagic, sizeof(kCtrlFrameMagic)) != 0) {
    result.status = FrameDecodeStatus::kMalformed;
    result.frame_bytes = 0;  // no length to skip by; stream is lost
    result.error = "bad control-frame magic (stream desynchronized)";
    return result;
  }
  const size_t body_len = GetU32(buf.data() + 4);
  const size_t frame_bytes = kCtrlFrameHeaderBytes + body_len;
  if (body_len > max_body_bytes) {
    result.status = FrameDecodeStatus::kOversized;
    result.frame_bytes = frame_bytes;
    result.error = StrCat("control frame body of ", body_len,
                          " bytes exceeds ", max_body_bytes);
    return result;
  }
  if (buf.size() < frame_bytes) return result;  // kNeedMore

  const char* const body = buf.data() + kCtrlFrameHeaderBytes;
  Reader r(body, body + body_len);
  uint8_t type;
  r.U8(type, "frame type");
  if (type < static_cast<uint8_t>(CtrlType::kHello) ||
      type > static_cast<uint8_t>(CtrlType::kMetricsReport)) {
    result.status = FrameDecodeStatus::kMalformed;
    result.frame_bytes = frame_bytes;
    result.error = StrCat("unknown control frame type ", type);
    return result;
  }
  result.frame.type = static_cast<CtrlType>(type);
  if (HasLabelTable(result.frame.type)) r.LabelTable(interner);
  DecodeBody(&r, &result.frame);
  r.Require(r.remaining() == 0, "trailing bytes after payload");
  if (!r.ok()) {
    result.status = FrameDecodeStatus::kMalformed;
    result.frame_bytes = frame_bytes;
    result.error = StrCat("malformed control frame: ", r.err());
    return result;
  }
  result.status = FrameDecodeStatus::kOk;
  result.frame_bytes = frame_bytes;
  return result;
}

std::string EncodeHelloFrame(const CtrlHello& hello) {
  Writer w;
  LayoutHello(w, hello);
  return w.Finish(CtrlType::kHello);
}

std::string EncodeHelloAckFrame(const CtrlHelloAck& ack) {
  Writer w;
  w.U64(ack.applied_frames, {});
  return w.Finish(CtrlType::kHelloAck);
}

std::string EncodeRegisterFrame(const CtrlRegister& reg) {
  Writer w;
  LayoutRegister(w, reg);
  return w.Finish(CtrlType::kRegister);
}

std::string EncodeRegisterAckFrame(const CtrlRegisterAck& ack) {
  Writer w;
  LayoutRegisterAck(w, ack);
  return w.Finish(CtrlType::kRegisterAck);
}

std::string EncodeEndBackfillFrame() {
  return Writer().Finish(CtrlType::kEndBackfill);
}

std::string EncodeUnregisterFrame(const CtrlUnregister& unregister) {
  Writer w;
  w.I32(unregister.query_id, {});
  return w.Finish(CtrlType::kUnregister);
}

std::string EncodeBatchFrame(const CtrlBatch& batch,
                             const LabelNameFn& label_name) {
  Writer w(&label_name);
  LayoutBatch(w, batch);
  return w.Finish(CtrlType::kBatch);
}

std::string EncodeExchangeFrame(const CtrlExchange& exchange,
                                const LabelNameFn& label_name) {
  Writer w(&label_name);
  LayoutExchangeItems(w, exchange.items);
  return w.Finish(CtrlType::kExchange);
}

std::vector<std::string> EncodeExchangeFrames(
    std::span<const CtrlExchangeItem> items, const LabelNameFn& label_name) {
  std::vector<std::string> frames;
  for (size_t begin = 0; begin < items.size();
       begin += kMaxExchangeItemsPerFrame) {
    Writer w(&label_name);
    auto chunk = items.subspan(
        begin, std::min(kMaxExchangeItemsPerFrame, items.size() - begin));
    LayoutExchangeItems(w, chunk);
    frames.push_back(w.Finish(CtrlType::kExchange));
  }
  return frames;
}

std::string EncodeBarrierFrame(const CtrlBarrier& barrier) {
  Writer w;
  w.U32(barrier.round, {});
  return w.Finish(CtrlType::kBarrier);
}

std::string EncodeBarrierAckFrame(const CtrlBarrierAck& ack) {
  Writer w;
  w.U32(ack.round, {});
  w.U64(ack.applied_frames, {});
  return w.Finish(CtrlType::kBarrierAck);
}

std::string EncodeCommitFrame(const CtrlCommit& commit) {
  Writer w;
  w.I64(commit.watermark, {});
  return w.Finish(CtrlType::kCommit);
}

std::string EncodeCompletionFrame(const CtrlCompletion& completion,
                                  const LabelNameFn& label_name) {
  Writer w(&label_name);
  LayoutCompletion(w, completion);
  return w.Finish(CtrlType::kCompletion);
}

std::string EncodeInfoFrame(const CtrlInfo& info) {
  Writer w;
  w.I32(info.query_id, {});
  return w.Finish(CtrlType::kInfo);
}

std::string EncodeInfoAckFrame(const CtrlInfoAck& ack) {
  Writer w;
  LayoutInfoAck(w, ack);
  return w.Finish(CtrlType::kInfoAck);
}

std::string EncodeStatsFrame() { return Writer().Finish(CtrlType::kStats); }

std::string EncodeStatsAckFrame(const ShardStatsSnapshot& ack) {
  Writer w;
  LayoutStatsAck(w, ack);
  return w.Finish(CtrlType::kStatsAck);
}

std::string EncodeMetricsRequestFrame() {
  return Writer().Finish(CtrlType::kMetricsRequest);
}

std::string EncodeMetricsReportFrame(const CtrlMetricsReport& report) {
  Writer w;
  LayoutMetricsReport(w, report);
  return w.Finish(CtrlType::kMetricsReport);
}

}  // namespace streamworks
