#ifndef STREAMWORKS_STREAM_CLUSTER_WIRE_H_
#define STREAMWORKS_STREAM_CLUSTER_WIRE_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "streamworks/common/interner.h"
#include "streamworks/common/statusor.h"
#include "streamworks/common/types.h"
#include "streamworks/core/engine.h"
#include "streamworks/graph/stream_edge.h"
#include "streamworks/obs/metric_sample.h"
#include "streamworks/sjtree/exchange.h"
#include "streamworks/stream/wire_format.h"

namespace streamworks {

/// Cluster control frames: the length-prefixed wire a coordinator daemon
/// and its worker daemons speak (the FEEDB layout's sibling — same
/// magic + u32 LE body shape, different magic byte so the two never
/// demux into each other's decoder).
///
///   [0xFC 'C' 'T' '1'] [body_len u32 LE] [type u8] [payload ...]
///
/// Payloads carry labels by *string* (per-frame string table, FEEDB
/// style: u32 count, then {u16 len, bytes} entries) because LabelIds are
/// per-process artifacts; vertices cross the wire by external id and
/// edges by their group-global ingest id, exactly like the in-process
/// MatchExchange wire form they transport.
///
/// A subset of the frame types is *state-bearing*: applying one mutates a
/// worker's engine. Workers assign those frames a dense sequence number
/// in arrival order and write each to their frame log before applying
/// it, so a crashed worker rebuilds by replaying its log and asking the
/// coordinator only for the suffix it never saw (see cluster/worker.h
/// for the recovery contract).
inline constexpr char kCtrlFrameMagic[4] = {'\xFC', 'C', 'T', '1'};
inline constexpr size_t kCtrlFrameHeaderBytes = 8;  ///< magic + body_len
inline constexpr uint32_t kCtrlProtocolVersion = 1;

enum class CtrlType : uint8_t {
  kHello = 1,       ///< coordinator -> worker: identity + recovery cursors
  kHelloAck = 2,    ///< worker -> coordinator: frames durably applied
  kRegister = 3,    ///< [state] replicate a query registration
  kRegisterAck = 4, ///< worker -> coordinator: assigned id / error
  kEndBackfill = 5, ///< [state] distributed backfill done; unsuppress
  kUnregister = 6,  ///< [state] drop a query
  kBatch = 7,       ///< [state] owned edges of one ingest epoch
  kExchange = 8,    ///< [state on worker] forwarded partial matches
  kBarrier = 9,     ///< coordinator -> worker: epoch barrier probe
  kBarrierAck = 10, ///< worker -> coordinator: barrier echo + log cursor
  kCommit = 11,     ///< [state] group watermark broadcast (expiry)
  kCompletion = 12, ///< worker -> coordinator: one completed match
  kInfo = 13,       ///< coordinator -> worker: query_info request
  kInfoAck = 14,
  kStats = 15,      ///< coordinator -> worker: shard-load request
  kStatsAck = 16,
  kMetricsRequest = 17,  ///< coordinator -> worker: registry snapshot pull
  kMetricsReport = 18,   ///< worker -> coordinator: CRC'd registry snapshot
};

/// True for the frame types a worker logs-then-applies (everything that
/// mutates engine state); the rest are unlogged request/response chatter.
bool IsStateCtrlType(CtrlType type);

// --- Payload structs ---------------------------------------------------------

struct CtrlHello {
  uint32_t protocol = kCtrlProtocolVersion;
  int32_t num_shards = 0;
  int32_t shard_index = -1;
  uint64_t partitioner_seed = 0;
  /// Recovery cursors: how many exchange items / completions the
  /// coordinator has already received from this worker over all time.
  /// The worker's replay regenerates both streams deterministically and
  /// skips these prefixes, so a crash loses nothing and repeats nothing.
  uint64_t exchange_items_received = 0;
  uint64_t completions_received = 0;
};

struct CtrlHelloAck {
  uint64_t applied_frames = 0;  ///< State frames in the worker's log.
};

struct CtrlQueryEdge {
  uint8_t src = 0;
  uint8_t dst = 0;
  std::string label;
};

struct CtrlRegister {
  int32_t expect_id = -1;  ///< Group id; every worker must assign the same.
  uint8_t strategy = 0;    ///< DecompositionStrategy, replicated verbatim.
  Timestamp window = 0;
  std::string name;
  std::vector<std::string> vertex_labels;
  std::vector<CtrlQueryEdge> edges;
};

struct CtrlRegisterAck {
  int32_t id = -1;
  bool ok = false;
  std::string error;
};

struct CtrlUnregister {
  int32_t query_id = -1;
};

/// One routed edge of an ingest epoch: the group-global id plus the
/// anchor bit (exactly one endpoint owner per edge runs anchor search).
struct CtrlShardEdge {
  StreamEdge edge;
  EdgeId global_id = kInvalidEdgeId;
  bool run_anchors = false;
};

struct CtrlBatch {
  std::vector<CtrlShardEdge> edges;
};

/// One forwarded exchange item plus its destination shard. Worker ->
/// coordinator frames carry the real destination (the coordinator relays;
/// workers never talk to each other); coordinator -> worker frames carry
/// the receiver's own shard index.
struct CtrlExchangeItem {
  int32_t dest = -1;
  ExchangeItem item;
};

struct CtrlExchange {
  std::vector<CtrlExchangeItem> items;
};

struct CtrlBarrier {
  uint32_t round = 0;
};

struct CtrlBarrierAck {
  uint32_t round = 0;
  uint64_t applied_frames = 0;  ///< Lets the coordinator prune its resend buffer.
};

struct CtrlCommit {
  Timestamp watermark = -1;
};

struct CtrlCompletion {
  int32_t query_id = -1;
  Timestamp completed_at = 0;
  WireMatch match;
};

struct CtrlInfo {
  int32_t query_id = -1;
};

/// One shard's view of a query; the engine struct plus the refusal. The
/// wire omits query_id (the request names it). The stats ack carries a
/// ShardStatsSnapshot the same way, minus its shard index (the link names
/// it).
struct CtrlInfoAck : QueryRuntimeInfo {
  bool ok = false;
  std::string error;
};

/// A worker's full metric snapshot: health header plus every series its
/// MetricRegistry renders, flattened to wire samples. Unlike the other
/// payloads this one carries a trailing CRC-32 over the payload bytes —
/// a report that decodes but lies (one flipped histogram bucket) would
/// silently skew every federated quantile, so the coordinator verifies
/// integrity before merging, the same trust posture the frame log takes
/// with its on-disk records.
struct CtrlMetricsReport {
  uint64_t wal_seq = 0;          ///< State frames durable in the worker's log.
  uint64_t replayed_frames = 0;  ///< Frames replayed at last restart.
  uint64_t exchange_items_sent = 0;
  uint64_t completions_sent = 0;
  std::vector<MetricSample> samples;
};

/// One decoded control frame: `type` says which payload member is live
/// (the others stay default-constructed). A tagged union would save a few
/// hundred idle bytes per frame; frames are transient decode scratch, so
/// the flat struct wins on simplicity.
struct CtrlFrame {
  CtrlType type = CtrlType::kHello;
  CtrlHello hello;
  CtrlHelloAck hello_ack;
  CtrlRegister reg;
  CtrlRegisterAck register_ack;
  CtrlUnregister unregister;
  CtrlBatch batch;
  CtrlExchange exchange;
  CtrlBarrier barrier;
  CtrlBarrierAck barrier_ack;
  CtrlCommit commit;
  CtrlCompletion completion;
  CtrlInfo info;
  CtrlInfoAck info_ack;
  ShardStatsSnapshot stats_ack;
  CtrlMetricsReport metrics_report;
};

/// Decode result, shaped exactly like the FEEDB decoder's so callers (and
/// the fuzz harness) share one discipline: kNeedMore consumes nothing;
/// kOk/kOversized consume `frame_bytes`; kMalformed with frame_bytes == 0
/// means the magic itself was wrong and the stream is desynchronized.
struct CtrlDecodeResult {
  FrameDecodeStatus status = FrameDecodeStatus::kNeedMore;
  size_t frame_bytes = 0;
  CtrlFrame frame;
  std::string error;
};

/// True if `buf` begins with the control-frame magic's lead byte.
bool IsCtrlFrameStart(std::string_view buf);

/// Decodes the first control frame of `buf`. Never consumes input itself;
/// the caller advances by `frame_bytes` on kOk/kOversized. `interner`
/// receives the frame's label strings (decode is the interning boundary;
/// everything after it speaks LabelIds again).
CtrlDecodeResult DecodeCtrlFrame(std::string_view buf, size_t max_body_bytes,
                                 Interner* interner);

/// Resolves a LabelId to its string for encoding. An std::function rather
/// than an Interner because the coordinator's ingest pump encodes off the
/// control thread and reads a thread-safe name cache instead of the
/// shared (non-thread-safe) interner.
using LabelNameFn = std::function<std::string_view(LabelId)>;

// --- Encoders (one per frame type; all return a complete framed message) ----

std::string EncodeHelloFrame(const CtrlHello& hello);
std::string EncodeHelloAckFrame(const CtrlHelloAck& ack);
std::string EncodeRegisterFrame(const CtrlRegister& reg);
std::string EncodeRegisterAckFrame(const CtrlRegisterAck& ack);
std::string EncodeEndBackfillFrame();
std::string EncodeUnregisterFrame(const CtrlUnregister& unregister);
std::string EncodeBatchFrame(const CtrlBatch& batch,
                             const LabelNameFn& label_name);
std::string EncodeExchangeFrame(const CtrlExchange& exchange,
                                const LabelNameFn& label_name);
/// Exchange frames carry at most this many items, so one drain of a hot
/// shard never approaches the frame-body cap.
inline constexpr size_t kMaxExchangeItemsPerFrame = 512;
/// Encodes `items` as consecutive kExchange frames of at most
/// kMaxExchangeItemsPerFrame items each (none for no items).
std::vector<std::string> EncodeExchangeFrames(
    std::span<const CtrlExchangeItem> items, const LabelNameFn& label_name);
std::string EncodeBarrierFrame(const CtrlBarrier& barrier);
std::string EncodeBarrierAckFrame(const CtrlBarrierAck& ack);
std::string EncodeCommitFrame(const CtrlCommit& commit);
std::string EncodeCompletionFrame(const CtrlCompletion& completion,
                                  const LabelNameFn& label_name);
std::string EncodeInfoFrame(const CtrlInfo& info);
std::string EncodeInfoAckFrame(const CtrlInfoAck& ack);
std::string EncodeStatsFrame();
std::string EncodeStatsAckFrame(const ShardStatsSnapshot& ack);
std::string EncodeMetricsRequestFrame();
std::string EncodeMetricsReportFrame(const CtrlMetricsReport& report);

}  // namespace streamworks

#endif  // STREAMWORKS_STREAM_CLUSTER_WIRE_H_
