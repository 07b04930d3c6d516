#include "streamworks/persist/edge_log.h"

#include <utility>
#include <vector>

#include "streamworks/common/str_util.h"
#include "streamworks/stream/wire_format.h"

namespace streamworks {

namespace {

/// Decodes one WAL record's FEEDB frame. The record's CRC passed, so a
/// frame that does not decode is not a torn write — it was encoded wrong
/// (or the format changed). Refuse to guess.
StatusOr<EdgeBatch> DecodeRecord(std::string_view frame, uint64_t first_seq,
                                 size_t max_frame_body_bytes,
                                 Interner* interner) {
  FrameDecodeResult decoded =
      DecodeFeedFrame(frame, max_frame_body_bytes, interner);
  if (decoded.status != FrameDecodeStatus::kOk ||
      decoded.frame_bytes != frame.size()) {
    return Status::DataLoss(StrCat("undecodable WAL record at seq ",
                                   first_seq, ": ", decoded.error));
  }
  return std::move(decoded.batch);
}

struct Chunk {
  std::string frame;
  uint64_t edges;
};

/// Splits `batch` (already encoded as `frame`) in halves until every
/// chunk's frame fits the bound. A single edge stays whole: the segment
/// log refuses it, since no split can make it fit.
Status SplitToFit(const EdgeBatch& batch, std::string frame,
                  const Interner& interner, size_t max_frame_body_bytes,
                  std::vector<Chunk>* out) {
  if (batch.size() <= 1 ||
      frame.size() - kFeedFrameHeaderBytes <= max_frame_body_bytes) {
    out->push_back({std::move(frame), batch.size()});
    return OkStatus();
  }
  const auto mid = batch.begin() + static_cast<ptrdiff_t>(batch.size() / 2);
  for (const EdgeBatch& half :
       {EdgeBatch(batch.begin(), mid), EdgeBatch(mid, batch.end())}) {
    SW_ASSIGN_OR_RETURN(std::string half_frame,
                        EncodeFeedFrame(half, interner));
    SW_RETURN_IF_ERROR(SplitToFit(half, std::move(half_frame), interner,
                                  max_frame_body_bytes, out));
  }
  return OkStatus();
}

}  // namespace

StatusOr<std::unique_ptr<EdgeLog>> EdgeLog::Open(const std::string& dir,
                                                 const Interner* interner,
                                                 EdgeLogOptions options,
                                                 uint64_t min_seq) {
  // Validate by decoding into a scratch interner, so Open has no side
  // effects on the caller's label space.
  Interner scratch;
  SW_ASSIGN_OR_RETURN(
      std::unique_ptr<SegmentLog> log,
      SegmentLog::Open(
          dir, kWalFormat, options, min_seq,
          [&](std::string_view frame,
              uint64_t first_seq) -> StatusOr<uint64_t> {
            SW_ASSIGN_OR_RETURN(
                const EdgeBatch batch,
                DecodeRecord(frame, first_seq, options.max_frame_body_bytes,
                             &scratch));
            return uint64_t{batch.size()};
          }));
  return std::unique_ptr<EdgeLog>(
      new EdgeLog(std::move(log), interner, options.max_frame_body_bytes));
}

Status EdgeLog::Append(const EdgeBatch& batch) {
  if (batch.empty()) return OkStatus();
  SW_ASSIGN_OR_RETURN(std::string frame, EncodeFeedFrame(batch, *interner_));
  if (frame.size() - kFeedFrameHeaderBytes <= max_frame_body_bytes_) {
    return log_->Append(frame, batch.size());
  }
  // A giant in-process batch: replay decodes each record under
  // max_frame_body_bytes, so it is logged as several records that fit —
  // all or none of them, since the whole feed succeeds or fails.
  std::vector<Chunk> chunks;
  SW_RETURN_IF_ERROR(SplitToFit(batch, std::move(frame), *interner_,
                                max_frame_body_bytes_, &chunks));
  std::vector<SegmentLog::Record> records;
  records.reserve(chunks.size());
  for (const Chunk& chunk : chunks) {
    records.push_back({chunk.frame, chunk.edges});
  }
  return log_->Append(records);
}

EdgeLogStats EdgeLog::stats() const {
  const SegmentLogStats& s = log_->stats();
  EdgeLogStats stats;
  stats.records_appended = s.records_appended;
  stats.edges_appended = s.seqs_appended;
  stats.bytes_appended = s.bytes_appended;
  stats.fsyncs = s.fsyncs;
  stats.segments_created = s.segments_created;
  return stats;
}

StatusOr<EdgeLog::ReplayStats> EdgeLog::Replay(const std::string& dir,
                                               uint64_t from_seq,
                                               Interner* interner,
                                               const ReplayFn& fn,
                                               EdgeLogOptions options) {
  ReplayStats stats;
  SW_ASSIGN_OR_RETURN(
      const SegmentLog::ReplayStats scanned,
      SegmentLog::Replay(
          dir, kWalFormat, from_seq,
          [&](std::string_view frame,
              uint64_t first_seq) -> StatusOr<uint64_t> {
            SW_ASSIGN_OR_RETURN(
                EdgeBatch batch,
                DecodeRecord(frame, first_seq, options.max_frame_body_bytes,
                             interner));
            const uint64_t span = batch.size();
            // Wholly below from_seq: covered by the snapshot.
            if (batch.empty() || first_seq + span <= from_seq) return span;
            if (first_seq < from_seq) {
              // The record straddles the snapshot stamp: deliver only the
              // tail.
              batch.erase(batch.begin(),
                          batch.begin() +
                              static_cast<ptrdiff_t>(from_seq - first_seq));
              first_seq = from_seq;
            }
            stats.edges_replayed += batch.size();
            SW_RETURN_IF_ERROR(fn(batch, first_seq));
            return span;
          },
          options));
  stats.next_seq = scanned.next_seq;
  stats.tail_truncated = scanned.tail_truncated;
  return stats;
}

}  // namespace streamworks
