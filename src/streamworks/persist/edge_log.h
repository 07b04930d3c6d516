#ifndef STREAMWORKS_PERSIST_EDGE_LOG_H_
#define STREAMWORKS_PERSIST_EDGE_LOG_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "streamworks/common/interner.h"
#include "streamworks/common/statusor.h"
#include "streamworks/graph/stream_edge.h"
#include "streamworks/persist/segment_log.h"

namespace streamworks {

/// Knobs of an EdgeLog: the segment log's. max_frame_body_bytes bounds
/// each record's FEEDB frame (a WAL record is one wire frame).
using EdgeLogOptions = SegmentLogOptions;

/// Monotonic counters of one log's lifetime.
struct EdgeLogStats {
  uint64_t records_appended = 0;
  uint64_t edges_appended = 0;
  uint64_t bytes_appended = 0;
  uint64_t fsyncs = 0;
  uint64_t segments_created = 0;
};

/// The write-ahead edge log: accepted Feed/FeedBatch input appended
/// *before* it is applied to the backend, so a crashed process can replay
/// everything past its last snapshot.
///
/// A thin adapter over a SegmentLog in kWalFormat (`wal-<seq>.log`
/// segments, "SWL1" headers — see persist/segment_log.h for the segment
/// and record layout, torn-tail tolerance and rotation). Each record's
/// frame is one FEEDB frame (stream/wire_format.h): the same
/// string-table-interned binary layout the network wire uses, so the two
/// codecs can never drift.
///
/// Sequence numbers count *edges logged* (a record spans its edge count;
/// not records, not engine edge ids — malformed edges are logged too,
/// log-before-apply, and re-reject deterministically on replay). A
/// snapshot stamps the sequence it was taken at; recovery replays
/// everything at or past that stamp.
///
/// Threading: all calls on one control thread (the same contract as the
/// QueryBackend it guards).
class EdgeLog {
 public:
  /// Opens `dir` for appending (see SegmentLog::Open), decoding every
  /// record of the last segment to validate it and count its edges. A
  /// CRC-valid record that does not decode is DataLoss.
  static StatusOr<std::unique_ptr<EdgeLog>> Open(const std::string& dir,
                                                 const Interner* interner,
                                                 EdgeLogOptions options = {},
                                                 uint64_t min_seq = 0);

  /// Appends `batch` (no-op when empty), assigning it sequence numbers
  /// [next_seq, next_seq + batch.size()). A batch whose frame would pass
  /// max_frame_body_bytes is split into several records, appended
  /// atomically as a whole.
  Status Append(const EdgeBatch& batch);

  /// Forces an fsync of the current segment.
  Status Sync() { return log_->Sync(); }

  /// Deletes every segment that holds only edges below `seq` (all of its
  /// content is covered by a snapshot at `seq`). Returns segments deleted.
  StatusOr<int> PruneSegmentsBelow(uint64_t seq) {
    return log_->PruneSegmentsBelow(seq);
  }

  /// Sequence number the next appended edge will get == total edges ever
  /// logged into this directory.
  uint64_t next_seq() const { return log_->next_seq(); }

  EdgeLogStats stats() const;
  /// Segment files currently on disk (cheap cached count).
  uint64_t num_segments() const { return log_->num_segments(); }

  struct ReplayStats {
    uint64_t edges_replayed = 0;  ///< Edges delivered to the callback.
    uint64_t next_seq = 0;        ///< One past the last durable edge.
    bool tail_truncated = false;  ///< A torn tail was skipped.
  };

  /// Edges are delivered in logged order as (batch, first_seq) pairs;
  /// a record straddling `from_seq` is delivered trimmed. A non-OK
  /// return stops the replay, which returns that status.
  using ReplayFn =
      std::function<Status(const EdgeBatch& batch, uint64_t first_seq)>;

  /// Replays every durable edge with sequence >= `from_seq` out of `dir`.
  /// Labels are interned into `interner` (the recovering process's own).
  /// A directory with no segments at all replays nothing.
  static StatusOr<ReplayStats> Replay(const std::string& dir,
                                      uint64_t from_seq, Interner* interner,
                                      const ReplayFn& fn,
                                      EdgeLogOptions options = {});

 private:
  EdgeLog(std::unique_ptr<SegmentLog> log, const Interner* interner,
          size_t max_frame_body_bytes)
      : log_(std::move(log)),
        interner_(interner),
        max_frame_body_bytes_(max_frame_body_bytes) {}

  std::unique_ptr<SegmentLog> log_;
  const Interner* interner_;
  size_t max_frame_body_bytes_;
};

}  // namespace streamworks

#endif  // STREAMWORKS_PERSIST_EDGE_LOG_H_
