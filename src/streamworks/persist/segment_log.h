#ifndef STREAMWORKS_PERSIST_SEGMENT_LOG_H_
#define STREAMWORKS_PERSIST_SEGMENT_LOG_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "streamworks/common/statusor.h"
#include "streamworks/common/unique_fd.h"
#include "streamworks/stream/wire_format.h"

namespace streamworks {

/// What tells one kind of segment log apart on disk. A per-kind constant,
/// never an option: changing any field orphans every existing directory.
struct SegmentFormat {
  char magic[4];                 ///< Segment header magic.
  std::string_view file_prefix;  ///< Segments are <prefix><base:016x>.log.
  std::string_view lock_file;    ///< flock'd single-writer lock file.
  std::string_view name;         ///< How error messages name the log.
};

/// The write-ahead edge log (persist/edge_log.h): each record is one FEEDB
/// frame and spans as many sequence numbers as it carries edges.
inline constexpr SegmentFormat kWalFormat = {
    {'S', 'W', 'L', '1'}, "wal-", "wal.lock", "WAL"};

/// A cluster worker's frame log (cluster/worker.h): each record is one
/// state-bearing control frame and spans one sequence number.
inline constexpr SegmentFormat kFrameLogFormat = {
    {'S', 'W', 'F', '1'}, "frames-", "frames.lock", "frame log"};

/// Knobs of a segment log (both kinds).
struct SegmentLogOptions {
  /// Rotate to a fresh segment once the current one exceeds this size.
  size_t segment_bytes = 64u * 1024 * 1024;
  /// fsync cadence: 0 never (page cache only — survives process death,
  /// not machine death), 1 every append (safest, slowest), N every N
  /// records. Sync() forces one regardless.
  int fsync_every_records = 0;
  /// Body bound of the wire frame each record carries — the same limit
  /// the network decoders apply, so every appended record stays
  /// decodable on replay.
  size_t max_frame_body_bytes = kDefaultMaxFrameBodyBytes;
};

/// Monotonic counters of one log's lifetime.
struct SegmentLogStats {
  uint64_t records_appended = 0;
  uint64_t seqs_appended = 0;  ///< Sum of the appended records' spans.
  uint64_t bytes_appended = 0;
  uint64_t fsyncs = 0;
  uint64_t segments_created = 0;
};

/// The append-only, crash-tolerant log under both the edge WAL and the
/// cluster worker's frame log: a directory of segments named
/// `<prefix><first_seq:016x>.log`.
///
///   segment header (20 bytes):
///     magic     4 bytes  per format ("SWL1", "SWF1")
///     version   u32      1
///     base_seq  u64      sequence number of the segment's first record
///     crc       u32      CRC-32 of the 16 bytes above
///   record (repeated):
///     len       u32      byte length of the payload below
///     crc       u32      CRC-32 of the payload
///     payload:
///       first_seq u64    sequence number the record starts at
///       frame     ...    one wire frame: an 8-byte header (magic + body
///                        length) and at most max_frame_body_bytes of body
///
/// Each record advances the sequence by its span: the appender states it,
/// and a scan recovers it from the payload through a RecordFn (a null
/// RecordFn means every record spans one).
///
/// Torn tails are expected (that is what a crash leaves behind): a scan
/// stops cleanly at the first short or CRC-failing record of the *last*
/// segment, and Open() truncates such a tail — or drops a last segment
/// whose header never landed — before appending over it. The same damage
/// in an older segment, a gap between segments, or a CRC-valid record the
/// RecordFn rejects is unrecoverable data loss and fails loudly instead.
///
/// Threading: all calls on one thread.
class SegmentLog {
 public:
  /// One record of an Append: its frame and the sequence numbers it spans.
  struct Record {
    std::string_view frame;
    uint64_t span = 1;
  };

  /// Visits a record found by a scan (its frame and first sequence
  /// number) and returns the record's span. An error stops the scan and
  /// is returned as is.
  using RecordFn = std::function<StatusOr<uint64_t>(std::string_view frame,
                                                    uint64_t first_seq)>;

  /// Opens `dir` for appending (creating it if missing): takes the
  /// single-writer lock, validates the last segment record-by-record
  /// (`span_fn` recovering spans), truncates a torn tail, and positions
  /// next_seq() after the last durable record — or at `min_seq` if that
  /// is further (a snapshot may outlive its pruned log; the sequence must
  /// never run backwards past one). A fast-forward forces the next append
  /// into a fresh segment.
  static StatusOr<std::unique_ptr<SegmentLog>> Open(
      const std::string& dir, const SegmentFormat& format,
      SegmentLogOptions options = {}, uint64_t min_seq = 0,
      const RecordFn& span_fn = nullptr);

  /// Appends one record spanning [next_seq, next_seq + span).
  Status Append(std::string_view frame, uint64_t span = 1) {
    const Record record{frame, span};
    return Append(std::span<const Record>(&record, 1));
  }

  /// Appends `records` in order, in one segment, atomically as a whole:
  /// on any failure the segment is cut back to its pre-call length or,
  /// if even that fails, the log is poisoned so every later append is
  /// refused. A record for input whose append was failed must never
  /// survive into replay.
  Status Append(std::span<const Record> records);

  /// Forces an fsync of the current segment.
  Status Sync();

  /// Deletes every segment that holds only sequence numbers below `seq`.
  /// The segment containing `seq` and everything after it survive.
  /// Returns segments deleted.
  StatusOr<int> PruneSegmentsBelow(uint64_t seq);

  /// Sequence number the next appended record starts at.
  uint64_t next_seq() const { return next_seq_; }
  const SegmentLogStats& stats() const { return stats_; }
  /// Segment files currently on disk (cheap cached count).
  uint64_t num_segments() const { return num_segments_; }

  struct ReplayStats {
    uint64_t next_seq = 0;        ///< One past the last durable record.
    bool tail_truncated = false;  ///< A torn tail was skipped.
  };

  /// Scans every segment of `dir` that holds sequence numbers >=
  /// `from_seq`, handing each durable record to `fn` in logged order —
  /// including the records below `from_seq` in those segments, whose
  /// spans the continuity checks still need. A missing or empty
  /// directory replays nothing.
  static StatusOr<ReplayStats> Replay(const std::string& dir,
                                      const SegmentFormat& format,
                                      uint64_t from_seq, const RecordFn& fn,
                                      SegmentLogOptions options = {});

 private:
  SegmentLog(std::string dir, const SegmentFormat& format,
             SegmentLogOptions options)
      : dir_(std::move(dir)), format_(format), options_(options) {}

  /// Opens (creating) the segment whose base is next_seq_.
  Status OpenNewSegment();

  std::string dir_;
  const SegmentFormat format_;
  SegmentLogOptions options_;

  UniqueFd lock_fd_;             ///< flock'd lock file: single writer.
  UniqueFd fd_;                  ///< Current segment, opened for append.
  size_t segment_size_ = 0;      ///< Bytes written to the current segment.
  uint64_t current_segment_base_ = 0;  ///< Base seq of the open segment.
  uint64_t next_seq_ = 0;
  uint64_t num_segments_ = 0;
  int records_since_sync_ = 0;
  /// Set when a failed append could not be cut back (or an fsync
  /// failed): the segment may end in torn or unsynced bytes, so every
  /// further append must be refused — anything written after a tear
  /// would be silently dropped by replay's tail-truncation.
  bool broken_ = false;
  SegmentLogStats stats_;
};

}  // namespace streamworks

#endif  // STREAMWORKS_PERSIST_SEGMENT_LOG_H_
