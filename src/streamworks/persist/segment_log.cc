#include "streamworks/persist/segment_log.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <optional>
#include <vector>

#include "streamworks/common/binio.h"
#include "streamworks/common/str_util.h"
#include "streamworks/persist/crc32.h"
#include "streamworks/persist/fs_util.h"
#include "streamworks/stream/cluster_wire.h"

namespace streamworks {

namespace {

constexpr uint32_t kSegmentVersion = 1;
constexpr size_t kSegmentHeaderBytes = 20;
constexpr size_t kRecordHeaderBytes = 8;  // len u32 + crc u32
constexpr size_t kFirstSeqBytes = 8;      // the payload's leading u64
// Both record kinds are wire frames with the same 8-byte header.
constexpr size_t kFrameHeaderBytes = kFeedFrameHeaderBytes;
static_assert(kCtrlFrameHeaderBytes == kFrameHeaderBytes);

std::string SegmentName(const SegmentFormat& format, uint64_t base_seq) {
  return SeqFileName(format.file_prefix, base_seq, ".log");
}

/// Segment paths in `dir`, ascending by base sequence.
StatusOr<std::vector<std::pair<uint64_t, std::filesystem::path>>>
ListSegments(const std::string& dir, const SegmentFormat& format) {
  return ListSeqFiles(dir, format.file_prefix, ".log");
}

struct SegmentScan {
  uint64_t next_seq = 0;      ///< One past the last valid record.
  size_t valid_bytes = 0;     ///< Offset of the first invalid byte.
  bool tail_truncated = false;
};

/// Reads the segment at `path` (named for `base`) and walks its records,
/// handing each to `fn` for its span (null fn = span 1). Stops at the
/// first torn record — or, with valid_bytes 0, at a header that is torn
/// or names another base, as a crash inside segment creation leaves it.
/// A record whose CRC passed but that breaks sequence continuity, the
/// frame bound, or `fn` is not crash damage, so it fails the scan.
StatusOr<SegmentScan> ScanSegment(const std::filesystem::path& path,
                                  uint64_t base, const SegmentFormat& format,
                                  size_t max_frame_body_bytes,
                                  const SegmentLog::RecordFn& fn) {
  SW_ASSIGN_OR_RETURN(const std::string bytes, ReadFileToString(path));
  SegmentScan scan;
  scan.next_seq = base;
  scan.tail_truncated = true;
  if (bytes.size() < kSegmentHeaderBytes ||
      std::memcmp(bytes.data(), format.magic, sizeof(format.magic)) != 0 ||
      GetU32(bytes.data() + 4) != kSegmentVersion ||
      GetU64(bytes.data() + 8) != base ||
      GetU32(bytes.data() + 16) != Crc32({bytes.data(), 16})) {
    return scan;
  }
  size_t pos = kSegmentHeaderBytes;
  scan.valid_bytes = pos;
  while (pos < bytes.size()) {
    if (bytes.size() - pos < kRecordHeaderBytes) return scan;
    const uint32_t len = GetU32(bytes.data() + pos);
    const uint32_t crc = GetU32(bytes.data() + pos + 4);
    if (len < kFirstSeqBytes ||
        bytes.size() - pos - kRecordHeaderBytes < len) {
      return scan;
    }
    const std::string_view payload =
        std::string_view(bytes).substr(pos + kRecordHeaderBytes, len);
    if (Crc32(payload) != crc) return scan;
    const uint64_t first_seq = GetU64(payload.data());
    if (first_seq != scan.next_seq) {
      return Status::DataLoss(
          StrCat(path.string(), ": record sequence jumped from ",
                 scan.next_seq, " to ", first_seq));
    }
    const std::string_view frame = payload.substr(kFirstSeqBytes);
    if (frame.size() > kFrameHeaderBytes + max_frame_body_bytes) {
      return Status::DataLoss(StrCat(path.string(), ": record of ",
                                     frame.size(), " bytes at ", pos,
                                     " exceeds max_frame_body_bytes"));
    }
    uint64_t span = 1;
    if (fn) {
      SW_ASSIGN_OR_RETURN(span, fn(frame, first_seq));
    }
    if (scan.next_seq + span < scan.next_seq) {
      return Status::DataLoss(StrCat(path.string(),
                                     ": record sequence overflows at ",
                                     first_seq));
    }
    scan.next_seq += span;
    pos += kRecordHeaderBytes + len;
    scan.valid_bytes = pos;
  }
  scan.tail_truncated = false;
  return scan;
}

}  // namespace

StatusOr<std::unique_ptr<SegmentLog>> SegmentLog::Open(
    const std::string& dir, const SegmentFormat& format,
    SegmentLogOptions options, uint64_t min_seq, const RecordFn& span_fn) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IoError(StrCat("cannot create ", format.name, " dir ",
                                  dir, ": ", ec.message()));
  }
  auto log =
      std::unique_ptr<SegmentLog>(new SegmentLog(dir, format, options));
  log->next_seq_ = min_seq;

  // Single-writer lock: two processes appending into the same segments
  // would interleave bytes and destroy record framing for both — ACKed,
  // even fsynced, records included. The O_EXCL on segment creation only
  // guards the create path; this guards the whole directory for the
  // log's lifetime (the fd releases the flock on close).
  const std::filesystem::path lock_path =
      std::filesystem::path(dir) / format.lock_file;
  const int lock_fd =
      ::open(lock_path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (lock_fd < 0) {
    return Status::IoError(StrCat("cannot open ", format.name, " lock ",
                                  lock_path.string(), ": ",
                                  std::strerror(errno)));
  }
  log->lock_fd_.reset(lock_fd);
  if (::flock(lock_fd, LOCK_EX | LOCK_NB) != 0) {
    return Status::FailedPrecondition(
        StrCat("another process holds the ", format.name, " at ", dir,
               " (two writers would corrupt acknowledged records)"));
  }

  SW_ASSIGN_OR_RETURN(auto segments, ListSegments(dir, format));
  log->num_segments_ = segments.size();

  // Older segments were sealed (fsynced) by rotation; only the last one
  // can carry crash damage. A torn *tail* is truncated away; a torn
  // *header* (a crash inside OpenNewSegment, before any record landed)
  // means the whole file is garbage past the durable end — drop it and
  // fall back to the now-last segment, exactly mirroring what Replay
  // tolerates. Recovery must never be wedged by the debris of the very
  // crash it exists to absorb.
  while (!segments.empty()) {
    const auto& [base, path] = segments.back();
    SW_ASSIGN_OR_RETURN(const SegmentScan scan,
                        ScanSegment(path, base, format,
                                    options.max_frame_body_bytes, span_fn));
    if (scan.valid_bytes == 0) {
      std::filesystem::remove(path, ec);
      if (ec) {
        return Status::IoError(StrCat("cannot drop torn ", format.name,
                                      " segment ", path.string(), ": ",
                                      ec.message()));
      }
      segments.pop_back();
      --log->num_segments_;
      continue;
    }
    if (scan.tail_truncated) {
      std::filesystem::resize_file(path, scan.valid_bytes, ec);
      if (ec) {
        return Status::IoError(StrCat("cannot truncate torn ", format.name,
                                      " tail of ", path.string(), ": ",
                                      ec.message()));
      }
    }
    if (scan.next_seq < log->next_seq_) {
      // The durable log ends before min_seq (a snapshot outlived pruned
      // or lost segments). Keep the fast-forwarded cursor and leave fd_
      // closed so the next append starts a fresh segment based there.
      return log;
    }
    log->next_seq_ = scan.next_seq;

    // Reopen the last segment for appending (rotation will take over
    // once it fills).
    const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
    if (fd < 0) {
      return Status::IoError(StrCat("cannot reopen ", format.name,
                                    " segment ", path.string(), ": ",
                                    std::strerror(errno)));
    }
    log->fd_.reset(fd);
    log->segment_size_ = scan.valid_bytes;
    log->current_segment_base_ = base;
    break;
  }
  return log;
}

Status SegmentLog::OpenNewSegment() {
  const std::filesystem::path path =
      std::filesystem::path(dir_) / SegmentName(format_, next_seq_);
  // O_EXCL guards against two logs on one directory; a leftover from a
  // *failed* rotation attempt of this very log was unlinked below, so a
  // retry after a transient error (ENOSPC freed, say) takes this path
  // cleanly instead of wedging on EEXIST forever. O_APPEND, like the
  // reopen path: after a rollback's ftruncate the next record must land
  // at the new end, not at the stale offset past a zero-filled hole.
  const int fd = ::open(
      path.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IoError(StrCat("cannot create ", format_.name,
                                  " segment ", path.string(), ": ",
                                  std::strerror(errno)));
  }
  fd_.reset(fd);
  std::string header;
  header.append(format_.magic, sizeof(format_.magic));
  PutU32(&header, kSegmentVersion);
  PutU64(&header, next_seq_);
  PutU32(&header, Crc32(header));
  if (Status written = WriteAll(fd_.get(), header); !written.ok()) {
    fd_.reset();
    ::unlink(path.c_str());
    return written;
  }
  // Make the directory entry durable too: the records appended next may
  // be fsynced, but a machine crash that forgets the *file* would lose
  // them all with no DataLoss signal (the vanished segment would look
  // like a clean log end).
  FsyncDir(dir_);
  current_segment_base_ = next_seq_;
  segment_size_ = header.size();
  stats_.bytes_appended += header.size();
  ++stats_.segments_created;
  ++num_segments_;
  return OkStatus();
}

Status SegmentLog::Append(std::span<const Record> records) {
  if (broken_) {
    return Status::IoError(
        StrCat(format_.name,
               " poisoned: an earlier failed append could not be rolled "
               "back, so further appends would land after torn bytes and "
               "be silently dropped by replay"));
  }
  // Replay refuses a record past the frame bound (valid CRC, so no
  // torn-tail tolerance applies — just DataLoss on every restart); refuse
  // it here instead, before anything is written.
  size_t total_bytes = 0;
  for (const Record& record : records) {
    if (record.frame.size() >
        kFrameHeaderBytes + options_.max_frame_body_bytes) {
      return Status::InvalidArgument(
          StrCat(format_.name, " record of ", record.frame.size(),
                 " bytes exceeds max_frame_body_bytes (",
                 options_.max_frame_body_bytes,
                 "); raise the limit — replay would reject the record"));
    }
    total_bytes += kRecordHeaderBytes + kFirstSeqBytes + record.frame.size();
  }
  // Rotate only away from a segment holding records: the successor is
  // named by next_seq, which a record-less segment already carries.
  if (!fd_.valid() || (segment_size_ >= options_.segment_bytes &&
                       current_segment_base_ != next_seq_)) {
    if (fd_.valid()) {
      // Seal the outgoing segment: its bytes must be durable before the
      // successor exists, or replay could see a gap.
      SW_RETURN_IF_ERROR(Sync());
    }
    SW_RETURN_IF_ERROR(OpenNewSegment());
  }
  // One buffer and one write for the whole call, each record laid out
  // as [len u32][crc u32][first_seq u64][frame...] with its length and
  // CRC patched over placeholders once the payload is in place — this
  // runs per Feed on the durable ingest path, so redundant copies of the
  // record bytes would show up.
  std::string buf;
  buf.reserve(total_bytes);
  uint64_t seq = next_seq_;
  for (const Record& record : records) {
    const size_t start = buf.size();
    PutU32(&buf, 0);  // len placeholder
    PutU32(&buf, 0);  // crc placeholder
    PutU64(&buf, seq);
    buf.append(record.frame);
    const std::string_view payload =
        std::string_view(buf).substr(start + kRecordHeaderBytes);
    const uint32_t len = static_cast<uint32_t>(payload.size());
    const uint32_t crc = Crc32(payload);
    for (size_t i = 0; i < 4; ++i) {
      buf[start + i] = static_cast<char>((len >> (8 * i)) & 0xFF);
      buf[start + 4 + i] = static_cast<char>((crc >> (8 * i)) & 0xFF);
    }
    seq += record.span;
  }
  // All or nothing: a failed append cuts whatever part of the buffer
  // landed, so a later append can never follow torn bytes (replay's
  // tail-truncation would silently drop it, ACKed or not). If even the
  // cut fails, poison the log: failing every future append loudly beats
  // quietly losing acknowledged records.
  const auto roll_back = [&](Status cause) {
    if (::ftruncate(fd_.get(), static_cast<off_t>(segment_size_)) != 0) {
      broken_ = true;
    }
    return cause;
  };
  if (Status written = WriteAll(fd_.get(), buf); !written.ok()) {
    return roll_back(std::move(written));
  }
  records_since_sync_ += static_cast<int>(records.size());
  if (options_.fsync_every_records > 0 &&
      records_since_sync_ >= options_.fsync_every_records) {
    // Records whose fsync failed must not survive either: their input is
    // about to be failed, and replay applying it anyway would diverge
    // from what the caller was told.
    if (Status synced = Sync(); !synced.ok()) {
      return roll_back(std::move(synced));
    }
  }
  segment_size_ += buf.size();
  stats_.records_appended += records.size();
  stats_.seqs_appended += seq - next_seq_;
  stats_.bytes_appended += buf.size();
  next_seq_ = seq;
  return OkStatus();
}

Status SegmentLog::Sync() {
  if (!fd_.valid()) return OkStatus();
  if (::fsync(fd_.get()) != 0) {
    // A failed fsync may have marked dirty pages clean (the Linux
    // fsync-gate problem): earlier cadence-ACKed records can now be
    // lost by a machine crash even though a *retry* would report
    // success. Nothing short of a restart (which re-reads the durable
    // truth) makes this log trustworthy again — poison it.
    broken_ = true;
    return Status::IoError(StrCat(format_.name, " fsync failed: ",
                                  std::strerror(errno)));
  }
  records_since_sync_ = 0;
  ++stats_.fsyncs;
  return OkStatus();
}

StatusOr<int> SegmentLog::PruneSegmentsBelow(uint64_t seq) {
  SW_ASSIGN_OR_RETURN(auto segments, ListSegments(dir_, format_));
  int deleted = 0;
  // Segment i holds [base_i, base_{i+1}); it is fully covered by a
  // snapshot at `seq` iff its successor's base is <= seq. The last
  // segment always survives (it is open for append).
  for (size_t i = 0; i + 1 < segments.size(); ++i) {
    if (segments[i + 1].first > seq) break;
    std::error_code ec;
    std::filesystem::remove(segments[i].second, ec);
    if (ec) {
      return Status::IoError(StrCat("cannot prune ", format_.name,
                                    " segment ", segments[i].second.string(),
                                    ": ", ec.message()));
    }
    ++deleted;
    --num_segments_;
  }
  return deleted;
}

StatusOr<SegmentLog::ReplayStats> SegmentLog::Replay(
    const std::string& dir, const SegmentFormat& format, uint64_t from_seq,
    const RecordFn& fn, SegmentLogOptions options) {
  ReplayStats stats;
  stats.next_seq = from_seq;
  std::error_code ec;
  if (!std::filesystem::exists(dir, ec)) return stats;
  SW_ASSIGN_OR_RETURN(auto segments, ListSegments(dir, format));

  // End of the previous *scanned* segment: consecutive scanned segments
  // must be seamless, or a lost/deleted sealed segment in the middle
  // would silently swallow its records. (Skipped segments sit wholly
  // below from_seq — a gap after one is below from_seq too, hence
  // harmless.)
  std::optional<uint64_t> prev_end;
  for (size_t i = 0; i < segments.size(); ++i) {
    const auto& [base, path] = segments[i];
    const bool last = i + 1 == segments.size();
    // A whole segment below from_seq is already covered by the snapshot;
    // skip the decode (its successor's base bounds its content).
    if (!last && segments[i + 1].first <= from_seq) continue;
    if (prev_end.has_value() && base != *prev_end) {
      return Status::DataLoss(StrCat(path.string(), ": ", format.name,
                                     " gap — previous segment ends at ",
                                     *prev_end, " but this one starts at ",
                                     base));
    }
    // The first scanned segment must reach back to from_seq: pruning
    // always keeps the segment containing the snapshot stamp, so a
    // first base beyond from_seq means records in [from_seq, base) are
    // simply gone.
    if (!prev_end.has_value() && base > from_seq) {
      return Status::DataLoss(StrCat(path.string(), ": ", format.name,
                                     " starts at ", base,
                                     " but replay needs records from ",
                                     from_seq));
    }

    SW_ASSIGN_OR_RETURN(const SegmentScan scan,
                        ScanSegment(path, base, format,
                                    options.max_frame_body_bytes, fn));
    if (scan.tail_truncated) {
      // Crash damage is only ever the last segment's: the rest were
      // sealed by rotation.
      if (!last) {
        return Status::DataLoss(StrCat(path.string(), ": torn sealed ",
                                       format.name, " segment"));
      }
      stats.tail_truncated = true;
    }
    prev_end = scan.next_seq;
    stats.next_seq = std::max(stats.next_seq, scan.next_seq);
  }
  return stats;
}

}  // namespace streamworks
