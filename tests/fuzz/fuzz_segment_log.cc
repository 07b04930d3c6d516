// Fuzz target for segment-log recovery — the code that reads back whatever
// a crash (or a bad disk) left in a data dir, for both record kinds: the
// edge WAL (FEEDB records) and a cluster worker's frame log (control-frame
// records). The input becomes the last segment of a fresh directory,
// named by the base sequence its header declares; then Open must either
// refuse the directory or recover a log that a Replay of the same
// directory agrees with, record for record — before and after one more
// append lands on the recovered tail.
//
// Built by -DSTREAMWORKS_FUZZ=ON: under clang as a libFuzzer binary
// (-fsanitize=fuzzer), under gcc linked against the corpus replay driver
// (tests/fuzz/replay_driver.cc). Seeds live in tests/fuzz/corpus/segment/.

#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>

#include "streamworks/common/binio.h"
#include "streamworks/common/interner.h"
#include "streamworks/persist/edge_log.h"
#include "streamworks/persist/fs_util.h"
#include "streamworks/persist/segment_log.h"
#include "streamworks/stream/cluster_wire.h"

namespace {

namespace sw = streamworks;

// A failed invariant must crash loudly under the fuzzer, not just return.
void Check(bool ok) {
  if (!ok) __builtin_trap();
}

/// Recreates `dir` holding `bytes` as its only segment; returns the
/// segment's base sequence (0 when the bytes are too short to declare one).
uint64_t WriteSegment(const std::filesystem::path& dir,
                      const sw::SegmentFormat& format,
                      std::string_view bytes) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const uint64_t base = bytes.size() >= 16 ? sw::GetU64(bytes.data() + 8) : 0;
  std::ofstream(dir / sw::SeqFileName(format.file_prefix, base, ".log"),
                std::ios::binary)
      << bytes;
  return base;
}

sw::StatusOr<sw::EdgeLog::ReplayStats> ReplayWal(const std::string& dir,
                                                 uint64_t from_seq) {
  sw::Interner interner;
  return sw::EdgeLog::Replay(
      dir, from_seq, &interner,
      [](const sw::EdgeBatch&, uint64_t) { return sw::OkStatus(); });
}

void CheckWal(const std::filesystem::path& dir, std::string_view bytes) {
  const uint64_t base = WriteSegment(dir, sw::kWalFormat, bytes);
  sw::Interner interner;
  auto log = sw::EdgeLog::Open(dir.string(), &interner, {}, base);
  if (!log.ok()) return;
  auto replayed = ReplayWal(dir.string(), base);
  Check(replayed.ok());
  Check(replayed->next_seq == (*log)->next_seq());

  sw::StreamEdge edge;
  edge.src = 1;
  edge.dst = 2;
  edge.src_label = edge.dst_label = edge.edge_label = interner.Intern("x");
  Check((*log)->Append({edge}).ok());
  replayed = ReplayWal(dir.string(), base);
  Check(replayed.ok());
  Check(!replayed->tail_truncated);
  Check(replayed->next_seq == (*log)->next_seq());
}

sw::StatusOr<sw::SegmentLog::ReplayStats> ReplayFrames(
    const std::string& dir, uint64_t from_seq) {
  return sw::SegmentLog::Replay(
      dir, sw::kFrameLogFormat, from_seq,
      [](std::string_view, uint64_t) -> sw::StatusOr<uint64_t> {
        return uint64_t{1};
      });
}

void CheckFrameLog(const std::filesystem::path& dir, std::string_view bytes) {
  const uint64_t base = WriteSegment(dir, sw::kFrameLogFormat, bytes);
  auto log =
      sw::SegmentLog::Open(dir.string(), sw::kFrameLogFormat, {}, base);
  if (!log.ok()) return;
  auto replayed = ReplayFrames(dir.string(), base);
  Check(replayed.ok());
  Check(replayed->next_seq == (*log)->next_seq());

  Check((*log)->Append(sw::EncodeEndBackfillFrame()).ok());
  replayed = ReplayFrames(dir.string(), base);
  Check(replayed.ok());
  Check(!replayed->tail_truncated);
  Check(replayed->next_seq == (*log)->next_seq());
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view bytes(reinterpret_cast<const char*>(data), size);
  static const std::filesystem::path root =
      std::filesystem::temp_directory_path() /
      ("fuzz_segment_log_" + std::to_string(::getpid()));
  CheckWal(root / "wal", bytes);
  CheckFrameLog(root / "frames", bytes);
  std::filesystem::remove_all(root);
  return 0;
}
