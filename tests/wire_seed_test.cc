// The committed control-frame fuzz seeds (exchange and metrics corpora),
// decoded and re-encoded: the codec must reproduce every well-formed seed
// byte for byte. The seeds were written by earlier versions of the codec,
// so this pins the wire format of each frame type they cover — the info
// and stats acks among them, which carry engine structs directly.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>

#include "streamworks/common/interner.h"
#include "streamworks/stream/cluster_wire.h"

namespace streamworks {
namespace {

namespace fs = std::filesystem;

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

std::string Reencode(const CtrlFrame& frame, const Interner& interner) {
  const LabelNameFn name = [&](LabelId id) -> std::string_view {
    return interner.Name(id);
  };
  switch (frame.type) {
    case CtrlType::kHello:
      return EncodeHelloFrame(frame.hello);
    case CtrlType::kHelloAck:
      return EncodeHelloAckFrame(frame.hello_ack);
    case CtrlType::kRegister:
      return EncodeRegisterFrame(frame.reg);
    case CtrlType::kRegisterAck:
      return EncodeRegisterAckFrame(frame.register_ack);
    case CtrlType::kEndBackfill:
      return EncodeEndBackfillFrame();
    case CtrlType::kUnregister:
      return EncodeUnregisterFrame(frame.unregister);
    case CtrlType::kBatch:
      return EncodeBatchFrame(frame.batch, name);
    case CtrlType::kExchange:
      return EncodeExchangeFrame(frame.exchange, name);
    case CtrlType::kBarrier:
      return EncodeBarrierFrame(frame.barrier);
    case CtrlType::kBarrierAck:
      return EncodeBarrierAckFrame(frame.barrier_ack);
    case CtrlType::kCommit:
      return EncodeCommitFrame(frame.commit);
    case CtrlType::kCompletion:
      return EncodeCompletionFrame(frame.completion, name);
    case CtrlType::kInfo:
      return EncodeInfoFrame(frame.info);
    case CtrlType::kInfoAck:
      return EncodeInfoAckFrame(frame.info_ack);
    case CtrlType::kStats:
      return EncodeStatsFrame();
    case CtrlType::kStatsAck:
      return EncodeStatsAckFrame(frame.stats_ack);
    case CtrlType::kMetricsRequest:
      return EncodeMetricsRequestFrame();
    case CtrlType::kMetricsReport:
      return EncodeMetricsReportFrame(frame.metrics_report);
  }
  return std::string();
}

TEST(ClusterWireSeedTest, WellFormedSeedsReencodeByteForByte) {
  const fs::path corpus = fs::path(__FILE__).parent_path() / "fuzz" / "corpus";
  std::set<std::string> checked;
  for (const fs::directory_entry& entry :
       fs::recursive_directory_iterator(corpus)) {
    const std::string dir = entry.path().parent_path().filename().string();
    if (dir != "exchange" && dir != "metrics") continue;
    const std::string seed = ReadFile(entry.path());
    Interner interner;
    const CtrlDecodeResult decoded =
        DecodeCtrlFrame(seed, kDefaultMaxFrameBodyBytes, &interner);
    // Some seeds (bad_magic, torn_register, report_bad_crc, ...) are
    // malformed on purpose.
    if (decoded.status != FrameDecodeStatus::kOk ||
        decoded.frame_bytes != seed.size()) {
      continue;
    }
    EXPECT_EQ(Reencode(decoded.frame, interner), seed)
        << entry.path().filename();
    checked.insert(entry.path().filename().string());
  }
  EXPECT_TRUE(checked.count("info_ack"));
  EXPECT_TRUE(checked.count("stats_ack"));
  EXPECT_TRUE(checked.count("report_mixed"));
  EXPECT_GE(checked.size(), 20u);
}

}  // namespace
}  // namespace streamworks
