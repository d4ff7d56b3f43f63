#include "labmon/trace/segment.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

namespace labmon::trace {
namespace {

SampleRecord MakeRecord(std::uint32_t machine, std::uint32_t iteration,
                        std::int64_t t, bool session = false) {
  SampleRecord r;
  r.machine = machine;
  r.iteration = iteration;
  r.t = t;
  r.boot_time = t - 500;
  r.uptime_s = 500;
  r.cpu_idle_s = 471.125;
  r.mem_load_pct = 52;
  r.swap_load_pct = 9;
  r.disk_total_b = 74'500'000'000ULL;
  r.disk_free_b = 58'000'000'321ULL;
  r.smart_power_on_hours = 777;
  r.smart_power_cycles = 66;
  r.net_sent_b = 5000 + t;
  r.net_recv_b = 9000 + t;
  if (session) {
    r.has_session = true;
    r.session_logon = t - 200;
    r.user = "b" + std::to_string(machine);
  }
  return r;
}

TraceStore MakeBlockStore(std::uint32_t iteration, std::size_t samples) {
  TraceStore store(4);
  for (std::size_t i = 0; i < samples; ++i) {
    store.Append(MakeRecord(static_cast<std::uint32_t>(i % 4), iteration,
                            900 * (iteration + 1) +
                                static_cast<std::int64_t>(i),
                            i % 2 == 1));
  }
  store.AppendIteration({iteration, 900 * (iteration + 1),
                         900 * (iteration + 1) + 60,
                         static_cast<std::uint32_t>(samples),
                         static_cast<std::uint32_t>(samples)});
  return store;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string WriteSegment(const std::string& path,
                         const std::vector<std::size_t>& block_sizes,
                         SpillCodecId codec) {
  auto writer = SegmentWriter::Open(path, 4, codec);
  EXPECT_TRUE(writer.ok()) << writer.error();
  std::uint32_t iteration = 0;
  for (const std::size_t n : block_sizes) {
    auto appended = writer.value().Append(MakeBlockStore(iteration++, n));
    EXPECT_TRUE(appended.ok()) << appended.error();
  }
  auto finished = writer.value().Finish();
  EXPECT_TRUE(finished.ok()) << finished.error();
  return path;
}

/// Every structural segment test runs once per codec: the framing contract
/// (round trip, loud corruption, empty blocks) is codec-independent.
class SegmentCodecTest : public ::testing::TestWithParam<SpillCodecId> {
 protected:
  [[nodiscard]] SpillCodecId codec() const { return GetParam(); }
  [[nodiscard]] std::string Path(const std::string& stem) const {
    return TempPath(stem + "_" + SpillCodecName(codec()) + ".lmsg");
  }
};

INSTANTIATE_TEST_SUITE_P(Codecs, SegmentCodecTest,
                         ::testing::Values(SpillCodecId::kLmsg1,
                                           SpillCodecId::kLmsg2),
                         [](const auto& info) {
                           return std::string(SpillCodecName(info.param));
                         });

TEST_P(SegmentCodecTest, RoundTripPreservesSamplesUsersIterations) {
  const std::string path =
      WriteSegment(Path("seg_roundtrip"), {5, 3, 7}, codec());
  auto reader = SegmentReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.error();
  EXPECT_EQ(reader.value().machine_count(), 4u);
  EXPECT_EQ(reader.value().codec(), codec());

  std::uint32_t iteration = 0;
  const std::vector<std::size_t> sizes = {5, 3, 7};
  while (const TraceBlock* block = reader.value().Next()) {
    ASSERT_LT(iteration, sizes.size());
    EXPECT_EQ(block->size(), sizes[iteration]);
    ASSERT_EQ(block->iterations.size(), 1u);
    EXPECT_EQ(block->iterations[0].iteration, iteration);
    const TraceStore expect = MakeBlockStore(iteration, sizes[iteration]);
    for (std::size_t i = 0; i < block->size(); ++i) {
      EXPECT_EQ(block->cols.t[i], expect.samples()[i].t);
      EXPECT_EQ(block->UserOf(i), expect.samples()[i].user);
    }
    ++iteration;
  }
  EXPECT_FALSE(reader.value().failed()) << reader.value().error();
  EXPECT_EQ(iteration, 3u);
  EXPECT_EQ(reader.value().codec_stats().blocks, 3u);
  EXPECT_EQ(reader.value().codec_stats().samples, 15u);

  reader.value().Reset();
  const TraceBlock* again = reader.value().Next();
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(again->size(), 5u);
}

TEST_P(SegmentCodecTest, DecodeIntoCallerBlockMatchesNext) {
  // A caller block that still holds a bigger, older block's rows must come
  // back holding exactly what Next() yields, with the same iteration
  // numbering and codec accounting.
  const std::string path =
      WriteSegment(Path("seg_decode_into"), {9, 4, 6}, codec());
  auto by_next = SegmentReader::Open(path);
  auto by_into = SegmentReader::Open(path);
  ASSERT_TRUE(by_next.ok() && by_into.ok());
  TraceBlock out;
  out.AssignFrom(MakeBlockStore(7, 12));
  std::size_t blocks = 0;
  while (const TraceBlock* expect = by_next.value().Next()) {
    EXPECT_EQ(by_into.value().next_iteration(), blocks);
    ASSERT_TRUE(by_into.value().Next(out));
    ASSERT_EQ(out.size(), expect->size());
    TraceStore::ForEachColumn([&](auto member) {
      EXPECT_EQ(out.cols.*member, expect->cols.*member);
    });
    EXPECT_EQ(out.users, expect->users);
    ASSERT_EQ(out.iterations.size(), 1u);
    EXPECT_EQ(out.iterations[0].iteration, expect->iterations[0].iteration);
    ++blocks;
  }
  EXPECT_EQ(blocks, 3u);
  EXPECT_FALSE(by_into.value().Next(out));
  EXPECT_FALSE(by_into.value().failed());
  EXPECT_EQ(by_into.value().next_iteration(), 3u);
  EXPECT_EQ(by_into.value().codec_stats().samples,
            by_next.value().codec_stats().samples);
  EXPECT_EQ(by_into.value().codec_stats().payload_bytes,
            by_next.value().codec_stats().payload_bytes);
}

TEST_P(SegmentCodecTest, ZeroSampleBlockRoundTrips) {
  const std::string path = Path("seg_empty_block");
  auto writer = SegmentWriter::Open(path, 4, codec());
  ASSERT_TRUE(writer.ok());
  TraceStore empty(4);
  empty.AppendIteration({0, 900, 960, 4, 0});  // iteration with no responses
  ASSERT_TRUE(writer.value().Append(empty).ok());
  ASSERT_TRUE(writer.value().Append(MakeBlockStore(1, 2)).ok());
  ASSERT_TRUE(writer.value().Finish().ok());

  auto reader = SegmentReader::Open(path);
  ASSERT_TRUE(reader.ok());
  const TraceBlock* b0 = reader.value().Next();
  ASSERT_NE(b0, nullptr);
  EXPECT_EQ(b0->size(), 0u);
  ASSERT_EQ(b0->iterations.size(), 1u);
  EXPECT_EQ(b0->iterations[0].successes, 0u);
  const TraceBlock* b1 = reader.value().Next();
  ASSERT_NE(b1, nullptr);
  EXPECT_EQ(b1->size(), 2u);
  EXPECT_EQ(reader.value().Next(), nullptr);
  EXPECT_FALSE(reader.value().failed());
}

TEST_P(SegmentCodecTest, HeaderOnlySegmentStreamsNothing) {
  const std::string path = WriteSegment(Path("seg_header_only"), {}, codec());
  auto reader = SegmentReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader.value().Next(), nullptr);
  EXPECT_FALSE(reader.value().failed());
}

TEST_P(SegmentCodecTest, TruncationInsideBlockFailsLoudly) {
  const std::string path = WriteSegment(Path("seg_trunc"), {6, 6}, codec());
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const std::streamoff full = in.tellg();
  in.close();

  // Chop the tail off the second block: first block must still stream,
  // then the reader must report failure rather than ending silently.
  std::ifstream src(path, std::ios::binary);
  std::string bytes(static_cast<std::size_t>(full), '\0');
  src.read(bytes.data(), full);
  src.close();
  const std::string cut = Path("seg_trunc_cut");
  std::ofstream out(cut, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), full - 10);
  out.close();

  auto reader = SegmentReader::Open(cut);
  ASSERT_TRUE(reader.ok());
  const TraceBlock* b0 = reader.value().Next();
  ASSERT_NE(b0, nullptr);
  EXPECT_EQ(b0->size(), 6u);
  EXPECT_EQ(reader.value().Next(), nullptr);
  EXPECT_TRUE(reader.value().failed());
  EXPECT_FALSE(reader.value().error().empty());
}

TEST_P(SegmentCodecTest, ChecksumBitFlipIsDetected) {
  const std::string path = WriteSegment(Path("seg_flip"), {8}, codec());
  std::ifstream src(path, std::ios::binary | std::ios::ate);
  const std::streamoff full = src.tellg();
  src.seekg(0);
  std::string bytes(static_cast<std::size_t>(full), '\0');
  src.read(bytes.data(), full);
  src.close();

  // Flip one bit in the middle of the block payload (well past the
  // header), leaving length prefix and checksum untouched.
  bytes[static_cast<std::size_t>(full) / 2] ^= 0x10;
  const std::string flipped = Path("seg_flip_bad");
  std::ofstream out(flipped, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), full);
  out.close();

  auto reader = SegmentReader::Open(flipped);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader.value().Next(), nullptr);
  EXPECT_TRUE(reader.value().failed());
  EXPECT_FALSE(reader.value().error().empty());
}

TEST_P(SegmentCodecTest, WriterReportsCodecAndCompressionStats) {
  const std::string path = Path("seg_stats");
  auto writer = SegmentWriter::Open(path, 4, codec());
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value().Append(MakeBlockStore(0, 64)).ok());
  ASSERT_TRUE(writer.value().Finish().ok());
  EXPECT_EQ(writer.value().codec(), codec());
  const SpillCodecStats& stats = writer.value().codec_stats();
  EXPECT_EQ(stats.blocks, 1u);
  EXPECT_EQ(stats.samples, 64u);
  EXPECT_GT(stats.raw_bytes, 0u);
  EXPECT_GT(stats.payload_bytes, 0u);
  EXPECT_LE(writer.value().bytes_written(),
            stats.payload_bytes + 64);  // framing is small
}

TEST(SegmentTest, BadMagicRejectedAtOpen) {
  const std::string path = TempPath("seg_bad_magic.lmsg");
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << "NOTSEG??????";
  out.close();
  auto reader = SegmentReader::Open(path);
  EXPECT_FALSE(reader.ok());
}

// A spill directory mixing codecs (e.g. a campaign resumed under a
// different --spill-codec) must stream every segment by its own magic —
// and still reject unknown magics loudly, never mis-parse.
TEST(SegmentTest, MixedCodecDirectoryStreamsBothFormats) {
  const std::string p1 = TempPath("seg_mixed_lab0.lmsg");
  const std::string p2 = TempPath("seg_mixed_lab1.lmsg");
  WriteSegment(p1, {4, 4}, SpillCodecId::kLmsg1);
  WriteSegment(p2, {4, 4}, SpillCodecId::kLmsg2);

  std::size_t total = 0;
  for (const std::string& path : {p1, p2}) {
    auto reader = SegmentReader::Open(path);
    ASSERT_TRUE(reader.ok()) << reader.error();
    while (const TraceBlock* block = reader.value().Next()) {
      total += block->size();
    }
    EXPECT_FALSE(reader.value().failed()) << reader.value().error();
  }
  EXPECT_EQ(total, 16u);

  // The two readers decode identical sample streams.
  auto r1 = SegmentReader::Open(p1);
  auto r2 = SegmentReader::Open(p2);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(r1.value().codec(), SpillCodecId::kLmsg1);
  EXPECT_EQ(r2.value().codec(), SpillCodecId::kLmsg2);
  EXPECT_EQ(HashSampleStream(r1.value()), HashSampleStream(r2.value()));

  // An unknown magic in the same directory fails at Open, not silently.
  const std::string bad = TempPath("seg_mixed_lab2.lmsg");
  std::ofstream out(bad, std::ios::binary | std::ios::trunc);
  out << "LMSG9\x01\x04";
  out.close();
  EXPECT_FALSE(SegmentReader::Open(bad).ok());
}

// LMSG2 segments are the compressed format: on a redundant block stream
// they must be materially smaller than LMSG1 for the same data.
TEST(SegmentTest, Lmsg2IsSmallerThanLmsg1OnRedundantBlocks) {
  const std::string p1 = TempPath("seg_size1.lmsg");
  const std::string p2 = TempPath("seg_size2.lmsg");
  auto w1 = SegmentWriter::Open(p1, 4, SpillCodecId::kLmsg1);
  auto w2 = SegmentWriter::Open(p2, 4, SpillCodecId::kLmsg2);
  ASSERT_TRUE(w1.ok() && w2.ok());
  for (std::uint32_t it = 0; it < 4; ++it) {
    const TraceStore block = MakeBlockStore(it, 512);
    ASSERT_TRUE(w1.value().Append(block).ok());
    ASSERT_TRUE(w2.value().Append(block).ok());
  }
  ASSERT_TRUE(w1.value().Finish().ok());
  ASSERT_TRUE(w2.value().Finish().ok());
  EXPECT_LT(w2.value().bytes_written() * 2, w1.value().bytes_written())
      << "lmsg1=" << w1.value().bytes_written()
      << " lmsg2=" << w2.value().bytes_written();
}

}  // namespace
}  // namespace labmon::trace
