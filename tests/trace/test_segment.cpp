#include "labmon/trace/segment.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "labmon/obs/registry.hpp"
#include "labmon/util/varint.hpp"

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

/// `v` (< 2^63) as a 10-byte varint whose last byte also sets a 65th bit:
/// a reader that drops the bits past 64 reads `v`.
std::string OverlongVarint(std::uint64_t v) {
  std::string out;
  for (int i = 0; i < 9; ++i) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back('\x02');
  return out;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST_P(SegmentCodecTest, BlockAppendWritesTheStoreBytes) {
  // Appending a TraceBlock runs the TraceStore overload's encoder: the same
  // blocks, zero-sample ones included, give the same file and stats.
  const std::vector<std::size_t> sizes = {5, 3, 0, 7};
  const std::string store_path =
      WriteSegment(Path("seg_append_store"), sizes, codec());
  const std::string block_path = Path("seg_append_block");
  auto writer = SegmentWriter::Open(block_path, 4, codec());
  ASSERT_TRUE(writer.ok()) << writer.error();
  TraceBlock block;
  std::uint32_t iteration = 0;
  for (const std::size_t n : sizes) {
    block.AssignFrom(MakeBlockStore(iteration++, n));
    ASSERT_TRUE(writer.value().Append(block).ok());
  }
  ASSERT_TRUE(writer.value().Finish().ok());
  EXPECT_EQ(ReadFile(block_path), ReadFile(store_path));

  auto reference = SegmentWriter::Open(Path("seg_append_ref"), 4, codec());
  ASSERT_TRUE(reference.ok());
  iteration = 0;
  for (const std::size_t n : sizes) {
    ASSERT_TRUE(reference.value().Append(MakeBlockStore(iteration++, n)).ok());
  }
  const SpillCodecStats& want = reference.value().codec_stats();
  const SpillCodecStats& got = writer.value().codec_stats();
  EXPECT_EQ(got.blocks, want.blocks);
  EXPECT_EQ(got.samples, want.samples);
  EXPECT_EQ(got.raw_bytes, want.raw_bytes);
  EXPECT_EQ(got.payload_bytes, want.payload_bytes);
  EXPECT_EQ(writer.value().bytes_written(), reference.value().bytes_written());
  ASSERT_TRUE(reference.value().Finish().ok());
}

// Segment header: 5-byte magic, varint version (1), varint machine count.
constexpr std::size_t kMachineCountAt = 6;

TEST(SegmentTest, OverlongHeaderMachineCountIsRejected) {
  const std::string bytes = ReadFile(WriteSegment(
      TempPath("seg_overlong_header.lmsg"), {3}, SpillCodecId::kLmsg2));
  ASSERT_EQ(bytes[kMachineCountAt], '\x04');
  std::string mutated = bytes;
  mutated.replace(kMachineCountAt, 1, OverlongVarint(4));
  const std::string path = TempPath("seg_overlong_header_bad.lmsg");
  WriteFile(path, mutated);
  auto reader = SegmentReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find("overlong segment header"), std::string::npos)
      << reader.error();
}

TEST(SegmentTest, OverlongBlockLengthPrefixIsRejected) {
  const std::string bytes = ReadFile(WriteSegment(
      TempPath("seg_overlong_prefix.lmsg"), {3}, SpillCodecId::kLmsg2));
  const std::size_t prefix_at = kMachineCountAt + 1;
  util::VarintReader r(std::string_view(bytes).substr(prefix_at));
  const auto payload_len = r.Read();
  ASSERT_TRUE(payload_len.has_value());
  std::string mutated = bytes;
  mutated.replace(prefix_at, r.position(), OverlongVarint(*payload_len));
  const std::string path = TempPath("seg_overlong_prefix_bad.lmsg");
  WriteFile(path, mutated);
  auto reader = SegmentReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.error();
  EXPECT_EQ(reader.value().Next(), nullptr);
  EXPECT_TRUE(reader.value().failed());
  EXPECT_NE(reader.value().error().find("overlong block length prefix"),
            std::string::npos)
      << reader.value().error();
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

// --- registry totals --------------------------------------------------

constexpr std::size_t kFleetMachines = 1352;
constexpr const char* kColumns[] = {
    "machine",         "iteration",          "t",
    "boot_time",       "uptime_s",           "cpu_idle_s",
    "ram_mb",          "mem_load_pct",       "swap_load_pct",
    "disk_total_b",    "disk_free_b",        "smart_power_on_hours",
    "smart_power_cycles", "net_sent_b",      "net_recv_b",
    "has_session",     "session_logon",      "user_id"};
constexpr std::size_t kColumnCount = std::size(kColumns);

/// One lab window as the pipelined engine seals it: 16 iterations of
/// machines 1337..1351 of the x8 campus.
TraceStore WindowStore(std::uint32_t window) {
  TraceStore store(kFleetMachines);
  for (std::uint32_t k = 0; k < 16; ++k) {
    const std::uint32_t iteration = window * 16 + k;
    std::uint32_t successes = 0;
    for (std::uint32_t m = 1337; m < kFleetMachines; ++m) {
      if ((iteration + m) % 7 == 0) continue;
      store.Append(MakeRecord(m, iteration, 900 * (iteration + 1) + m,
                              (m + window) % 3 == 0));
      ++successes;
    }
    store.AppendIteration({iteration, 900 * (iteration + 1),
                           900 * (iteration + 1) + 60, 15, successes});
  }
  return store;
}

/// Every counter of one direction (plus, for writes, the per-column
/// breakdown) as DefaultRegistry() holds it now.
struct SpillTotals {
  std::uint64_t raw = 0;
  std::uint64_t payload = 0;
  std::uint64_t samples = 0;
  std::uint64_t column_raw[kColumnCount] = {};
  std::uint64_t column_encoded[kColumnCount] = {};

  SpillTotals operator-(const SpillTotals& o) const {
    SpillTotals d;
    d.raw = raw - o.raw;
    d.payload = payload - o.payload;
    d.samples = samples - o.samples;
    for (std::size_t i = 0; i < kColumnCount; ++i) {
      d.column_raw[i] = column_raw[i] - o.column_raw[i];
      d.column_encoded[i] = column_encoded[i] - o.column_encoded[i];
    }
    return d;
  }
};

std::uint64_t CounterValue(const char* name, obs::Labels labels) {
  return obs::DefaultRegistry().GetCounter(name, "", std::move(labels)).value();
}

SpillTotals ReadTotals(const char* direction) {
  const obs::Labels labels = {{"codec", "lmsg2"}, {"direction", direction}};
  SpillTotals t;
  t.raw = CounterValue("labmon_spill_raw_bytes_total", labels);
  t.payload = CounterValue("labmon_spill_payload_bytes_total", labels);
  t.samples = CounterValue("labmon_spill_codec_samples_total", labels);
  if (std::string_view(direction) != "write") return t;
  for (std::size_t i = 0; i < kColumnCount; ++i) {
    t.column_raw[i] = CounterValue("labmon_spill_column_bytes_total",
                                   {{"column", kColumns[i]}, {"kind", "raw"}});
    t.column_encoded[i] =
        CounterValue("labmon_spill_column_bytes_total",
                     {{"column", kColumns[i]}, {"kind", "encoded"}});
  }
  return t;
}

/// What one block adds to the write-side totals, derived from the block
/// and its LMSG2 payload alone: raw column bytes are rows x element size,
/// encoded column bytes are each section plus its varint length prefix.
/// Encoding may itself move the registry, so callers compute these before
/// taking a baseline.
SpillTotals BlockTotals(const TraceStore& store) {
  SpillTotals t;
  std::string payload;
  GetSpillCodec(SpillCodecId::kLmsg2).EncodeBlock(store, payload);
  t.raw = RawColumnBytes(store);
  t.payload = payload.size();
  t.samples = store.size();
  std::size_t col = 0;
  TraceStore::ForEachColumn([&](auto member) {
    const auto& column = store.columns().*member;
    t.column_raw[col++] = column.size() * sizeof(column[0]);
  });
  util::VarintReader r(payload);
  (void)r.Read();  // sample count
  (void)r.Read();  // iteration count
  const std::uint64_t users = r.Read().value_or(0);
  for (std::uint64_t u = 0; u < users; ++u) {
    EXPECT_TRUE(r.Skip(static_cast<std::size_t>(r.Read().value_or(0))));
  }
  for (std::size_t i = 0; i < kColumnCount; ++i) {
    const std::size_t start = r.position();
    const std::uint64_t len = r.Read().value_or(0);
    EXPECT_TRUE(r.Skip(static_cast<std::size_t>(len)));
    t.column_encoded[i] = r.position() - start;
  }
  return t;
}

SpillTotals Sum(const std::vector<TraceStore>& blocks) {
  SpillTotals sum;
  for (const TraceStore& block : blocks) {
    const SpillTotals t = BlockTotals(block);
    sum.raw += t.raw;
    sum.payload += t.payload;
    sum.samples += t.samples;
    for (std::size_t i = 0; i < kColumnCount; ++i) {
      sum.column_raw[i] += t.column_raw[i];
      sum.column_encoded[i] += t.column_encoded[i];
    }
  }
  return sum;
}

void ExpectTotals(const SpillTotals& got, const SpillTotals& want,
                  bool columns) {
  EXPECT_EQ(got.raw, want.raw);
  EXPECT_EQ(got.payload, want.payload);
  EXPECT_EQ(got.samples, want.samples);
  for (std::size_t i = 0; i < kColumnCount; ++i) {
    EXPECT_EQ(got.column_raw[i], columns ? want.column_raw[i] : 0)
        << kColumns[i];
    EXPECT_EQ(got.column_encoded[i], columns ? want.column_encoded[i] : 0)
        << kColumns[i];
  }
}

std::vector<TraceStore> WindowStores(std::uint32_t count) {
  std::vector<TraceStore> blocks;
  for (std::uint32_t w = 0; w < count; ++w) blocks.push_back(WindowStore(w));
  return blocks;
}

// The registry's spill counters are the sums of what every writer and
// reader moved, block by block — whenever and however they publish.
TEST(SegmentMetricsTest, RegistryTotalsMatchPerBlockSums) {
  const std::vector<TraceStore> blocks = WindowStores(5);
  const SpillTotals want = Sum(blocks);
  const std::string path = TempPath("seg_metrics.lmsg");

  const SpillTotals write0 = ReadTotals("write");
  const SpillTotals read0 = ReadTotals("read");
  {
    auto writer = SegmentWriter::Open(path, kFleetMachines);
    ASSERT_TRUE(writer.ok()) << writer.error();
    for (const TraceStore& block : blocks) {
      ASSERT_TRUE(writer.value().Append(block).ok());
    }
    ASSERT_TRUE(writer.value().Finish().ok());
    const SpillCodecStats& stats = writer.value().codec_stats();
    EXPECT_EQ(stats.blocks, blocks.size());
    EXPECT_EQ(stats.samples, want.samples);
    EXPECT_EQ(stats.raw_bytes, want.raw);
    EXPECT_EQ(stats.payload_bytes, want.payload);
  }
  ExpectTotals(ReadTotals("write") - write0, want, /*columns=*/true);

  const SpillTotals write1 = ReadTotals("write");
  std::uint64_t decoded_raw = 0;
  {
    auto reader = SegmentReader::Open(path);
    ASSERT_TRUE(reader.ok()) << reader.error();
    while (const TraceBlock* block = reader.value().Next()) {
      decoded_raw += RawColumnBytes(*block);
    }
    ASSERT_FALSE(reader.value().failed()) << reader.value().error();
    EXPECT_EQ(reader.value().codec_stats().payload_bytes, want.payload);
  }
  EXPECT_EQ(decoded_raw, want.raw);
  ExpectTotals(ReadTotals("read") - read0, want, /*columns=*/false);
  // Decoding never counts column bytes.
  ExpectTotals(ReadTotals("write") - write1, SpillTotals{}, false);
}

// A writer dropped without Finish() and a reader abandoned mid-stream
// still count what they moved, exactly once.
TEST(SegmentMetricsTest, UnfinishedWriterAndAbandonedReaderCountOnce) {
  const std::vector<TraceStore> blocks = WindowStores(3);
  const SpillTotals all = Sum(blocks);
  const SpillTotals first = Sum({blocks[0]});
  const std::string path = TempPath("seg_metrics_unfinished.lmsg");

  const SpillTotals write0 = ReadTotals("write");
  {
    auto writer = SegmentWriter::Open(path, kFleetMachines);
    ASSERT_TRUE(writer.ok()) << writer.error();
    for (const TraceStore& block : blocks) {
      ASSERT_TRUE(writer.value().Append(block).ok());
    }
  }
  ExpectTotals(ReadTotals("write") - write0, all, true);

  const SpillTotals read0 = ReadTotals("read");
  {
    auto reader = SegmentReader::Open(path);
    ASSERT_TRUE(reader.ok()) << reader.error();
    ASSERT_NE(reader.value().Next(), nullptr);
  }
  ExpectTotals(ReadTotals("read") - read0, first, false);
}

// Moving a writer or reader hands its accounting over: the moved-from
// object counts nothing, the moved-to one counts everything.
TEST(SegmentMetricsTest, MovedFromWriterAndReaderCountNothing) {
  const std::vector<TraceStore> blocks = WindowStores(3);
  const SpillTotals all = Sum(blocks);
  const std::string path = TempPath("seg_metrics_moved.lmsg");

  const SpillTotals write0 = ReadTotals("write");
  {
    auto opened = SegmentWriter::Open(path, kFleetMachines);
    ASSERT_TRUE(opened.ok()) << opened.error();
    SegmentWriter first = std::move(opened).value();
    ASSERT_TRUE(first.Append(blocks[0]).ok());
    SegmentWriter second = std::move(first);
    ASSERT_TRUE(second.Append(blocks[1]).ok());
    ASSERT_TRUE(second.Append(blocks[2]).ok());
    ASSERT_TRUE(second.Finish().ok());
  }
  ExpectTotals(ReadTotals("write") - write0, all, true);

  const SpillTotals read0 = ReadTotals("read");
  {
    auto opened = SegmentReader::Open(path);
    ASSERT_TRUE(opened.ok()) << opened.error();
    SegmentReader first = std::move(opened).value();
    ASSERT_NE(first.Next(), nullptr);
    SegmentReader second = std::move(first);
    std::size_t rest = 0;
    while (second.Next() != nullptr) ++rest;
    EXPECT_EQ(rest, 2u);
    EXPECT_FALSE(second.failed());
  }
  ExpectTotals(ReadTotals("read") - read0, all, false);
}

// Blocks never touch the registry: a writer publishes at Finish() and a
// reader when its stream ends, in one batch each.
TEST(SegmentMetricsTest, PublishesAtFinishAndEndOfStreamOnly) {
  const std::vector<TraceStore> blocks = WindowStores(3);
  const SpillTotals all = Sum(blocks);
  const std::string path = TempPath("seg_metrics_batched.lmsg");

  const SpillTotals write0 = ReadTotals("write");
  auto writer = SegmentWriter::Open(path, kFleetMachines);
  ASSERT_TRUE(writer.ok()) << writer.error();
  for (const TraceStore& block : blocks) {
    ASSERT_TRUE(writer.value().Append(block).ok());
  }
  ExpectTotals(ReadTotals("write") - write0, SpillTotals{}, true);
  ASSERT_TRUE(writer.value().Finish().ok());
  ExpectTotals(ReadTotals("write") - write0, all, true);

  const SpillTotals read0 = ReadTotals("read");
  auto reader = SegmentReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.error();
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    ASSERT_NE(reader.value().Next(), nullptr);
  }
  ExpectTotals(ReadTotals("read") - read0, SpillTotals{}, false);
  EXPECT_EQ(reader.value().Next(), nullptr);
  ExpectTotals(ReadTotals("read") - read0, all, false);
}

// labmon_spill_column_ratio is the cumulative raw/encoded ratio of each
// column's counters, not the ratio of the last block written.
TEST(SegmentMetricsTest, ColumnRatioGaugeIsCumulative) {
  const std::string path = TempPath("seg_metrics_ratio.lmsg");
  {
    auto writer = SegmentWriter::Open(path, kFleetMachines);
    ASSERT_TRUE(writer.ok()) << writer.error();
    for (const TraceStore& block : WindowStores(4)) {
      ASSERT_TRUE(writer.value().Append(block).ok());
    }
    ASSERT_TRUE(writer.value().Finish().ok());
  }
  const SpillTotals totals = ReadTotals("write");
  const SpillTotals last = BlockTotals(WindowStore(3));
  std::size_t differs_from_last = 0;
  for (std::size_t i = 0; i < kColumnCount; ++i) {
    const double ratio = obs::DefaultRegistry()
                             .GetGauge("labmon_spill_column_ratio", "",
                                       {{"column", kColumns[i]}})
                             .value();
    ASSERT_GT(totals.column_encoded[i], 0u) << kColumns[i];
    EXPECT_DOUBLE_EQ(ratio, static_cast<double>(totals.column_raw[i]) /
                                static_cast<double>(totals.column_encoded[i]))
        << kColumns[i];
    if (ratio != static_cast<double>(last.column_raw[i]) /
                     static_cast<double>(last.column_encoded[i])) {
      ++differs_from_last;
    }
  }
  EXPECT_GT(differs_from_last, 0u);
}

}  // namespace
}  // namespace labmon::trace
