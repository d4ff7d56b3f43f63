// Streamed-engine determinism suite — PipelinedExperiment's contract:
// windowed lockstep collection through sealed blocks (in memory or
// spilled to disk), the staging-ring merge and the threaded analysis fold
// must reproduce the materialised engine bit-for-bit for any shard count,
// window length, block size and ring capacity (including the degenerate
// capacity-1 ring, which forces constant backpressure), clean or faulted;
// a campaign killed mid-run must resume from its per-lab checkpoints to
// the exact same result, under either spill codec, replaying the resumed
// labs in iteration order so the merge buffers about one block per lab;
// and a failing lab must abort the pipeline promptly instead of
// deadlocking a parked stage.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "labmon/analysis/stream_fold.hpp"
#include "labmon/core/experiment.hpp"
#include "labmon/core/streaming.hpp"
#include "labmon/trace/block.hpp"
#include "labmon/trace/segment.hpp"

namespace labmon {
namespace {

constexpr int kDays = 2;
/// Resume horizon of the merge-lag tests: a week in 16-iteration windows
/// spills about 42 blocks per lab.
constexpr int kWeekDays = 7;
constexpr std::uint64_t kSeed = 20050201;

core::ExperimentConfig GoldenConfig(int shards, int days = kDays) {
  core::ExperimentConfig config;
  config.campus.days = days;
  config.campus.seed = kSeed;
  config.shards = shards;
  return config;
}

const core::ExperimentResult& Materialised() {
  static const core::ExperimentResult result =
      core::Experiment::Run(GoldenConfig(1));
  return result;
}

std::uint64_t HashOf(const core::ExperimentResult& result) {
  trace::StoreReader reader(result.trace);
  return trace::HashSampleStream(reader);
}

std::uint64_t MaterialisedHash() { return HashOf(Materialised()); }

/// The fold over a materialised trace — pinned bit-identical to the
/// chunked AnalysisPipeline by test_stream_fold, so it serves as the
/// analysis reference here.
analysis::StreamingAnalysisResult FoldOf(const core::ExperimentResult& run) {
  analysis::StreamingAnalysisConfig config;
  config.machine_count = run.trace.machine_count();
  config.perf_index = run.perf_index;
  std::size_t first = 0;
  for (const auto& lab : run.labs) {
    config.labs.push_back(analysis::LabKey{lab.name, first, lab.machine_count});
    first += lab.machine_count;
  }
  config.experiment_days = run.days;
  analysis::StreamingAnalysis fold(std::move(config));
  trace::StoreReader reader(run.trace);
  while (const trace::TraceBlock* block = reader.Next()) {
    fold.Accept(*block);
  }
  trace::TraceStore summary(run.trace.machine_count());
  for (const auto& info : run.trace.iterations()) {
    summary.AppendIteration(info);
  }
  return fold.Finish(summary);
}

const analysis::StreamingAnalysisResult& MaterialisedAnalysis() {
  static const analysis::StreamingAnalysisResult result =
      FoldOf(Materialised());
  return result;
}

const core::ExperimentResult& MaterialisedWeek() {
  static const core::ExperimentResult result =
      core::Experiment::Run(GoldenConfig(1, kWeekDays));
  return result;
}

/// Simulates a crash mid-campaign in `dir`: lab 0 died mid-write
/// (truncated segment, sidecar never committed) and lab 1's checkpoint
/// was lost.
void CrashFirstTwoLabs(const std::string& dir) {
  const std::string seg0 = dir + "/lab0000.lmsg";
  const std::uintmax_t size = std::filesystem::file_size(seg0);
  std::filesystem::resize_file(seg0, size / 2);
  std::filesystem::remove(dir + "/lab0000.ck");
  std::filesystem::remove(dir + "/lab0001.ck");
}

void ExpectAnalysisIdentical(const analysis::StreamingAnalysisResult& a,
                             const analysis::StreamingAnalysisResult& b) {
  // Bit-identical, not approximately equal: every comparison is EXPECT_EQ
  // on the raw doubles.
  const auto expect_column = [](const analysis::Table2Column& x,
                                const analysis::Table2Column& y) {
    EXPECT_EQ(x.samples, y.samples);
    EXPECT_EQ(x.uptime_pct, y.uptime_pct);
    EXPECT_EQ(x.cpu_idle_pct, y.cpu_idle_pct);
    EXPECT_EQ(x.ram_load_pct, y.ram_load_pct);
    EXPECT_EQ(x.swap_load_pct, y.swap_load_pct);
    EXPECT_EQ(x.disk_used_gb, y.disk_used_gb);
    EXPECT_EQ(x.sent_bps, y.sent_bps);
    EXPECT_EQ(x.recv_bps, y.recv_bps);
  };
  expect_column(a.table2.no_login, b.table2.no_login);
  expect_column(a.table2.with_login, b.table2.with_login);
  expect_column(a.table2.both, b.table2.both);
  EXPECT_EQ(a.table2.raw_login_samples, b.table2.raw_login_samples);
  EXPECT_EQ(a.table2.reclassified_samples, b.table2.reclassified_samples);
  EXPECT_EQ(a.availability.series.mean_powered_on,
            b.availability.series.mean_powered_on);
  EXPECT_EQ(a.availability.series.mean_user_free,
            b.availability.series.mean_user_free);
  ASSERT_EQ(a.availability.ranking.entries.size(),
            b.availability.ranking.entries.size());
  for (std::size_t i = 0; i < a.availability.ranking.entries.size(); ++i) {
    EXPECT_EQ(a.availability.ranking.entries[i].machine,
              b.availability.ranking.entries[i].machine);
    EXPECT_EQ(a.availability.ranking.entries[i].uptime_ratio,
              b.availability.ranking.entries[i].uptime_ratio);
  }
  ASSERT_EQ(a.session_hours.bins.size(), b.session_hours.bins.size());
  for (std::size_t i = 0; i < a.session_hours.bins.size(); ++i) {
    EXPECT_EQ(a.session_hours.bins[i].samples,
              b.session_hours.bins[i].samples);
    EXPECT_EQ(a.session_hours.bins[i].mean_cpu_idle_pct,
              b.session_hours.bins[i].mean_cpu_idle_pct);
  }
  ASSERT_EQ(a.weekly.cpu_idle_pct.bin_count(),
            b.weekly.cpu_idle_pct.bin_count());
  for (std::size_t i = 0; i < a.weekly.cpu_idle_pct.bin_count(); ++i) {
    EXPECT_EQ(a.weekly.cpu_idle_pct.Mean(i), b.weekly.cpu_idle_pct.Mean(i));
    EXPECT_EQ(a.weekly.ram_load_pct.Mean(i), b.weekly.ram_load_pct.Mean(i));
  }
  EXPECT_EQ(a.equivalence.mean_occupied, b.equivalence.mean_occupied);
  EXPECT_EQ(a.equivalence.mean_free, b.equivalence.mean_free);
  EXPECT_EQ(a.equivalence.mean_total, b.equivalence.mean_total);
  EXPECT_EQ(a.stability.sessions.session_count,
            b.stability.sessions.session_count);
  EXPECT_EQ(a.stability.sessions.mean_hours, b.stability.sessions.mean_hours);
  EXPECT_EQ(a.stability.smart.experiment_cycles,
            b.stability.smart.experiment_cycles);
  EXPECT_EQ(a.stability.smart.cycles_per_machine_mean,
            b.stability.smart.cycles_per_machine_mean);
  ASSERT_EQ(a.per_lab.usage.size(), b.per_lab.usage.size());
  for (std::size_t i = 0; i < a.per_lab.usage.size(); ++i) {
    EXPECT_EQ(a.per_lab.usage[i].occupied_pct,
              b.per_lab.usage[i].occupied_pct);
    EXPECT_EQ(a.per_lab.usage[i].cpu_idle_pct,
              b.per_lab.usage[i].cpu_idle_pct);
    EXPECT_EQ(a.per_lab.usage[i].uptime_pct, b.per_lab.usage[i].uptime_pct);
  }
  EXPECT_EQ(a.capacity.mean_ram_gb, b.capacity.mean_ram_gb);
  EXPECT_EQ(a.capacity.p10_ram_gb, b.capacity.p10_ram_gb);
  EXPECT_EQ(a.capacity.mean_disk_tb, b.capacity.mean_disk_tb);
  EXPECT_EQ(a.capacity.p10_disk_tb, b.capacity.p10_disk_tb);
  ASSERT_EQ(a.capacity.ram_gb.size(), b.capacity.ram_gb.size());
  for (std::size_t i = 0; i < a.capacity.ram_gb.size(); ++i) {
    EXPECT_EQ(a.capacity.ram_gb[i].value, b.capacity.ram_gb[i].value);
  }
}

void ExpectRunIdentical(const core::StreamingExperimentResult& piped,
                        const core::ExperimentResult& golden,
                        const analysis::StreamingAnalysisResult& analysis) {
  ASSERT_TRUE(piped.errors.empty())
      << "first error: " << piped.errors.front();
  EXPECT_EQ(piped.stream_hash, HashOf(golden));
  EXPECT_EQ(piped.samples, golden.trace.size());
  EXPECT_EQ(piped.run_stats.iterations, golden.run_stats.iterations);
  EXPECT_EQ(piped.run_stats.attempts, golden.run_stats.attempts);
  EXPECT_EQ(piped.run_stats.successes, golden.run_stats.successes);
  EXPECT_EQ(piped.run_stats.timeouts, golden.run_stats.timeouts);
  EXPECT_EQ(piped.run_stats.missing, golden.run_stats.missing);
  EXPECT_EQ(piped.run_stats.corrupt, golden.run_stats.corrupt);
  EXPECT_EQ(piped.run_stats.mean_iteration_s,
            golden.run_stats.mean_iteration_s);
  EXPECT_EQ(piped.ground_truth.boots, golden.ground_truth.boots);
  EXPECT_EQ(piped.ground_truth.TotalLogins(),
            golden.ground_truth.TotalLogins());
  EXPECT_EQ(piped.parse_failures, golden.parse_failures);
  EXPECT_EQ(piped.crosscheck_mismatches, golden.crosscheck_mismatches);
  EXPECT_EQ(piped.summary.iterations().size(),
            golden.trace.iterations().size());
  EXPECT_EQ(piped.perf_index, golden.perf_index);
  ExpectAnalysisIdentical(piped.analysis, analysis);
}

void ExpectRunIdentical(const core::StreamingExperimentResult& piped) {
  ExpectRunIdentical(piped, Materialised(), MaterialisedAnalysis());
}

TEST(PipelinedDeterminismTest, DefaultsMatchMaterialisedEngine) {
  core::StreamingOptions options;
  const auto piped = core::PipelinedExperiment::Run(GoldenConfig(1), options);
  ExpectRunIdentical(piped);
  EXPECT_GT(piped.pipeline.staged_blocks, 0u);
  EXPECT_EQ(piped.pipeline.ring_capacity, options.ring_capacity);
  EXPECT_EQ(piped.pipeline.merge_fallback_sorts, 0u);
  // The fold ring holds at most two merged blocks at any ring capacity.
  EXPECT_LE(piped.pipeline.fold_ring_peak_occupancy, 2u);
}

TEST(PipelinedDeterminismTest, FoldRingPeakOccupancyIsWithinCapacity) {
  core::StreamingOptions options;
  options.block_samples = 97;  // many merged blocks per iteration front
  options.ring_capacity = 4;
  const auto piped = core::PipelinedExperiment::Run(GoldenConfig(2), options);
  ASSERT_TRUE(piped.errors.empty()) << piped.errors.front();
  EXPECT_GE(piped.pipeline.fold_ring_peak_occupancy, 1u);
  EXPECT_LE(piped.pipeline.fold_ring_peak_occupancy, options.ring_capacity);
}

TEST(PipelinedDeterminismTest, ShardWindowBlockAndRingAreInvisible) {
  struct Case {
    int shards;
    std::size_t block_samples;
    std::size_t ring_capacity;
    std::size_t window_iterations;
  };
  // Representative corners of the {shards} x {block} x {ring} x {window}
  // matrix, including tiny blocks (merged block per sample) and the
  // capacity-1 ring under many shards (constant backpressure, labs
  // completing out of order).
  const Case cases[] = {
      {2, 97, 4, 3},
      {8, 1, 1, 5},
      {4, 65536, 64, 16},
      {8, 4096, 1, 1},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE("shards=" + std::to_string(c.shards) +
                 " block=" + std::to_string(c.block_samples) +
                 " ring=" + std::to_string(c.ring_capacity) +
                 " window=" + std::to_string(c.window_iterations));
    core::StreamingOptions options;
    options.block_samples = c.block_samples;
    options.ring_capacity = c.ring_capacity;
    options.window_iterations = c.window_iterations;
    const auto piped =
        core::PipelinedExperiment::Run(GoldenConfig(c.shards), options);
    ExpectRunIdentical(piped);
  }
}

TEST(PipelinedDeterminismTest, SpilledRunMatchesAndCheckpoints) {
  const std::string dir = ::testing::TempDir() + "/labmon_pipe_spill";
  std::filesystem::remove_all(dir);
  core::StreamingOptions options;
  options.spill_dir = dir;
  options.block_samples = 4096;
  options.ring_capacity = 4;
  const auto piped = core::PipelinedExperiment::Run(GoldenConfig(2), options);
  ExpectRunIdentical(piped);
  EXPECT_GT(piped.merged_blocks, 1u);
  std::size_t segments = 0;
  std::size_t sidecars = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string path = entry.path().string();
    if (path.ends_with(".lmsg")) ++segments;
    if (path.ends_with(".ck")) ++sidecars;
  }
  EXPECT_EQ(segments, piped.labs.size());
  EXPECT_EQ(sidecars, piped.labs.size());
}

/// FNV-1a of a whole file's bytes.
std::uint64_t FileFnv(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(PipelinedDeterminismTest, SpilledBytesArePinned) {
  // Every segment and sidecar byte of the 2-day spill, under both codecs,
  // at 1, 2 and 4 shards and ring capacity 1 and 64. The files depend on
  // neither: each lab's blocks keep their order through the collect ring,
  // and the sidecar fingerprint omits the shard count.
  struct PinnedFile {
    const char* name;
    std::uint64_t lmsg2;
    std::uint64_t lmsg1;
  };
  const PinnedFile pinned[] = {
      {"lab0000.ck", 0x7cf733b4e87c942aull, 0xf1277f6a7cc96c39ull},
      {"lab0000.lmsg", 0x8c3583a69a074ca8ull, 0xf973ca6aea35649full},
      {"lab0001.ck", 0x6f55e42cdae6a6c6ull, 0x6305bcb3de7f437bull},
      {"lab0001.lmsg", 0x04e5440b8288962aull, 0x08d78b2dc59fff7bull},
      {"lab0002.ck", 0x272af55e1c052d6aull, 0x8120b83b34e84443ull},
      {"lab0002.lmsg", 0xb0586f6ef8a0094bull, 0x9d02753466cb2e2bull},
      {"lab0003.ck", 0xc6481f30fab066c8ull, 0x523e6e67cd27855dull},
      {"lab0003.lmsg", 0x847ba1d0be4e01bcull, 0xc46b08f458ed15f5ull},
      {"lab0004.ck", 0x9644f17c5733bf4aull, 0x70d30ff71ca7377full},
      {"lab0004.lmsg", 0x134758bc4bcda06cull, 0x170b693ef74a83c7ull},
      {"lab0005.ck", 0x744bba9e9f00512bull, 0x959742ae3c0fafa0ull},
      {"lab0005.lmsg", 0x6eefdb62a51d6f2bull, 0x14078aaadc6d06f5ull},
      {"lab0006.ck", 0xe2c29b8da6995183ull, 0x4a899d4a1bf141faull},
      {"lab0006.lmsg", 0x282d4e0ea38af4fcull, 0xd3f6b6fa2279767cull},
      {"lab0007.ck", 0xe268b35e7a95e8aaull, 0x815aae392c22330bull},
      {"lab0007.lmsg", 0x3385ca3ae6994516ull, 0xa8fec99fd22e8b09ull},
      {"lab0008.ck", 0xa99d412b97e812e4ull, 0x83219b2950534145ull},
      {"lab0008.lmsg", 0xe5a340191fdc598dull, 0xa208b03897e69d1cull},
      {"lab0009.ck", 0x76dce06efc927c95ull, 0xba977d694dd51b1eull},
      {"lab0009.lmsg", 0x1f112cdbc1106b83ull, 0x4336d99a67cf0b2eull},
      {"lab0010.ck", 0xc3610acf2f3b5b40ull, 0xf20e5a423018c779ull},
      {"lab0010.lmsg", 0x2a985c1abfc28d07ull, 0x7923414e16bf6023ull},
  };
  const trace::SpillCodecId codecs[] = {trace::SpillCodecId::kLmsg2,
                                        trace::SpillCodecId::kLmsg1};
  for (const trace::SpillCodecId codec : codecs) {
    for (const int shards : {1, 2, 4}) {
      for (const std::size_t ring : {std::size_t{1}, std::size_t{64}}) {
        SCOPED_TRACE(std::string(trace::SpillCodecName(codec)) +
                     " shards=" + std::to_string(shards) +
                     " ring=" + std::to_string(ring));
        const std::string dir = ::testing::TempDir() + "/labmon_pipe_pin";
        std::filesystem::remove_all(dir);
        core::StreamingOptions options;
        options.spill_dir = dir;
        options.spill_codec = codec;
        options.ring_capacity = ring;
        const auto piped =
            core::PipelinedExperiment::Run(GoldenConfig(shards), options);
        ASSERT_TRUE(piped.errors.empty()) << piped.errors.front();
        std::vector<std::string> names;
        for (const auto& entry : std::filesystem::directory_iterator(dir)) {
          names.push_back(entry.path().filename().string());
        }
        std::sort(names.begin(), names.end());
        ASSERT_EQ(names.size(), std::size(pinned));
        for (std::size_t i = 0; i < names.size(); ++i) {
          SCOPED_TRACE(names[i]);
          EXPECT_EQ(names[i], pinned[i].name);
          const std::uint64_t want = codec == trace::SpillCodecId::kLmsg2
                                         ? pinned[i].lmsg2
                                         : pinned[i].lmsg1;
          const std::uint64_t got = FileFnv(dir + "/" + names[i]);
          EXPECT_EQ(got, want) << std::hex << "0x" << got;
        }
      }
    }
  }
}

TEST(PipelinedDeterminismTest, ResumeAfterSimulatedCrashReproduces) {
  // A resumed run replays the surviving labs' segments through the ring
  // concurrently with live simulation of the crashed ones.
  const std::string dir = ::testing::TempDir() + "/labmon_pipe_resume";
  std::filesystem::remove_all(dir);
  core::StreamingOptions options;
  options.spill_dir = dir;
  options.block_samples = 4096;
  const auto first = core::PipelinedExperiment::Run(GoldenConfig(2), options);
  ASSERT_TRUE(first.errors.empty());
  const std::size_t lab_count = first.labs.size();
  ASSERT_GE(lab_count, 2u);

  CrashFirstTwoLabs(dir);
  core::StreamingOptions resume_options = options;
  resume_options.resume = true;
  resume_options.ring_capacity = 2;
  const auto resumed =
      core::PipelinedExperiment::Run(GoldenConfig(2), resume_options);
  EXPECT_EQ(resumed.labs_resumed, lab_count - 2);
  ExpectRunIdentical(resumed);
  EXPECT_EQ(resumed.stream_hash, first.stream_hash);

  // The resumed run's own checkpoints are as good as a fresh run's: lose
  // one of the labs it re-simulated and resume once more.
  std::filesystem::remove(dir + "/lab0001.ck");
  const auto again =
      core::PipelinedExperiment::Run(GoldenConfig(2), resume_options);
  EXPECT_EQ(again.labs_resumed, lab_count - 1);
  ExpectRunIdentical(again);
  EXPECT_EQ(again.stream_hash, first.stream_hash);
}

TEST(PipelinedDeterminismTest, CrossCodecResumeIsBitIdenticalBothWays) {
  // A pipelined campaign written under one spill codec resumes under the
  // other: re-simulated labs spill in the new format, survivors replay
  // from the old one, and the merged stream is bit-identical either way.
  const std::string dir = ::testing::TempDir() + "/labmon_pipe_codec";
  std::filesystem::remove_all(dir);
  core::StreamingOptions options;
  options.spill_dir = dir;
  options.block_samples = 4096;
  options.spill_codec = trace::SpillCodecId::kLmsg1;
  const auto first = core::PipelinedExperiment::Run(GoldenConfig(2), options);
  ASSERT_TRUE(first.errors.empty());
  const std::size_t lab_count = first.labs.size();
  ASSERT_GE(lab_count, 2u);
  EXPECT_EQ(first.spill.codec, "lmsg1");
  EXPECT_EQ(first.spill.samples_encoded, first.samples);

  std::filesystem::remove(dir + "/lab0000.ck");
  std::filesystem::remove(dir + "/lab0001.ck");
  core::StreamingOptions resume_options = options;
  resume_options.resume = true;
  resume_options.spill_codec = trace::SpillCodecId::kLmsg2;
  const auto second =
      core::PipelinedExperiment::Run(GoldenConfig(2), resume_options);
  EXPECT_EQ(second.labs_resumed, lab_count - 2);
  ExpectRunIdentical(second);
  EXPECT_EQ(second.stream_hash, first.stream_hash);
  EXPECT_EQ(second.spill.codec, "lmsg2");

  // Reverse direction over the now-mixed directory: lose an LMSG2 lab's
  // checkpoint and resume requesting LMSG1 again.
  std::filesystem::remove(dir + "/lab0000.ck");
  resume_options.spill_codec = trace::SpillCodecId::kLmsg1;
  const auto third =
      core::PipelinedExperiment::Run(GoldenConfig(2), resume_options);
  EXPECT_EQ(third.labs_resumed, lab_count - 1);
  ExpectRunIdentical(third);
  EXPECT_EQ(third.stream_hash, first.stream_hash);
  EXPECT_EQ(third.spill.codec, "lmsg1");
}

TEST(PipelinedDeterminismTest, SpillStatsAccountForEveryBlockAndCompress) {
  const std::string dir = ::testing::TempDir() + "/labmon_pipe_spill_stats";
  std::filesystem::remove_all(dir);
  core::StreamingOptions options;
  options.spill_dir = dir;
  options.block_samples = 4096;
  const auto fresh = core::PipelinedExperiment::Run(GoldenConfig(2), options);
  ASSERT_TRUE(fresh.errors.empty());
  const core::SpillCompressionStats& spill = fresh.spill;
  EXPECT_EQ(spill.codec, trace::SpillCodecName(trace::kDefaultSpillCodec));
  EXPECT_EQ(spill.segments, fresh.labs.size());
  // Every sample is encoded exactly once by collection; a fresh run
  // merges from memory and decodes nothing.
  EXPECT_EQ(spill.samples_encoded, fresh.samples);
  EXPECT_EQ(spill.samples_decoded, 0u);
  EXPECT_EQ(spill.blocks_decoded, 0u);
  EXPECT_GT(spill.payload_bytes_encoded, 0u);
  EXPECT_GE(spill.segment_bytes, spill.payload_bytes_encoded);
  // Fleet-like streams compress ≥3× under LMSG2.
  EXPECT_GT(spill.CompressionRatio(), 3.0);

  // What the surviving labs' segments hold, read independently.
  CrashFirstTwoLabs(dir);
  std::uint64_t survivor_samples = 0;
  std::uint64_t survivor_blocks = 0;
  for (std::size_t lab = 2; lab < fresh.labs.size(); ++lab) {
    char name[32];
    std::snprintf(name, sizeof(name), "/lab%04zu.lmsg", lab);
    auto opened = trace::SegmentReader::Open(dir + name);
    ASSERT_TRUE(opened.ok()) << opened.error();
    trace::SegmentReader reader = std::move(opened).value();
    while (const trace::TraceBlock* block = reader.Next()) {
      survivor_samples += block->size();
      ++survivor_blocks;
    }
    ASSERT_FALSE(reader.failed()) << reader.error();
  }
  ASSERT_GT(survivor_blocks, 0u);

  // A resumed run decodes exactly the resumed labs' samples and blocks and
  // encodes exactly the re-simulated labs' share.
  core::StreamingOptions resume_options = options;
  resume_options.resume = true;
  const auto resumed =
      core::PipelinedExperiment::Run(GoldenConfig(2), resume_options);
  ASSERT_TRUE(resumed.errors.empty());
  EXPECT_EQ(resumed.labs_resumed, fresh.labs.size() - 2);
  EXPECT_EQ(resumed.spill.samples_decoded, survivor_samples);
  EXPECT_EQ(resumed.spill.blocks_decoded, survivor_blocks);
  EXPECT_EQ(resumed.spill.samples_encoded + survivor_samples, fresh.samples);
  EXPECT_EQ(resumed.spill.blocks_encoded + survivor_blocks,
            spill.blocks_encoded);
  EXPECT_EQ(resumed.spill.segments, 2u);
  EXPECT_GT(resumed.spill.CompressionRatio(), 3.0);
}

TEST(PipelinedDeterminismTest, AllLabsResumedSkipsSimulation) {
  const std::string dir = ::testing::TempDir() + "/labmon_pipe_all_resumed";
  std::filesystem::remove_all(dir);
  core::StreamingOptions options;
  options.spill_dir = dir;
  options.block_samples = 4096;
  const auto first = core::PipelinedExperiment::Run(GoldenConfig(2), options);
  ASSERT_TRUE(first.errors.empty());
  core::StreamingOptions resume_options = options;
  resume_options.resume = true;
  const auto second =
      core::PipelinedExperiment::Run(GoldenConfig(2), resume_options);
  EXPECT_EQ(second.labs_resumed, first.labs.size());
  ExpectRunIdentical(second);
}

TEST(PipelinedDeterminismTest, ResumeReplayKeepsMergeLagPerLab) {
  // Replaying resumed labs one after another would make the merge buffer
  // every lab but the last whole (about 10 x 42 blocks here), because a
  // front needs content from every lab. Iteration-ordered replay, gated
  // to the live window in a mixed resume, holds about one block per lab.
  const std::string dir = ::testing::TempDir() + "/labmon_pipe_resume_lag";
  std::filesystem::remove_all(dir);
  core::StreamingOptions options;
  options.spill_dir = dir;
  options.window_iterations = 16;
  const core::ExperimentConfig config = GoldenConfig(2, kWeekDays);
  const auto first = core::PipelinedExperiment::Run(config, options);
  ASSERT_TRUE(first.errors.empty());
  const std::size_t lab_count = first.labs.size();
  ASSERT_GE(lab_count, 3u);
  const analysis::StreamingAnalysisResult week_analysis =
      FoldOf(MaterialisedWeek());
  ExpectRunIdentical(first, MaterialisedWeek(), week_analysis);

  core::StreamingOptions resume_options = options;
  resume_options.resume = true;
  {
    SCOPED_TRACE("all labs resumed");
    const auto all = core::PipelinedExperiment::Run(config, resume_options);
    EXPECT_EQ(all.labs_resumed, lab_count);
    ExpectRunIdentical(all, MaterialisedWeek(), week_analysis);
    EXPECT_LE(all.pipeline.merge_lag_peak_blocks, 2 * lab_count);
  }
  {
    SCOPED_TRACE("two labs re-simulated");
    std::filesystem::remove(dir + "/lab0000.ck");
    std::filesystem::remove(dir + "/lab0001.ck");
    const auto mixed = core::PipelinedExperiment::Run(config, resume_options);
    EXPECT_EQ(mixed.labs_resumed, lab_count - 2);
    ExpectRunIdentical(mixed, MaterialisedWeek(), week_analysis);
    EXPECT_LE(mixed.pipeline.merge_lag_peak_blocks, 2 * lab_count);
  }
}

TEST(PipelinedDeterminismTest, FaultedRunMatchesMaterialisedEngine) {
  // Under an active fault scenario the output differs from the clean
  // golden, but the pipelined and materialised engines must still agree
  // bit-for-bit with each other.
  core::ExperimentConfig config = GoldenConfig(4);
  config.fault_plan.enabled = true;
  config.fault_plan.stochastic.transient_error_prob = 0.01;
  config.fault_plan.stochastic.wire_corruption_prob = 0.005;
  config.fault_plan.stochastic.straggler_prob = 0.01;

  core::StreamingOptions options;
  options.block_samples = 2048;
  options.ring_capacity = 4;
  options.window_iterations = 7;
  const core::ExperimentResult materialised = core::Experiment::Run(config);
  const auto piped = core::PipelinedExperiment::Run(config, options);
  ASSERT_TRUE(piped.errors.empty());
  EXPECT_GT(piped.run_stats.faults_injected, 0u);
  EXPECT_NE(piped.stream_hash, MaterialisedHash());
  EXPECT_EQ(piped.stream_hash, HashOf(materialised));
  EXPECT_EQ(piped.samples, materialised.trace.size());
  EXPECT_EQ(piped.run_stats.attempts, materialised.run_stats.attempts);
  EXPECT_EQ(piped.run_stats.faults_injected,
            materialised.run_stats.faults_injected);
  EXPECT_EQ(piped.run_stats.corrupt, materialised.run_stats.corrupt);
  EXPECT_EQ(piped.parse_failures, materialised.parse_failures);
  ExpectAnalysisIdentical(piped.analysis, FoldOf(materialised));
}

TEST(PipelinedDeterminismTest, AnomalyDetectorObservesWholeStream) {
  core::StreamingOptions options;
  options.anomaly_threshold = 4.0;
  const auto piped = core::PipelinedExperiment::Run(GoldenConfig(4), options);
  ASSERT_TRUE(piped.errors.empty());
  // Every merged sample is observed once, plus one observation per
  // derived interval (strictly fewer than samples).
  EXPECT_GE(piped.anomaly_observations, piped.samples);
  EXPECT_LT(piped.anomaly_observations, 2 * piped.samples);
  // Determinism must not depend on the detector being attached.
  EXPECT_EQ(piped.stream_hash, MaterialisedHash());
}

TEST(PipelinedDeterminismTest, FailingLabAbortsWithoutDeadlock) {
  // Sabotage one lab's segment path with a directory so SegmentWriter::Open
  // fails inside the first window. The run must drain the pipeline, cancel
  // the rings and return with errors — parked stages must not deadlock
  // (the test would time out if they did). A tiny ring maximises the
  // chance other producers are parked on it when the error fires.
  const std::string dir = ::testing::TempDir() + "/labmon_pipe_fail";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir + "/lab0000.lmsg");
  core::StreamingOptions options;
  options.spill_dir = dir;
  options.block_samples = 256;
  options.ring_capacity = 1;
  options.window_iterations = 2;
  const auto piped = core::PipelinedExperiment::Run(GoldenConfig(4), options);
  ASSERT_FALSE(piped.errors.empty());
  EXPECT_EQ(piped.samples, 0u);
}

TEST(PipelinedDeterminismTest, FailingSegmentWriteAbortsWithoutDeadlock) {
  // Lab 0's segment opens but every write to it fails (ENOSPC). The run
  // must return an error without deadlocking a parked stage, and lab 0
  // must not commit a checkpoint for a segment it could not write.
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "/dev/full is absent";
  }
  const std::string dir = ::testing::TempDir() + "/labmon_pipe_fail_write";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::filesystem::create_symlink("/dev/full", dir + "/lab0000.lmsg");
  core::StreamingOptions options;
  options.spill_dir = dir;
  options.block_samples = 256;
  options.ring_capacity = 1;
  options.window_iterations = 2;
  const auto piped = core::PipelinedExperiment::Run(GoldenConfig(4), options);
  ASSERT_FALSE(piped.errors.empty());
  EXPECT_EQ(piped.samples, 0u);
  EXPECT_FALSE(std::filesystem::exists(dir + "/lab0000.ck"));
}

TEST(PipelinedDeterminismTest, FailingLiveLabAbortsMixedResume) {
  // A mixed resume whose re-simulated lab cannot open its segment fails in
  // the first window, by which time the replay thread has usually pushed
  // that window and parked on the gate waiting for the next. Releasing the
  // gate on the error path must let every stage finish (the test would
  // time out if a stage stayed parked).
  const std::string dir = ::testing::TempDir() + "/labmon_pipe_fail_mixed";
  std::filesystem::remove_all(dir);
  core::StreamingOptions options;
  options.spill_dir = dir;
  options.block_samples = 256;
  options.window_iterations = 2;
  const auto first = core::PipelinedExperiment::Run(GoldenConfig(4), options);
  ASSERT_TRUE(first.errors.empty());

  std::filesystem::remove(dir + "/lab0000.ck");
  std::filesystem::remove(dir + "/lab0000.lmsg");
  std::filesystem::create_directories(dir + "/lab0000.lmsg");
  core::StreamingOptions resume_options = options;
  resume_options.resume = true;
  resume_options.ring_capacity = 1;
  const auto piped =
      core::PipelinedExperiment::Run(GoldenConfig(4), resume_options);
  EXPECT_EQ(piped.labs_resumed, first.labs.size() - 1);
  ASSERT_FALSE(piped.errors.empty());
  EXPECT_EQ(piped.samples, 0u);
}

}  // namespace
}  // namespace labmon
