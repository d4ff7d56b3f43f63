// Streaming fold parity: StreamingAnalysis fed block-by-block must be
// BIT-IDENTICAL (EXPECT_EQ on doubles, not near) to the materialised
// AnalysisPipeline over the same merged trace — the acceptance bar for
// the streaming pipeline. Blocks are cut at several sizes to prove block
// boundaries cannot shift any result. A second, multi-week horizon gives
// every per-machine weekly bin several observations, and a golden hash pins
// the weekly output of both engines there.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "labmon/analysis/passes.hpp"
#include "labmon/analysis/pipeline.hpp"
#include "labmon/analysis/stream_fold.hpp"
#include "labmon/core/experiment.hpp"
#include "labmon/trace/block.hpp"
#include "labmon/trace/derived_trace.hpp"
#include "labmon/util/staging_ring.hpp"

namespace labmon::analysis {
namespace {

/// Under a week: no machine visits a position-in-week twice.
constexpr int kShortDays = 3;
/// Over two weeks: every per-machine weekly bin is observed two or three
/// times, so the running-mean update with n > 1 is exercised.
constexpr int kMultiWeekDays = 15;

const core::ExperimentResult& GoldenResult(int days = kShortDays) {
  static std::map<int, core::ExperimentResult> runs;
  auto it = runs.find(days);
  if (it == runs.end()) {
    core::ExperimentConfig config;
    config.campus.days = days;
    config.campus.seed = 20050201;
    it = runs.emplace(days, core::Experiment::Run(config)).first;
  }
  return it->second;
}

std::vector<LabKey> GoldenLabs(int days = kShortDays) {
  std::vector<LabKey> keys;
  std::size_t first = 0;
  for (const auto& lab : GoldenResult(days).labs) {
    keys.push_back(LabKey{lab.name, first, lab.machine_count});
    first += lab.machine_count;
  }
  return keys;
}

/// The materialised pipeline with Report's wiring.
struct MaterialisedRun {
  MaterialisedRun(const trace::TraceStore& trace,
                  const std::vector<double>& perf_index,
                  const std::vector<LabKey>& labs, int days,
                  std::size_t machines_per_chunk)
      : derived(trace, trace::DerivedTraceOptions{}),
        pipeline(PipelineOptions{1, machines_per_chunk, nullptr}),
        table2(pipeline.Emplace<AggregatePass>()),
        availability(pipeline.Emplace<AvailabilityPass>()),
        session_hours(pipeline.Emplace<SessionHoursPass>()),
        weekly(pipeline.Emplace<WeeklyPass>()),
        equivalence(pipeline.Emplace<EquivalencePass>(
            perf_index, 15, trace::kNoForgottenThreshold)),
        stability(pipeline.Emplace<StabilityPass>(days)),
        per_lab(pipeline.Emplace<PerLabPass>(labs)),
        capacity(pipeline.Emplace<CapacityPass>()) {
    pipeline.Run(derived);
  }

  trace::DerivedTrace derived;
  AnalysisPipeline pipeline;
  AggregatePass& table2;
  AvailabilityPass& availability;
  SessionHoursPass& session_hours;
  WeeklyPass& weekly;
  EquivalencePass& equivalence;
  StabilityPass& stability;
  PerLabPass& per_lab;
  CapacityPass& capacity;
};

const MaterialisedRun& Materialised(int days = kShortDays,
                                    std::size_t machines_per_chunk = 8) {
  // Map nodes never move, so the passes' references stay valid.
  static std::map<std::pair<int, std::size_t>, MaterialisedRun> runs;
  const auto key = std::make_pair(days, machines_per_chunk);
  auto it = runs.find(key);
  if (it == runs.end()) {
    const auto& golden = GoldenResult(days);
    it = runs.try_emplace(key, golden.trace, golden.perf_index,
                          GoldenLabs(days), golden.days, machines_per_chunk)
             .first;
  }
  return it->second;
}

/// Folds `trace` cut into blocks of `block_samples` rows.
StreamingAnalysisResult StreamStore(const trace::TraceStore& trace,
                                    StreamingAnalysisConfig config,
                                    std::size_t block_samples) {
  StreamingAnalysis fold(std::move(config));
  trace::StoreReader reader(trace, block_samples);
  while (const trace::TraceBlock* block = reader.Next()) {
    fold.Accept(*block);
  }
  trace::TraceStore summary(trace.machine_count());
  for (const auto& info : trace.iterations()) summary.AppendIteration(info);
  return fold.Finish(summary);
}

StreamingAnalysisConfig GoldenConfig(int days, std::size_t machines_per_chunk) {
  const auto& golden = GoldenResult(days);
  StreamingAnalysisConfig config;
  config.machine_count = golden.trace.machine_count();
  config.machines_per_chunk = machines_per_chunk;
  config.perf_index = golden.perf_index;
  config.labs = GoldenLabs(days);
  config.experiment_days = golden.days;
  return config;
}

StreamingAnalysisResult RunStreamed(std::size_t block_samples,
                                    int days = kShortDays,
                                    std::size_t machines_per_chunk = 8) {
  return StreamStore(GoldenResult(days).trace,
                     GoldenConfig(days, machines_per_chunk), block_samples);
}

void ExpectSameWeekly(const stats::WeeklyProfile& a,
                      const stats::WeeklyProfile& b) {
  ASSERT_EQ(a.bin_count(), b.bin_count());
  for (std::size_t i = 0; i < a.bin_count(); ++i) {
    EXPECT_EQ(a.Bin(i).count(), b.Bin(i).count());
    EXPECT_EQ(a.Mean(i), b.Mean(i));  // bit-identical, not near
  }
}

void ExpectSameColumn(const Table2Column& a, const Table2Column& b) {
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.uptime_pct, b.uptime_pct);
  EXPECT_EQ(a.cpu_idle_pct, b.cpu_idle_pct);
  EXPECT_EQ(a.ram_load_pct, b.ram_load_pct);
  EXPECT_EQ(a.swap_load_pct, b.swap_load_pct);
  EXPECT_EQ(a.disk_used_gb, b.disk_used_gb);
  EXPECT_EQ(a.sent_bps, b.sent_bps);
  EXPECT_EQ(a.recv_bps, b.recv_bps);
}

void ExpectResultMatches(const StreamingAnalysisResult& streamed,
                         const MaterialisedRun& m) {

  const auto& table2 = m.table2.result();
  EXPECT_EQ(streamed.table2.total_attempts, table2.total_attempts);
  EXPECT_EQ(streamed.table2.iterations, table2.iterations);
  EXPECT_EQ(streamed.table2.raw_login_samples, table2.raw_login_samples);
  EXPECT_EQ(streamed.table2.reclassified_samples,
            table2.reclassified_samples);
  ExpectSameColumn(streamed.table2.no_login, table2.no_login);
  ExpectSameColumn(streamed.table2.with_login, table2.with_login);
  ExpectSameColumn(streamed.table2.both, table2.both);

  const auto& avail = m.availability.result();
  ASSERT_EQ(streamed.availability.series.powered_on.size(),
            avail.series.powered_on.size());
  for (std::size_t i = 0; i < avail.series.powered_on.size(); ++i) {
    EXPECT_EQ(streamed.availability.series.powered_on[i].t,
              avail.series.powered_on[i].t);
    EXPECT_EQ(streamed.availability.series.powered_on[i].value,
              avail.series.powered_on[i].value);
    EXPECT_EQ(streamed.availability.series.user_free[i].value,
              avail.series.user_free[i].value);
  }
  EXPECT_EQ(streamed.availability.series.mean_powered_on,
            avail.series.mean_powered_on);
  EXPECT_EQ(streamed.availability.series.mean_user_free,
            avail.series.mean_user_free);
  ASSERT_EQ(streamed.availability.ranking.entries.size(),
            avail.ranking.entries.size());
  for (std::size_t i = 0; i < avail.ranking.entries.size(); ++i) {
    EXPECT_EQ(streamed.availability.ranking.entries[i].machine,
              avail.ranking.entries[i].machine);
    EXPECT_EQ(streamed.availability.ranking.entries[i].uptime_ratio,
              avail.ranking.entries[i].uptime_ratio);
    EXPECT_EQ(streamed.availability.ranking.entries[i].nines,
              avail.ranking.entries[i].nines);
  }
  ASSERT_EQ(streamed.availability.session_lengths.histogram.bin_count(),
            avail.session_lengths.histogram.bin_count());
  for (std::size_t i = 0; i < avail.session_lengths.histogram.bin_count();
       ++i) {
    EXPECT_EQ(streamed.availability.session_lengths.histogram.count(i),
              avail.session_lengths.histogram.count(i));
  }
  EXPECT_EQ(streamed.availability.session_lengths.total_sessions,
            avail.session_lengths.total_sessions);
  EXPECT_EQ(streamed.availability.session_lengths.mean_hours,
            avail.session_lengths.mean_hours);
  EXPECT_EQ(streamed.availability.session_lengths.stddev_hours,
            avail.session_lengths.stddev_hours);

  const auto& hours = m.session_hours.result();
  ASSERT_EQ(streamed.session_hours.bins.size(), hours.bins.size());
  for (std::size_t i = 0; i < hours.bins.size(); ++i) {
    EXPECT_EQ(streamed.session_hours.bins[i].samples, hours.bins[i].samples);
    EXPECT_EQ(streamed.session_hours.bins[i].mean_cpu_idle_pct,
              hours.bins[i].mean_cpu_idle_pct);
  }
  EXPECT_EQ(streamed.session_hours.first_bin_above_99,
            hours.first_bin_above_99);

  const auto& weekly = m.weekly.result();
  ExpectSameWeekly(streamed.weekly.cpu_idle_pct, weekly.cpu_idle_pct);
  ExpectSameWeekly(streamed.weekly.ram_load_pct, weekly.ram_load_pct);
  ExpectSameWeekly(streamed.weekly.swap_load_pct, weekly.swap_load_pct);
  ExpectSameWeekly(streamed.weekly.sent_bps, weekly.sent_bps);
  ExpectSameWeekly(streamed.weekly.recv_bps, weekly.recv_bps);
  EXPECT_EQ(streamed.weekly.min_cpu_idle_pct, weekly.min_cpu_idle_pct);
  EXPECT_EQ(streamed.weekly.min_cpu_idle_when, weekly.min_cpu_idle_when);
  EXPECT_EQ(streamed.weekly.closed_hours_cpu_idle,
            weekly.closed_hours_cpu_idle);

  const auto& eq = m.equivalence.result();
  ExpectSameWeekly(streamed.equivalence.weekly_occupied, eq.weekly_occupied);
  ExpectSameWeekly(streamed.equivalence.weekly_free, eq.weekly_free);
  ExpectSameWeekly(streamed.equivalence.weekly_total, eq.weekly_total);
  EXPECT_EQ(streamed.equivalence.mean_occupied, eq.mean_occupied);
  EXPECT_EQ(streamed.equivalence.mean_free, eq.mean_free);
  EXPECT_EQ(streamed.equivalence.mean_total, eq.mean_total);

  const auto& stab = m.stability.result();
  EXPECT_EQ(streamed.stability.sessions.session_count,
            stab.sessions.session_count);
  EXPECT_EQ(streamed.stability.sessions.mean_hours, stab.sessions.mean_hours);
  EXPECT_EQ(streamed.stability.sessions.stddev_hours,
            stab.sessions.stddev_hours);
  EXPECT_EQ(streamed.stability.smart.experiment_cycles,
            stab.smart.experiment_cycles);
  EXPECT_EQ(streamed.stability.smart.cycles_per_machine_mean,
            stab.smart.cycles_per_machine_mean);
  EXPECT_EQ(streamed.stability.smart.experiment_hours_per_cycle_mean,
            stab.smart.experiment_hours_per_cycle_mean);
  EXPECT_EQ(streamed.stability.smart.life_hours_per_cycle_mean,
            stab.smart.life_hours_per_cycle_mean);

  const auto& per_lab = m.per_lab.result();
  ASSERT_EQ(streamed.per_lab.usage.size(), per_lab.usage.size());
  for (std::size_t i = 0; i < per_lab.usage.size(); ++i) {
    EXPECT_EQ(streamed.per_lab.usage[i].name, per_lab.usage[i].name);
    EXPECT_EQ(streamed.per_lab.usage[i].samples, per_lab.usage[i].samples);
    EXPECT_EQ(streamed.per_lab.usage[i].uptime_pct,
              per_lab.usage[i].uptime_pct);
    EXPECT_EQ(streamed.per_lab.usage[i].occupied_pct,
              per_lab.usage[i].occupied_pct);
    EXPECT_EQ(streamed.per_lab.usage[i].cpu_idle_pct,
              per_lab.usage[i].cpu_idle_pct);
    EXPECT_EQ(streamed.per_lab.usage[i].ram_load_pct,
              per_lab.usage[i].ram_load_pct);
    EXPECT_EQ(streamed.per_lab.usage[i].free_disk_gb,
              per_lab.usage[i].free_disk_gb);
  }
  EXPECT_EQ(streamed.per_lab.headroom.cpu_idle_pct,
            per_lab.headroom.cpu_idle_pct);
  EXPECT_EQ(streamed.per_lab.headroom.unused_ram_gb_fleet,
            per_lab.headroom.unused_ram_gb_fleet);
  ASSERT_EQ(streamed.per_lab.headroom.by_ram_class.size(),
            per_lab.headroom.by_ram_class.size());
  for (std::size_t i = 0; i < per_lab.headroom.by_ram_class.size(); ++i) {
    EXPECT_EQ(streamed.per_lab.headroom.by_ram_class[i].ram_mb,
              per_lab.headroom.by_ram_class[i].ram_mb);
    EXPECT_EQ(streamed.per_lab.headroom.by_ram_class[i].samples,
              per_lab.headroom.by_ram_class[i].samples);
    EXPECT_EQ(streamed.per_lab.headroom.by_ram_class[i].unused_pct,
              per_lab.headroom.by_ram_class[i].unused_pct);
    EXPECT_EQ(streamed.per_lab.headroom.by_ram_class[i].free_mb,
              per_lab.headroom.by_ram_class[i].free_mb);
  }

  const auto& cap = m.capacity.result();
  ASSERT_EQ(streamed.capacity.ram_gb.size(), cap.ram_gb.size());
  for (std::size_t i = 0; i < cap.ram_gb.size(); ++i) {
    EXPECT_EQ(streamed.capacity.ram_gb[i].value, cap.ram_gb[i].value);
    EXPECT_EQ(streamed.capacity.disk_tb[i].value, cap.disk_tb[i].value);
  }
  EXPECT_EQ(streamed.capacity.mean_ram_gb, cap.mean_ram_gb);
  EXPECT_EQ(streamed.capacity.p10_ram_gb, cap.p10_ram_gb);
  EXPECT_EQ(streamed.capacity.mean_disk_tb, cap.mean_disk_tb);
  EXPECT_EQ(streamed.capacity.p10_disk_tb, cap.p10_disk_tb);
}

void ExpectResultMatchesMaterialised(const StreamingAnalysisResult& streamed,
                                     int days = kShortDays,
                                     std::size_t machines_per_chunk = 8) {
  ExpectResultMatches(streamed, Materialised(days, machines_per_chunk));
}

TEST(StreamFoldTest, BitIdenticalToMaterialisedPipeline) {
  ExpectResultMatchesMaterialised(RunStreamed(65536));
}

TEST(StreamFoldTest, BlockBoundariesDoNotChangeResults) {
  // Tiny blocks force machine histories and iterations to straddle many
  // block boundaries.
  ExpectResultMatchesMaterialised(RunStreamed(97));
  ExpectResultMatchesMaterialised(RunStreamed(1));
}

TEST(StreamFoldTest, MultiWeekBitIdenticalToMaterialisedPipeline) {
  ExpectResultMatchesMaterialised(RunStreamed(65536, kMultiWeekDays),
                                  kMultiWeekDays);
}

TEST(StreamFoldTest, ChunkGridsInsideLabsStayBitIdentical) {
  // Chunk edges at 1, 3 and 13 machines fall inside labs; 8 is Report's
  // default. The streamed per-iteration sums must follow each grid.
  for (const std::size_t per_chunk : {1u, 3u, 8u, 13u}) {
    SCOPED_TRACE(per_chunk);
    ExpectResultMatchesMaterialised(RunStreamed(4096, kShortDays, per_chunk),
                                    kShortDays, per_chunk);
  }
}

/// `trace` with the rows of each iteration shuffled. A collected machine
/// answers at most once per iteration, so every machine's samples keep
/// their time order; only the interleaving of machines changes.
trace::TraceStore PermutedWithinIterations(const trace::TraceStore& trace,
                                           std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto& iteration = trace.columns().iteration;
  std::vector<std::size_t> rows(trace.size());
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  for (std::size_t begin = 0; begin < rows.size();) {
    std::size_t end = begin + 1;
    while (end < rows.size() && iteration[end] == iteration[begin]) ++end;
    std::shuffle(rows.begin() + static_cast<std::ptrdiff_t>(begin),
                 rows.begin() + static_cast<std::ptrdiff_t>(end), rng);
    begin = end;
  }
  trace::TraceStore permuted(trace.machine_count());
  for (const std::size_t row : rows) permuted.Append(trace.Sample(row));
  for (const auto& info : trace.iterations()) permuted.AppendIteration(info);
  return permuted;
}

TEST(StreamFoldTest, RowOrderWithinAnIterationDoesNotChangeResults) {
  const auto& trace = GoldenResult().trace;
  const auto& iteration = trace.columns().iteration;
  ASSERT_TRUE(std::is_sorted(iteration.begin(), iteration.end()));
  const trace::TraceStore permuted = PermutedWithinIterations(trace, 20050201);
  ASSERT_EQ(permuted.size(), trace.size());
  ASSERT_NE(permuted.columns().machine, trace.columns().machine);
  // The in-order stream equals the materialised pipeline (tests above), so
  // equality here is bit-identity with the in-order stream.
  for (const std::size_t per_chunk : {3u, 8u, 13u}) {
    SCOPED_TRACE(per_chunk);
    ExpectResultMatchesMaterialised(
        StreamStore(permuted, GoldenConfig(kShortDays, per_chunk), 97),
        kShortDays, per_chunk);
  }
}

/// A crafted trace of 40 machines in which some machines answer more than
/// once within an iteration (machine 7 three times in iteration 5). The
/// collector never does that, but decoded bytes can. Values come from an
/// RNG, so the per-iteration sums depend on the order their terms are
/// added in. Machine 7's regular answers report 1e10 GB of free disk and
/// its extra ones 900 bytes, under half an ulp of the former: adding them
/// in time order gives different bits from adding them in any other.
struct CraftedTrace {
  trace::TraceStore store;
  std::vector<double> perf_index;
  std::vector<LabKey> labs;
};

CraftedTrace RepeatedMachineTrace() {
  constexpr std::uint32_t kMachines = 40;
  constexpr std::uint32_t kIterations = 8;
  CraftedTrace out{trace::TraceStore(kMachines),
                   {},
                   {{"A", 0, 20}, {"B", 20, 20}}};
  std::mt19937_64 rng(20050201);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<int> pct(5, 95);
  for (std::uint32_t m = 0; m < kMachines; ++m) {
    out.perf_index.push_back(0.5 + unit(rng));
  }
  constexpr std::int64_t kBoot = -3600;
  std::vector<double> idle(kMachines, 0.0);
  std::vector<std::uint64_t> sent(kMachines, 0);
  std::vector<std::int64_t> prev_t(kMachines, kBoot);
  constexpr std::uint32_t kWideMachine = 7;
  const auto sample = [&](std::uint32_t m, std::uint32_t it, std::int64_t t,
                          bool extra) {
    trace::SampleRecord r;
    r.machine = m;
    r.iteration = it;
    r.t = t;
    r.boot_time = kBoot;
    r.uptime_s = t - kBoot;
    idle[m] += unit(rng) * static_cast<double>(t - prev_t[m]);
    sent[m] += static_cast<std::uint64_t>(unit(rng) * 1e6);
    prev_t[m] = t;
    r.cpu_idle_s = idle[m];
    r.ram_mb = static_cast<std::uint16_t>(256 << (m % 3));
    r.mem_load_pct = static_cast<std::uint8_t>(pct(rng));
    r.swap_load_pct = static_cast<std::uint8_t>(pct(rng));
    r.disk_total_b = 80'000'000'000ULL;
    r.disk_free_b =
        10'000'000'000ULL + static_cast<std::uint64_t>(unit(rng) * 5e10);
    if (m == kWideMachine) {
      r.disk_total_b = 12'000'000'000'000'000'000ULL;
      r.disk_free_b = extra ? 900 : 10'000'000'000'000'000'000ULL;
    }
    r.smart_power_on_hours = 1000 + static_cast<std::uint64_t>(t / 3600);
    r.smart_power_cycles = 200;
    r.net_sent_b = sent[m];
    r.net_recv_b = 2 * sent[m];
    if (m % 4 == 0) {
      r.has_session = true;
      r.user = "u" + std::to_string(m);
      r.session_logon = kBoot;
    }
    out.store.Append(r);
  };
  // Extra answers: {iteration, machine, offset into the iteration}.
  constexpr std::array<std::array<std::uint32_t, 3>, 4> kRepeats = {
      {{3, 7, 450}, {3, 21, 700}, {5, 7, 300}, {5, 7, 600}}};
  for (std::uint32_t it = 0; it < kIterations; ++it) {
    const std::int64_t start = static_cast<std::int64_t>(it) * 900;
    std::uint32_t successes = kMachines;
    for (std::uint32_t m = 0; m < kMachines; ++m) {
      sample(m, it, start + m, false);
    }
    for (const auto& [repeat_it, m, offset] : kRepeats) {
      if (repeat_it != it) continue;
      sample(m, it, start + offset, true);
      ++successes;
    }
    out.store.AppendIteration({it, start, start + 800, kMachines, successes});
  }
  return out;
}

TEST(StreamFoldTest, RepeatedMachineWithinAnIterationMatchesMaterialised) {
  const CraftedTrace crafted = RepeatedMachineTrace();
  for (const std::size_t per_chunk : {1u, 3u, 8u, 13u}) {
    SCOPED_TRACE(per_chunk);
    const MaterialisedRun materialised(crafted.store, crafted.perf_index,
                                       crafted.labs, 1, per_chunk);
    StreamingAnalysisConfig config;
    config.machine_count = crafted.store.machine_count();
    config.machines_per_chunk = per_chunk;
    config.perf_index = crafted.perf_index;
    config.labs = crafted.labs;
    config.experiment_days = 1;
    for (const std::size_t block_samples : {1u, 7u, 4096u}) {
      ExpectResultMatches(StreamStore(crafted.store, config, block_samples),
                          materialised);
    }
  }
}

/// FNV-1a over every bin's count, weight bits and mean bits of all five
/// weekly profiles, then the headline scalars.
std::uint64_t WeeklyHash(const WeeklyProfiles& w) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFFu;
      h *= 1099511628211ULL;
    }
  };
  for (const auto* p : {&w.cpu_idle_pct, &w.ram_load_pct, &w.swap_load_pct,
                        &w.sent_bps, &w.recv_bps}) {
    for (std::size_t i = 0; i < p->bin_count(); ++i) {
      mix(static_cast<std::uint64_t>(p->Bin(i).count()));
      mix(std::bit_cast<std::uint64_t>(p->Bin(i).weight()));
      mix(std::bit_cast<std::uint64_t>(p->Bin(i).mean()));
    }
  }
  mix(std::bit_cast<std::uint64_t>(w.min_cpu_idle_pct));
  mix(std::bit_cast<std::uint64_t>(w.min_ram_load_pct));
  mix(std::bit_cast<std::uint64_t>(w.closed_hours_cpu_idle));
  for (const char c : w.min_cpu_idle_when) mix(static_cast<unsigned char>(c));
  return h;
}

TEST(StreamFoldTest, MultiWeekWeeklyGolden) {
  // Pinned before the per-machine weekly accumulator was compacted; any
  // change to its arithmetic moves these bits.
  constexpr std::uint64_t kGolden = 0x6f0f105104fd536eULL;
  const auto& materialised = Materialised(kMultiWeekDays).weekly.result();
  // Some fleet bin holds more observations than there are machines, so at
  // least one machine fed that bin more than once.
  const auto machines = static_cast<std::int64_t>(
      GoldenResult(kMultiWeekDays).trace.machine_count());
  std::int64_t max_count = 0;
  for (std::size_t i = 0; i < materialised.ram_load_pct.bin_count(); ++i) {
    max_count = std::max(max_count, materialised.ram_load_pct.Bin(i).count());
  }
  EXPECT_GT(max_count, machines);

  EXPECT_EQ(WeeklyHash(materialised), kGolden);
  EXPECT_EQ(WeeklyHash(RunStreamed(4096, kMultiWeekDays).weekly), kGolden);
}

/// FNV-1a over every count and the bits of every double of Table 2.
std::uint64_t Table2Hash(const Table2Result& t) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFFu;
      h *= 1099511628211ULL;
    }
  };
  mix(t.total_attempts);
  mix(t.iterations);
  mix(t.raw_login_samples);
  mix(t.reclassified_samples);
  for (const Table2Column* c : {&t.no_login, &t.with_login, &t.both}) {
    mix(c->samples);
    for (const double v : {c->uptime_pct, c->cpu_idle_pct, c->ram_load_pct,
                           c->swap_load_pct, c->disk_used_gb, c->sent_bps,
                           c->recv_bps}) {
      mix(std::bit_cast<std::uint64_t>(v));
    }
  }
  return h;
}

TEST(StreamFoldTest, MultiWeekTable2Golden) {
  // Pinned while Table 2's per-machine state was still full RunningStats;
  // any change to its arithmetic moves these bits.
  constexpr std::uint64_t kGolden = 0x63f303ddb1d05e9aULL;
  EXPECT_EQ(Table2Hash(Materialised(kMultiWeekDays).table2.result()),
            kGolden);
  EXPECT_EQ(Table2Hash(RunStreamed(4096, kMultiWeekDays).table2), kGolden);
}

/// FNV-1a over every count, name and double bit pattern of the per-lab
/// table, the headroom figures and the session-hour profile.
std::uint64_t PerLabAndHoursHash(const PerLabResult& lab,
                                 const SessionHourProfile& hours) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFFu;
      h *= 1099511628211ULL;
    }
  };
  const auto mixd = [&mix](double v) { mix(std::bit_cast<std::uint64_t>(v)); };
  for (const LabUsage& u : lab.usage) {
    for (const char c : u.name) mix(static_cast<unsigned char>(c));
    mix(u.machines);
    mix(u.samples);
    for (const double v : {u.uptime_pct, u.occupied_pct, u.cpu_idle_pct,
                           u.ram_load_pct, u.free_disk_gb}) {
      mixd(v);
    }
  }
  const ResourceHeadroom& r = lab.headroom;
  for (const double v : {r.cpu_idle_pct, r.unused_ram_pct,
                         r.unused_ram_gb_fleet, r.free_disk_gb_per_machine,
                         r.free_disk_tb_fleet}) {
    mixd(v);
  }
  for (const MemoryClassHeadroom& c : r.by_ram_class) {
    mix(static_cast<std::uint64_t>(c.ram_mb));
    mix(c.samples);
    mixd(c.unused_pct);
    mixd(c.free_mb);
  }
  for (const SessionHourBin& b : hours.bins) {
    mix(static_cast<std::uint64_t>(b.hour));
    mix(b.samples);
    mixd(b.mean_cpu_idle_pct);
  }
  mix(static_cast<std::uint64_t>(hours.first_bin_above_99));
  return h;
}

TEST(StreamFoldTest, MultiWeekPerLabAndSessionHoursGolden) {
  // Pinned while the per-lab and session-hour per-machine state was still
  // full RunningStats; any change to their arithmetic moves these bits.
  constexpr std::uint64_t kGolden = 0xa5907b6ca0654df3ULL;
  const MaterialisedRun& materialised = Materialised(kMultiWeekDays);
  EXPECT_EQ(PerLabAndHoursHash(materialised.per_lab.result(),
                               materialised.session_hours.result()),
            kGolden);
  const StreamingAnalysisResult streamed = RunStreamed(4096, kMultiWeekDays);
  EXPECT_EQ(PerLabAndHoursHash(streamed.per_lab, streamed.session_hours),
            kGolden);
}

TEST(StreamFoldTest, AnomalyDetectorSeesEverySampleOnce) {
  const auto& trace = GoldenResult().trace;
  StreamingAnalysisConfig config;
  config.machine_count = trace.machine_count();
  StreamingAnalysis fold(std::move(config));
  AnomalyDetector detector(trace.machine_count(), AnomalyOptions{});
  fold.AttachAnomalyDetector(&detector);
  trace::StoreReader reader(trace, 4096);
  while (const trace::TraceBlock* block = reader.Next()) fold.Accept(*block);
  // Every sample observed once, plus one interval observation per derived
  // interval (strictly fewer than samples).
  EXPECT_GE(detector.observations(), trace.size());
  EXPECT_LT(detector.observations(), 2 * trace.size());
}

// --- ConsumeRing: the pipelined fold stage --------------------------------

/// The golden trace cut into `block_samples`-row blocks, owned copies.
std::vector<trace::TraceBlock> GoldenBlocks(std::size_t block_samples) {
  std::vector<trace::TraceBlock> blocks;
  trace::StoreReader reader(GoldenResult().trace, block_samples);
  while (const trace::TraceBlock* block = reader.Next()) {
    blocks.push_back(*block);
  }
  return blocks;
}

trace::TraceStore GoldenSummary() {
  const trace::TraceStore& trace = GoldenResult().trace;
  trace::TraceStore summary(trace.machine_count());
  for (const auto& info : trace.iterations()) summary.AppendIteration(info);
  return summary;
}

TEST(StreamFoldTest, ConsumeRingMatchesSerialHashAndFold) {
  const std::vector<trace::TraceBlock> blocks = GoldenBlocks(4096);
  ASSERT_GE(blocks.size(), 3u);
  std::uint64_t serial = trace::kSampleStreamHashSeed;
  std::size_t blocks_with_users = 0;
  for (const trace::TraceBlock& block : blocks) {
    serial = trace::HashBlockSamples(serial, block);
    if (!block.users.empty()) ++blocks_with_users;
  }
  ASSERT_GE(blocks_with_users, 3u);

  // Two feeds: a ring filled before the fold starts, so every block but
  // the last has blocks queued behind it, and a two-block ring fed by a
  // producer thread, so the producer, the fold and its hash helper run at
  // once (the TSan job runs this suite).
  for (const bool prefilled : {true, false}) {
    SCOPED_TRACE(prefilled ? "prefilled ring" : "producer thread");
    util::StagingRing<trace::TraceBlock> ring(prefilled ? blocks.size() : 2);
    util::RecyclingPool<trace::TraceBlock> pool;
    const auto feed = [&] {
      for (const trace::TraceBlock& block : blocks) {
        trace::TraceBlock copy = block;
        if (!ring.Push(std::move(copy))) return;
      }
      ring.Close();
    };
    std::thread producer;
    if (prefilled) {
      feed();
    } else {
      producer = std::thread(feed);
    }
    StreamingAnalysis fold(GoldenConfig(kShortDays, 8));
    const std::uint64_t hash =
        fold.ConsumeRing(ring, &pool, trace::kSampleStreamHashSeed);
    if (producer.joinable()) producer.join();

    EXPECT_EQ(hash, serial);
    trace::StoreReader reader(GoldenResult().trace);
    EXPECT_EQ(hash, trace::HashSampleStream(reader));
    EXPECT_EQ(fold.samples(), GoldenResult().trace.size());
    EXPECT_EQ(pool.stats().released, blocks.size());
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      EXPECT_TRUE(pool.Acquire().empty());
    }
    ExpectResultMatchesMaterialised(fold.Finish(GoldenSummary()));
  }
}

TEST(StreamFoldTest, ConsumeRingOverAnEmptyRingReturnsTheSeed) {
  util::StagingRing<trace::TraceBlock> ring(1);
  ring.Close();
  StreamingAnalysis consumed(GoldenConfig(kShortDays, 8));
  EXPECT_EQ(consumed.ConsumeRing(ring, nullptr, trace::kSampleStreamHashSeed),
            trace::kSampleStreamHashSeed);
  EXPECT_EQ(consumed.ConsumeRing(ring, nullptr, 42), 42u);
  EXPECT_EQ(consumed.samples(), 0u);

  StreamingAnalysis untouched(GoldenConfig(kShortDays, 8));
  const trace::TraceStore summary = GoldenSummary();
  const StreamingAnalysisResult a = consumed.Finish(summary);
  const StreamingAnalysisResult b = untouched.Finish(summary);
  EXPECT_EQ(Table2Hash(a.table2), Table2Hash(b.table2));
  EXPECT_EQ(WeeklyHash(a.weekly), WeeklyHash(b.weekly));
  EXPECT_EQ(PerLabAndHoursHash(a.per_lab, a.session_hours),
            PerLabAndHoursHash(b.per_lab, b.session_hours));
}

/// Threads of this process (Linux); 0 where /proc is not available.
std::size_t ThreadCount() {
  std::error_code ec;
  std::size_t n = 0;
  for (std::filesystem::directory_iterator it("/proc/self/task", ec), end;
       !ec && it != end; it.increment(ec)) {
    ++n;
  }
  return ec ? 0 : n;
}

TEST(StreamFoldTest, CancelledRingReturnsWithTheHashHelperJoined) {
  const std::vector<trace::TraceBlock> blocks = GoldenBlocks(4096);
  const std::size_t threads_before = ThreadCount();
  util::StagingRing<trace::TraceBlock> ring(1);
  util::RecyclingPool<trace::TraceBlock> pool;
  std::uint64_t hash = 0;
  StreamingAnalysis fold(GoldenConfig(kShortDays, 8));
  std::thread consumer([&] {
    hash = fold.ConsumeRing(ring, &pool, trace::kSampleStreamHashSeed);
  });
  // Three blocks reach the fold; then the ring is cancelled while the
  // fold is busy or parked in Pop.
  for (std::size_t i = 0; i < 3; ++i) {
    trace::TraceBlock copy = blocks[i];
    EXPECT_TRUE(ring.Push(std::move(copy)));
  }
  ring.Cancel();
  consumer.join();

  // The k blocks that reached the fold before the cancel were folded,
  // hashed in stream order and recycled.
  const std::size_t k = pool.stats().released;
  ASSERT_LE(k, 3u);
  std::uint64_t prefix = trace::kSampleStreamHashSeed;
  std::size_t folded = 0;
  for (std::size_t i = 0; i < k; ++i) {
    prefix = trace::HashBlockSamples(prefix, blocks[i]);
    folded += blocks[i].size();
  }
  EXPECT_EQ(hash, prefix);
  EXPECT_EQ(fold.samples(), folded);
  if (threads_before == 0) GTEST_SKIP() << "no /proc/self/task";
  EXPECT_EQ(ThreadCount(), threads_before);
}

}  // namespace
}  // namespace labmon::analysis
