// google-benchmark microbenchmarks of the infrastructure hot paths: probe
// formatting/parsing, behavioural simulation throughput, interval
// derivation, analysis aggregation (legacy serial vs single-sweep
// pipeline), and the NBench kernels themselves.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "labmon/analysis/aggregate.hpp"
#include "labmon/analysis/passes.hpp"
#include "labmon/analysis/pipeline.hpp"
#include "labmon/analysis/stream_fold.hpp"
#include "labmon/core/experiment.hpp"
#include "labmon/ddc/w32_probe.hpp"
#include "labmon/ddc/w32_probe_legacy.hpp"
#include "labmon/harvest/dag.hpp"
#include "labmon/harvest/dag_scheduler.hpp"
#include "labmon/nbench/nbench.hpp"
#include "labmon/smart/attributes.hpp"
#include "labmon/stats/running_stats.hpp"
#include "labmon/trace/binary_io.hpp"
#include "labmon/trace/block.hpp"
#include "labmon/trace/intervals.hpp"
#include "labmon/trace/merge_frontier.hpp"
#include "labmon/trace/segment.hpp"
#include "labmon/trace/spill_codec.hpp"
#include "labmon/util/parallel.hpp"
#include "labmon/util/rng.hpp"
#include "labmon/util/varint.hpp"
#include "labmon/util/staging_ring.hpp"
#include "labmon/winsim/paper_specs.hpp"
#include "labmon/workload/driver.hpp"

namespace {

using namespace labmon;

winsim::Machine BenchMachine() {
  winsim::MachineSpec spec;
  spec.name = "L01-PC01";
  spec.lab = "L01";
  spec.cpu_model = "Pentium 4";
  spec.cpu_ghz = 2.4;
  spec.ram_mb = 512;
  spec.swap_mb = 768;
  spec.disk_gb = 74.5;
  spec.mac = "00:0C:AA:BB:CC:DD";
  spec.disk_serial = "WD-BENCH0001";
  return winsim::Machine(0, spec, smart::DiskSmart("WD-BENCH0001", 5000, 800));
}

void BM_ProbeFormat(benchmark::State& state) {
  auto machine = BenchMachine();
  machine.Boot(0);
  machine.Login("a000001", 10);
  util::SimTime t = 0;
  for (auto _ : state) {
    t += 900;
    machine.AdvanceTo(t);
    benchmark::DoNotOptimize(ddc::FormatW32ProbeOutput(machine));
  }
}
BENCHMARK(BM_ProbeFormat);

void BM_ProbeParse(benchmark::State& state) {
  auto machine = BenchMachine();
  machine.Boot(0);
  machine.AdvanceTo(900);
  const std::string text = ddc::FormatW32ProbeOutput(machine);
  ddc::W32Sample sample;
  for (auto _ : state) {
    auto parsed = ddc::ParseW32ProbeOutput(text, &sample);
    benchmark::DoNotOptimize(parsed);
    benchmark::DoNotOptimize(sample.uptime_s);
  }
}
BENCHMARK(BM_ProbeParse);

void BM_ProbeFormatReuse(benchmark::State& state) {
  // The collection hot path proper: append into a caller-owned buffer, no
  // per-sample allocations once the buffer has grown.
  auto machine = BenchMachine();
  machine.Boot(0);
  machine.Login("a000001", 10);
  util::SimTime t = 0;
  std::string buffer;
  for (auto _ : state) {
    t += 900;
    machine.AdvanceTo(t);
    buffer.clear();
    ddc::FormatW32ProbeOutput(machine, buffer);
    benchmark::DoNotOptimize(buffer.data());
  }
}
BENCHMARK(BM_ProbeFormatReuse);

void BM_ProbeFormatLegacy(benchmark::State& state) {
  auto machine = BenchMachine();
  machine.Boot(0);
  machine.Login("a000001", 10);
  util::SimTime t = 0;
  for (auto _ : state) {
    t += 900;
    machine.AdvanceTo(t);
    benchmark::DoNotOptimize(ddc::LegacyFormatW32ProbeOutput(machine));
  }
}
BENCHMARK(BM_ProbeFormatLegacy);

void BM_ProbeParseLegacy(benchmark::State& state) {
  auto machine = BenchMachine();
  machine.Boot(0);
  machine.AdvanceTo(900);
  const std::string text = ddc::FormatW32ProbeOutput(machine);
  for (auto _ : state) {
    auto parsed = ddc::LegacyParseW32ProbeOutput(text);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_ProbeParseLegacy);

void BM_ProbeRoundtripPaired(benchmark::State& state) {
  // Paired fast-vs-legacy format+parse round trip. Each iteration times
  // both implementations back to back so machine-speed drift cancels out
  // of the ratio; the acceptance bar is speedup_vs_legacy >= 3.
  auto machine = BenchMachine();
  machine.Boot(0);
  machine.Login("a000001", 10);
  util::SimTime t = 0;
  double fast_seconds = 0.0;
  double legacy_seconds = 0.0;
  std::string buffer;
  ddc::W32Sample scratch;
  for (auto _ : state) {
    t += 900;
    machine.AdvanceTo(t);

    const auto fast_start = std::chrono::steady_clock::now();
    buffer.clear();
    ddc::FormatW32ProbeOutput(machine, buffer);
    auto fast_parsed = ddc::ParseW32ProbeOutput(buffer, &scratch);
    benchmark::DoNotOptimize(fast_parsed);
    benchmark::DoNotOptimize(scratch.uptime_s);
    fast_seconds += std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - fast_start)
                        .count();

    state.PauseTiming();
    const auto legacy_start = std::chrono::steady_clock::now();
    const std::string legacy_text = ddc::LegacyFormatW32ProbeOutput(machine);
    auto legacy_parsed = ddc::LegacyParseW32ProbeOutput(legacy_text);
    benchmark::DoNotOptimize(legacy_parsed);
    legacy_seconds += std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - legacy_start)
                          .count();
    state.ResumeTiming();
  }
  const auto rounds =
      static_cast<double>(std::max<std::int64_t>(1, state.iterations()));
  state.counters["legacy_roundtrip_us"] = 1e6 * legacy_seconds / rounds;
  state.counters["fast_roundtrip_us"] = 1e6 * fast_seconds / rounds;
  state.counters["speedup_vs_legacy"] =
      fast_seconds > 0.0 ? legacy_seconds / fast_seconds : 0.0;
}
BENCHMARK(BM_ProbeRoundtripPaired);

void BM_SmartEncodeDecode(benchmark::State& state) {
  smart::DiskSmart disk("WD-BENCH0001", 5000, 800);
  for (auto _ : state) {
    const auto block = disk.Snapshot().Encode();
    auto decoded = smart::AttributeTable::Decode(block);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_SmartEncodeDecode);

void BM_MachineAdvance(benchmark::State& state) {
  auto machine = BenchMachine();
  machine.Boot(0);
  machine.SetCpuBusyFraction(0.05);
  machine.SetNetRates(250, 355);
  util::SimTime t = 0;
  for (auto _ : state) {
    t += 900;
    machine.AdvanceTo(t);
    benchmark::DoNotOptimize(machine.IdleThreadSeconds());
  }
}
BENCHMARK(BM_MachineAdvance);

void BM_WorkloadSimulationDay(benchmark::State& state) {
  // Cost of simulating one behavioural day of the whole 169-machine campus.
  for (auto _ : state) {
    state.PauseTiming();
    util::Rng rng(7);
    winsim::Fleet fleet = winsim::MakePaperFleet(rng);
    workload::CampusConfig config;
    config.days = 1;
    workload::WorkloadDriver driver(fleet, config);
    state.ResumeTiming();
    driver.FinishAt(config.EndTime());
    benchmark::DoNotOptimize(driver.ground_truth().boots);
  }
}
BENCHMARK(BM_WorkloadSimulationDay)->Unit(benchmark::kMillisecond);

void BM_WorkloadEventDispatch(benchmark::State& state) {
  // Event-queue dispatch throughput of WorkloadDriver::AdvanceTo: one
  // behavioural day stepped in 15-minute increments (the collector's view
  // of the driver). items/s = dispatched events/s, the number the sharded
  // engine multiplies by the shard count.
  std::uint64_t dispatched = 0;
  for (auto _ : state) {
    state.PauseTiming();
    util::Rng rng(7);
    winsim::Fleet fleet = winsim::MakePaperFleet(rng);
    workload::CampusConfig config;
    config.days = 1;
    workload::WorkloadDriver driver(fleet, config);
    state.ResumeTiming();
    for (util::SimTime t = 900; t <= config.EndTime(); t += 900) {
      driver.AdvanceTo(t);
    }
    dispatched += driver.dispatched_events();
    benchmark::DoNotOptimize(driver.ground_truth().boots);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(dispatched));
}
BENCHMARK(BM_WorkloadEventDispatch)->Unit(benchmark::kMillisecond);

void BM_DagSchedulerBag(benchmark::State& state) {
  // DagScheduler::Run of a bag of range(0) jobs on the paper campus for 2
  // days; the ready queue starts range(0) deep. items/s = dispatches/s.
  // A dispatch or requeue is an O(log jobs) heap operation, so the time
  // should grow with range(0) only through Run's O(jobs) set-up and the
  // dedicated-cluster baseline.
  harvest::JobMixOptions mix;
  mix.kind = harvest::JobMixKind::kBagOfTasks;
  mix.jobs = static_cast<std::size_t>(state.range(0));
  const harvest::JobDag dag = harvest::MakeJobMix(mix);
  std::uint64_t dispatches = 0;
  for (auto _ : state) {
    state.PauseTiming();
    workload::CampusConfig campus;
    campus.days = 2;
    util::Rng rng(campus.seed);
    winsim::Fleet fleet = winsim::MakePaperFleet(rng);
    workload::WorkloadDriver driver(fleet, campus);
    harvest::DagScheduler scheduler(fleet, driver, harvest::DagPolicy{});
    state.ResumeTiming();
    const harvest::DagResult result = scheduler.Run(dag, 0, campus.EndTime());
    for (const harvest::DagJobRun& job : result.jobs) {
      dispatches += job.attempts;
    }
    benchmark::DoNotOptimize(result.useful_index_seconds);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(dispatches));
}
BENCHMARK(BM_DagSchedulerBag)
    ->Arg(2000)
    ->Arg(20000)
    ->Arg(200000)
    ->Unit(benchmark::kMillisecond);

void BM_FullExperimentDay(benchmark::State& state) {
  // Simulation + collection + post-collect parse, per simulated day.
  for (auto _ : state) {
    core::ExperimentConfig config;
    config.campus.days = static_cast<int>(state.range(0));
    auto result = core::Experiment::Run(config);
    benchmark::DoNotOptimize(result.trace.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 96 * 169);
}
BENCHMARK(BM_FullExperimentDay)->Arg(1)->Arg(3)->Unit(benchmark::kMillisecond);

void BM_IntervalDerivation(benchmark::State& state) {
  core::ExperimentConfig config;
  config.campus.days = 3;
  const auto result = bench::RunExperiment(config);
  for (auto _ : state) {
    std::size_t count = 0;
    trace::ForEachInterval(result.trace, {},
                           [&](const trace::SampleInterval&) { ++count; });
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(result.trace.size()));
}
BENCHMARK(BM_IntervalDerivation)->Unit(benchmark::kMillisecond);

void BM_Table2Aggregation(benchmark::State& state) {
  core::ExperimentConfig config;
  config.campus.days = 3;
  const auto result = bench::RunExperiment(config);
  for (auto _ : state) {
    auto table2 = analysis::ComputeTable2(result.trace);
    benchmark::DoNotOptimize(table2.both.cpu_idle_pct);
  }
}
BENCHMARK(BM_Table2Aggregation)->Unit(benchmark::kMillisecond);

// --- full-report analysis: legacy serial Compute* vs single-sweep
// pipeline.  Both run the paper's eight analyses on the same trace (77
// simulated days at the seed scenario; override with LABMON_BENCH_DAYS).
// The pipeline variant reports its speedup over the serial baseline as a
// benchmark counter so it lands in --benchmark_format=json output.

const core::ExperimentResult& AnalysisBenchResult() {
  static const core::ExperimentResult result =
      bench::RunExperiment(bench::BenchConfig());
  return result;
}

std::vector<analysis::LabKey> AnalysisBenchLabs(
    const core::ExperimentResult& result) {
  std::vector<analysis::LabKey> keys;
  std::size_t first = 0;
  for (const auto& lab : result.labs) {
    keys.push_back(analysis::LabKey{lab.name, first, lab.machine_count});
    first += lab.machine_count;
  }
  return keys;
}

// The eight analyses as independent serial passes, each re-walking the
// trace (sessions reconstructed once and shared, as the fairest baseline).
double RunLegacyAnalyses(const core::ExperimentResult& result) {
  const auto& trace = result.trace;
  const auto table2 = analysis::ComputeTable2(trace);
  const auto series = analysis::ComputeAvailabilitySeries(trace);
  const auto ranking = analysis::ComputeUptimeRanking(trace);
  const auto sessions = trace::ReconstructSessions(trace);
  const auto lengths = analysis::ComputeSessionLengthDistribution(sessions);
  const auto session_stats = analysis::ComputeSessionStats(sessions);
  const auto smart = analysis::ComputeSmartStats(
      trace, session_stats.session_count, result.days);
  const auto hours = analysis::ComputeSessionHourProfile(trace);
  const auto weekly = analysis::ComputeWeeklyProfiles(trace);
  const auto equivalence = analysis::ComputeEquivalence(
      trace, result.perf_index, 15, trace::kNoForgottenThreshold);
  const auto per_lab =
      analysis::ComputePerLabUsage(trace, AnalysisBenchLabs(result));
  const auto headroom = analysis::ComputeResourceHeadroom(trace);
  const auto capacity = analysis::ComputeHarvestableCapacity(trace);
  return table2.both.cpu_idle_pct + series.mean_powered_on +
         static_cast<double>(ranking.entries.size()) + lengths.histogram.total() +
         static_cast<double>(session_stats.session_count) +
         smart.cycles_per_machine_day +
         static_cast<double>(hours.bins.size()) + weekly.min_cpu_idle_pct +
         equivalence.mean_total + static_cast<double>(per_lab.size()) +
         headroom.unused_ram_pct + capacity.p10_ram_gb;
}

// The same eight analyses as one derivation plus one parallel sweep.
double RunPipelineAnalyses(const core::ExperimentResult& result) {
  const trace::DerivedTrace derived(result.trace);
  analysis::AnalysisPipeline pipeline;
  auto& table2 = pipeline.Emplace<analysis::AggregatePass>();
  auto& availability = pipeline.Emplace<analysis::AvailabilityPass>();
  auto& hours = pipeline.Emplace<analysis::SessionHoursPass>();
  auto& weekly = pipeline.Emplace<analysis::WeeklyPass>();
  auto& equivalence = pipeline.Emplace<analysis::EquivalencePass>(
      result.perf_index, 15, trace::kNoForgottenThreshold);
  auto& stability = pipeline.Emplace<analysis::StabilityPass>(result.days);
  auto& per_lab =
      pipeline.Emplace<analysis::PerLabPass>(AnalysisBenchLabs(result));
  auto& capacity = pipeline.Emplace<analysis::CapacityPass>();
  pipeline.Run(derived);
  return table2.result().both.cpu_idle_pct +
         availability.result().series.mean_powered_on +
         static_cast<double>(availability.result().ranking.entries.size()) +
         availability.result().session_lengths.histogram.total() +
         static_cast<double>(stability.result().sessions.session_count) +
         stability.result().smart.cycles_per_machine_day +
         static_cast<double>(hours.result().bins.size()) +
         weekly.result().min_cpu_idle_pct + equivalence.result().mean_total +
         static_cast<double>(per_lab.result().usage.size()) +
         per_lab.result().headroom.unused_ram_pct +
         capacity.result().p10_ram_gb;
}

void BM_AnalysisLegacyFullReport(benchmark::State& state) {
  const auto& result = AnalysisBenchResult();
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunLegacyAnalyses(result));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(result.trace.size()));
}
BENCHMARK(BM_AnalysisLegacyFullReport)->Unit(benchmark::kMillisecond);

void BM_AnalysisPipelineFullReport(benchmark::State& state) {
  const auto& result = AnalysisBenchResult();
  // The speedup counter is a *paired* measurement: every iteration times
  // one pipeline run and one legacy run back to back, so slow drifts in
  // machine speed (noisy-neighbour VMs) cancel out of the ratio instead
  // of contaminating a one-shot baseline.
  double legacy_seconds = 0.0;
  double pipeline_seconds = 0.0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(RunPipelineAnalyses(result));
    const auto mid = std::chrono::steady_clock::now();
    pipeline_seconds += std::chrono::duration<double>(mid - start).count();
    state.PauseTiming();
    const auto legacy_start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(RunLegacyAnalyses(result));
    legacy_seconds += std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - legacy_start)
                          .count();
    state.ResumeTiming();
  }
  const auto rounds =
      static_cast<double>(std::max<std::int64_t>(1, state.iterations()));
  state.counters["legacy_seconds"] = legacy_seconds / rounds;
  state.counters["pipeline_seconds"] = pipeline_seconds / rounds;
  state.counters["speedup_vs_legacy"] =
      pipeline_seconds > 0.0 ? legacy_seconds / pipeline_seconds : 0.0;
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(result.trace.size()));
}
BENCHMARK(BM_AnalysisPipelineFullReport)->Unit(benchmark::kMillisecond);

void BM_BlockFold(benchmark::State& state) {
  // The streaming analysis fold over sealed blocks — the hot loop of a
  // streamed campaign's merge+analysis phase. Folds the same trace the
  // pipeline benchmarks analyse, block by block, through all eight
  // passes (block size = the spill default). The argument is the lab
  // scale: at 1 (169 machines) the fleet's weekly state fits in cache;
  // at 8 (1,352 machines, ~42 MB of it) where each sample's bins sit
  // decides the cost. Building and freeing the fold are not timed: they
  // cost O(machines) page faults once per campaign, which a loop of
  // folds in one process would otherwise count once per iteration.
  core::ExperimentConfig config;
  config.campus.days = 3;
  config.campus.scale_labs = static_cast<int>(state.range(0));
  const auto result = bench::RunExperiment(config);

  analysis::StreamingAnalysisConfig fold_config;
  fold_config.machine_count = result.trace.machine_count();
  fold_config.perf_index = result.perf_index;
  fold_config.labs = AnalysisBenchLabs(result);
  fold_config.experiment_days = result.days;

  for (auto _ : state) {
    state.PauseTiming();
    auto fold = std::make_unique<analysis::StreamingAnalysis>(fold_config);
    state.ResumeTiming();
    trace::StoreReader reader(result.trace);
    while (const trace::TraceBlock* block = reader.Next()) {
      fold->Accept(*block);
    }
    auto folded = fold->Finish(result.trace);
    benchmark::DoNotOptimize(folded.table2.both.cpu_idle_pct);
    state.PauseTiming();
    fold.reset();
    state.ResumeTiming();
  }
  state.SetLabel("x" + std::to_string(state.range(0)) + " labs");
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(result.trace.size()));
}
BENCHMARK(BM_BlockFold)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_HashBlockSamples(benchmark::State& state) {
  // The stream hash the fold thread folds over every merged block
  // (HashBlockSamples), over the 3-day paper trace pre-cut into
  // default-size blocks so only the hash is timed.
  core::ExperimentConfig config;
  config.campus.days = 3;
  const auto result = bench::RunExperiment(config);
  std::vector<trace::TraceBlock> blocks;
  trace::StoreReader reader(result.trace);
  while (const trace::TraceBlock* block = reader.Next()) {
    blocks.push_back(*block);
  }
  for (auto _ : state) {
    std::uint64_t h = trace::kSampleStreamHashSeed;
    for (const trace::TraceBlock& block : blocks) {
      h = trace::HashBlockSamples(h, block);
    }
    benchmark::DoNotOptimize(h);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(result.trace.size()));
}
BENCHMARK(BM_HashBlockSamples)->Unit(benchmark::kMillisecond);

void BM_SegmentRoundTrip(benchmark::State& state) {
  // Spill throughput per codec (Arg 1 = LMSG1, Arg 2 = LMSG2): write the
  // trace as one checksummed segment block, then stream it back
  // (length-prefix walk + checksum verify + payload decode). bytes/s
  // covers the full round trip at the on-disk byte count of that codec.
  const auto codec = static_cast<trace::SpillCodecId>(state.range(0));
  core::ExperimentConfig config;
  config.campus.days = 2;
  const auto result = bench::RunExperiment(config);
  const std::string path =
      (std::filesystem::temp_directory_path() / "labmon_bm_segment.lmsg")
          .string();

  std::int64_t segment_bytes = 0;
  for (auto _ : state) {
    auto writer = trace::SegmentWriter::Open(
        path, result.trace.machine_count(), codec);
    if (!writer.ok() || !writer.value().Append(result.trace).ok() ||
        !writer.value().Finish().ok()) {
      state.SkipWithError("segment write failed");
      break;
    }
    segment_bytes = static_cast<std::int64_t>(writer.value().bytes_written());

    auto reader = trace::SegmentReader::Open(path);
    std::size_t rows = 0;
    if (reader.ok()) {
      while (const trace::TraceBlock* block = reader.value().Next()) {
        rows += block->size();
      }
    }
    if (!reader.ok() || reader.value().failed() ||
        rows != result.trace.size()) {
      state.SkipWithError("segment read failed");
      break;
    }
    benchmark::DoNotOptimize(rows);
  }
  std::error_code ec;
  std::filesystem::remove(path, ec);
  state.SetLabel(trace::SpillCodecName(codec));
  state.SetBytesProcessed(state.iterations() * segment_bytes);
}
BENCHMARK(BM_SegmentRoundTrip)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

/// The 2-day paper trace cut the way the pipelined engine seals it: one
/// block per lab per 16-iteration window (the default
/// StreamingOptions::window_iterations). Blocks hold ~100 samples, so
/// per-block fixed costs show, unlike in the one-block BM_SegmentRoundTrip
/// / BM_ColumnDeltaEncode.
struct WindowBlocks {
  std::size_t machine_count = 0;
  std::size_t samples = 0;
  std::size_t windows = 0;
  std::vector<std::vector<trace::TraceStore>> blocks;  // [lab][window]
};

WindowBlocks CutWindowBlocks() {
  constexpr std::size_t kWindow = 16;
  core::ExperimentConfig config;
  config.campus.days = 2;
  const auto result = bench::RunExperiment(config);
  const trace::TraceStore& trace = result.trace;
  WindowBlocks out;
  out.machine_count = trace.machine_count();
  out.samples = trace.size();
  std::size_t iterations = trace.iterations().size();
  for (const std::uint32_t it : trace.columns().iteration) {
    iterations = std::max<std::size_t>(iterations, it + std::size_t{1});
  }
  out.windows = (iterations + kWindow - 1) / kWindow;

  std::vector<std::size_t> lab_of(out.machine_count, 0);
  std::size_t first = 0;
  for (std::size_t lab = 0; lab < result.labs.size(); ++lab) {
    for (std::size_t k = 0; k < result.labs[lab].machine_count; ++k) {
      lab_of[first + k] = lab;
    }
    first += result.labs[lab].machine_count;
  }
  out.blocks.resize(result.labs.size());
  for (auto& lab_blocks : out.blocks) {
    for (std::size_t w = 0; w < out.windows; ++w) {
      lab_blocks.emplace_back(out.machine_count);
      for (std::size_t k = w * kWindow;
           k < std::min(trace.iterations().size(), (w + 1) * kWindow); ++k) {
        lab_blocks.back().AppendIteration(trace.iterations()[k]);
      }
    }
  }
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const std::size_t w = trace.columns().iteration[i] / kWindow;
    out.blocks[lab_of[trace.columns().machine[i]]][w].Append(trace.Sample(i));
  }
  return out;
}

/// Writes each lab's window blocks, in window order, to a segment of its
/// own under `dir`; false on any write error.
bool WriteWindowSegments(const WindowBlocks& wb,
                         const std::filesystem::path& dir) {
  for (std::size_t lab = 0; lab < wb.blocks.size(); ++lab) {
    auto writer = trace::SegmentWriter::Open(
        (dir / ("lab" + std::to_string(lab) + ".lmsg")).string(),
        wb.machine_count, trace::SpillCodecId::kLmsg2);
    if (!writer.ok()) return false;
    for (const trace::TraceStore& block : wb.blocks[lab]) {
      if (!writer.value().Append(block).ok()) return false;
    }
    if (!writer.value().Finish().ok()) return false;
  }
  return true;
}

void BM_SegmentAppendWindowBlocks(benchmark::State& state) {
  // LMSG2 spill of the window blocks: each lab appends its blocks in
  // window order to a segment of its own. items/s = samples/s.
  const WindowBlocks wb = CutWindowBlocks();
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "labmon_bm_window_blocks";
  std::filesystem::create_directories(dir);
  for (auto _ : state) {
    if (!WriteWindowSegments(wb, dir)) {
      state.SkipWithError("segment write failed");
      break;
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(wb.samples));
  state.counters["blocks"] =
      static_cast<double>(wb.blocks.size() * wb.windows);
}
BENCHMARK(BM_SegmentAppendWindowBlocks)->Unit(benchmark::kMillisecond);

void BM_SegmentDecodeWindowBlocks(benchmark::State& state) {
  // The read side of BM_SegmentAppendWindowBlocks, the way a resumed run
  // replays it: every lab's segment open at once, blocks read window by
  // window round-robin over the labs (the order the replay's (iteration,
  // lab) heap yields for window-aligned segments), each into one reused
  // block. Covers framing, checksum and LMSG2 decode; the segments are
  // written once, outside the timed loop. items/s = samples/s.
  const WindowBlocks wb = CutWindowBlocks();
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "labmon_bm_decode_blocks";
  std::filesystem::create_directories(dir);
  bool ok = WriteWindowSegments(wb, dir);
  trace::TraceBlock block;
  for (auto _ : state) {
    std::vector<trace::SegmentReader> readers;
    for (std::size_t lab = 0; ok && lab < wb.blocks.size(); ++lab) {
      auto reader = trace::SegmentReader::Open(
          (dir / ("lab" + std::to_string(lab) + ".lmsg")).string());
      ok = reader.ok();
      if (ok) readers.push_back(std::move(reader).value());
    }
    for (std::size_t w = 0; ok && w < wb.windows; ++w) {
      for (trace::SegmentReader& reader : readers) {
        ok = ok && reader.Next(block);
      }
      benchmark::DoNotOptimize(block.cols.t.data());
    }
    if (!ok) {
      state.SkipWithError("segment read failed");
      break;
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(wb.samples));
  state.counters["blocks"] =
      static_cast<double>(wb.blocks.size() * wb.windows);
}
BENCHMARK(BM_SegmentDecodeWindowBlocks)->Unit(benchmark::kMillisecond);

void BM_ColumnDeltaEncode(benchmark::State& state) {
  // LMSG2 per-column encode (delta/zigzag transforms + RLE + varint) on a
  // fleet-like trace; items/s = samples/s, bytes/s = raw columnar bytes.
  core::ExperimentConfig config;
  config.campus.days = 2;
  const auto result = bench::RunExperiment(config);
  const trace::SpillCodec& codec =
      trace::GetSpillCodec(trace::SpillCodecId::kLmsg2);
  std::string payload;
  for (auto _ : state) {
    codec.EncodeBlock(result.trace, payload);
    benchmark::DoNotOptimize(payload.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(result.trace.size()));
  state.SetBytesProcessed(
      state.iterations() *
      static_cast<std::int64_t>(trace::RawColumnBytes(result.trace)));
}
BENCHMARK(BM_ColumnDeltaEncode)->Unit(benchmark::kMillisecond);

void BM_ColumnDeltaDecode(benchmark::State& state) {
  // The decode side of BM_ColumnDeltaEncode: RLE expansion + prefix-sum
  // reconstruction of every column from one encoded payload.
  core::ExperimentConfig config;
  config.campus.days = 2;
  const auto result = bench::RunExperiment(config);
  const trace::SpillCodec& codec =
      trace::GetSpillCodec(trace::SpillCodecId::kLmsg2);
  std::string payload;
  codec.EncodeBlock(result.trace, payload);
  trace::TraceBlock block;
  for (auto _ : state) {
    const auto decoded =
        codec.DecodeBlock(payload, result.trace.machine_count(), block);
    if (!decoded.ok()) {
      state.SkipWithError("decode failed");
      break;
    }
    benchmark::DoNotOptimize(block.cols.t.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(result.trace.size()));
  state.SetBytesProcessed(
      state.iterations() *
      static_cast<std::int64_t>(trace::RawColumnBytes(result.trace)));
}
BENCHMARK(BM_ColumnDeltaDecode)->Unit(benchmark::kMillisecond);

void BM_VarintPut(benchmark::State& state) {
  // Varint append fast path with a fresh output string per iteration, so
  // the string's growth steps are part of the cost.
  util::Rng rng(7);
  std::vector<std::uint64_t> values(64 * 1024);
  for (auto& v : values) {
    v = rng.NextU64() >> (rng.NextU64() % 64);  // mixed 1..10-byte codes
  }
  for (auto _ : state) {
    std::string out;
    for (const std::uint64_t v : values) util::PutVarint(out, v);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(values.size()));
}
BENCHMARK(BM_VarintPut);

void BM_StagingRingPushPop(benchmark::State& state) {
  // Per-handoff overhead of the pipelined engine's staging ring (mutex +
  // two condvars) on the uncontended fast path: one Push + one Pop per
  // iteration on a never-full ring, moving the same pooled block pointer
  // the real engine stages.
  util::StagingRing<std::unique_ptr<trace::TraceBlock>> ring(64);
  auto block = std::make_unique<trace::TraceBlock>();
  for (auto _ : state) {
    ring.Push(std::move(block));
    ring.Pop(block);
    benchmark::DoNotOptimize(block);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StagingRingPushPop);

void BM_ParallelForRegion(benchmark::State& state) {
  // Fixed cost of one two-worker ParallelFor region with an empty body:
  // the hand-off to the pool's parked workers and the joins, paid once per
  // shard pass of every lockstep window of a pipelined run.
  for (auto _ : state) {
    util::ParallelFor(2, [](std::size_t i) { benchmark::DoNotOptimize(i); },
                      2);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ParallelForRegion);

/// Per-lab part streams laid out as replay feeds the merge: one block per
/// part, `machines_per_part` lab-contiguous machines each probed once per
/// front. Every part's sweep starts at the front's period boundary (so
/// the parts' first probes tie in t) and steps by a per-probe latency of
/// 1-4 s.
std::vector<std::vector<trace::TraceBlock>> MergeBenchParts(
    std::size_t parts, std::size_t machines_per_part,
    std::uint32_t iterations) {
  const std::size_t machine_count = parts * machines_per_part;
  std::vector<std::vector<trace::TraceBlock>> streams(parts);
  for (std::size_t p = 0; p < parts; ++p) {
    trace::TraceStore store(machine_count);
    for (std::uint32_t it = 0; it < iterations; ++it) {
      const std::int64_t boundary = 900 * std::int64_t{it + 1};
      std::int64_t t = boundary;
      for (std::size_t m = 0; m < machines_per_part; ++m) {
        trace::SampleRecord r;
        r.machine = static_cast<std::uint32_t>(p * machines_per_part + m);
        r.iteration = it;
        r.t = t;
        r.boot_time = r.t - 500;
        r.uptime_s = 500;
        r.cpu_idle_s = 471.125;
        r.mem_load_pct = static_cast<int>((r.machine + it) % 100);
        r.disk_total_b = 74'500'000'000ULL;
        r.disk_free_b = 58'000'000'000ULL - it;
        store.Append(r);
        t += 1 + static_cast<std::int64_t>((p + m + it) % 4);
      }
      const auto probes = static_cast<std::uint32_t>(machines_per_part);
      store.AppendIteration({it, boundary, t, probes, probes});
    }
    trace::TraceBlock block;
    block.AssignFrom(store);
    streams[p].push_back(std::move(block));
  }
  return streams;
}

void BM_IncrementalMergeFront(benchmark::State& state) {
  // The pipelined merge stage's hot loop: per-iteration-front gather +
  // (t, machine) ordering + columnar append across all parts. Arg is the
  // part (lab) count: 11 is the paper campus, 88 its 8x scale-out. All
  // blocks are pre-buffered so the benchmark measures pure merge
  // throughput, not collection.
  constexpr std::size_t kMachinesPerPart = 15;
  const auto part_count = static_cast<std::size_t>(state.range(0));
  const auto parts =
      MergeBenchParts(part_count, kMachinesPerPart, /*iterations=*/96);
  const std::size_t machine_count = part_count * kMachinesPerPart;
  std::int64_t merged_samples = 0;
  for (auto _ : state) {
    trace::MergeFrontier frontier(parts.size(), machine_count,
                                  /*block_samples=*/8192);
    for (std::size_t p = 0; p < parts.size(); ++p) {
      for (const trace::TraceBlock& block : parts[p]) {
        frontier.AppendView(p, &block);
      }
      frontier.FinishPart(p);
    }
    std::uint64_t folded = 0;
    auto emit = [&](trace::TraceBlock& block) { folded += block.size(); };
    auto recycle = [](std::size_t, std::unique_ptr<trace::TraceBlock>) {};
    while (!frontier.finished()) {
      frontier.Advance(trace::MergeFrontier::EmitFn(emit),
                       trace::MergeFrontier::RecycleFn(recycle));
    }
    merged_samples = static_cast<std::int64_t>(folded);
    benchmark::DoNotOptimize(folded);
  }
  state.SetItemsProcessed(state.iterations() * merged_samples);
}
BENCHMARK(BM_IncrementalMergeFront)
    ->Arg(11)
    ->Arg(88)
    ->Unit(benchmark::kMillisecond);

void BM_RunningStats(benchmark::State& state) {
  util::Rng rng(3);
  std::vector<double> data(100000);
  for (auto& v : data) v = rng.Uniform();
  for (auto _ : state) {
    stats::RunningStats s;
    for (const double v : data) s.Add(v);
    benchmark::DoNotOptimize(s.variance());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_RunningStats);

void BM_BinaryTraceSerialize(benchmark::State& state) {
  core::ExperimentConfig config;
  config.campus.days = 2;
  const auto result = bench::RunExperiment(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace::SerializeTrace(result.trace));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(result.trace.size()));
}
BENCHMARK(BM_BinaryTraceSerialize)->Unit(benchmark::kMillisecond);

void BM_BinaryTraceDeserialize(benchmark::State& state) {
  core::ExperimentConfig config;
  config.campus.days = 2;
  const auto result = bench::RunExperiment(config);
  const std::string bytes = trace::SerializeTrace(result.trace);
  for (auto _ : state) {
    auto restored = trace::DeserializeTrace(bytes);
    benchmark::DoNotOptimize(restored);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_BinaryTraceDeserialize)->Unit(benchmark::kMillisecond);

void BM_Xoshiro(benchmark::State& state) {
  util::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.NextU64());
  }
}
BENCHMARK(BM_Xoshiro);

void BM_NBenchKernel(benchmark::State& state) {
  const auto id = static_cast<nbench::KernelId>(state.range(0));
  state.SetLabel(nbench::KernelName(id));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(nbench::RunKernelOnce(id, seed++));
  }
}
BENCHMARK(BM_NBenchKernel)->DenseRange(0, 9)->Unit(benchmark::kMicrosecond);

// The probe hot path (coordinator loop + executor + sink) with
// instrumentation opted out vs enabled: the acceptance bar is <5% overhead
// with a live registry, since per-machine instruments are resolved once per
// Run() and the loop itself only touches cached atomic counters.
class NullSink final : public ddc::SampleSink {
 public:
  ddc::SampleVerdict OnSample(const ddc::CollectedSample&) override {
    return ddc::SampleVerdict::kAccepted;
  }
};

winsim::Fleet MetricsBenchFleet() {
  std::vector<winsim::LabSpec> labs{
      {"L01", 16, "Pentium 4", 2.4, 512, 74.5, 30.5, 33.1}};
  util::Rng rng(7);
  winsim::Fleet fleet(labs, winsim::PriorLifeModel{}, rng);
  for (std::size_t i = 0; i < fleet.size(); ++i) fleet.machine(i).Boot(0);
  return fleet;
}

void RunCoordinatorIterations(benchmark::State& state, obs::Registry* registry) {
  auto fleet = MetricsBenchFleet();
  ddc::W32Probe probe;
  NullSink sink;
  ddc::CoordinatorConfig config;
  config.exec_policy.transient_failure_prob = 0.0;
  config.metrics = registry;
  ddc::Coordinator coordinator(fleet, probe, config, sink);
  util::SimTime t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(coordinator.Run(t, t + config.period));
    t += 8 * config.period;  // keep iteration starts strictly increasing
  }
}

void BM_CoordinatorIterationNullRegistry(benchmark::State& state) {
  RunCoordinatorIterations(state, nullptr);
}
BENCHMARK(BM_CoordinatorIterationNullRegistry)->Unit(benchmark::kMicrosecond);

void BM_CoordinatorIterationWithMetrics(benchmark::State& state) {
  obs::Registry registry;
  RunCoordinatorIterations(state, &registry);
}
BENCHMARK(BM_CoordinatorIterationWithMetrics)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
