// labbench — end-to-end benchmark of a labmon campaign, one process per run.
//
//   labbench run --workload W --seed N --seconds S --trace 0|1 --work-dir D
//                [--spill-dir D] [--spans-out F (required with --trace 1)]
//   labbench setup --workload W --seed N
//   labbench spill --seed N --spill-dir D
//   labbench reference --workload W --seed N
//
// `run` sets up, then times whole operations of one workload (config to
// rendered analyses, or one harvest run) for S seconds and, with --trace 1,
// repeats one operation as a serial composition of the public layer calls
// with every call timed from here. `setup` does only a run's set-up, so the
// set-up time can be sampled in more than one process. `spill` writes the
// replay workload's spill directory. `reference` recomputes the output
// hashes of a seed with the other engine. Every mode prints one JSON object
// as its last stdout line; labbench/run.py drives the modes and checks the
// hashes.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "labmon/analysis/aggregate.hpp"
#include "labmon/analysis/availability.hpp"
#include "labmon/analysis/capacity.hpp"
#include "labmon/analysis/equivalence.hpp"
#include "labmon/analysis/passes.hpp"
#include "labmon/analysis/per_lab.hpp"
#include "labmon/analysis/pipeline.hpp"
#include "labmon/analysis/session_hours.hpp"
#include "labmon/analysis/stability.hpp"
#include "labmon/analysis/stream_fold.hpp"
#include "labmon/analysis/weekly.hpp"
#include "labmon/core/experiment.hpp"
#include "labmon/core/report.hpp"
#include "labmon/core/streaming.hpp"
#include "labmon/ddc/coordinator.hpp"
#include "labmon/ddc/w32_probe.hpp"
#include "labmon/harvest/dag.hpp"
#include "labmon/harvest/dag_scheduler.hpp"
#include "labmon/trace/block.hpp"
#include "labmon/trace/derived_trace.hpp"
#include "labmon/trace/merge.hpp"
#include "labmon/trace/merge_frontier.hpp"
#include "labmon/trace/segment.hpp"
#include "labmon/trace/sink.hpp"
#include "labmon/trace/stream_merge.hpp"
#include "labmon/util/log.hpp"
#include "labmon/util/rng.hpp"
#include "labmon/winsim/paper_specs.hpp"
#include "labmon/workload/driver.hpp"
#include "labmon/workload/profile.hpp"
#include "../bench/bench_common.hpp"

namespace {

using namespace labmon;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ------------------------------------------------------------ workloads

// Every thread count is pinned here, so a changed engine default (e.g. a
// CPU-count-derived one) cannot silently change a workload. A pipelined
// run uses at most 2 shard workers + merge + fold threads.
constexpr int kShards = 2;
constexpr std::size_t kReportWorkers = 2;
constexpr std::size_t kMergeSortWorkers = 1;
constexpr std::size_t kRingCapacity = 64;
constexpr std::size_t kWindowIterations = 16;
constexpr int kBigScaleLabs = 8;
// Four weeks: covers the weekly cycle Table 2's response-rate band averages
// over, and keeps an operation near 2 s so a run holds enough operations
// for a steady median (a 77-day operation takes ~5 s).
constexpr int kBigDays = 28;
constexpr int kReportScaleLabs = 12;
constexpr int kReportDays = 1;
constexpr std::size_t kReportSeedCycle = 8;
constexpr std::uint64_t kReportSeedStream = 0x6c6162;  // report op seeds
constexpr int kHarvestDays = 77;
constexpr std::size_t kHarvestJobs = 200000;

enum class Workload { kCampaignSpill, kReplay, kReport, kHarvest };

std::optional<Workload> ParseWorkload(const std::string& name) {
  if (name == "campaign_spill_k8") return Workload::kCampaignSpill;
  if (name == "replay_k8") return Workload::kReplay;
  if (name == "report_k12_1d") return Workload::kReport;
  if (name == "harvest_bag_77d") return Workload::kHarvest;
  return std::nullopt;
}

core::ExperimentConfig CampaignConfig(std::uint64_t seed, int scale_labs,
                                      int days) {
  core::ExperimentConfig config;
  config.campus.seed = seed;
  config.campus.days = days;
  config.campus.scale_labs = scale_labs;
  config.shards = kShards;
  return config;
}

core::ExperimentConfig BigConfig(std::uint64_t seed) {
  return CampaignConfig(seed, kBigScaleLabs, kBigDays);
}

/// report_k12_1d runs one campaign per operation, cycling through
/// kReportSeedCycle seeds derived from the workload seed.
std::uint64_t ReportSeed(std::uint64_t seed, std::size_t op) {
  return util::DeriveSeed(seed, kReportSeedStream, op % kReportSeedCycle);
}

core::ExperimentConfig ReportConfig(std::uint64_t seed, std::size_t op) {
  return CampaignConfig(ReportSeed(seed, op), kReportScaleLabs, kReportDays);
}

core::StreamingOptions PipelineOptions(const std::string& spill_dir,
                                       bool resume) {
  core::StreamingOptions options;
  options.spill_dir = spill_dir;
  options.resume = resume;
  options.spill_codec = trace::SpillCodecId::kLmsg2;
  options.ring_capacity = kRingCapacity;
  options.window_iterations = kWindowIterations;
  options.merge_sort_workers = kMergeSortWorkers;
  return options;
}

harvest::JobMixOptions HarvestMix(std::uint64_t seed) {
  harvest::JobMixOptions mix;
  mix.kind = harvest::JobMixKind::kBagOfTasks;
  mix.jobs = kHarvestJobs;
  mix.seed = seed;
  return mix;
}

workload::CampusConfig HarvestCampus(std::uint64_t seed) {
  workload::CampusConfig campus;
  campus.seed = seed;
  campus.days = kHarvestDays;
  return campus;
}

// ----------------------------------------------------------- correctness

/// Table 2's response rate (samples / attempts), pinned at 50 +- 8 % by
/// ExperimentCalibrationTest for horizons of a week or more; a shorter
/// horizon does not cover the weekly cycle the band averages over.
void CheckResponseRate(const analysis::Table2Result& t2, int days,
                       std::vector<std::string>& failures) {
  const double pct = t2.both.uptime_pct;
  if (days >= 7 && !(std::abs(pct - 50.0) <= 8.0)) {
    failures.push_back("table2 response rate " + std::to_string(pct) +
                       "% outside 50 +- 8%");
  }
}

void CheckCollection(std::uint64_t crosscheck_mismatches,
                     std::uint64_t parse_failures,
                     std::vector<std::string>& failures) {
  if (crosscheck_mismatches != 0) {
    failures.push_back(std::to_string(crosscheck_mismatches) +
                       " crosscheck mismatches");
  }
  if (parse_failures != 0) {
    failures.push_back(std::to_string(parse_failures) + " parse failures");
  }
}

/// Free-only harvest equivalence against Figure 6's mean_free, +-20% (the
/// band tests/harvest/test_dag_chaos.cpp and harvest_gate pin).
void CheckHarvest(const harvest::DagResult& r, std::size_t fleet_size,
                  std::vector<std::string>& failures) {
  const bench::Fig6Comparison fig6 = bench::CompareWithFig6(
      r.effective_dedicated_machines, fleet_size, bench::kPaperEquivalenceFree);
  if (!(std::abs(fig6.relative_error) <= 0.2)) {
    failures.push_back("free-only equivalence " + std::to_string(fig6.ratio) +
                       " outside " + std::to_string(fig6.paper_ratio) +
                       " +- 20%");
  }
  if (r.jobs_failed != 0) {
    failures.push_back(std::to_string(r.jobs_failed) + " harvest jobs failed");
  }
}

// ----------------------------------------------------------- rendering

/// The eight analyses of a campaign as text, from the fold's (or the
/// passes') results — the same renderers fleet_report uses.
std::string RenderAnalyses(const analysis::StreamingAnalysisResult& a) {
  std::string out;
  out += analysis::RenderTable2(a.table2, true);
  out += analysis::RenderSessionHourProfile(a.session_hours);
  out += analysis::RenderUptimeRanking(a.availability.ranking, 10);
  out += analysis::RenderWeeklyProfiles(a.weekly);
  out += analysis::RenderEquivalence(a.equivalence);
  out += analysis::RenderStability(a.stability.sessions, a.stability.smart);
  out += analysis::RenderPerLabUsage(a.per_lab.usage);
  out += analysis::RenderResourceHeadroom(a.per_lab.headroom);
  out += analysis::RenderCapacity(a.capacity, {});
  return out;
}

// ------------------------------------------------------ untraced operations

struct OpOutcome {
  std::uint64_t hash = 0;
  double machine_days = 0.0;
  double wall_s = 0.0;
  std::vector<std::string> failures;
  core::PipelineStats pipeline;
};

OpOutcome FromStreamed(const core::StreamingExperimentResult& r) {
  OpOutcome out;
  out.hash = r.stream_hash;
  out.machine_days = static_cast<double>(r.perf_index.size()) * r.days;
  out.pipeline = r.pipeline;
  for (const std::string& e : r.errors) out.failures.push_back("error: " + e);
  CheckCollection(r.crosscheck_mismatches, r.parse_failures, out.failures);
  if (r.errors.empty()) {
    CheckResponseRate(r.analysis.table2, r.days, out.failures);
  }
  return out;
}

OpOutcome RunPipelined(const core::ExperimentConfig& config,
                       const core::StreamingOptions& options) {
  const auto t0 = Clock::now();
  const core::StreamingExperimentResult r =
      core::PipelinedExperiment::Run(config, options);
  const std::string text = RenderAnalyses(r.analysis);
  const double wall = SecondsSince(t0);
  OpOutcome out = FromStreamed(r);
  out.wall_s = wall;
  if (text.empty()) out.failures.push_back("empty rendered report");
  if (options.resume && r.labs_resumed != r.labs.size()) {
    out.failures.push_back("replay resumed " +
                           std::to_string(r.labs_resumed) + " of " +
                           std::to_string(r.labs.size()) + " labs");
  }
  return out;
}

OpOutcome RunReport(const core::ExperimentConfig& config) {
  const auto t0 = Clock::now();
  const core::ExperimentResult result = core::Experiment::Run(config);
  const core::Report report(result, core::ReportOptions{kReportWorkers});
  const std::string text = report.FullReport();
  OpOutcome out;
  out.wall_s = SecondsSince(t0);
  if (text.empty()) out.failures.push_back("empty rendered report");
  trace::StoreReader reader(result.trace);
  out.hash = trace::HashSampleStream(reader);
  out.machine_days =
      static_cast<double>(result.perf_index.size()) * result.days;
  CheckCollection(result.crosscheck_mismatches, result.parse_failures,
                  out.failures);
  CheckResponseRate(report.table2(), config.campus.days, out.failures);
  return out;
}

/// One harvest operation, from the configuration on, as a campaign
/// operation starts from its ExperimentConfig.
OpOutcome RunHarvest(std::uint64_t seed) {
  const workload::CampusConfig campus = HarvestCampus(seed);
  const auto t0 = Clock::now();
  util::Rng rng(campus.seed);
  winsim::Fleet fleet = winsim::MakePaperFleet(rng);
  workload::WorkloadDriver driver(fleet, campus);
  const harvest::JobDag dag = harvest::MakeJobMix(HarvestMix(seed));
  harvest::DagScheduler scheduler(fleet, driver, harvest::DagPolicy{});
  const harvest::DagResult r = scheduler.Run(dag, 0, campus.EndTime());
  OpOutcome out;
  out.wall_s = SecondsSince(t0);
  out.hash = r.ResultHash();
  out.machine_days = static_cast<double>(fleet.size()) * campus.days;
  CheckHarvest(r, fleet.size(), out.failures);
  return out;
}

// ------------------------------------------------------------- tracing

/// Layers of the traced run. A layer's self time is the time inside its
/// calls minus the time of the calls into other layers nested within.
enum Layer : int {
  kBuildFleet,
  kProfileBuild,
  kAdvance,
  kCoordinator,
  kProbe,
  kSink,
  kEncode,
  kDecode,
  kMerge,
  kDerive,
  kPipeline,
  kFold,
  kRender,
  kSchedule,
  kLayerCount
};

constexpr const char* kLayerNames[kLayerCount] = {
    "winsim.build_fleet", "workload.profile_build", "workload.advance",
    "ddc.coordinator",    "ddc.probe",              "trace.sink",
    "trace.encode",       "trace.decode",           "trace.merge",
    "trace.derive",       "analysis.pipeline",      "analysis.fold",
    "core.render",        "harvest.schedule"};

/// Per-sample layers: aggregated only. Every other layer call is also kept
/// as a span (written to spans.json at the end).
constexpr bool IsHotLayer(int layer) {
  return layer == kAdvance || layer == kProbe || layer == kSink;
}

class LayerClock {
 public:
  struct Span {
    int layer;
    std::int64_t start_ns;
    std::int64_t dur_ns;
    std::int64_t parent;  ///< index into spans, -1 for a root
  };

  class Scope {
   public:
    Scope(LayerClock& clock, Layer layer) : clock_(&clock) {
      clock.Enter(layer);
    }
    ~Scope() { clock_->Exit(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    LayerClock* clock_;
  };

  LayerClock() : origin_(Clock::now()) { stack_.reserve(16); }

  void Enter(Layer layer) {
    std::int64_t span = -1;
    const Clock::time_point now = Clock::now();
    if (!IsHotLayer(layer)) {
      span = static_cast<std::int64_t>(spans_.size());
      spans_.push_back(Span{layer, NsSinceOrigin(now), 0, open_span_});
      open_span_ = span;
    }
    stack_.push_back(Frame{layer, now, 0.0, span});
  }

  void Exit() {
    const Clock::time_point now = Clock::now();
    const Frame frame = stack_.back();
    stack_.pop_back();
    const double dt = std::chrono::duration<double>(now - frame.t0).count();
    self_s_[frame.layer] += dt - frame.child_s;
    if (!stack_.empty()) stack_.back().child_s += dt;
    if (frame.span >= 0) {
      Span& span = spans_[static_cast<std::size_t>(frame.span)];
      span.dur_ns = NsSinceOrigin(now) - span.start_ns;
      open_span_ = span.parent;
    }
  }

  /// Attributes time measured outside a scope (e.g. a separate pass).
  void AddSelf(Layer layer, double seconds) { self_s_[layer] += seconds; }

  [[nodiscard]] double self_s(int layer) const { return self_s_[layer]; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  struct Frame {
    int layer;
    Clock::time_point t0;
    double child_s;
    std::int64_t span;
  };

  std::int64_t NsSinceOrigin(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Frame> stack_;
  std::vector<Span> spans_;
  std::int64_t open_span_ = -1;
  double self_s_[kLayerCount] = {};
};

/// Times every probe execution as the ddc.probe layer.
class TimedProbe final : public ddc::Probe {
 public:
  TimedProbe(ddc::Probe& inner, LayerClock& clock)
      : inner_(&inner), clock_(&clock) {}
  [[nodiscard]] const char* name() const noexcept override {
    return inner_->name();
  }
  [[nodiscard]] std::string Execute(winsim::Machine& machine,
                                    util::SimTime t) override {
    const LayerClock::Scope scope(*clock_, kProbe);
    return inner_->Execute(machine, t);
  }
  [[nodiscard]] bool ExecuteInto(winsim::Machine& machine, util::SimTime t,
                                 ddc::W32Sample* out) override {
    const LayerClock::Scope scope(*clock_, kProbe);
    return inner_->ExecuteInto(machine, t, out);
  }

 private:
  ddc::Probe* inner_;
  LayerClock* clock_;
};

/// Times every post-collect call as the trace.sink layer.
class TimedSink final : public ddc::SampleSink {
 public:
  TimedSink(ddc::SampleSink& inner, LayerClock& clock)
      : inner_(&inner), clock_(&clock) {}
  ddc::SampleVerdict OnSample(const ddc::CollectedSample& sample) override {
    const LayerClock::Scope scope(*clock_, kSink);
    return inner_->OnSample(sample);
  }
  void OnIterationEnd(std::uint64_t iteration, util::SimTime start_time,
                      util::SimTime end_time) override {
    const LayerClock::Scope scope(*clock_, kSink);
    inner_->OnIterationEnd(iteration, start_time, end_time);
  }

 private:
  ddc::SampleSink* inner_;
  LayerClock* clock_;
};

/// Times SegmentReader::Next (block decode) as the trace.decode layer.
class TimedReader final : public trace::TraceReader {
 public:
  TimedReader(trace::SegmentReader inner, LayerClock& clock)
      : inner_(std::move(inner)), clock_(&clock) {}
  const trace::TraceBlock* Next() override {
    const LayerClock::Scope scope(*clock_, kDecode);
    return inner_.Next();
  }
  void Reset() override { inner_.Reset(); }
  [[nodiscard]] const trace::SegmentReader& inner() const { return inner_; }

 private:
  trace::SegmentReader inner_;
  LayerClock* clock_;
};

/// Everything the traced run reports besides the layer self times.
struct TracedOutcome {
  std::uint64_t hash = 0;
  double wall_s = 0.0;
  std::vector<std::string> failures;
  ddc::RunStats stats;
  std::uint64_t events = 0;
  std::uint64_t crosschecks = 0;
  std::uint64_t crosscheck_mismatches = 0;
  std::uint64_t samples = 0;  ///< samples merged / folded
  trace::SpillCodecStats encode;
  trace::SpillCodecStats decode;
  std::uint64_t spill_bytes = 0;
  std::size_t merge_lag_peak_blocks = 0;
  harvest::DagResult harvest;
};

void AddStats(ddc::RunStats& into, const ddc::RunStats& s) {
  into.attempts += s.attempts;
  into.successes += s.successes;
  into.retry_attempts += s.retry_attempts;
}

void AddCodec(trace::SpillCodecStats& into, const trace::SpillCodecStats& s) {
  into.blocks += s.blocks;
  into.samples += s.samples;
  into.raw_bytes += s.raw_bytes;
  into.payload_bytes += s.payload_bytes;
  into.ns += s.ns;
}

/// The collector configuration each engine gives one lab.
ddc::CoordinatorConfig LabCollector(const core::ExperimentConfig& config,
                                    const winsim::LabInfo& info,
                                    std::size_t lab) {
  ddc::CoordinatorConfig collector = config.collector;
  collector.structured_fast_path = config.structured_fast_path;
  collector.first_machine = info.first;
  collector.machine_count = info.count;
  collector.aligned_schedule = true;
  collector.seed = util::DeriveSeed(config.collector.seed,
                                    util::seed_stream::kCollector, lab);
  return collector;
}

/// Fold inputs as the streaming engines derive them from the fleet; the
/// traced report reuses its perf index and lab keys for the passes.
analysis::StreamingAnalysisConfig FoldConfig(const winsim::Fleet& fleet,
                                             int days) {
  analysis::StreamingAnalysisConfig fold;
  fold.machine_count = fleet.size();
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    fold.perf_index.push_back(fleet.machine(i).spec().CombinedIndex());
  }
  for (const winsim::LabInfo& lab : fleet.labs()) {
    fold.labs.push_back(analysis::LabKey{lab.name, lab.first, lab.count});
  }
  fold.experiment_days = days;
  return fold;
}

/// Spill file of one lab, as both streaming engines name it.
std::string SegmentPath(const std::string& dir, std::size_t lab) {
  char name[32];
  std::snprintf(name, sizeof(name), "lab%04zu.lmsg", lab);
  return dir + "/" + name;
}

/// Seals the lab's working store into owned blocks for the merge frontier
/// and appends each block to the lab's segment — the pipelined engine's
/// collection sink, driven serially.
class SealingSink final : public ddc::SampleSink {
 public:
  SealingSink(trace::TraceStore& store, trace::SegmentWriter& writer,
              trace::MergeFrontier& frontier,
              std::vector<std::unique_ptr<trace::TraceBlock>>& pool,
              std::size_t lab, LayerClock& clock)
      : inner_(store),
        store_(&store),
        writer_(&writer),
        frontier_(&frontier),
        pool_(&pool),
        lab_(lab),
        clock_(&clock) {}

  ddc::SampleVerdict OnSample(const ddc::CollectedSample& sample) override {
    return inner_.OnSample(sample);
  }
  void OnIterationEnd(std::uint64_t iteration, util::SimTime start_time,
                      util::SimTime end_time) override {
    inner_.OnIterationEnd(iteration, start_time, end_time);
    if (store_->size() >= trace::kDefaultBlockSamples) Seal();
  }
  void SealPending() {
    if (store_->size() > 0 || !store_->iterations().empty()) Seal();
  }
  [[nodiscard]] const trace::TraceStoreSink& inner() const { return inner_; }
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  void Seal() {
    {
      const LayerClock::Scope scope(*clock_, kEncode);
      if (auto appended = writer_->Append(*store_);
          !appended.ok() && error_.empty()) {
        error_ = appended.error();
      }
    }
    std::unique_ptr<trace::TraceBlock> block;
    if (!pool_->empty()) {
      block = std::move(pool_->back());
      pool_->pop_back();
    } else {
      block = std::make_unique<trace::TraceBlock>();
    }
    block->AssignFrom(*store_);
    frontier_->Append(lab_, std::move(block));
    store_->ClearSamples();
  }

  trace::TraceStoreSink inner_;
  trace::TraceStore* store_;
  trace::SegmentWriter* writer_;
  trace::MergeFrontier* frontier_;
  std::vector<std::unique_ptr<trace::TraceBlock>>* pool_;
  std::size_t lab_;
  LayerClock* clock_;
  std::string error_;
};

/// One lab of the traced pipelined campaign. Heap-allocated and never
/// moved: the coordinator holds references to its members.
struct TracedLab {
  TracedLab(winsim::Fleet& fleet, const core::ExperimentConfig& config,
            const workload::CampusProfile& profile, std::size_t lab,
            trace::SegmentWriter segment, trace::MergeFrontier& frontier,
            std::vector<std::unique_ptr<trace::TraceBlock>>& pool,
            LayerClock& clock)
      : driver(fleet, config.campus, profile, lab, lab + 1),
        store(fleet.size()),
        writer(std::move(segment)),
        sealer(store, writer, frontier, pool, lab, clock),
        sink(sealer, clock),
        probe(w32, clock),
        advance{&driver, &clock},
        coordinator(fleet, probe,
                    LabCollector(config, fleet.labs()[lab], lab), sink,
                    ddc::Coordinator::AdvanceFn(advance)) {}

  struct Advance {
    workload::WorkloadDriver* driver;
    LayerClock* clock;
    void operator()(util::SimTime t) const {
      const LayerClock::Scope scope(*clock, kAdvance);
      driver->AdvanceTo(t);
    }
  };

  workload::WorkloadDriver driver;
  trace::TraceStore store;
  trace::SegmentWriter writer;
  SealingSink sealer;
  TimedSink sink;
  ddc::W32Probe w32;
  TimedProbe probe;
  Advance advance;
  ddc::Coordinator coordinator;
};

struct FleetAndProfile {
  winsim::Fleet fleet;
  workload::CampusProfile profile;
};

FleetAndProfile BuildFleet(const core::ExperimentConfig& config,
                           LayerClock& clock) {
  util::Rng rng(config.campus.seed);
  winsim::Fleet fleet = [&] {
    const LayerClock::Scope scope(clock, kBuildFleet);
    return winsim::MakePaperFleet(rng, config.prior_life,
                                  config.campus.scale_labs);
  }();
  workload::CampusProfile profile = [&] {
    const LayerClock::Scope scope(clock, kProfileBuild);
    return workload::CampusProfile::Build(fleet, config.campus);
  }();
  return FleetAndProfile{std::move(fleet), std::move(profile)};
}

/// Folds one merged block: stream hash plus the incremental analyses.
struct FoldStage {
  analysis::StreamingAnalysis fold;
  std::uint64_t hash = trace::kSampleStreamHashSeed;
  LayerClock* clock;

  void Accept(const trace::TraceBlock& block) {
    const LayerClock::Scope scope(*clock, kFold);
    hash = trace::HashBlockSamples(hash, block);
    fold.Accept(block);
  }

  void FinishAndRender(std::vector<trace::IterationInfo> iterations,
                       std::size_t machine_count, int days,
                       TracedOutcome& out) {
    trace::TraceStore summary(machine_count);
    for (const trace::IterationInfo& info : iterations) {
      summary.AppendIteration(info);
    }
    analysis::StreamingAnalysisResult result;
    {
      const LayerClock::Scope scope(*clock, kFold);
      result = fold.Finish(summary);
    }
    const LayerClock::Scope scope(*clock, kRender);
    const std::string text = RenderAnalyses(result);
    if (text.empty()) out.failures.push_back("empty rendered report");
    out.hash = hash;
    out.samples = fold.samples();
    CheckResponseRate(result.table2, days, out.failures);
  }
};

/// campaign_spill_k8 traced: the pipelined engine's calls in its order —
/// lockstep windows over every lab, seal + spill per window, frontier
/// merge, fold, render — on one thread.
void TracedCampaign(const core::ExperimentConfig& config,
                    const std::string& spill_dir, LayerClock& clock,
                    TracedOutcome& out) {
  std::filesystem::create_directories(spill_dir);
  FleetAndProfile fp = BuildFleet(config, clock);
  winsim::Fleet& fleet = fp.fleet;
  const std::size_t lab_count = fleet.lab_count();
  const util::SimTime horizon = config.campus.EndTime();

  FoldStage fold{analysis::StreamingAnalysis(
                     FoldConfig(fleet, config.campus.days)),
                 trace::kSampleStreamHashSeed, &clock};
  trace::MergeFrontier frontier(lab_count, fleet.size(),
                                trace::kDefaultBlockSamples);
  std::vector<std::unique_ptr<trace::TraceBlock>> pool;
  const auto emit = [&](trace::TraceBlock& block) { fold.Accept(block); };
  const auto recycle = [&](std::size_t,
                           std::unique_ptr<trace::TraceBlock> block) {
    block->Clear();
    pool.push_back(std::move(block));
  };
  const auto advance_merge = [&] {
    const LayerClock::Scope scope(clock, kMerge);
    frontier.Advance(emit, recycle, 1);
    out.merge_lag_peak_blocks =
        std::max(out.merge_lag_peak_blocks, frontier.buffered_blocks());
  };

  std::vector<std::unique_ptr<TracedLab>> labs(lab_count);
  for (std::size_t lab = 0; lab < lab_count; ++lab) {
    auto opened = [&] {
      const LayerClock::Scope scope(clock, kEncode);
      return trace::SegmentWriter::Open(SegmentPath(spill_dir, lab),
                                        fleet.size(),
                                        trace::SpillCodecId::kLmsg2);
    }();
    if (!opened.ok()) {
      out.failures.push_back(opened.error());
      return;
    }
    labs[lab] = std::make_unique<TracedLab>(fleet, config, fp.profile, lab,
                                            std::move(opened).value(),
                                            frontier, pool, clock);
    const LayerClock::Scope scope(clock, kCoordinator);
    labs[lab]->coordinator.Begin(0);
  }

  const util::SimTime window_span =
      static_cast<util::SimTime>(kWindowIterations) * config.collector.period;
  for (util::SimTime window = 0; window < horizon; window += window_span) {
    const util::SimTime until = std::min(horizon, window + window_span);
    for (const auto& lab : labs) {
      {
        const LayerClock::Scope scope(clock, kCoordinator);
        lab->coordinator.StepUntil(until);
      }
      const LayerClock::Scope scope(clock, kSink);
      lab->sealer.SealPending();
    }
    advance_merge();
  }
  for (std::size_t lab = 0; lab < lab_count; ++lab) {
    TracedLab& run = *labs[lab];
    {
      const LayerClock::Scope scope(clock, kCoordinator);
      AddStats(out.stats, run.coordinator.Finish());
    }
    {
      const LayerClock::Scope scope(clock, kAdvance);
      run.driver.FinishAt(horizon);
    }
    {
      const LayerClock::Scope scope(clock, kSink);
      run.sealer.SealPending();
    }
    {
      const LayerClock::Scope scope(clock, kEncode);
      if (auto finished = run.writer.Finish(); !finished.ok()) {
        out.failures.push_back(finished.error());
      }
    }
    if (!run.sealer.error().empty()) out.failures.push_back(run.sealer.error());
    out.events += run.driver.dispatched_events();
    out.crosschecks += run.sealer.inner().crosschecks();
    out.crosscheck_mismatches += run.sealer.inner().crosscheck_mismatches();
    CheckCollection(0, run.sealer.inner().parse_failures(), out.failures);
    AddCodec(out.encode, run.writer.codec_stats());
    out.spill_bytes += run.writer.bytes_written();
    frontier.FinishPart(lab);
  }
  advance_merge();
  if (!frontier.finished()) {
    out.failures.push_back("traced merge ended with incomplete streams");
    return;
  }
  labs.clear();
  fold.FinishAndRender(frontier.TakeIterations(), fleet.size(),
                       config.campus.days, out);
}

/// replay_k8 traced: decode every lab's segment and merge-fold the stream
/// (StreamMergeBlocks over the segment readers), then render.
void TracedReplay(const core::ExperimentConfig& config,
                  const std::string& spill_dir, LayerClock& clock,
                  TracedOutcome& out) {
  FleetAndProfile fp = BuildFleet(config, clock);
  const winsim::Fleet& fleet = fp.fleet;
  FoldStage fold{analysis::StreamingAnalysis(
                     FoldConfig(fleet, config.campus.days)),
                 trace::kSampleStreamHashSeed, &clock};
  std::vector<std::unique_ptr<TimedReader>> readers;
  std::vector<trace::TraceReader*> parts;
  for (std::size_t lab = 0; lab < fleet.lab_count(); ++lab) {
    auto opened = [&] {
      const LayerClock::Scope scope(clock, kDecode);
      return trace::SegmentReader::Open(SegmentPath(spill_dir, lab));
    }();
    if (!opened.ok()) {
      out.failures.push_back(opened.error());
      return;
    }
    out.spill_bytes += std::filesystem::file_size(SegmentPath(spill_dir, lab));
    readers.push_back(
        std::make_unique<TimedReader>(std::move(opened).value(), clock));
    parts.push_back(readers.back().get());
  }
  trace::StreamMergeResult merged;
  {
    const LayerClock::Scope scope(clock, kMerge);
    merged = trace::StreamMergeBlocks(
        parts, fleet.size(), trace::kDefaultBlockSamples,
        [&](const trace::TraceBlock& block) { fold.Accept(block); });
  }
  for (const auto& reader : readers) {
    if (reader->inner().failed()) {
      out.failures.push_back(reader->inner().error());
    }
    AddCodec(out.decode, reader->inner().codec_stats());
  }
  fold.FinishAndRender(std::move(merged.iterations), fleet.size(),
                       config.campus.days, out);
}

/// report_k12_1d traced: Experiment::Run's per-lab collection and
/// MergeTraces, then the Report's derivation, analysis sweep and render.
void TracedReport(const core::ExperimentConfig& config, LayerClock& clock,
                  TracedOutcome& out) {
  FleetAndProfile fp = BuildFleet(config, clock);
  winsim::Fleet& fleet = fp.fleet;
  const util::SimTime horizon = config.campus.EndTime();
  const std::size_t lab_count = fleet.lab_count();
  std::vector<trace::TraceStore> lab_traces(lab_count);
  for (std::size_t lab = 0; lab < lab_count; ++lab) {
    const winsim::LabInfo& info = fleet.labs()[lab];
    workload::WorkloadDriver driver(fleet, config.campus, fp.profile, lab,
                                    lab + 1);
    trace::TraceStore& store = lab_traces[lab];
    store.set_machine_count(fleet.size());
    store.Reserve(static_cast<std::size_t>(config.campus.days) * 96 *
                  info.count / 2);
    trace::TraceStoreSink store_sink(store);
    TimedSink sink(store_sink, clock);
    ddc::W32Probe w32;
    TimedProbe probe(w32, clock);
    auto advance = [&](util::SimTime t) {
      const LayerClock::Scope scope(clock, kAdvance);
      driver.AdvanceTo(t);
    };
    ddc::Coordinator coordinator(fleet, probe,
                                 LabCollector(config, info, lab), sink,
                                 advance);
    {
      const LayerClock::Scope scope(clock, kCoordinator);
      AddStats(out.stats, coordinator.Run(0, horizon));
    }
    {
      const LayerClock::Scope scope(clock, kAdvance);
      driver.FinishAt(horizon);
    }
    out.events += driver.dispatched_events();
    out.crosschecks += store_sink.crosschecks();
    out.crosscheck_mismatches += store_sink.crosscheck_mismatches();
    CheckCollection(0, store_sink.parse_failures(), out.failures);
  }
  trace::TraceStore merged = [&] {
    const LayerClock::Scope scope(clock, kMerge);
    return trace::MergeTraces(lab_traces);
  }();
  lab_traces.clear();
  {
    trace::StoreReader reader(merged);
    out.hash = trace::HashSampleStream(reader);
    out.samples = merged.size();
  }

  const trace::DerivedTrace derived = [&] {
    const LayerClock::Scope scope(clock, kDerive);
    return trace::DerivedTrace(
        merged, trace::DerivedTraceOptions{{}, kReportWorkers, nullptr});
  }();
  analysis::StreamingAnalysisResult a;
  {
    const LayerClock::Scope scope(clock, kPipeline);
    analysis::StreamingAnalysisConfig inputs =
        FoldConfig(fleet, config.campus.days);
    // The passes core::Report runs, with its parameters.
    analysis::AnalysisPipeline pipeline(
        analysis::PipelineOptions{kReportWorkers, 8, nullptr});
    auto& table2 = pipeline.Emplace<analysis::AggregatePass>();
    auto& availability = pipeline.Emplace<analysis::AvailabilityPass>();
    auto& session_hours = pipeline.Emplace<analysis::SessionHoursPass>();
    auto& weekly = pipeline.Emplace<analysis::WeeklyPass>();
    auto& equivalence = pipeline.Emplace<analysis::EquivalencePass>(
        inputs.perf_index, 15, trace::kNoForgottenThreshold);
    auto& stability =
        pipeline.Emplace<analysis::StabilityPass>(config.campus.days);
    auto& per_lab =
        pipeline.Emplace<analysis::PerLabPass>(std::move(inputs.labs));
    auto& capacity = pipeline.Emplace<analysis::CapacityPass>();
    (void)pipeline.Run(derived);
    a.table2 = table2.result();
    a.availability = availability.result();
    a.session_hours = session_hours.result();
    a.weekly = weekly.result();
    a.equivalence = equivalence.result();
    a.stability = stability.result();
    a.per_lab = per_lab.result();
    a.capacity = capacity.result();
  }
  const LayerClock::Scope scope(clock, kRender);
  if (RenderAnalyses(a).empty()) out.failures.push_back("empty report");
  CheckResponseRate(a.table2, config.campus.days, out.failures);
}

/// harvest_bag_77d traced: the campus build, then DagScheduler::Run. The
/// scheduler advances the behaviour driver internally, so a driver-only
/// pass over the same horizon and scheduler step (untimed by the traced
/// wall) gives workload.advance and the rest of Run is harvest.schedule.
void TracedHarvest(std::uint64_t seed, LayerClock& clock, TracedOutcome& out) {
  const workload::CampusConfig campus = HarvestCampus(seed);
  const harvest::DagPolicy policy;
  double advance_s = 0.0;
  {
    util::Rng rng(campus.seed);
    winsim::Fleet fleet = winsim::MakePaperFleet(rng);
    workload::WorkloadDriver driver(fleet, campus);
    const auto t0 = Clock::now();
    for (util::SimTime t = 0; t < campus.EndTime();
         t += policy.grid.scheduler_step_s) {
      driver.AdvanceTo(t);
    }
    driver.AdvanceTo(campus.EndTime());
    advance_s = SecondsSince(t0);
    out.events = driver.dispatched_events();
  }

  const auto t0 = Clock::now();
  util::Rng rng(campus.seed);
  winsim::Fleet fleet = [&] {
    const LayerClock::Scope scope(clock, kBuildFleet);
    return winsim::MakePaperFleet(rng);
  }();
  std::optional<workload::WorkloadDriver> driver;
  {
    const LayerClock::Scope scope(clock, kProfileBuild);
    driver.emplace(fleet, campus);
  }
  const harvest::JobDag dag = harvest::MakeJobMix(HarvestMix(seed));
  harvest::DagScheduler scheduler(fleet, *driver, policy);
  {
    const LayerClock::Scope scope(clock, kSchedule);
    out.harvest = scheduler.Run(dag, 0, campus.EndTime());
  }
  out.wall_s = SecondsSince(t0);
  clock.AddSelf(kSchedule, -advance_s);
  clock.AddSelf(kAdvance, advance_s);
  out.hash = out.harvest.ResultHash();
  CheckHarvest(out.harvest, fleet.size(), out.failures);
}

// ------------------------------------------------------------------ JSON

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string HexHash(std::uint64_t h) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// Flat JSON object writer.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double v) {
    return Raw(key, JsonNumber(v));
  }
  JsonObject& Str(const std::string& key, const std::string& v) {
    return Raw(key, JsonString(v));
  }
  JsonObject& Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + JsonString(key) + ": " + json;
    return *this;
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string JsonArray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i ? ", " : "") + items[i];
  }
  return out + "]";
}

// ----------------------------------------------------------- process info

double UnixNow() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------------ modes

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 0;
  bool have_seed = false;
  double seconds = 0.0;
  int trace = 0;
  std::string work_dir;
  std::string spill_dir;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args& args, std::string& error) {
  if (argc < 2) {
    error = "usage: labbench run|setup|spill|reference [options]";
    return false;
  }
  args.mode = argv[1];
  for (int i = 2; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      error = flag + " needs a value";
      return false;
    }
    const std::string value = argv[i + 1];
    try {
      std::size_t used = 0;
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value, &used);
        args.have_seed = used == value.size();
        if (!args.have_seed) throw std::invalid_argument(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value, &used);
        if (used != value.size() || !(args.seconds > 0.0)) {
          throw std::invalid_argument(value);
        }
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") throw std::invalid_argument(value);
        args.trace = value == "1";
      } else if (flag == "--work-dir") {
        args.work_dir = value;
      } else if (flag == "--spill-dir") {
        args.spill_dir = value;
      } else if (flag == "--spans-out") {
        args.spans_out = value;
      } else {
        error = "unknown flag " + flag;
        return false;
      }
    } catch (const std::exception&) {
      error = "bad value for " + flag + ": " + value;
      return false;
    }
  }
  if (!args.have_seed) {
    error = "--seed is required";
    return false;
  }
  return true;
}

std::string FailuresJson(const std::vector<std::string>& failures) {
  std::vector<std::string> items;
  for (const std::string& f : failures) items.push_back(JsonString(f));
  return JsonArray(items);
}

/// `spill`: writes the replay workload's spill directory (segments and
/// checkpoint sidecars) with the campaign_spill_k8 engine settings.
int ModeSpill(const Args& args) {
  if (args.spill_dir.empty()) {
    std::cerr << "spill needs --spill-dir\n";
    return 2;
  }
  const auto t0 = Clock::now();
  const OpOutcome op =
      RunPipelined(BigConfig(args.seed), PipelineOptions(args.spill_dir, false));
  std::cout << JsonObject()
                   .Str("hash", HexHash(op.hash))
                   .Num("wall_s", SecondsSince(t0))
                   .Raw("failures", FailuresJson(op.failures))
                   .str()
            << std::endl;
  return op.failures.empty() ? 0 : 1;
}

/// `reference`: the output hashes of a seed computed by the other engine
/// (materialised for the pipelined workloads, pipelined for the
/// materialised one). The harvest scheduler has a single engine, so its
/// reference is an independent rerun.
int ModeReference(const Args& args, Workload workload) {
  std::vector<std::string> hashes;
  std::vector<std::string> failures;
  switch (workload) {
    case Workload::kCampaignSpill:
    case Workload::kReplay: {
      const core::ExperimentResult r = core::Experiment::Run(BigConfig(args.seed));
      trace::StoreReader reader(r.trace);
      hashes.push_back(JsonString(HexHash(trace::HashSampleStream(reader))));
      break;
    }
    case Workload::kReport:
      for (std::size_t i = 0; i < kReportSeedCycle; ++i) {
        const OpOutcome op =
            RunPipelined(ReportConfig(args.seed, i), PipelineOptions("", false));
        for (const std::string& f : op.failures) failures.push_back(f);
        hashes.push_back(JsonString(HexHash(op.hash)));
      }
      break;
    case Workload::kHarvest: {
      const OpOutcome op = RunHarvest(args.seed);
      hashes.push_back(JsonString(HexHash(op.hash)));
      break;
    }
  }
  std::cout << JsonObject()
                   .Raw("hashes", JsonArray(hashes))
                   .Raw("failures", FailuresJson(failures))
                   .str()
            << std::endl;
  return 0;
}

/// `setup`: a run's set-up and nothing else; reports when it was done.
/// Every operation starts from its configuration (the engines build the
/// fleet inside Run), so a run's set-up is process start and argument
/// checking, with no warm-up.
int ModeSetup(double main_entry_unix) {
  std::cout << JsonObject()
                   .Num("main_entry_unix", main_entry_unix)
                   .Num("ready_unix", UnixNow())
                   .str()
            << std::endl;
  return 0;
}

/// Writes the traced run's spans as a Chrome trace (ts/dur in us).
void WriteSpans(const LayerClock& clock, const std::string& path) {
  std::ofstream spans(path);
  spans << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < clock.spans().size(); ++i) {
    const LayerClock::Span& s = clock.spans()[i];
    spans << (i ? ",\n" : "") << "{\"name\": \"" << kLayerNames[s.layer]
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
          << s.start_ns / 1000.0 << ", \"dur\": " << s.dur_ns / 1000.0
          << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
          << "}}";
  }
  spans << "]}\n";
}

/// The traced run: one more operation, composed serially from the layer
/// calls and timed from outside, added to `out` as per-layer metrics.
void AddTracedRun(const Args& args, Workload workload,
                  const std::vector<OpOutcome>& ops, JsonObject& out) {
  std::vector<double> walls, push_wait, pop_wait, serial, merge_lag;
  for (const OpOutcome& op : ops) {
    walls.push_back(op.wall_s);
    push_wait.push_back(op.pipeline.ring_push_wait_s);
    pop_wait.push_back(op.pipeline.ring_pop_wait_s);
    serial.push_back(op.pipeline.serial_fraction);
    merge_lag.push_back(static_cast<double>(op.pipeline.merge_lag_peak_blocks));
  }
  const double untraced_median = Median(walls);
  LayerClock clock;
  TracedOutcome traced;
  const auto t0 = Clock::now();
  const std::string traced_spill = args.work_dir + "/traced";
  switch (workload) {
    case Workload::kCampaignSpill:
      TracedCampaign(BigConfig(args.seed), traced_spill, clock, traced);
      break;
    case Workload::kReplay:
      TracedReplay(BigConfig(args.seed), args.spill_dir, clock, traced);
      break;
    case Workload::kReport:
      TracedReport(ReportConfig(args.seed, 0), clock, traced);
      break;
    case Workload::kHarvest:
      TracedHarvest(args.seed, clock, traced);
      break;
  }
  // The harvest wall excludes the driver-only pass, as the untraced
  // operation does.
  const double wall =
      workload == Workload::kHarvest ? traced.wall_s : SecondsSince(t0);
  std::filesystem::remove_all(traced_spill);
  if (traced.hash != ops.front().hash) {
    traced.failures.push_back("traced hash " + HexHash(traced.hash) +
                              " != untraced " + HexHash(ops.front().hash));
  }

  double self_sum = 0.0;
  for (int l = 0; l < kLayerCount; ++l) self_sum += clock.self_s(l);
  const auto per = [](double total_s, double count) {
    return count > 0.0 ? total_s * 1e9 / count : 0.0;
  };
  const double attempts = static_cast<double>(traced.stats.attempts);
  const double events = static_cast<double>(traced.events);
  const trace::SpillCodecStats& codec =
      traced.encode.samples ? traced.encode : traced.decode;
  const harvest::DagResult& h = traced.harvest;
  JsonObject layers;
  layers.Num("winsim.build_fleet_s", clock.self_s(kBuildFleet))
      .Num("workload.profile_build_s", clock.self_s(kProfileBuild))
      .Num("workload.advance_s", clock.self_s(kAdvance))
      .Num("workload.events", events)
      .Num("workload.ns_per_event", per(clock.self_s(kAdvance), events))
      .Num("ddc.coordinator_self_s", clock.self_s(kCoordinator))
      .Num("ddc.probe_s", clock.self_s(kProbe))
      .Num("ddc.attempts", attempts)
      .Num("ddc.successes", static_cast<double>(traced.stats.successes))
      .Num("ddc.retry_attempts",
           static_cast<double>(traced.stats.retry_attempts))
      .Num("ddc.ns_per_attempt",
           per(clock.self_s(kCoordinator) + clock.self_s(kProbe), attempts))
      .Num("ddc.response_rate", traced.stats.ResponseRate())
      .Num("trace.sink_s", clock.self_s(kSink))
      .Num("trace.crosschecks", static_cast<double>(traced.crosschecks))
      .Num("trace.crosscheck_mismatches",
           static_cast<double>(traced.crosscheck_mismatches))
      .Num("trace.encode_s", clock.self_s(kEncode))
      .Num("trace.encode_ns_per_sample",
           per(clock.self_s(kEncode),
               static_cast<double>(traced.encode.samples)))
      .Num("trace.decode_s", clock.self_s(kDecode))
      .Num("trace.decode_ns_per_sample",
           per(clock.self_s(kDecode),
               static_cast<double>(traced.decode.samples)))
      .Num("trace.spill_bytes", static_cast<double>(traced.spill_bytes))
      .Num("trace.compression_ratio",
           codec.payload_bytes ? static_cast<double>(codec.raw_bytes) /
                                     static_cast<double>(codec.payload_bytes)
                               : 0.0)
      .Num("trace.merge_s", clock.self_s(kMerge))
      .Num("trace.derive_s", clock.self_s(kDerive))
      .Num("analysis.pipeline_s", clock.self_s(kPipeline))
      .Num("analysis.fold_s", clock.self_s(kFold))
      .Num("analysis.fold_ns_per_sample",
           per(clock.self_s(kFold), static_cast<double>(traced.samples)))
      .Num("core.render_s", clock.self_s(kRender))
      .Num("core.merge_lag_peak_blocks", Median(merge_lag))
      .Num("core.ring_push_wait_s", Median(push_wait))
      .Num("core.ring_pop_wait_s", Median(pop_wait))
      .Num("core.serial_fraction", Median(serial))
      .Num("harvest.schedule_s", clock.self_s(kSchedule))
      .Num("harvest.evictions",
           static_cast<double>(h.evictions_login + h.evictions_poweroff +
                               h.evictions_chaos))
      .Num("harvest.checkpoints", static_cast<double>(h.checkpoints_written))
      .Num("harvest.waste_ratio", h.WasteFraction())
      .Num("core.traced_wall_s", wall)
      .Num("core.untraced_median_s", untraced_median)
      .Num("core.residual_s", wall - self_sum)
      .Num("core.tracing_overhead", wall / untraced_median - 1.0);
  out.Raw("layers", layers.str())
      .Str("traced_hash", HexHash(traced.hash))
      .Raw("traced_failures", FailuresJson(traced.failures))
      .Num("spans", static_cast<double>(clock.spans().size()));
  // Spans stay in memory during the run and are written out here.
  WriteSpans(clock, args.spans_out);
}

int ModeRun(const Args& args, Workload workload, double main_entry_unix) {
  if (args.seconds <= 0.0 || args.work_dir.empty()) {
    std::cerr << "run needs --seconds and --work-dir\n";
    return 2;
  }
  if (workload == Workload::kReplay && args.spill_dir.empty()) {
    std::cerr << "replay_k8 needs --spill-dir\n";
    return 2;
  }
  if (args.trace && args.spans_out.empty()) {
    std::cerr << "run --trace 1 needs --spans-out\n";
    return 2;
  }
  const double ready_unix = UnixNow();

  std::vector<OpOutcome> ops;
  const auto loop_t0 = Clock::now();
  while (ops.empty() || SecondsSince(loop_t0) < args.seconds) {
    const std::size_t index = ops.size();
    switch (workload) {
      case Workload::kCampaignSpill: {
        const std::string dir = args.work_dir + "/op" + std::to_string(index);
        ops.push_back(
            RunPipelined(BigConfig(args.seed), PipelineOptions(dir, false)));
        std::filesystem::remove_all(dir);
        break;
      }
      case Workload::kReplay:
        ops.push_back(RunPipelined(BigConfig(args.seed),
                                   PipelineOptions(args.spill_dir, true)));
        break;
      case Workload::kReport:
        ops.push_back(RunReport(ReportConfig(args.seed, index)));
        break;
      case Workload::kHarvest:
        ops.push_back(RunHarvest(args.seed));
        break;
    }
  }
  const std::uint64_t peak_rss = bench::PeakRssBytes();

  std::vector<std::string> walls;
  std::vector<std::string> hashes;
  std::vector<std::string> op_failures;
  double machine_days = 0.0;
  for (const OpOutcome& op : ops) {
    walls.push_back(JsonNumber(op.wall_s));
    hashes.push_back(JsonString(HexHash(op.hash)));
    op_failures.push_back(FailuresJson(op.failures));
    machine_days += op.machine_days;
  }

  JsonObject out;
  out.Str("workload", args.workload)
      .Num("main_entry_unix", main_entry_unix)
      .Num("ready_unix", ready_unix)
      .Raw("op_wall_s", JsonArray(walls))
      .Raw("op_hashes", JsonArray(hashes))
      .Raw("op_failures", JsonArray(op_failures))
      .Num("machine_days", machine_days)
      .Num("peak_rss_bytes", static_cast<double>(peak_rss))
      .Num("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)))
      .Num("hardware_concurrency",
           static_cast<double>(std::thread::hardware_concurrency()))
      .Raw("threads", JsonObject()
                          .Num("shards", kShards)
                          .Num("report_workers", kReportWorkers)
                          .Num("merge_sort_workers", kMergeSortWorkers)
                          .str());

  if (args.trace) AddTracedRun(args, workload, ops, out);
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const double main_entry_unix = UnixNow();
  util::log::SetLevel(util::log::Level::kWarn);
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, args, error)) {
    std::cerr << "labbench: " << error << '\n';
    return 2;
  }
  if (args.mode == "spill") return ModeSpill(args);
  const std::optional<Workload> workload = ParseWorkload(args.workload);
  if (!workload) {
    std::cerr << "labbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  if (args.mode == "setup") return ModeSetup(main_entry_unix);
  if (args.mode == "reference") return ModeReference(args, *workload);
  if (args.mode == "run") return ModeRun(args, *workload, main_entry_unix);
  std::cerr << "labbench: unknown mode '" << args.mode << "'\n";
  return 2;
}
