// PipelinedExperiment — the three streaming stages run concurrently.
//
// Thread structure of one run:
//
//   shard tasks (ParallelFor,          replay task (resumed labs'
//   one pass per lockstep window)      spilled segments, in iteration
//       │  seal iteration-aligned      order, gated to the live window)
//       │  blocks at window boundaries     │
//       ▼                                  ▼
//   collect ring (bounded MPSC StagingRing<StagedBlock>)
//       │  merge task: drain; a live lab's block is encoded and appended
//       │  to its segment (spill only), then MergeFrontier::Append/Advance;
//       │  a live lab's end-of-stream marker commits segment + sidecar
//       ▼
//   fold ring (StagingRing<TraceBlock>, merged blocks)
//       │  fold task: builds the StreamingAnalysis, then ConsumeRing:
//       │  Accept(block) ║ hash helper thread: HashBlockSamples(block)
//       │  (joined per block, before it is recycled) while blocks queue
//       │  in the fold ring; hash then Accept inline while it keeps up
//       ▼
//   StreamingAnalysisResult + stream hash
//
// Every stage is a task on util's process-wide worker pool; only the hash
// helper is a thread of its own. The merge task starts first, then the
// fold, the replay and each window's shard chunks, so every role lands on
// the same pool worker, and so in the same malloc arena, from one run to
// the next. Once the pool has grown to shards + 2 workers (+ 1 when
// resuming), a run starts no pool thread.
//
// Every lab is advanced through window w before any lab starts w+1
// (Coordinator::Begin/StepUntil/Finish keeps the probe/fault sequence
// bit-identical to one Run() call), so after each window the merge
// frontier holds complete iteration fronts and emits merged blocks while
// later windows are still simulating. Block buffers recycle backwards:
// the frontier hands consumed collection blocks to per-shard pools the
// sealers draw from, and the fold returns emptied merged blocks to the
// emitter's pool — steady-state block traffic allocates nothing.
//
// A resumed lab is replayed from its spilled segment instead of being
// re-simulated. The replay task holds every resumed lab's SegmentReader
// open and always decodes next from the lab whose next block starts at
// the lowest iteration (a min-heap on (iteration, lab)), straight into a
// pooled block. The resumed streams thus reach the merge interleaved by
// iteration — round-robin for window-aligned segments — and the frontier
// buffers about one block per lab instead of whole labs. In a mixed
// resume the producer opens a ReplayGate up to the end of the window it
// is about to simulate, and the replay pushes only blocks that start
// before it, so replayed labs never run more than a window ahead of the
// live ones; the producer likewise starts a window only once the replay
// has pushed every block that starts before it.
//
// Shutdown discipline (no path may deadlock): the merge task drains the
// collect ring unconditionally, the fold task drains the fold ring
// unconditionally, so producers can never park forever on a full ring.
// On error the rings are cancelled, which wakes every parked task with
// `false`. The replay task parks on its gate only while collection runs:
// the producer releases the gate when it stops, normally or on error, and
// the replay marks itself done on every exit so the producer never waits
// on a replay that has stopped. A scope guard declared after the task
// handles cancels both rings and releases the gate during unwind, so the
// handles' joins always complete.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "labmon/core/snapshot.hpp"
#include "labmon/core/streaming.hpp"
#include "labmon/ddc/w32_probe.hpp"
#include "labmon/faultsim/fault_injector.hpp"
#include "labmon/obs/prof.hpp"
#include "labmon/obs/registry.hpp"
#include "labmon/obs/span.hpp"
#include "labmon/trace/merge_frontier.hpp"
#include "labmon/trace/segment.hpp"
#include "labmon/trace/sink.hpp"
#include "labmon/util/log.hpp"
#include "labmon/util/parallel.hpp"
#include "labmon/util/staging_ring.hpp"
#include "labmon/winsim/paper_specs.hpp"
#include "labmon/workload/profile.hpp"
#include "streaming_detail.hpp"

namespace labmon::core {

namespace {

using Clock = std::chrono::steady_clock;

/// Fold-ring capacity cap, in merged blocks. ring_capacity counts window
/// blocks of a few hundred samples on the collect ring, but a merged block
/// holds up to block_samples (8,192 by default, ~0.9 MB; up to 7 MB at
/// 65,536), so 64 of them are only memory. Two is the least that keeps a
/// block queued behind the one the fold holds, which is what engages
/// ConsumeRing's hash helper when the merge runs ahead; every further
/// block is only memory.
constexpr std::size_t kFoldRingMaxBlocks = 2;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One collect-ring item: a sealed block of `lab`'s stream, or (with
/// `final_block` set and no payload) the end-of-stream marker that lets
/// the merge finish the lab's part.
struct StagedBlock {
  std::size_t lab = 0;
  bool final_block = false;
  std::unique_ptr<trace::TraceBlock> block;
};

/// Keeps the replay and the live simulation of a mixed resume in step.
/// The producer opens the gate up to the end of the window it is about to
/// simulate, and the replay pushes a block only once it starts before
/// that time. In turn the producer starts a window only after the replay
/// has pushed every block that starts before it. Neither side runs more
/// than a window ahead, so the merge frontier stays bounded whichever is
/// faster. Release() and ReplayDone() lift the two waits for good, so
/// neither side can stay parked once the other stops.
class ReplayGate {
 public:
  /// Without both live and replayed labs there is nothing to keep in step.
  explicit ReplayGate(bool mixed)
      : open_until_(mixed ? 0 : kOpen), replayed_to_(mixed ? 0 : kOpen) {}

  /// Producer: waits until the replay has pushed every block starting
  /// before `window`, then lets it push blocks starting before `until`.
  void Advance(util::SimTime window, util::SimTime until) {
    std::unique_lock lock(mutex_);
    changed_.wait(lock, [&] { return replayed_to_ >= window; });
    open_until_ = std::max(open_until_, until);
    lock.unlock();
    changed_.notify_all();
  }
  /// Producer: collection stopped; the replay may push everything.
  void Release() {
    {
      const std::scoped_lock lock(mutex_);
      open_until_ = kOpen;
    }
    changed_.notify_all();
  }

  /// Replay: every block starting before `start` is pushed; waits until
  /// the next one, starting at `start`, may be pushed.
  void WaitToPush(util::SimTime start) {
    std::unique_lock lock(mutex_);
    replayed_to_ = start;
    changed_.notify_all();
    changed_.wait(lock,
                  [&] { return start < open_until_ || open_until_ == kOpen; });
  }
  /// Replay: finished or aborted; the producer need not wait any more.
  void ReplayDone() {
    {
      const std::scoped_lock lock(mutex_);
      replayed_to_ = kOpen;
    }
    changed_.notify_all();
  }

 private:
  static constexpr util::SimTime kOpen =
      std::numeric_limits<util::SimTime>::max();

  std::mutex mutex_;
  std::condition_variable changed_;
  util::SimTime open_until_;
  util::SimTime replayed_to_;
};

/// Per-shard arena: sealers acquire heap blocks here, the merge returns
/// them once consumed. Acquire() yields a null pointer when the pool is
/// empty (counted as an allocation) — the caller falls back to new.
using BlockPool = util::RecyclingPool<std::unique_ptr<trace::TraceBlock>>;

/// Collection sink of one lab: samples append to the lab's working store;
/// sealing copies the store into a pooled heap block pushed onto the
/// collect ring (the merge thread spills it). Seals happen at the block
/// budget *and* at every window boundary, so blocks stay iteration-aligned
/// and fronts keep advancing even in iteration-sparse windows.
class PipelineSink final : public ddc::SampleSink {
 public:
  PipelineSink(trace::TraceStore& store, std::size_t block_samples,
               util::StagingRing<StagedBlock>& ring, BlockPool& pool,
               std::size_t lab)
      : inner_(store),
        store_(&store),
        block_samples_(std::max<std::size_t>(1, block_samples)),
        ring_(&ring),
        pool_(&pool),
        lab_(lab) {}

  ddc::SampleVerdict OnSample(const ddc::CollectedSample& sample) override {
    return inner_.OnSample(sample);
  }

  void OnIterationEnd(std::uint64_t iteration, util::SimTime start_time,
                      util::SimTime end_time) override {
    inner_.OnIterationEnd(iteration, start_time, end_time);
    if (store_->size() >= block_samples_) Seal();
  }

  /// Window-boundary / end-of-run seal of whatever is buffered.
  void SealPending() {
    if (store_->size() > 0 || !store_->iterations().empty()) Seal();
  }

  /// Publishes the lab's end-of-stream marker; false when the ring was
  /// cancelled (error path — the marker no longer matters).
  bool PublishFinal() {
    StagedBlock item;
    item.lab = lab_;
    item.final_block = true;
    return ring_->Push(std::move(item));
  }

  [[nodiscard]] std::uint64_t blocks_sealed() const noexcept {
    return blocks_sealed_;
  }
  [[nodiscard]] const trace::TraceStoreSink& inner() const noexcept {
    return inner_;
  }

 private:
  void Seal() {
    obs::prof::PhaseScope prof_scope(obs::prof::Phase::kStage);
    std::unique_ptr<trace::TraceBlock> block = pool_->Acquire();
    if (!block) block = std::make_unique<trace::TraceBlock>();
    block->AssignFrom(*store_);
    StagedBlock item;
    item.lab = lab_;
    item.block = std::move(block);
    ring_->Push(std::move(item));  // false only when cancelled (error path)
    ++blocks_sealed_;
    store_->ClearSamples();
  }

  trace::TraceStoreSink inner_;
  trace::TraceStore* store_;
  std::size_t block_samples_;
  util::StagingRing<StagedBlock>* ring_;
  BlockPool* pool_;
  std::size_t lab_;
  std::uint64_t blocks_sealed_ = 0;
};

/// Everything one live lab keeps alive across windows: the behaviour
/// driver, working store, sink, probe, injector and the incrementally
/// driven coordinator. Each sizes its state to the lab's machines, not to
/// the fleet, so the live runs together hold O(machines) and a streamed
/// run's memory grows linearly with the fleet. Heap-allocated and never
/// moved, so the FunctionRef-bound advance hook and the coordinator's
/// references stay valid for the whole run.
class LabRun {
 public:
  LabRun(winsim::Fleet& fleet, const workload::CampusConfig& campus,
         const workload::CampusProfile& profile, std::size_t lab,
         std::size_t machine_count, std::size_t reserve,
         const ddc::CoordinatorConfig& collector,
         const faultsim::FaultPlan& plan, std::size_t block_samples,
         util::StagingRing<StagedBlock>& ring, BlockPool& pool)
      : driver_(fleet, campus, profile, lab, lab + 1),
        store_(machine_count),
        sink_(store_, block_samples, ring, pool, lab),
        injector_(plan, collector.metrics) {
    store_.Reserve(reserve);
    ddc::CoordinatorConfig config = collector;
    if (injector_.active()) {
      injector_.BindFleet(fleet);
      config.faults = &injector_;
    }
    coordinator_.emplace(fleet, probe_, config, sink_,
                         ddc::Coordinator::AdvanceFn(advance_));
  }

  [[nodiscard]] ddc::Coordinator& coordinator() noexcept {
    return *coordinator_;
  }
  [[nodiscard]] PipelineSink& sink() noexcept { return sink_; }
  [[nodiscard]] workload::WorkloadDriver& driver() noexcept { return driver_; }

 private:
  struct Advance {
    workload::WorkloadDriver* driver;
    void operator()(util::SimTime t) const {
      obs::prof::SampledPhaseScope prof_scope(obs::prof::Phase::kSimulate);
      driver->AdvanceTo(t);
    }
  };

  workload::WorkloadDriver driver_;
  trace::TraceStore store_;
  PipelineSink sink_;
  ddc::W32Probe probe_;
  faultsim::FaultInjector injector_;
  Advance advance_{&driver_};
  std::optional<ddc::Coordinator> coordinator_;
};

}  // namespace

StreamingExperimentResult PipelinedExperiment::Run(
    const ExperimentConfig& config, const StreamingOptions& options) {
  obs::DefaultRegistry()
      .GetCounter("labmon_pipelined_runs_total",
                  "Pipelined campaign runs executed.")
      .Increment();
  obs::Span run_span("experiment.pipeline");
  run_span.SetSimRange(0, config.campus.EndTime());
  const auto run_t0 = Clock::now();

  util::Rng rng(config.campus.seed);
  winsim::Fleet fleet = [&] {
    obs::Span build_span("experiment.build_fleet");
    obs::prof::PhaseScope prof_scope(obs::prof::Phase::kBuildFleet);
    return winsim::MakePaperFleet(rng, config.prior_life,
                                  config.campus.scale_labs);
  }();
  const workload::CampusProfile profile = [&] {
    obs::prof::PhaseScope prof_scope(obs::prof::Phase::kBuildFleet);
    return workload::CampusProfile::Build(fleet, config.campus);
  }();

  const std::size_t lab_count = fleet.lab_count();
  const std::size_t machine_count = fleet.size();
  const bool spill = !options.spill_dir.empty();
  const std::uint64_t fingerprint = FingerprintConfig(config);
  const util::SimTime horizon = config.campus.EndTime();

  StreamingExperimentResult result;
  result.days = config.campus.days;
  if (spill) result.spill.codec = trace::SpillCodecName(options.spill_codec);
  std::mutex error_mutex;
  auto record_error = [&](std::string message) {
    const std::scoped_lock lock(error_mutex);
    result.errors.push_back(std::move(message));
  };

  if (spill) {
    std::error_code ec;
    std::filesystem::create_directories(options.spill_dir, ec);
    if (ec) {
      result.errors.push_back("cannot create spill dir: " +
                              options.spill_dir);
      return result;
    }
  }

  std::vector<detail::LabCheckpoint> checkpoints(lab_count);
  std::vector<char> resumed(lab_count, 0);
  // A resumed lab's segment stays open from here for the replay thread.
  std::vector<std::optional<trace::SegmentReader>> segments(lab_count);
  if (options.resume && spill) {
    for (std::size_t lab = 0; lab < lab_count; ++lab) {
      detail::LabCheckpoint cp;
      if (!detail::LoadSidecar(detail::SidecarPath(options.spill_dir, lab),
                               fingerprint, lab, cp)) {
        continue;
      }
      auto reader = trace::SegmentReader::Open(
          detail::SegmentPath(options.spill_dir, lab));
      if (!reader.ok() || reader.value().machine_count() != machine_count) {
        continue;
      }
      segments[lab].emplace(std::move(reader).value());
      checkpoints[lab] = cp;
      resumed[lab] = 1;
      ++result.labs_resumed;
    }
  }

  const std::size_t workers = std::min(
      std::max<std::size_t>(1, lab_count),
      std::max<std::size_t>(1, config.shards > 0
                                   ? static_cast<std::size_t>(config.shards)
                                   : util::DefaultWorkerCount()));
  const std::vector<LabShard> shards =
      PartitionLabsByMachines(fleet, workers);
  std::vector<std::size_t> shard_of_lab(lab_count, 0);
  for (std::size_t s = 0; s < shards.size(); ++s) {
    for (std::size_t lab = shards[s].lab_begin; lab < shards[s].lab_end;
         ++lab) {
      shard_of_lab[lab] = s;
    }
  }
  std::size_t live_labs = 0;
  for (std::size_t lab = 0; lab < lab_count; ++lab) {
    if (!resumed[lab]) ++live_labs;
  }

  const util::SimTime period =
      config.collector.period > 0 ? config.collector.period : horizon;
  const util::SimTime window_span = std::max<util::SimTime>(
      period,
      static_cast<util::SimTime>(
          std::max<std::size_t>(1, options.window_iterations)) *
          period);

  util::log::Info(
      "pipelining " + std::to_string(config.campus.days) +
      "-day campaign over " + std::to_string(machine_count) + " machines (" +
      std::to_string(shards.size()) + " shards, window " +
      std::to_string(options.window_iterations) + " iterations, ring " +
      std::to_string(options.ring_capacity) + " blocks" +
      (spill ? ", spill to " + options.spill_dir : "") +
      (result.labs_resumed
           ? ", " + std::to_string(result.labs_resumed) + " labs resumed"
           : "") +
      ")");

  // Fold configuration needs the fleet summaries, so fill them up front.
  detail::FillFleetSummaries(result, fleet);
  analysis::StreamingAnalysisConfig fold_config;
  fold_config.machine_count = machine_count;
  fold_config.perf_index = result.perf_index;
  for (const auto& lab : fleet.labs()) {
    fold_config.labs.push_back(
        analysis::LabKey{lab.name, lab.first, lab.count});
  }
  fold_config.experiment_days = config.campus.days;
  // Built and attached by the fold thread, read after the joins.
  std::unique_ptr<analysis::AnomalyDetector> detector;

  // Pipeline plumbing. Declared before the stage tasks (which capture
  // everything by reference) and destroyed after them.
  util::StagingRing<StagedBlock> collect_ring(options.ring_capacity);
  util::StagingRing<trace::TraceBlock> fold_ring(std::clamp<std::size_t>(
      options.ring_capacity, 1, kFoldRingMaxBlocks));
  std::vector<std::unique_ptr<BlockPool>> shard_pools;
  shard_pools.reserve(shards.size());
  for (std::size_t s = 0; s < shards.size(); ++s) {
    shard_pools.push_back(std::make_unique<BlockPool>());
  }
  util::RecyclingPool<trace::TraceBlock> merged_pool;

  std::vector<std::unique_ptr<LabRun>> runs(lab_count);
  std::atomic<bool> any_failed{false};
  std::vector<double> shard_busy_s(shards.size(), 0.0);

  // Merge-stage outputs, written by the merge thread before it closes the
  // fold ring (the ring's mutex orders them for the fold thread) and read
  // by the main thread after the joins. The merge thread is also the only
  // writer of result.spill's encode side, as the replay thread is of its
  // decode side.
  std::vector<trace::IterationInfo> merged_iterations;
  std::uint64_t merged_samples = 0;
  std::uint64_t merged_blocks = 0;
  std::size_t merge_lag_peak = 0;
  std::uint64_t merge_fallback_sorts = 0;
  bool merge_clean = false;

  // Fold-stage outputs, read by the main thread after the joins.
  std::uint64_t stream_hash = trace::kSampleStreamHashSeed;
  analysis::StreamingAnalysisResult analysis_result;
  trace::TraceStore summary_store;
  bool fold_finished = false;

  const auto pipe_t0 = Clock::now();

  util::PoolTask merge_task = util::RunOnPool([&] {
    trace::MergeFrontier frontier(lab_count, machine_count,
                                  options.block_samples);
    // Live labs' segments. The merge thread alone opens, appends to and
    // commits them, so the shard workers only collect. A lab whose segment
    // fails loses its writer: the run reports the error, collection stops
    // at the next window, and the lab commits no sidecar.
    std::vector<std::optional<trace::SegmentWriter>> writers(lab_count);
    const auto spill_failed = [&](std::size_t lab, std::string message) {
      record_error(std::move(message));
      any_failed.store(true);
      writers[lab].reset();
    };
    for (std::size_t lab = 0; spill && lab < lab_count; ++lab) {
      if (resumed[lab]) continue;
      auto opened = trace::SegmentWriter::Open(
          detail::SegmentPath(options.spill_dir, lab), machine_count,
          options.spill_codec);
      if (!opened.ok()) {
        spill_failed(lab, opened.error());
        continue;
      }
      writers[lab].emplace(std::move(opened).value());
    }
    // Appends one of `lab`'s blocks, in the order its shard sealed them.
    const auto spill_block = [&](std::size_t lab,
                                 const trace::TraceBlock& block) {
      obs::prof::PhaseScope prof_stage(obs::prof::Phase::kStage);
      if (auto appended = writers[lab]->Append(block); !appended.ok()) {
        spill_failed(lab, appended.error());
      }
    };
    // On the lab's end-of-stream marker: its shard filled checkpoints[lab]
    // before pushing the marker, and the ring orders the two.
    const auto commit_spill = [&](std::size_t lab) {
      obs::prof::PhaseScope prof_stage(obs::prof::Phase::kStage);
      trace::SegmentWriter& writer = *writers[lab];
      if (auto finished = writer.Finish(); !finished.ok()) {
        spill_failed(lab, finished.error());
        return;
      }
      detail::AccumulateSpillEncode(result.spill, writer.codec_stats(),
                                    writer.bytes_written());
      if (!detail::WriteSidecar(detail::SidecarPath(options.spill_dir, lab),
                                fingerprint, lab, checkpoints[lab])) {
        util::log::Warn("checkpoint sidecar write failed for lab " +
                        std::to_string(lab));
      }
    };
    const auto emit = [&](trace::TraceBlock& sealed) {
      trace::TraceBlock out = merged_pool.Acquire();
      std::swap(out, sealed);
      fold_ring.Push(std::move(out));  // false only when cancelled
    };
    const auto recycle = [&](std::size_t part,
                             std::unique_ptr<trace::TraceBlock> block) {
      block->Clear();
      shard_pools[shard_of_lab[part]]->Release(std::move(block));
    };
    StagedBlock item;
    for (;;) {
      bool got = false;
      {
        obs::prof::PhaseScope prof_stage(obs::prof::Phase::kStage);
        got = collect_ring.Pop(item);
      }
      if (!got) break;
      if (item.final_block) {
        if (writers[item.lab]) commit_spill(item.lab);
        frontier.FinishPart(item.lab);
      } else {
        if (writers[item.lab]) spill_block(item.lab, *item.block);
        frontier.Append(item.lab, std::move(item.block));
      }
      merge_lag_peak = std::max(merge_lag_peak, frontier.buffered_blocks());
      obs::prof::PhaseScope prof_merge(obs::prof::Phase::kMerge);
      frontier.Advance(emit, recycle);
    }
    if (!collect_ring.cancelled()) {
      if (!frontier.finished()) {
        obs::prof::PhaseScope prof_merge(obs::prof::Phase::kMerge);
        frontier.Advance(emit, recycle);
      }
      if (frontier.finished()) {
        merged_iterations = frontier.TakeIterations();
        merged_samples = frontier.samples();
        merged_blocks = frontier.blocks();
        merge_fallback_sorts = frontier.fallback_sorts();
        merge_clean = true;
      } else {
        record_error("pipelined merge ended with incomplete lab streams");
      }
    }
    fold_ring.Close();
  });

  const auto run_fold = [&] {
    // The fold is built here rather than before the stages start: its
    // weekly state (43 MB at 1,352 machines) is mapped and faulted while
    // the first blocks are still being collected or decoded and merged.
    analysis::StreamingAnalysis fold(std::move(fold_config));
    if (options.anomaly_threshold > 0.0) {
      analysis::AnomalyOptions anomaly_options;
      anomaly_options.threshold = options.anomaly_threshold;
      anomaly_options.min_samples = options.anomaly_min_samples;
      detector = std::make_unique<analysis::AnomalyDetector>(
          machine_count, anomaly_options, options.anomaly_writer);
      fold.AttachAnomalyDetector(detector.get());
    }
    stream_hash =
        fold.ConsumeRing(fold_ring, &merged_pool, trace::kSampleStreamHashSeed);
    // merge_clean was written before fold_ring.Close(), which happens-
    // before ConsumeRing's final (false) Pop.
    if (!merge_clean || fold_ring.cancelled()) return;
    summary_store = trace::TraceStore(machine_count);
    for (const trace::IterationInfo& info : merged_iterations) {
      summary_store.AppendIteration(info);
    }
    analysis_result = fold.Finish(summary_store);
    fold_finished = true;
  };
  util::PoolTask fold_task = util::RunOnPool([&] {
    try {
      run_fold();
    } catch (const std::exception& e) {
      // Cancelling the fold ring releases the merge; any_failed stops
      // collection.
      record_error(std::string("pipelined fold failed: ") + e.what());
      any_failed.store(true);
      fold_ring.Cancel();
    }
  });

  // Resumed labs replay their spilled segments from a reader task of
  // their own, concurrent with live simulation.
  ReplayGate gate(live_labs > 0 && result.labs_resumed > 0);
  auto replay = [&] {
    // (first iteration of the lab's next block, lab), lowest on top.
    using NextBlock = std::pair<std::uint64_t, std::size_t>;
    std::priority_queue<NextBlock, std::vector<NextBlock>, std::greater<>>
        order;
    for (std::size_t lab = 0; lab < lab_count; ++lab) {
      if (resumed[lab]) order.emplace(0, lab);
    }
    while (!order.empty()) {
      const auto [iteration, lab] = order.top();
      order.pop();
      gate.WaitToPush(static_cast<util::SimTime>(iteration) * period);
      trace::SegmentReader& reader = *segments[lab];
      BlockPool& pool = *shard_pools[shard_of_lab[lab]];
      std::unique_ptr<trace::TraceBlock> block = pool.Acquire();
      if (!block) block = std::make_unique<trace::TraceBlock>();
      StagedBlock item;
      item.lab = lab;
      if (reader.Next(*block)) {
        item.block = std::move(block);
        if (!collect_ring.Push(std::move(item))) return;  // cancelled
        order.emplace(reader.next_iteration(), lab);
        continue;
      }
      if (reader.failed()) {
        // The merge cannot complete without this lab; stop replaying.
        record_error(reader.error());
        any_failed.store(true);
        return;
      }
      detail::AccumulateSpillDecode(result.spill, reader.codec_stats());
      item.final_block = true;
      if (!collect_ring.Push(std::move(item))) return;
    }
  };
  util::PoolTask replay_task;
  if (result.labs_resumed > 0) {
    replay_task = util::RunOnPool([&] {
      obs::prof::PhaseScope prof_stage(obs::prof::Phase::kStage);
      replay();
      gate.ReplayDone();
    });
  }

  // Unwind safety: cancelling both rings and releasing the replay gate
  // wakes every parked task, so the handles' destructors above can always
  // join. Declared after the handles so it runs first during stack
  // unwinding; on the normal path both rings are already closed and
  // drained and the gate released by the time it fires.
  struct CancelGuard {
    util::StagingRing<StagedBlock>* collect;
    util::StagingRing<trace::TraceBlock>* fold;
    ReplayGate* gate;
    ~CancelGuard() {
      collect->Cancel();
      fold->Cancel();
      gate->Release();
    }
  } cancel_guard{&collect_ring, &fold_ring, &gate};

  // ---- Producer side: lockstep windows over the shard groups. ----
  {
    obs::Span collect_span("experiment.pipeline_collect");
    collect_span.SetSimRange(0, horizon);
    auto run_window = [&](std::size_t s, util::SimTime until) {
      const auto t0 = Clock::now();
      obs::prof::ShardScope prof_shard(static_cast<std::uint32_t>(s));
      obs::prof::PhaseScope prof_collect(obs::prof::Phase::kCollect);
      for (std::size_t lab = shards[s].lab_begin; lab < shards[s].lab_end;
           ++lab) {
        if (resumed[lab]) continue;
        if (!runs[lab]) {
          const winsim::LabInfo& info = fleet.labs()[lab];
          const detail::LabCollection setup =
              detail::LabCollectionFor(config, info, lab);
          // A window seals at most window_iterations iterations (plus the
          // budget-crossing one), so the working store never needs the
          // full block budget for short windows.
          const std::size_t reserve =
              std::min(options.block_samples,
                       (std::max<std::size_t>(1, options.window_iterations) +
                        1) *
                           info.count) +
              info.count;
          runs[lab] = std::make_unique<LabRun>(
              fleet, config.campus, profile, lab, machine_count, reserve,
              setup.collector, setup.plan, options.block_samples,
              collect_ring, *shard_pools[s]);
          runs[lab]->coordinator().Begin(0);
        }
        LabRun& run = *runs[lab];
        run.coordinator().StepUntil(until);
        run.sink().SealPending();
      }
      shard_busy_s[s] += SecondsSince(t0);
    };

    if (live_labs > 0) {
      for (util::SimTime window = 0; window < horizon;
           window += window_span) {
        if (any_failed.load()) break;
        const util::SimTime until =
            std::min<util::SimTime>(horizon, window + window_span);
        gate.Advance(window, until);
        util::ParallelFor(
            shards.size(), [&](std::size_t s) { run_window(s, until); },
            shards.size());
      }
    }

    // Per-lab finalisation: run stats, trailing seal, checkpoint, then the
    // end-of-stream marker on which the merge thread commits the lab.
    if (live_labs > 0 && !any_failed.load()) {
      auto finish_shard = [&](std::size_t s) {
        const auto t0 = Clock::now();
        obs::prof::ShardScope prof_shard(static_cast<std::uint32_t>(s));
        obs::prof::PhaseScope prof_collect(obs::prof::Phase::kCollect);
        for (std::size_t lab = shards[s].lab_begin; lab < shards[s].lab_end;
             ++lab) {
          if (resumed[lab] || !runs[lab]) continue;
          LabRun& run = *runs[lab];
          const ddc::RunStats stats = run.coordinator().Finish();
          run.driver().FinishAt(horizon);
          run.sink().SealPending();

          detail::LabCheckpoint& cp = checkpoints[lab];
          cp = detail::FinishedLab(stats, run.driver().ground_truth(),
                                   run.sink().inner());
          cp.blocks = run.sink().blocks_sealed();
          cp.codec = options.spill_codec;
          run.sink().PublishFinal();
        }
        shard_busy_s[s] += SecondsSince(t0);
      };
      util::ParallelFor(shards.size(), finish_shard, shards.size());
    }
  }

  // ---- Shutdown: end (or abort) the streams, join the stages. ----
  if (any_failed.load()) collect_ring.Cancel();
  gate.Release();
  replay_task.join();
  if (any_failed.load()) {
    collect_ring.Cancel();
  } else {
    collect_ring.Close();
  }
  merge_task.join();
  fold_task.join();
  const double pipeline_wall_s = SecondsSince(pipe_t0);

  {
    const std::scoped_lock lock(error_mutex);
    if (!result.errors.empty()) return result;
  }
  if (!merge_clean || !fold_finished) {
    result.errors.push_back("pipelined run aborted before completion");
    return result;
  }

  // ---- Result assembly (serial tail). ----
  for (const detail::LabCheckpoint& cp : checkpoints) {
    detail::AccumulateCheckpoint(result, cp);
  }
  if (result.crosscheck_mismatches != 0) {
    util::log::Warn(std::to_string(result.crosscheck_mismatches) +
                    " structured/text cross-check mismatches — the fast-path "
                    "codec diverged from the wire format");
  }

  result.summary = std::move(summary_store);
  result.samples = merged_samples;
  result.merged_blocks = merged_blocks;
  result.stream_hash = stream_hash;
  detail::ComputeIterationAggregates(result.run_stats,
                                     result.summary.iterations());
  result.analysis = std::move(analysis_result);
  if (detector) {
    result.anomalies = detector->anomalies();
    result.anomaly_observations = detector->observations();
  }
  detail::PublishSpillGauges(result.spill);

  // ---- Pipeline health: result struct + registry gauges. ----
  const util::StagingRingStats ring_stats = collect_ring.stats();
  PipelineStats& pipe = result.pipeline;
  pipe.staged_blocks = ring_stats.pushed;
  pipe.ring_push_stalls = ring_stats.push_stalls;
  pipe.ring_pop_stalls = ring_stats.pop_stalls;
  pipe.ring_push_wait_s =
      static_cast<double>(ring_stats.push_wait_ns) * 1e-9;
  pipe.ring_pop_wait_s = static_cast<double>(ring_stats.pop_wait_ns) * 1e-9;
  pipe.ring_peak_occupancy = ring_stats.peak_occupancy;
  pipe.ring_capacity = ring_stats.capacity;
  const util::StagingRingStats fold_stats = fold_ring.stats();
  pipe.fold_ring_push_stalls = fold_stats.push_stalls;
  pipe.fold_ring_pop_stalls = fold_stats.pop_stalls;
  pipe.fold_ring_push_wait_s =
      static_cast<double>(fold_stats.push_wait_ns) * 1e-9;
  pipe.fold_ring_pop_wait_s =
      static_cast<double>(fold_stats.pop_wait_ns) * 1e-9;
  pipe.fold_ring_peak_occupancy = fold_stats.peak_occupancy;
  pipe.merge_lag_peak_blocks = merge_lag_peak;
  pipe.merge_fallback_sorts = merge_fallback_sorts;
  {
    util::RecyclingPool<trace::TraceBlock>::Stats merged_stats =
        merged_pool.stats();
    pipe.arena_acquired = merged_stats.acquired;
    pipe.arena_reused = merged_stats.reused;
    for (const auto& pool : shard_pools) {
      const BlockPool::Stats stats = pool->stats();
      pipe.arena_acquired += stats.acquired;
      pipe.arena_reused += stats.reused;
    }
    pipe.arena_reuse_ratio =
        pipe.arena_acquired ? static_cast<double>(pipe.arena_reused) /
                                  static_cast<double>(pipe.arena_acquired)
                            : 0.0;
  }
  pipe.wall_s = SecondsSince(run_t0);
  pipe.pipeline_wall_s = std::min(pipeline_wall_s, pipe.wall_s);
  pipe.serial_fraction =
      pipe.wall_s > 0.0
          ? std::max(0.0, pipe.wall_s - pipe.pipeline_wall_s) / pipe.wall_s
          : 0.0;

  obs::Registry& registry = obs::DefaultRegistry();
  registry
      .GetGauge("labmon_pipeline_ring_occupancy_peak",
                "Peak staging-ring occupancy (blocks) of the last pipelined "
                "run.")
      .Set(static_cast<double>(pipe.ring_peak_occupancy));
  registry
      .GetGauge("labmon_pipeline_ring_push_stall_seconds_total",
                "Producer wall time spent parked on a full staging ring "
                "during the last pipelined run.")
      .Set(pipe.ring_push_wait_s);
  registry
      .GetGauge("labmon_pipeline_ring_pop_stall_seconds_total",
                "Merge wall time spent parked on an empty staging ring "
                "during the last pipelined run.")
      .Set(pipe.ring_pop_wait_s);
  registry
      .GetGauge("labmon_pipeline_merge_lag_blocks_peak",
                "Peak input blocks buffered in the merge frontier (merge "
                "lag behind collection) of the last pipelined run.")
      .Set(static_cast<double>(pipe.merge_lag_peak_blocks));
  registry
      .GetGauge("labmon_pipeline_arena_reuse_ratio",
                "Fraction of block acquisitions served from recycling "
                "pools in the last pipelined run.")
      .Set(pipe.arena_reuse_ratio);
  registry
      .GetGauge("labmon_pipeline_serial_fraction",
                "Share of the last pipelined run's wall time outside the "
                "overlapped collect/merge/fold region.")
      .Set(pipe.serial_fraction);
  registry
      .GetGauge("labmon_prof_critical_path_fraction",
                "Serial (non-sharded) share of the last experiment run's "
                "wall time: 0 = fully parallel, 1 = fully serial.")
      .Set(pipe.serial_fraction);
  {
    double max_busy = 0.0;
    double sum_busy = 0.0;
    for (const double busy : shard_busy_s) {
      max_busy = std::max(max_busy, busy);
      sum_busy += busy;
    }
    const double mean_busy =
        shard_busy_s.empty()
            ? 0.0
            : sum_busy / static_cast<double>(shard_busy_s.size());
    registry
        .GetGauge("labmon_experiment_shard_imbalance_ratio",
                  "Max shard wall time / mean shard wall time of the last "
                  "sharded run (1.0 = perfectly balanced).")
        .Set(mean_busy > 0.0 ? max_busy / mean_busy : 1.0);
  }

  util::log::Info(
      "pipelined " + std::to_string(result.samples) + " samples in " +
      std::to_string(result.merged_blocks) + " merged blocks over " +
      std::to_string(result.run_stats.iterations) + " iterations (" +
      std::to_string(pipe.staged_blocks) + " staged blocks, serial fraction " +
      std::to_string(pipe.serial_fraction) + ")");
  return result;
}

}  // namespace labmon::core
