// Incremental analysis fold — the eight pipeline passes over a block
// stream, in O(machines) memory.
//
// StreamingAnalysis consumes merged trace blocks (time-ordered per
// machine, iteration-major — exactly what trace::StreamMergeBlocks emits)
// and builds, per machine, the same MachineAcc each pass's materialised
// sweep builds, via the same per-event member functions. Finish() then
// replays the pipeline's exact two-level reduction — per-chunk states,
// machines folded in ascending order, chunk states merged in ascending
// order — so every double matches the materialised AnalysisPipeline
// bit-for-bit (pinned by tests/analysis/test_stream_fold and
// tests/core/test_pipelined_determinism).
//
// Per-iteration quantities need care: floating-point accumulation order
// must match the materialised chunk grid even though the stream arrives
// time-ordered, not machine-grouped. Each sample's contributions are
// therefore buffered in arrival order and chained onto its machine's slot;
// when the iteration closes, the touched machine range is walked in
// ascending order, each machine's chain in arrival (= time) order, into
// per-chunk partials that sum into the global per-iteration vectors — the
// exact association the chunked sweep produces, with no sort. Integer
// counts (powered-on/user-free) commute and are accumulated directly.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "labmon/analysis/anomaly.hpp"
#include "labmon/analysis/passes.hpp"
#include "labmon/trace/block.hpp"
#include "labmon/trace/derived_trace.hpp"
#include "labmon/util/staging_ring.hpp"

namespace labmon::analysis {

/// Mirrors the wiring core::Report uses for the materialised pipeline; a
/// streamed campaign configured with the defaults below reproduces the
/// full report's numbers.
struct StreamingAnalysisConfig {
  std::size_t machine_count = 0;
  std::size_t machines_per_chunk = 8;  ///< PipelineOptions default
  trace::IntervalOptions intervals;    ///< derivation options (10 h threshold)
  std::vector<double> perf_index;      ///< per machine, for equivalence
  std::vector<LabKey> labs;
  int experiment_days = 0;
  int bin_minutes = 15;
  int session_hours_max = 24;
  /// Equivalence classifies occupancy on raw session presence.
  std::int64_t equivalence_threshold_s = trace::kNoForgottenThreshold;
  CapacityOptions capacity;
};

/// The eight pass results, identical to what core::Report computes.
struct StreamingAnalysisResult {
  Table2Result table2;
  AvailabilityResult availability;
  SessionHourProfile session_hours;
  WeeklyProfiles weekly;
  EquivalenceResult equivalence;
  StabilityResult stability;
  PerLabResult per_lab;
  CapacityResult capacity;
};

class StreamingAnalysis {
 public:
  explicit StreamingAnalysis(StreamingAnalysisConfig config);
  ~StreamingAnalysis();
  // Machine states hold views into weekly_bins_.
  StreamingAnalysis(const StreamingAnalysis&) = delete;
  StreamingAnalysis& operator=(const StreamingAnalysis&) = delete;

  /// Optional: forward every sample / derived interval to a detector
  /// (not owned; must outlive the fold).
  void AttachAnomalyDetector(AnomalyDetector* detector) {
    detector_ = detector;
  }

  /// Folds one merged block. Blocks must arrive in stream order.
  void Accept(const trace::TraceBlock& block);

  /// Pipelined entry point: pops merged blocks off `ring` until it closes,
  /// Accept()ing each block and folding it into the stream hash (seeded
  /// with `hash_seed`), then handing the emptied block to `recycle` (may
  /// be null). While blocks queue behind the one popped, a helper thread
  /// hashes it beside Accept and is joined before the block is recycled.
  /// Runs on the fold stage's thread; returns the final stream hash, the
  /// same as the serial HashBlockSamples chain over the blocks. The helper
  /// is joined on every return. Blocks consumed are counted in samples()
  /// as usual.
  [[nodiscard]] std::uint64_t ConsumeRing(
      util::StagingRing<trace::TraceBlock>& ring,
      util::RecyclingPool<trace::TraceBlock>* recycle,
      std::uint64_t hash_seed);

  /// Finalises every pass. `summary` carries the merged campaign's
  /// machine count and iteration metadata (no samples) — the only trace
  /// state any Finalize reads.
  [[nodiscard]] StreamingAnalysisResult Finish(
      const trace::TraceStore& summary);

  [[nodiscard]] std::uint64_t samples() const noexcept { return samples_; }

 private:
  struct MachineState;
  void CloseIteration();

  StreamingAnalysisConfig config_;

  // The pass objects double as fold logic (MachineAcc + FoldMachine) and
  // finalisers; constructed with the same parameters core::Report uses.
  AggregatePass agg_pass_;
  AvailabilityPass avail_pass_;
  SessionHoursPass hours_pass_;
  WeeklyPass weekly_pass_;
  EquivalencePass eq_pass_;
  StabilityPass stab_pass_;
  PerLabPass lab_pass_;
  CapacityPass cap_pass_;

  /// Every machine's weekly bins, bin-major and machine-minor: one
  /// iteration's samples, probed at about the same time of week, update
  /// one run of adjacent bins (~65 KB at 1,352 machines) instead of a cold
  /// 48-byte bin 31.5 KiB from the previous machine's.
  std::vector<WeeklyPass::MachineAcc::Bin> weekly_bins_;
  std::vector<MachineState> machines_;
  AnomalyDetector* detector_ = nullptr;
  std::uint64_t samples_ = 0;

  // Global per-iteration accumulators (integer counts commute; the double
  // sums are installed via the chunk-grid replay in CloseIteration).
  std::vector<std::uint32_t> on_;
  std::vector<std::uint32_t> free_;
  std::vector<double> eq_occupied_;
  std::vector<double> eq_free_;
  std::vector<double> cap_ram_mb_;
  std::vector<double> cap_disk_gb_;

  // Current-iteration contributions: one entry per sample in arrival
  // order, chained per machine through `next` and replayed by machine slot
  // at close.
  static constexpr std::uint32_t kNoEntry = 0xffffffffu;
  struct Entry {
    double ram_mb;
    double disk_gb;
    // CET of the interval closing at this sample, in its class's field;
    // +0.0 in the other (and in both when no interval closes here).
    double eq_occupied;
    double eq_free;
    std::uint32_t next;  ///< same machine's next entry, or kNoEntry
  };
  struct Slot {
    std::uint32_t head = kNoEntry;
    std::uint32_t tail = kNoEntry;
  };
  std::vector<Entry> entries_;
  std::vector<Slot> slots_;  ///< per machine, sized once
  // Machine range holding entries this iteration (empty: lo > hi).
  std::uint32_t touched_lo_ = kNoEntry;
  std::uint32_t touched_hi_ = 0;
  std::uint64_t current_iteration_ = 0;
  bool iteration_open_ = false;
};

}  // namespace labmon::analysis
