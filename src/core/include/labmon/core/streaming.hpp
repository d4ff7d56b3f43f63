// Streamed campaign engine — the full experiment without a materialised
// trace.
//
// PipelinedExperiment::Run drives the same per-lab simulation as
// Experiment::Run, but collection seals fixed-size, iteration-aligned
// trace blocks instead of materialising each lab's trace. Sealed blocks
// flow through a bounded staging ring into an iteration-front merge and
// straight on into analysis::StreamingAnalysis, so the campaign's peak
// memory is bounded by block size, ring capacity and per-machine analysis
// state — it does not grow with the simulated horizon. With `spill_dir`
// set, every sealed block is also appended to a per-lab LMSG1/LMSG2
// segment (trace/segment.hpp). The analysis output is bit-identical to
// Experiment::Run + the materialised pipeline (pinned by
// tests/core/test_pipelined_determinism).
//
// With spilling enabled every finished lab is also a checkpoint: its
// segment plus a small sidecar (config fingerprint, per-lab run stats and
// ground truth) written atomically after the segment is complete. A
// killed campaign restarted with `resume = true` re-simulates only the
// labs whose checkpoint is missing or invalid and replays the rest from
// disk, reproducing the exact same result.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "labmon/analysis/stream_fold.hpp"
#include "labmon/core/experiment.hpp"
#include "labmon/obs/jsonl.hpp"
#include "labmon/trace/block.hpp"
#include "labmon/trace/spill_codec.hpp"

namespace labmon::core {

struct StreamingOptions {
  /// Sealed-block capacity for collection spill and the merged stream.
  std::size_t block_samples = trace::kDefaultBlockSamples;
  /// Spill directory for per-lab segments + checkpoint sidecars; empty
  /// keeps sealed blocks in memory only (they still pass through the
  /// bounded ring, so memory stays O(block) either way).
  std::string spill_dir;
  /// Reuse valid per-lab checkpoints found in `spill_dir` instead of
  /// re-simulating those labs (requires spilling).
  bool resume = false;
  /// On-disk codec for newly written spill segments (trace/spill_codec.hpp).
  /// Read-back always dispatches on each segment's own magic, so a resumed
  /// campaign may mix codecs freely — the codec is deliberately excluded
  /// from the config fingerprint and the decoded streams are bit-identical
  /// either way.
  trace::SpillCodecId spill_codec = trace::kDefaultSpillCodec;
  /// Online anomaly detection: |z| threshold on per-machine memory load
  /// and CPU idle deltas. 0 disables the detector.
  double anomaly_threshold = 0.0;
  /// Warm-up observations per machine-metric before scoring starts.
  std::uint64_t anomaly_min_samples = 32;
  /// Optional JSONL sink for anomaly records (not owned).
  obs::JsonlWriter* anomaly_writer = nullptr;
  /// Capacity of the bounded staging ring between the shard collectors and
  /// the merge stage (blocks). Small rings bound memory and apply
  /// backpressure to fast shards; output is identical at any capacity.
  /// The fold ring (merged blocks, merge -> fold) takes the same capacity
  /// capped at 2 merged blocks, each of which holds up to block_samples.
  std::size_t ring_capacity = 64;
  /// Lockstep window length in collection periods: every lab is advanced
  /// through window w before any lab starts w+1, so complete iteration
  /// fronts reach the merge while later windows are still simulating.
  std::size_t window_iterations = 16;
  /// Ignored (the merge orders each front in linear time on its own
  /// thread); kept so existing callers still compile.
  std::size_t merge_sort_workers = 0;
};

/// Pipeline health counters of one PipelinedExperiment run. Mirrored into
/// obs::DefaultRegistry gauges under labmon_pipeline_*.
struct PipelineStats {
  // ring_* is the collect ring (shard workers and replay -> merge).
  std::uint64_t staged_blocks = 0;      ///< blocks pushed through the ring
  std::uint64_t ring_push_stalls = 0;   ///< producer waits (ring full)
  std::uint64_t ring_pop_stalls = 0;    ///< merge waits (ring empty)
  double ring_push_wait_s = 0.0;
  double ring_pop_wait_s = 0.0;
  std::size_t ring_peak_occupancy = 0;
  std::size_t ring_capacity = 0;
  // fold_ring_* is the fold ring (merged blocks, merge -> fold): push
  // stalls are the merge waiting on a slower fold.
  std::uint64_t fold_ring_push_stalls = 0;  ///< merge waits (ring full)
  std::uint64_t fold_ring_pop_stalls = 0;   ///< fold waits (ring empty)
  double fold_ring_push_wait_s = 0.0;
  double fold_ring_pop_wait_s = 0.0;
  /// Peak merged blocks waiting between merge and fold (at most 2, or
  /// ring_capacity if smaller): how far the fold lags the merge, which
  /// sets how many merged blocks replay holds in memory.
  std::size_t fold_ring_peak_occupancy = 0;
  /// Peak blocks buffered inside the merge frontier (merge lag).
  std::size_t merge_lag_peak_blocks = 0;
  /// Iteration fronts the merge ordered with the comparison-sort fallback
  /// (MergeFrontier::fallback_sorts): 0 unless a lab's keys in a front
  /// broke the counting pass's check.
  std::uint64_t merge_fallback_sorts = 0;
  std::uint64_t arena_acquired = 0;  ///< block acquisitions (all pools)
  std::uint64_t arena_reused = 0;    ///< served from a recycling pool
  double arena_reuse_ratio = 0.0;
  double wall_s = 0.0;           ///< whole run
  double pipeline_wall_s = 0.0;  ///< overlapped collect/merge/fold region
  /// (wall_s - pipeline_wall_s) / wall_s — time outside the overlapped
  /// region (fleet build, result assembly).
  double serial_fraction = 0.0;
};

/// Spill codec accounting for one run: the encode side sums every segment
/// writer (the merge thread encodes each live lab's blocks as it pops them
/// off the collect ring), the decode side
/// sums the segments replayed for resumed labs — a fresh run merges its
/// blocks from memory and decodes nothing. All zeros when spilling is
/// disabled. Mirrored into obs gauges under labmon_spill_*.
struct SpillCompressionStats {
  std::string codec;  ///< codec newly written segments used ("" = no spill)
  std::uint64_t segments = 0;       ///< segment files written this run
  std::uint64_t segment_bytes = 0;  ///< on-disk bytes incl. framing
  std::uint64_t blocks_encoded = 0;
  std::uint64_t samples_encoded = 0;
  std::uint64_t raw_bytes_encoded = 0;      ///< columnar in-memory footprint
  std::uint64_t payload_bytes_encoded = 0;  ///< encoded payload bytes
  double encode_s = 0.0;
  std::uint64_t blocks_decoded = 0;
  std::uint64_t samples_decoded = 0;
  std::uint64_t raw_bytes_decoded = 0;
  std::uint64_t payload_bytes_decoded = 0;
  double decode_s = 0.0;

  /// Raw columnar bytes per encoded payload byte (0 when nothing spilled).
  [[nodiscard]] double CompressionRatio() const noexcept {
    return payload_bytes_encoded != 0
               ? static_cast<double>(raw_bytes_encoded) /
                     static_cast<double>(payload_bytes_encoded)
               : 0.0;
  }
  [[nodiscard]] double EncodeNsPerSample() const noexcept {
    return samples_encoded != 0
               ? encode_s * 1e9 / static_cast<double>(samples_encoded)
               : 0.0;
  }
  [[nodiscard]] double DecodeNsPerSample() const noexcept {
    return samples_decoded != 0
               ? decode_s * 1e9 / static_cast<double>(samples_decoded)
               : 0.0;
  }
};

/// Everything a streamed run produces. There is no materialised trace:
/// `summary` holds machine count + merged iteration metadata only, and
/// `stream_hash` fingerprints the merged sample sequence
/// (trace::HashSampleStream over the merged blocks).
struct StreamingExperimentResult {
  trace::TraceStore summary;
  analysis::StreamingAnalysisResult analysis;
  ddc::RunStats run_stats;
  workload::GroundTruth ground_truth;
  std::vector<double> perf_index;
  std::vector<LabSummary> labs;
  winsim::Fleet::Totals hardware;
  int days = 0;
  std::uint64_t parse_failures = 0;
  std::uint64_t crosscheck_mismatches = 0;
  std::uint64_t samples = 0;
  std::uint64_t merged_blocks = 0;
  std::uint64_t stream_hash = 0;
  std::uint64_t anomalies = 0;
  std::uint64_t anomaly_observations = 0;
  std::size_t labs_resumed = 0;
  /// Per-lab spill/merge IO failures (empty on a clean run).
  std::vector<std::string> errors;
  /// Staging-ring, merge-lag and arena health of the run.
  PipelineStats pipeline;
  /// Spill codec accounting (zeros when spilling is disabled).
  SpillCompressionStats spill;
};

/// Pipelined campaign engine: the three streaming stages — per-shard
/// collection, iteration-front merge, analysis fold — run concurrently,
/// coupled by bounded staging rings, instead of strictly in sequence.
///
/// Shard workers advance their labs in lockstep windows of
/// `window_iterations` collection periods and seal iteration-aligned
/// blocks into a bounded MPSC staging ring at every window boundary. A
/// dedicated merge thread drains the ring into a trace::MergeFrontier,
/// which emits merged blocks the moment an iteration front is complete
/// across all labs — it never waits for any lab to finish its campaign.
/// When spilling, the merge thread also encodes each live lab's blocks
/// into the lab's segment before merging them, and commits the segment
/// and its checkpoint sidecar on the lab's end-of-stream marker, so the
/// shard workers only collect.
/// Merged blocks flow through a second ring into the
/// analysis::StreamingAnalysis fold running on its own thread. Block
/// buffers recycle backwards through the rings (per-shard pools feed the
/// collectors; the fold returns merged blocks to the emitter), so the
/// steady state allocates nothing on the merge path.
///
/// The result (deterministic for a given config) is bit-identical to
/// Experiment::Run (stream hash, run stats, all analyses) at any shard
/// count, window length, block size, ring capacity and spill mode, and
/// across checkpoint resume (pinned by tests/core/
/// test_pipelined_determinism).
class PipelinedExperiment {
 public:
  [[nodiscard]] static StreamingExperimentResult Run(
      const ExperimentConfig& config, const StreamingOptions& options = {});
};

}  // namespace labmon::core
