// Internal helpers of the campaign engines (core/src only — not part of
// the installed API): the per-lab checkpoint payload, its sidecar codec,
// spill-path naming, and the per-lab setup and result-assembly steps that
// Experiment::Run and PipelinedExperiment::Run share, so both engines
// derive and sum a lab's contribution the same way.
#pragma once

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <span>
#include <sstream>
#include <string>

#include "labmon/core/streaming.hpp"
#include "labmon/obs/registry.hpp"
#include "labmon/trace/sink.hpp"
#include "labmon/trace/spill_codec.hpp"
#include "labmon/util/rng.hpp"
#include "labmon/winsim/fleet.hpp"

namespace labmon::core::detail {

/// What one lab's collection contributes to the campaign totals. This is
/// also the sidecar payload: a resumed lab restores these without
/// re-simulating.
struct LabCheckpoint {
  ddc::RunStats stats;
  workload::GroundTruth truth;
  std::uint64_t parse_failures = 0;
  std::uint64_t crosscheck_mismatches = 0;
  std::uint64_t blocks = 0;
  /// Codec the lab's segment was written under. Informational: resume
  /// re-opens the segment and dispatches on its actual magic, so a
  /// checkpoint written under either codec resumes under any requested
  /// codec (cross-codec resume is pinned by the determinism tests).
  trace::SpillCodecId codec = trace::kDefaultSpillCodec;
};

inline constexpr char kSidecarMagic[] = "LMSGCK";
// v2 added the "codec" line; v1 sidecars are simply re-simulated.
inline constexpr std::uint64_t kSidecarVersion = 2;

inline std::string LabFileStem(const std::string& dir, std::size_t lab) {
  char name[32];
  std::snprintf(name, sizeof(name), "lab%04zu", lab);
  return dir + "/" + name;
}

inline std::string SegmentPath(const std::string& dir, std::size_t lab) {
  return LabFileStem(dir, lab) + ".lmsg";
}

inline std::string SidecarPath(const std::string& dir, std::size_t lab) {
  return LabFileStem(dir, lab) + ".ck";
}

/// The sidecar is the checkpoint commit point: written (atomically, via
/// temp file + rename) only after the lab's segment is complete, so a
/// crash mid-lab leaves no sidecar and the lab is simply re-simulated.
inline bool WriteSidecar(const std::string& path, std::uint64_t fingerprint,
                         std::size_t lab, const LabCheckpoint& cp) {
  std::ostringstream out;
  out << kSidecarMagic << ' ' << kSidecarVersion << '\n';
  out << "fingerprint " << fingerprint << '\n';
  out << "lab " << lab << '\n';
  out << "codec " << trace::SpillCodecName(cp.codec) << '\n';
  out << "blocks " << cp.blocks << '\n';
  out << "parse_failures " << cp.parse_failures << '\n';
  out << "crosscheck_mismatches " << cp.crosscheck_mismatches << '\n';
  const ddc::RunStats& s = cp.stats;
  out << "stats " << s.attempts << ' ' << s.successes << ' ' << s.timeouts
      << ' ' << s.errors << ' ' << s.missing << ' ' << s.corrupt << ' '
      << s.recovered_after_retry << ' ' << s.retry_attempts << ' '
      << s.retried_collections << ' ' << s.faults_injected << '\n';
  const workload::GroundTruth& t = cp.truth;
  out << "truth " << t.boots << ' ' << t.shutdowns << ' ' << t.reboots << ' '
      << t.short_cycles << ' ' << t.class_logins << ' ' << t.walkin_logins
      << ' ' << t.forgotten_sessions << ' ' << t.lost_arrivals << ' '
      << t.sweep_shutdowns << '\n';

  const std::string tmp = path + ".tmp";
  {
    std::ofstream file(tmp, std::ios::binary | std::ios::trunc);
    if (!file) return false;
    const std::string bytes = out.str();
    file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    file.flush();
    if (!file) return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

/// Parses and validates a sidecar; false on any mismatch (wrong magic or
/// version, foreign fingerprint, wrong lab index, truncation).
inline bool LoadSidecar(const std::string& path, std::uint64_t fingerprint,
                        std::size_t lab, LabCheckpoint& cp) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return false;
  std::string magic;
  std::uint64_t version = 0;
  std::uint64_t stored_fingerprint = 0;
  std::uint64_t stored_lab = 0;
  std::string key;
  if (!(file >> magic >> version) || magic != kSidecarMagic ||
      version != kSidecarVersion) {
    return false;
  }
  if (!(file >> key >> stored_fingerprint) || key != "fingerprint" ||
      stored_fingerprint != fingerprint) {
    return false;
  }
  if (!(file >> key >> stored_lab) || key != "lab" || stored_lab != lab) {
    return false;
  }
  std::string codec_name;
  if (!(file >> key >> codec_name) || key != "codec") return false;
  const auto codec = trace::ParseSpillCodecName(codec_name);
  if (!codec.has_value()) return false;
  cp.codec = *codec;
  if (!(file >> key >> cp.blocks) || key != "blocks") return false;
  if (!(file >> key >> cp.parse_failures) || key != "parse_failures") {
    return false;
  }
  if (!(file >> key >> cp.crosscheck_mismatches) ||
      key != "crosscheck_mismatches") {
    return false;
  }
  ddc::RunStats& s = cp.stats;
  if (!(file >> key >> s.attempts >> s.successes >> s.timeouts >> s.errors >>
        s.missing >> s.corrupt >> s.recovered_after_retry >>
        s.retry_attempts >> s.retried_collections >> s.faults_injected) ||
      key != "stats") {
    return false;
  }
  workload::GroundTruth& t = cp.truth;
  if (!(file >> key >> t.boots >> t.shutdowns >> t.reboots >>
        t.short_cycles >> t.class_logins >> t.walkin_logins >>
        t.forgotten_sessions >> t.lost_arrivals >> t.sweep_shutdowns) ||
      key != "truth") {
    return false;
  }
  return true;
}

/// Sums the attempt counters of `from` into `into`. The iteration-derived
/// fields are left alone: they come from the merged iteration records
/// (ComputeIterationAggregates).
inline void AddAttemptCounters(ddc::RunStats& into,
                               const ddc::RunStats& from) {
  into.attempts += from.attempts;
  into.successes += from.successes;
  into.timeouts += from.timeouts;
  into.errors += from.errors;
  into.missing += from.missing;
  into.corrupt += from.corrupt;
  into.recovered_after_retry += from.recovered_after_retry;
  into.retry_attempts += from.retry_attempts;
  into.retried_collections += from.retried_collections;
  into.faults_injected += from.faults_injected;
}

/// The contribution of a lab whose collection just finished. The segment
/// fields (`blocks`, `codec`) are the caller's to fill.
inline LabCheckpoint FinishedLab(const ddc::RunStats& stats,
                                 const workload::GroundTruth& truth,
                                 const trace::TraceStoreSink& sink) {
  LabCheckpoint cp;
  AddAttemptCounters(cp.stats, stats);
  cp.truth = truth;
  cp.parse_failures = sink.parse_failures();
  cp.crosscheck_mismatches = sink.crosscheck_mismatches();
  return cp;
}

/// Sums one lab's contribution into an ExperimentResult or a
/// StreamingExperimentResult. Every field is an integer count, so the
/// totals do not depend on the order labs are summed in.
template <typename Result>
void AccumulateCheckpoint(Result& result, const LabCheckpoint& cp) {
  AddAttemptCounters(result.run_stats, cp.stats);
  result.ground_truth += cp.truth;
  result.parse_failures += cp.parse_failures;
  result.crosscheck_mismatches += cp.crosscheck_mismatches;
}

/// One lab's collector configuration and fault plan.
struct LabCollection {
  ddc::CoordinatorConfig collector;
  faultsim::FaultPlan plan;
};

/// Derives lab `lab`'s collector and fault plan from the campaign's. Both
/// draw from the lab's own seed substreams, so a lab's probes and faults do
/// not depend on how labs are grouped into shards.
inline LabCollection LabCollectionFor(const ExperimentConfig& config,
                                      const winsim::LabInfo& info,
                                      std::size_t lab) {
  LabCollection out{config.collector, config.fault_plan};
  out.collector.structured_fast_path = config.structured_fast_path;
  out.collector.first_machine = info.first;
  out.collector.machine_count = info.count;
  out.collector.aligned_schedule = true;
  out.collector.seed = util::DeriveSeed(config.collector.seed,
                                        util::seed_stream::kCollector, lab);
  out.plan.seed = util::DeriveSeed(config.fault_plan.seed,
                                   util::seed_stream::kFaults, lab);
  return out;
}

/// Folds one finished segment writer into the run's encode-side spill
/// accounting. Not synchronised: in a pipelined run only the merge thread
/// calls it.
inline void AccumulateSpillEncode(SpillCompressionStats& spill,
                                  const trace::SpillCodecStats& stats,
                                  std::uint64_t segment_bytes) {
  ++spill.segments;
  spill.segment_bytes += segment_bytes;
  spill.blocks_encoded += stats.blocks;
  spill.samples_encoded += stats.samples;
  spill.raw_bytes_encoded += stats.raw_bytes;
  spill.payload_bytes_encoded += stats.payload_bytes;
  spill.encode_s += static_cast<double>(stats.ns) * 1e-9;
}

/// Folds one drained segment reader into the decode-side accounting.
inline void AccumulateSpillDecode(SpillCompressionStats& spill,
                                  const trace::SpillCodecStats& stats) {
  spill.blocks_decoded += stats.blocks;
  spill.samples_decoded += stats.samples;
  spill.raw_bytes_decoded += stats.raw_bytes;
  spill.payload_bytes_decoded += stats.payload_bytes;
  spill.decode_s += static_cast<double>(stats.ns) * 1e-9;
}

/// Mirrors the run's spill accounting into obs gauges (no-op when the run
/// did not spill). Per-column ratios are kept by the codec itself under
/// labmon_spill_column_*.
inline void PublishSpillGauges(const SpillCompressionStats& spill) {
  if (spill.codec.empty() || spill.segments == 0) return;
  auto& registry = obs::DefaultRegistry();
  const obs::Labels labels{{"codec", spill.codec}};
  registry
      .GetGauge("labmon_spill_compression_ratio",
                "Raw columnar bytes per encoded spill payload byte.", labels)
      .Set(spill.CompressionRatio());
  registry
      .GetGauge("labmon_spill_segment_bytes",
                "On-disk spill segment bytes written by the last run.",
                labels)
      .Set(static_cast<double>(spill.segment_bytes));
  registry
      .GetGauge("labmon_spill_encode_ns_per_sample",
                "Spill encode cost of the last run, ns per sample.", labels)
      .Set(spill.EncodeNsPerSample());
  registry
      .GetGauge("labmon_spill_decode_ns_per_sample",
                "Spill decode cost of the last run, ns per sample.", labels)
      .Set(spill.DecodeNsPerSample());
}

/// Copies fleet-derived summaries (hardware totals, perf index, per-lab
/// specs) into an ExperimentResult or a StreamingExperimentResult.
template <typename Result>
void FillFleetSummaries(Result& result, const winsim::Fleet& fleet) {
  result.hardware = fleet.HardwareTotals();
  result.perf_index.reserve(fleet.size());
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    result.perf_index.push_back(fleet.machine(i).spec().CombinedIndex());
  }
  for (const auto& lab : fleet.labs()) {
    const auto& spec = fleet.machine(lab.first).spec();
    LabSummary summary;
    summary.name = lab.name;
    summary.machine_count = lab.count;
    summary.cpu_model = spec.cpu_model;
    summary.cpu_ghz = spec.cpu_ghz;
    summary.ram_mb = spec.ram_mb;
    summary.disk_gb = spec.disk_gb;
    summary.int_index = spec.int_index;
    summary.fp_index = spec.fp_index;
    result.labs.push_back(std::move(summary));
  }
}

/// Iteration aggregates from the merged (campus-wide) iteration records:
/// an iteration spans the earliest lab start to the latest lab end.
inline void ComputeIterationAggregates(
    ddc::RunStats& stats, std::span<const trace::IterationInfo> iterations) {
  double sum_s = 0.0;
  for (const trace::IterationInfo& it : iterations) {
    const double duration = static_cast<double>(it.end_t - it.start_t);
    sum_s += duration;
    stats.max_iteration_s = std::max(stats.max_iteration_s, duration);
  }
  const std::size_t n = iterations.size();
  stats.iterations = n;
  stats.mean_iteration_s = n ? sum_s / static_cast<double>(n) : 0.0;
  stats.total_span_s =
      n ? static_cast<double>(iterations.back().end_t) : 0.0;
}

}  // namespace labmon::core::detail
