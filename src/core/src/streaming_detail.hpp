// Internal helpers of the streamed campaign engine (core/src only — not
// part of the installed API): the per-lab checkpoint payload, its sidecar
// codec, spill-path naming, and the result-assembly steps that mirror
// Experiment::Run's per-shard sums.
#pragma once

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "labmon/core/streaming.hpp"
#include "labmon/obs/registry.hpp"
#include "labmon/trace/spill_codec.hpp"
#include "labmon/winsim/fleet.hpp"

namespace labmon::core::detail {

/// What one lab's collection contributes to the campaign totals — exactly
/// the fields Experiment::Run sums per shard. This is also the sidecar
/// payload: a resumed lab restores these without re-simulating.
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

/// Sums one lab's checkpoint into the campaign result (iteration-derived
/// RunStats fields are installed later from the merged iteration records).
inline void AccumulateCheckpoint(StreamingExperimentResult& result,
                                 const LabCheckpoint& cp) {
  result.run_stats.attempts += cp.stats.attempts;
  result.run_stats.successes += cp.stats.successes;
  result.run_stats.timeouts += cp.stats.timeouts;
  result.run_stats.errors += cp.stats.errors;
  result.run_stats.missing += cp.stats.missing;
  result.run_stats.corrupt += cp.stats.corrupt;
  result.run_stats.recovered_after_retry += cp.stats.recovered_after_retry;
  result.run_stats.retry_attempts += cp.stats.retry_attempts;
  result.run_stats.retried_collections += cp.stats.retried_collections;
  result.run_stats.faults_injected += cp.stats.faults_injected;
  result.ground_truth += cp.truth;
  result.parse_failures += cp.parse_failures;
  result.crosscheck_mismatches += cp.crosscheck_mismatches;
}

/// Folds one finished segment writer into the run's encode-side spill
/// accounting. Callers on worker threads must hold their own lock.
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
/// specs) into the result and returns the analysis lab keys.
inline std::vector<analysis::LabKey> FillFleetSummaries(
    StreamingExperimentResult& result, const winsim::Fleet& fleet) {
  result.hardware = fleet.HardwareTotals();
  result.perf_index.reserve(fleet.size());
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    result.perf_index.push_back(fleet.machine(i).spec().CombinedIndex());
  }
  std::vector<analysis::LabKey> keys;
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
    keys.push_back(analysis::LabKey{lab.name, lab.first, lab.count});
  }
  return keys;
}

/// Iteration aggregates from result.summary, exactly as Experiment::Run
/// computes them from the merged trace.
inline void ComputeIterationAggregates(StreamingExperimentResult& result) {
  double sum_s = 0.0;
  for (const trace::IterationInfo& it : result.summary.iterations()) {
    const double duration = static_cast<double>(it.end_t - it.start_t);
    sum_s += duration;
    result.run_stats.max_iteration_s =
        std::max(result.run_stats.max_iteration_s, duration);
  }
  const std::size_t n = result.summary.iterations().size();
  result.run_stats.iterations = n;
  result.run_stats.mean_iteration_s =
      n ? sum_s / static_cast<double>(n) : 0.0;
  result.run_stats.total_span_s =
      n ? static_cast<double>(result.summary.iterations().back().end_t) : 0.0;
}

}  // namespace labmon::core::detail
