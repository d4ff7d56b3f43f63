// fleet_report: the full 77-day reproduction. Prints every table/figure of
// the paper (measured vs published) and exports figure data as CSV.
//
//   $ ./fleet_report [output_dir] [days] [seed] [scenario.ini]
//                    [--workers N] [--snapshot-dir DIR]
//                    [--shards N] [--scale-labs K]
//                    [--fault-plan plan.ini] [--retry N]
//                    [--stream] [--spill-dir DIR] [--resume]
//                    [--spill-codec lmsg1|lmsg2]
//                    [--block-samples N] [--ring-capacity N]
//                    [--anomaly-threshold Z]
//                    [--metrics-out m.prom]
//                    [--trace-out t.json] [--events-out e.jsonl]
//                    [--prof-out prof.json]
//                    [--harvest-dag N] [--job-mix NAME] [--deadline HOURS]
//
// --harvest-dag N switches to harvest mode: instead of the monitoring
// report, an opportunistic DAG of N jobs (shape from --job-mix: bag,
// chain, fanio, layered or mixed — default mixed) is scheduled on the
// idle machines of the same simulated campus, and a goodput/eviction/
// equivalence summary is printed. --deadline HOURS gives every job a
// soft deadline that many hours after submission (misses are counted,
// not enforced). --fault-plan applies chaos to the harvest too.
//
// --stream runs the campaign through the pipelined streaming engine:
// collection seals fixed-size trace blocks (--block-samples, default
// 8192) instead of materialising the trace, and shard workers overlap
// simulation with the merge and the incremental analysis fold via a
// bounded staging ring (--ring-capacity, default 64 blocks) — peak memory
// is O(block), independent of --days, and the analysis output is
// bit-identical to the materialised engine. The run summary adds
// ring/merge-lag/arena-reuse stats and --prof-out wraps the profile as
// {"prof": ..., "pipeline": ...}. --spill-dir DIR also spills sealed
// blocks to per-lab checkpointed segments in DIR; --resume reuses valid
// checkpoints found there (a campaign killed mid-run restarts where it
// left off). --spill-codec picks the segment format for newly written
// spills (default lmsg2, the per-column compressed one; lmsg1 is the
// uncompressed original) — read-back always dispatches on each segment's
// own magic, so resume may mix codecs and the analyses are bit-identical
// either way. --anomaly-threshold Z enables online per-machine z-score
// anomaly detection (|z| >= Z on memory load and CPU idle) and writes
// anomalies.jsonl into output_dir. Streaming mode skips the CSV/trace
// exports (there is no materialised trace to export).
//
// Numeric arguments are parsed strictly: a malformed or out-of-range
// days, seed, --workers, --retry, --shards, --scale-labs, --block-samples,
// --ring-capacity, --anomaly-threshold, --harvest-dag or --deadline value
// exits 1 with a message naming it.
//
// --shards N runs the simulation over N real threads (0 = one per core,
// default). Output-invariant: any shard count yields the bit-identical
// trace and replays the same snapshot. --scale-labs K replicates the 11
// paper labs K times (169*K machines) for scale studies.
//
// --fault-plan loads a labmon::faultsim scenario (crashes, lab outages,
// wire corruption, ...) injected at the transport boundary; --retry N
// bounds collection retries per machine per iteration (default 1 = no
// retries). Without either flag the run is bit-identical to a build
// without the fault layer.
//
// --snapshot-dir reuses a content-keyed experiment snapshot from DIR (and
// writes one after simulating), so repeated reports on the same config
// skip the simulation entirely. Defaults to $LABMON_SNAPSHOT_DIR.
//
// --workers bounds the analysis-pipeline sweep (0 = all cores); the
// report is bitwise identical for any worker count.
//
// --metrics-out wires the collector into the obs default registry and
// writes a Prometheus text file plus a campaign health report (response
// rate per lab, iteration-overrun distribution — the paper's 6,883-vs-7,392
// effect made visible). --trace-out enables span tracing and writes a
// Chrome trace_event JSON loadable in chrome://tracing / Perfetto.
// --events-out writes the JSONL event stream (log lines + spans + metrics).
//
// --prof-out PATH enables the obs::prof profiler for the whole run and
// writes the per-shard x per-phase wall/allocation report to PATH plus a
// chrome://tracing timeline next to it (PATH with a "_trace.json" suffix).
// Profiling never changes the collected trace (bit-identical on or off).
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <vector>

#include "labmon/analysis/aggregate.hpp"
#include "labmon/analysis/availability.hpp"
#include "labmon/analysis/capacity.hpp"
#include "labmon/analysis/equivalence.hpp"
#include "labmon/analysis/per_lab.hpp"
#include "labmon/analysis/session_hours.hpp"
#include "labmon/analysis/stability.hpp"
#include "labmon/analysis/weekly.hpp"
#include "labmon/core/experiment.hpp"
#include "labmon/core/report.hpp"
#include "labmon/core/streaming.hpp"
#include "labmon/faultsim/fault_plan.hpp"
#include "labmon/harvest/dag_scheduler.hpp"
#include "labmon/obs/exporters.hpp"
#include "labmon/obs/prof.hpp"
#include "labmon/trace/binary_io.hpp"
#include "labmon/winsim/paper_specs.hpp"
#include "labmon/workload/config_io.hpp"
#include "labmon/workload/driver.hpp"
#include "labmon/util/cli.hpp"
#include "labmon/util/log.hpp"
#include "labmon/util/strings.hpp"

namespace {

using namespace labmon;
using util::DoubleArg;
using util::IntArg;

/// Response rate per lab and the overrun distribution, computed straight
/// from the registry snapshot (exercises the same data a scrape would see).
std::string CampaignHealthReport(const obs::Registry& registry) {
  std::ostringstream out;
  out << "--- campaign health (from metrics registry) ---\n";
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> by_lab;
  for (const auto& family : registry.Snapshot()) {
    if (family.name == "labmon_ddc_probe_outcomes_total") {
      for (const auto& point : family.counters) {
        std::string lab;
        std::string outcome;
        for (const auto& [key, value] : point.labels) {
          if (key == "lab") lab = value;
          if (key == "outcome") outcome = value;
        }
        auto& [ok, total] = by_lab[lab];
        total += point.value;
        if (outcome == "ok") ok += point.value;
      }
    } else if (family.name == "labmon_ddc_iteration_overrun_seconds") {
      for (const auto& point : family.histograms) {
        out << "iteration overrun distribution (" << point.count
            << " iterations):\n";
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < point.boundaries.size(); ++i) {
          cumulative += point.buckets[i];
          out << "  <= " << util::FormatFixed(point.boundaries[i], 0)
              << " s: " << cumulative << '\n';
        }
        out << "  >  "
            << util::FormatFixed(point.boundaries.empty()
                                     ? 0.0
                                     : point.boundaries.back(),
                                 0)
            << " s: " << point.count - cumulative << '\n';
        out << "  mean overrun: "
            << util::FormatFixed(
                   point.count ? point.sum / static_cast<double>(point.count)
                               : 0.0,
                   1)
            << " s\n";
      }
    }
  }
  out << "response rate per lab:\n";
  for (const auto& [lab, counts] : by_lab) {
    const auto [ok, total] = counts;
    out << "  " << lab << ": "
        << util::FormatFixed(
               total ? 100.0 * static_cast<double>(ok) /
                           static_cast<double>(total)
                     : 0.0,
               1)
        << "% (" << ok << "/" << total << ")\n";
  }
  return out.str();
}

/// Pipeline stats as a JSON object — spliced into --prof-out so the same
/// file carries the per-phase profile and the ring/merge/arena counters
/// (the numbers bench/prof_gate budgets).
std::string PipelineStatsJson(const core::PipelineStats& s) {
  std::ostringstream json;
  json << "{\"staged_blocks\": " << s.staged_blocks
       << ", \"ring_capacity\": " << s.ring_capacity
       << ", \"ring_peak_occupancy\": " << s.ring_peak_occupancy
       << ", \"ring_push_stalls\": " << s.ring_push_stalls
       << ", \"ring_pop_stalls\": " << s.ring_pop_stalls
       << ", \"ring_push_wait_s\": " << util::FormatFixed(s.ring_push_wait_s, 6)
       << ", \"ring_pop_wait_s\": " << util::FormatFixed(s.ring_pop_wait_s, 6)
       << ", \"fold_ring_push_stalls\": " << s.fold_ring_push_stalls
       << ", \"fold_ring_pop_stalls\": " << s.fold_ring_pop_stalls
       << ", \"fold_ring_push_wait_s\": "
       << util::FormatFixed(s.fold_ring_push_wait_s, 6)
       << ", \"fold_ring_pop_wait_s\": "
       << util::FormatFixed(s.fold_ring_pop_wait_s, 6)
       << ", \"fold_ring_peak_occupancy\": " << s.fold_ring_peak_occupancy
       << ", \"merge_lag_peak_blocks\": " << s.merge_lag_peak_blocks
       << ", \"merge_fallback_sorts\": " << s.merge_fallback_sorts
       << ", \"arena_acquired\": " << s.arena_acquired
       << ", \"arena_reused\": " << s.arena_reused
       << ", \"arena_reuse_ratio\": "
       << util::FormatFixed(s.arena_reuse_ratio, 4)
       << ", \"wall_s\": " << util::FormatFixed(s.wall_s, 6)
       << ", \"pipeline_wall_s\": " << util::FormatFixed(s.pipeline_wall_s, 6)
       << ", \"serial_fraction\": "
       << util::FormatFixed(s.serial_fraction, 4) << "}";
  return json.str();
}

bool WriteFileOrComplain(const std::string& path,
                         const std::function<void(std::ostream&)>& fill) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::cerr << "cannot open " << path << " for writing\n";
    return false;
  }
  fill(out);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  util::log::SetLevel(util::log::Level::kInfo);

  std::string metrics_out;
  std::string trace_out;
  std::string events_out;
  std::string prof_out;
  std::string snapshot_dir;
  std::string fault_plan_path;
  int retry_attempts = 0;
  int shards = 0;
  int scale_labs = 0;  // 0 = not passed; keep the scenario/default value
  bool stream = false;
  bool resume = false;
  std::string spill_dir;
  trace::SpillCodecId spill_codec = trace::kDefaultSpillCodec;
  std::size_t block_samples = 0;  // 0 = engine default
  std::size_t ring_capacity = 0;  // 0 = engine default
  double anomaly_threshold = 0.0;
  std::size_t harvest_jobs = 0;  // > 0 switches to harvest mode
  harvest::JobMixKind job_mix = harvest::JobMixKind::kMixed;
  double deadline_hours = 0.0;
  if (const char* env = std::getenv("LABMON_SNAPSHOT_DIR")) snapshot_dir = env;
  std::size_t workers = 0;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto flag_value = [&](const char* name) -> const char* {
      if (arg != name) return nullptr;
      if (i + 1 >= argc) {
        std::cerr << name << " requires a path argument\n";
        std::exit(1);
      }
      return argv[++i];
    };
    if (const char* v = flag_value("--metrics-out")) {
      metrics_out = v;
    } else if (const char* v = flag_value("--trace-out")) {
      trace_out = v;
    } else if (const char* v = flag_value("--events-out")) {
      events_out = v;
    } else if (const char* v = flag_value("--prof-out")) {
      prof_out = v;
    } else if (const char* v = flag_value("--snapshot-dir")) {
      snapshot_dir = v;
    } else if (const char* v = flag_value("--workers")) {
      workers = static_cast<std::size_t>(IntArg("--workers", v, 0, 4096));
    } else if (const char* v = flag_value("--fault-plan")) {
      fault_plan_path = v;
    } else if (const char* v = flag_value("--retry")) {
      retry_attempts = static_cast<int>(IntArg("--retry", v, 1, 1000));
    } else if (const char* v = flag_value("--shards")) {
      shards = static_cast<int>(IntArg("--shards", v, 0, 1024));  // 0 = auto
    } else if (const char* v = flag_value("--scale-labs")) {
      scale_labs = static_cast<int>(IntArg("--scale-labs", v, 1, 1024));
    } else if (arg == "--stream") {
      stream = true;
    } else if (arg == "--resume") {
      resume = true;
    } else if (const char* v = flag_value("--spill-dir")) {
      spill_dir = v;
    } else if (const char* v = flag_value("--spill-codec")) {
      const auto parsed = trace::ParseSpillCodecName(v);
      if (!parsed) {
        std::cerr << "unknown --spill-codec \"" << v
                  << "\" (want lmsg1 or lmsg2)\n";
        return 1;
      }
      spill_codec = *parsed;
    } else if (const char* v = flag_value("--block-samples")) {
      block_samples = static_cast<std::size_t>(
          IntArg("--block-samples", v, 1, std::int64_t{1} << 24));
    } else if (const char* v = flag_value("--ring-capacity")) {
      ring_capacity = static_cast<std::size_t>(
          IntArg("--ring-capacity", v, 1, std::int64_t{1} << 20));
    } else if (const char* v = flag_value("--anomaly-threshold")) {
      anomaly_threshold = DoubleArg("--anomaly-threshold", v, 0.0, 1e6);
    } else if (const char* v = flag_value("--harvest-dag")) {
      harvest_jobs = static_cast<std::size_t>(
          IntArg("--harvest-dag", v, 1, std::int64_t{1} << 30));
    } else if (const char* v = flag_value("--job-mix")) {
      const auto parsed = harvest::ParseJobMixName(v);
      if (!parsed) {
        std::cerr << "unknown --job-mix \"" << v
                  << "\" (want bag, chain, fanio, layered or mixed)\n";
        return 1;
      }
      job_mix = *parsed;
    } else if (const char* v = flag_value("--deadline")) {
      deadline_hours = DoubleArg("--deadline", v, 0.0, 1e6);  // 0 = none
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "unknown flag " << arg << '\n';
      return 1;
    } else {
      positional.push_back(arg);
    }
  }

  core::ExperimentConfig config;
  if (positional.size() > 1) {
    config.campus.days =
        static_cast<int>(IntArg("days", positional[1], 1, 5000));
  }
  if (positional.size() > 2) {
    config.campus.seed = static_cast<std::uint64_t>(IntArg(
        "seed", positional[2], 0, std::numeric_limits<std::int64_t>::max()));
  }

  const std::string out_dir = !positional.empty() ? positional[0] : "report_out";
  // Create the output directory up front: exporter files (--events-out
  // etc.) commonly point inside it and are opened before the CSV writer
  // would otherwise create it.
  {
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    if (ec) {
      std::cerr << "cannot create directory: " << out_dir << '\n';
      return 1;
    }
  }
  if (positional.size() > 3) {
    auto loaded = workload::LoadCampusConfig(positional[3], config.campus);
    if (!loaded.ok()) {
      std::cerr << "scenario file error: " << loaded.error() << '\n';
      return 1;
    }
    config.campus = loaded.value();
    std::cout << "scenario overrides loaded from " << positional[3] << "\n";
  }
  if (!fault_plan_path.empty()) {
    auto plan = faultsim::LoadFaultPlan(fault_plan_path);
    if (!plan.ok()) {
      std::cerr << "fault plan error: " << plan.error() << '\n';
      return 1;
    }
    config.fault_plan = plan.value();
    std::cout << "fault plan loaded from " << fault_plan_path << "\n";
  }
  if (retry_attempts > 0) config.collector.retry.max_attempts = retry_attempts;
  config.shards = shards;
  if (scale_labs > 0) config.campus.scale_labs = scale_labs;

  if (harvest_jobs > 0) {
    // Harvest mode: schedule an opportunistic DAG on the idle machines of
    // the same simulated campus instead of running the monitoring report.
    util::Rng rng(config.campus.seed);
    winsim::Fleet fleet = winsim::MakePaperFleet(rng);
    workload::WorkloadDriver driver(fleet, config.campus);
    harvest::JobMixOptions mix;
    mix.kind = job_mix;
    mix.jobs = harvest_jobs;
    mix.seed = config.campus.seed;
    if (deadline_hours > 0.0) {
      mix.deadline = static_cast<util::SimTime>(deadline_hours * 3600.0);
    }
    const harvest::JobDag dag = harvest::MakeJobMix(mix);
    harvest::DagPolicy policy;
    harvest::DagScheduler scheduler(fleet, driver, policy);
    if (config.fault_plan.Active()) scheduler.SetFaultPlan(config.fault_plan);
    const harvest::DagResult r =
        scheduler.Run(dag, 0, config.campus.EndTime());

    std::cout << "--- harvest dag summary ---\n";
    std::cout << "mix: " << harvest::JobMixName(job_mix) << ", "
              << r.jobs_total << " jobs ("
              << util::FormatFixed(dag.TotalIndexSeconds() / 3600.0, 1)
              << " index-hours), " << config.campus.days
              << "-day horizon, seed " << config.campus.seed << '\n';
    std::cout << "completed: " << r.jobs_completed << ", failed: "
              << r.jobs_failed << ", makespan: "
              << (r.dag_finished
                      ? util::FormatFixed(r.makespan_s / 3600.0, 1) + " h"
                      : std::string("DNF"))
              << '\n';
    if (deadline_hours > 0.0) {
      std::cout << "deadline: " << util::FormatFixed(deadline_hours, 1)
                << " h soft, " << r.deadline_misses << " missed\n";
    }
    std::cout << "goodput: " << util::FormatFixed(r.useful_index_seconds / 3600.0, 1)
              << " index-hours useful, "
              << util::FormatFixed(100.0 * r.WasteFraction(), 1)
              << "% wasted to evictions\n";
    std::cout << "evictions: " << r.evictions_login << " login, "
              << r.evictions_poweroff << " poweroff, " << r.evictions_chaos
              << " chaos; " << r.retries << " retries, "
              << r.checkpoints_written << " checkpoints";
    if (config.fault_plan.Active()) {
      std::cout << ", " << r.chaos_task_failures << " chaos task failures";
    }
    std::cout << '\n';
    std::cout << "effective dedicated machines: "
              << util::FormatFixed(r.effective_dedicated_machines, 1) << " of "
              << fleet.size() << " (equivalence ratio "
              << util::FormatFixed(r.effective_dedicated_machines /
                                       static_cast<double>(fleet.size()),
                                   3)
              << "; paper Figure 6 mean_total = 0.51)\n";
    if (r.dag_finished) {
      std::cout << "vs dedicated cluster: "
                << util::FormatFixed(r.harvest_slowdown, 1)
                << "x slowdown, critical path stretched "
                << util::FormatFixed(r.critical_path_stretch, 1) << "x\n";
    }
    return 0;
  }

  // Observability wiring: metrics registry, span tracer, JSONL log capture.
  if (!metrics_out.empty()) {
    config.collector.metrics = &obs::DefaultRegistry();
  }
  if (!trace_out.empty() || !events_out.empty()) {
    obs::DefaultTracer().set_enabled(true);
    config.collector.tracer = &obs::DefaultTracer();
  }
  std::ofstream events_file;
  std::unique_ptr<obs::JsonlWriter> events;
  if (!events_out.empty()) {
    events_file.open(events_out, std::ios::binary);
    if (!events_file) {
      std::cerr << "cannot open " << events_out << " for writing\n";
      return 1;
    }
    events = std::make_unique<obs::JsonlWriter>(events_file);
    // Tee log lines into the event stream (stderr keeps working via the
    // sink printing too).
    util::log::SetSink([&](util::log::Level level, std::string_view message) {
      obs::MakeLogSink(*events)(level, message);
      std::cerr << "[labmon] " << message << '\n';
    });
  }

  if (!prof_out.empty()) obs::prof::Enable();

  if (stream) {
    core::StreamingOptions streaming;
    if (block_samples > 0) streaming.block_samples = block_samples;
    if (ring_capacity > 0) streaming.ring_capacity = ring_capacity;
    streaming.spill_dir = spill_dir;
    streaming.spill_codec = spill_codec;
    streaming.resume = resume;
    streaming.anomaly_threshold = anomaly_threshold;
    std::ofstream anomaly_file;
    std::unique_ptr<obs::JsonlWriter> anomaly_writer;
    const std::string anomalies_path = out_dir + "/anomalies.jsonl";
    if (anomaly_threshold > 0.0) {
      anomaly_file.open(anomalies_path, std::ios::binary);
      if (!anomaly_file) {
        std::cerr << "cannot open " << anomalies_path << " for writing\n";
        return 1;
      }
      anomaly_writer = std::make_unique<obs::JsonlWriter>(anomaly_file);
      streaming.anomaly_writer = anomaly_writer.get();
    }

    const auto streamed = core::PipelinedExperiment::Run(config, streaming);
    if (!streamed.errors.empty()) {
      for (const auto& error : streamed.errors) {
        std::cerr << "streaming error: " << error << '\n';
      }
      return 1;
    }

    const auto& a = streamed.analysis;
    std::cout << analysis::RenderTable2(a.table2, true) << '\n';
    std::cout << analysis::RenderSessionHourProfile(a.session_hours) << '\n';
    std::cout << "mean powered-on machines: "
              << util::FormatFixed(a.availability.series.mean_powered_on, 2)
              << " (paper: 84.87), mean user-free: "
              << util::FormatFixed(a.availability.series.mean_user_free, 2)
              << " (paper: 57.29)\n\n";
    std::cout << analysis::RenderUptimeRanking(a.availability.ranking, 10)
              << '\n';
    std::cout << analysis::RenderWeeklyProfiles(a.weekly) << '\n';
    std::cout << analysis::RenderEquivalence(a.equivalence) << '\n';
    std::cout << analysis::RenderStability(a.stability.sessions,
                                           a.stability.smart)
              << '\n';
    std::cout << analysis::RenderPerLabUsage(a.per_lab.usage) << '\n';
    std::cout << analysis::RenderResourceHeadroom(a.per_lab.headroom) << '\n';
    std::cout << analysis::RenderCapacity(a.capacity, {}) << '\n';

    std::cout << "--- streaming run summary ---\n";
    const auto& p = streamed.pipeline;
    std::cout << "pipelined engine: " << p.staged_blocks
              << " blocks staged through a ring of " << p.ring_capacity
              << " (peak occupancy " << p.ring_peak_occupancy << ", "
              << p.ring_push_stalls << " push / " << p.ring_pop_stalls
              << " pop stalls), fold ring peak occupancy "
              << p.fold_ring_peak_occupancy << ", "
              << p.fold_ring_push_stalls << " push / "
              << p.fold_ring_pop_stalls << " pop stalls ("
              << util::FormatFixed(p.fold_ring_push_wait_s, 3) << " / "
              << util::FormatFixed(p.fold_ring_pop_wait_s, 3)
              << " s parked), merge lag peak " << p.merge_lag_peak_blocks
              << " blocks, " << p.merge_fallback_sorts
              << " merge fallback sorts, arena reuse "
              << util::FormatFixed(100.0 * p.arena_reuse_ratio, 1)
              << "%, serial fraction "
              << util::FormatFixed(p.serial_fraction, 3) << " ("
              << util::FormatFixed(p.pipeline_wall_s, 3) << " s of "
              << util::FormatFixed(p.wall_s, 3) << " s overlapped)\n";
    std::cout << "iterations: " << streamed.run_stats.iterations
              << ", attempts: " << streamed.run_stats.attempts
              << ", samples: " << streamed.samples << " streamed through "
              << streamed.merged_blocks << " merged blocks of <= "
              << streaming.block_samples << '\n';
    std::cout << "response rate: "
              << util::FormatFixed(100.0 * streamed.run_stats.ResponseRate(),
                                   1)
              << "% (paper: 50.2%)\n";
    std::cout << "stream hash: " << std::hex << streamed.stream_hash
              << std::dec << " (bit-identical to the materialised engine)\n";
    std::cout << "ground truth: " << streamed.ground_truth.boots
              << " boots, " << streamed.ground_truth.TotalLogins()
              << " logins ("
              << streamed.ground_truth.forgotten_sessions << " forgotten)\n";
    if (!spill_dir.empty()) {
      std::cout << "spill: per-lab segments + checkpoints in " << spill_dir;
      if (streamed.labs_resumed > 0) {
        std::cout << " (" << streamed.labs_resumed << " labs resumed)";
      }
      std::cout << '\n';
      const auto& sp = streamed.spill;
      std::cout << "spill codec " << sp.codec << ": " << sp.segments
                << " segments, " << sp.segment_bytes << " bytes on disk ("
                << sp.raw_bytes_encoded << " raw -> "
                << sp.payload_bytes_encoded << " encoded, "
                << util::FormatFixed(sp.CompressionRatio(), 2)
                << "x), encode "
                << util::FormatFixed(sp.EncodeNsPerSample(), 1)
                << " ns/sample, decode "
                << util::FormatFixed(sp.DecodeNsPerSample(), 1)
                << " ns/sample\n";
    }
    if (anomaly_threshold > 0.0) {
      std::cout << "anomalies: " << streamed.anomalies << " (|z| >= "
                << util::FormatFixed(anomaly_threshold, 1) << " over "
                << streamed.anomaly_observations
                << " observations) written to " << anomalies_path << '\n';
    }
    if (!metrics_out.empty()) {
      if (!WriteFileOrComplain(metrics_out, [](std::ostream& out) {
            obs::WritePrometheus(obs::DefaultRegistry(), out);
          })) {
        return 1;
      }
      std::cout << '\n' << CampaignHealthReport(obs::DefaultRegistry());
      std::cout << "metrics written to " << metrics_out << '\n';
    }
    if (!prof_out.empty()) {
      const obs::prof::Report prof_report = obs::prof::Drain();
      obs::prof::Disable();
      if (!WriteFileOrComplain(prof_out, [&](std::ostream& out) {
            out << "{\"prof\": " << obs::prof::ReportJson(prof_report)
                << ",\n \"pipeline\": " << PipelineStatsJson(p) << "}\n";
          })) {
        return 1;
      }
      std::cout << "profile written to " << prof_out << '\n';
    }
    if (events) {
      obs::WriteSpansJsonl(obs::DefaultTracer(), *events);
      obs::WriteMetricsJsonl(obs::DefaultRegistry(), *events);
      util::log::SetSink({});
      std::cout << "event stream written to " << events_out << " ("
                << events->events() << " events)\n";
    }
    return 0;
  }

  const auto result = core::Experiment::RunCached(config, snapshot_dir);
  core::ReportOptions report_options;
  report_options.workers = workers;
  if (!metrics_out.empty()) report_options.metrics = &obs::DefaultRegistry();
  const core::Report report(result, report_options);

  std::cout << report.FullReport() << '\n';

  std::cout << "--- run summary ---\n";
  std::cout << "iterations: " << result.run_stats.iterations
            << " (aligned 96/day grid; paper completed 6883 of 7392)"
            << ", attempts: " << result.run_stats.attempts
            << ", samples: " << result.trace.size() << " (paper: 583653)\n";
  std::cout << "response rate: "
            << util::FormatFixed(100.0 * result.run_stats.ResponseRate(), 1)
            << "% (paper: 50.2%)\n";
  std::cout << "mean iteration: "
            << util::FormatFixed(result.run_stats.mean_iteration_s / 60.0, 2)
            << " min (paper: 16.1 = 110880/6883)\n";
  if (config.fault_plan.Active() || config.collector.retry.enabled()) {
    const auto& stats = result.run_stats;
    std::cout << "fault/retry: " << stats.faults_injected
              << " faults injected, " << stats.retry_attempts
              << " retry attempts over " << stats.retried_collections
              << " collections, " << stats.recovered_after_retry
              << " recovered ("
              << util::FormatFixed(100.0 * stats.RetryRecoveryRate(), 1)
              << "%), " << stats.missing << " missing, " << stats.corrupt
              << " corrupt\n";
  }
  std::cout << "ground truth: " << result.ground_truth.boots << " boots ("
            << result.ground_truth.short_cycles << " short cycles), "
            << result.ground_truth.TotalLogins() << " logins ("
            << result.ground_truth.forgotten_sessions << " forgotten)\n";

  const auto& pipeline = report.pipeline_stats();
  std::cout << "analysis pipeline: " << pipeline.machines << " machines in "
            << pipeline.chunks << " chunks on " << pipeline.workers
            << " workers; sweep "
            << util::FormatFixed(pipeline.sweep_seconds * 1e3, 1)
            << " ms, merge+finalize "
            << util::FormatFixed(pipeline.merge_seconds * 1e3, 1) << " ms ("
            << report.derived().interval_count() << " intervals, "
            << report.derived().sessions().size()
            << " sessions derived once)\n";
  for (const auto& pass : pipeline.passes) {
    std::cout << "  pass " << pass.name << ": accumulate "
              << util::FormatFixed(pass.accumulate_seconds * 1e3, 1)
              << " ms (cpu), finalize "
              << util::FormatFixed(pass.finalize_seconds * 1e3, 1) << " ms\n";
  }

  if (const auto err = report.WriteCsvFiles(out_dir); !err.empty()) {
    std::cerr << "CSV export failed: " << err << '\n';
    return 1;
  }
  const std::string trace_path = out_dir + "/trace.lmtr";
  if (const auto saved = trace::WriteTraceFile(trace_path, result.trace);
      !saved.ok()) {
    std::cerr << "trace export failed: " << saved.error() << '\n';
    return 1;
  }

  if (!metrics_out.empty()) {
    if (!WriteFileOrComplain(metrics_out, [](std::ostream& out) {
          obs::WritePrometheus(obs::DefaultRegistry(), out);
        })) {
      return 1;
    }
    std::cout << '\n' << CampaignHealthReport(obs::DefaultRegistry());
    std::cout << "metrics written to " << metrics_out << '\n';
  }
  if (!trace_out.empty()) {
    if (!WriteFileOrComplain(trace_out, [](std::ostream& out) {
          obs::WriteChromeTrace(obs::DefaultTracer(), out);
        })) {
      return 1;
    }
    std::cout << "chrome trace written to " << trace_out
              << " (open in chrome://tracing or ui.perfetto.dev; "
              << obs::DefaultTracer().size() << " spans, "
              << obs::DefaultTracer().dropped() << " dropped)\n";
  }
  if (!prof_out.empty()) {
    const obs::prof::Report prof_report = obs::prof::Drain();
    obs::prof::Disable();
    if (!WriteFileOrComplain(prof_out, [&](std::ostream& out) {
          out << obs::prof::ReportJson(prof_report) << '\n';
        })) {
      return 1;
    }
    // Timeline next to the report: prof.json -> prof_trace.json.
    std::string prof_trace_path = prof_out;
    if (const auto dot = prof_trace_path.rfind(".json");
        dot != std::string::npos && dot == prof_trace_path.size() - 5) {
      prof_trace_path.insert(dot, "_trace");
    } else {
      prof_trace_path += "_trace.json";
    }
    obs::Tracer prof_tracer(prof_report.records.size() + 16);
    obs::prof::AppendSpans(prof_report, prof_tracer);
    if (!WriteFileOrComplain(prof_trace_path, [&](std::ostream& out) {
          obs::WriteChromeTrace(prof_tracer, out);
        })) {
      return 1;
    }
    std::cout << "profile written to " << prof_out << " ("
              << prof_report.rows.size() << " shard-phase rows, "
              << prof_report.records.size() << " timeline records, "
              << prof_report.dropped_records
              << " dropped), timeline to " << prof_trace_path << '\n';
  }
  if (events) {
    obs::WriteSpansJsonl(obs::DefaultTracer(), *events);
    obs::WriteMetricsJsonl(obs::DefaultRegistry(), *events);
    util::log::SetSink({});  // detach before the writer goes away
    std::cout << "event stream written to " << events_out << " ("
              << events->events() << " events)\n";
  }

  std::cout << "figure data written to " << out_dir
            << "/, full trace to " << trace_path
            << " (explore it with trace_explorer)\n";
  return 0;
}
