#include "labmon/core/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "labmon/core/snapshot.hpp"
#include "labmon/ddc/w32_probe.hpp"
#include "labmon/faultsim/fault_injector.hpp"
#include "labmon/obs/prof.hpp"
#include "labmon/obs/registry.hpp"
#include "labmon/obs/span.hpp"
#include "labmon/trace/merge.hpp"
#include "labmon/trace/sink.hpp"
#include "labmon/util/log.hpp"
#include "labmon/util/parallel.hpp"
#include "labmon/util/strings.hpp"
#include "labmon/winsim/paper_specs.hpp"
#include "labmon/workload/profile.hpp"
#include "streaming_detail.hpp"

namespace labmon::core {

std::vector<LabShard> PartitionLabsByMachines(const winsim::Fleet& fleet,
                                              std::size_t shards) {
  const auto labs = fleet.labs();
  std::size_t machines_left = fleet.size();
  std::vector<LabShard> out;
  out.reserve(shards);
  std::size_t lab = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t shards_left = shards - s;
    const std::size_t target =
        (machines_left + shards_left - 1) / shards_left;
    LabShard shard;
    shard.lab_begin = lab;
    std::size_t took = 0;
    // Take labs up to the per-shard target, but always leave enough labs
    // for the remaining shards.
    while (lab < labs.size() &&
           labs.size() - lab > shards_left - 1 &&
           (took == 0 || took + labs[lab].count <= target)) {
      took += labs[lab].count;
      ++lab;
    }
    if (took == 0 && lab < labs.size()) {  // forced single lab
      took = labs[lab].count;
      ++lab;
    }
    shard.lab_end = lab;
    machines_left -= took;
    out.push_back(shard);
  }
  return out;
}

namespace {

/// Trace capacity estimate per machine: ~96 aligned iterations per day,
/// responses only while a machine is powered on. The response-rate guess is
/// derived from the configured opening policy (fraction of the week the
/// rooms are open) times the observed on-while-open share, instead of a
/// hardcoded /2.
std::size_t ReservePerMachine(const workload::CampusConfig& campus) {
  const workload::OpeningHours& h = campus.hours;
  const double weekday_open_h =
      static_cast<double>((24 - h.open_hour) + h.weekday_close_hour);
  const double saturday_open_h = static_cast<double>(
      std::max(0, h.saturday_close_hour - h.open_hour));
  const double sunday_open_h = h.sunday_open ? weekday_open_h : 0.0;
  const double open_fraction =
      (5.0 * weekday_open_h + saturday_open_h + sunday_open_h) / 168.0;
  // ~3/4 of machines respond while the rooms are open (Fig 3), plus a small
  // floor for the boxes left running overnight.
  const double response_guess = std::min(1.0, open_fraction * 0.75 + 0.05);
  return static_cast<std::size_t>(static_cast<double>(campus.days) * 96.0 *
                                  response_guess) +
         1;
}

}  // namespace

ExperimentResult Experiment::Run(const ExperimentConfig& config) {
  obs::DefaultRegistry()
      .GetCounter("labmon_experiment_simulations_total",
                  "Full experiment simulations actually executed.")
      .Increment();
  obs::Span run_span("experiment.run");
  run_span.SetSimRange(0, config.campus.EndTime());
  const auto run_t0 = std::chrono::steady_clock::now();
  util::Rng rng(config.campus.seed);
  winsim::Fleet fleet = [&] {
    obs::Span build_span("experiment.build_fleet");
    obs::prof::PhaseScope prof_scope(obs::prof::Phase::kBuildFleet);
    return winsim::MakePaperFleet(rng, config.prior_life,
                                  config.campus.scale_labs);
  }();

  const std::size_t lab_count = fleet.lab_count();
  const std::size_t shard_count = std::min(
      lab_count, config.shards > 0 ? static_cast<std::size_t>(config.shards)
                                   : util::DefaultWorkerCount());
  const std::vector<LabShard> shards =
      PartitionLabsByMachines(fleet, std::max<std::size_t>(1, shard_count));

  // Campus-global behavioural context, computed once and shared read-only
  // by every shard (its draws come from dedicated substreams).
  const workload::CampusProfile profile = [&] {
    obs::prof::PhaseScope prof_scope(obs::prof::Phase::kBuildFleet);
    return workload::CampusProfile::Build(fleet, config.campus);
  }();

  ExperimentResult result;
  result.days = config.campus.days;
  const std::size_t reserve_per_machine = ReservePerMachine(config.campus);

  util::log::Info("running " + std::to_string(config.campus.days) +
                  "-day experiment over " + std::to_string(fleet.size()) +
                  " machines (" + std::to_string(shards.size()) + " shards)");

  // One trace and one contribution per lab, merged below; one wall time
  // (real time the shard's thread spent) per shard.
  std::vector<trace::TraceStore> lab_traces(lab_count);
  std::vector<detail::LabCheckpoint> lab_totals(lab_count);
  std::vector<double> shard_wall_s(shards.size());
  const auto collect_t0 = std::chrono::steady_clock::now();
  {
    obs::Span collect_span("experiment.collect");
    collect_span.SetSimRange(0, config.campus.EndTime());
    auto run_shard = [&](std::size_t s) {
      const auto t0 = std::chrono::steady_clock::now();
      obs::Span shard_span("experiment.shard");
      shard_span.SetSimRange(0, config.campus.EndTime());
      obs::prof::ShardScope prof_shard(static_cast<std::uint32_t>(s));
      obs::prof::PhaseScope prof_collect(obs::prof::Phase::kCollect);
      for (std::size_t lab = shards[s].lab_begin; lab < shards[s].lab_end;
           ++lab) {
        const winsim::LabInfo& info = fleet.labs()[lab];
        workload::WorkloadDriver driver(fleet, config.campus, profile, lab,
                                        lab + 1);
        trace::TraceStore& store = lab_traces[lab];
        store.set_machine_count(fleet.size());
        store.Reserve(reserve_per_machine * info.count);
        trace::TraceStoreSink sink(store);
        ddc::W32Probe probe;
        auto [collector, plan] = detail::LabCollectionFor(config, info, lab);
        faultsim::FaultInjector injector(plan, collector.metrics);
        if (injector.active()) {
          injector.BindFleet(fleet);
          collector.faults = &injector;
        }
        auto advance = [&driver](util::SimTime t) {
          // Hot path (one call per machine-sample): sampled, not timed
          // in full, to stay inside the profiler's overhead budget.
          obs::prof::SampledPhaseScope prof_scope(obs::prof::Phase::kSimulate);
          driver.AdvanceTo(t);
        };
        ddc::Coordinator coordinator(fleet, probe, collector, sink, advance);
        const ddc::RunStats stats =
            coordinator.Run(0, config.campus.EndTime());
        driver.FinishAt(config.campus.EndTime());
        lab_totals[lab] =
            detail::FinishedLab(stats, driver.ground_truth(), sink);
      }
      shard_wall_s[s] = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    };
    util::ParallelFor(shards.size(), run_shard, shards.size());
  }
  const double collect_wall_s = std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() -
                                    collect_t0)
                                    .count();

  // Shard-imbalance gauge: max shard wall time over the mean. 1.0 = perfect
  // balance; large values mean one shard serialised the run.
  {
    double max_wall = 0.0;
    double sum_wall = 0.0;
    for (const double wall : shard_wall_s) {
      max_wall = std::max(max_wall, wall);
      sum_wall += wall;
    }
    const double mean_wall =
        sum_wall / static_cast<double>(shard_wall_s.size());
    obs::DefaultRegistry()
        .GetGauge("labmon_experiment_shard_imbalance_ratio",
                  "Max shard wall time / mean shard wall time of the last "
                  "sharded run (1.0 = perfectly balanced).")
        .Set(mean_wall > 0.0 ? max_wall / mean_wall : 1.0);
  }

  // Deterministic merge: iteration-major, (t, machine)-ordered. The result
  // is the same for every shard count and thread schedule.
  result.trace = trace::MergeTraces(lab_traces);
  for (const detail::LabCheckpoint& lab : lab_totals) {
    detail::AccumulateCheckpoint(result, lab);
  }
  detail::ComputeIterationAggregates(result.run_stats,
                                     result.trace.iterations());
  if (result.crosscheck_mismatches != 0) {
    util::log::Warn(std::to_string(result.crosscheck_mismatches) +
                    " structured/text cross-check mismatches — the fast-path "
                    "codec diverged from the wire format");
  }
  detail::FillFleetSummaries(result, fleet);
  // Critical-path share: fraction of the run's wall time spent outside the
  // sharded collect region (fleet build, merge, aggregation) — the serial
  // work that caps any shard-count speedup (Amdahl). Exposed for the
  // profiler report and the prof_gate bench comparator.
  {
    const double run_wall_s = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - run_t0)
                                  .count();
    const double serial_s = std::max(0.0, run_wall_s - collect_wall_s);
    obs::DefaultRegistry()
        .GetGauge("labmon_prof_critical_path_fraction",
                  "Serial (non-sharded) share of the last experiment run's "
                  "wall time: 0 = fully parallel, 1 = fully serial.")
        .Set(run_wall_s > 0.0 ? serial_s / run_wall_s : 0.0);
  }
  util::log::Info("collected " + std::to_string(result.trace.size()) +
                  " samples in " +
                  std::to_string(result.run_stats.iterations) + " iterations");
  return result;
}

ExperimentResult Experiment::RunCached(const ExperimentConfig& config,
                                       const std::string& snapshot_dir) {
  if (snapshot_dir.empty()) return Run(config);

  auto& registry = obs::DefaultRegistry();
  const auto load_counter = [&registry](const char* outcome) -> obs::Counter& {
    return registry.GetCounter(
        "labmon_snapshot_loads_total",
        "Snapshot lookup outcomes (hit / miss / corrupt).",
        {{"result", outcome}});
  };

  const std::uint64_t fingerprint = FingerprintConfig(config);
  const SnapshotCache cache(snapshot_dir);
  if (cache.Contains(fingerprint)) {
    obs::prof::PhaseScope prof_scope(obs::prof::Phase::kSnapshot);
    auto loaded = cache.Load(fingerprint);
    if (loaded.ok()) {
      load_counter("hit").Increment();
      util::log::Info("replayed snapshot " + cache.PathFor(fingerprint) +
                      " (" + std::to_string(loaded.value().trace.size()) +
                      " samples, no simulation)");
      return std::move(loaded).value();
    }
    // Existing but unusable file: corruption, truncation or a stale format.
    // Warn, fall through to simulation and overwrite it.
    load_counter("corrupt").Increment();
    util::log::Warn("snapshot " + cache.PathFor(fingerprint) + " unusable (" +
                    loaded.error() + "); re-simulating");
  } else {
    load_counter("miss").Increment();
  }

  ExperimentResult result = Run(config);
  obs::prof::PhaseScope store_scope(obs::prof::Phase::kSnapshot);
  if (const auto stored = cache.Store(fingerprint, result); stored.ok()) {
    registry
        .GetCounter("labmon_snapshot_stores_total",
                    "Snapshots written after a simulation.")
        .Increment();
    util::log::Info("stored snapshot " + cache.PathFor(fingerprint));
  } else {
    util::log::Warn("failed to store snapshot: " + stored.error());
  }
  return result;
}

}  // namespace labmon::core
