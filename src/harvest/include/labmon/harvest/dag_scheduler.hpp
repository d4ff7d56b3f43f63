// DagScheduler — opportunistic execution of job DAGs on the idle fleet.
//
// The paper's conclusion is that classroom idleness is harvestable "for
// grid desktop computing" but that volatility "requires survival techniques
// such as checkpointing, oversubscription and multiple executions" (§6).
// This scheduler puts a number on that claim: a Condor/BOINC-style
// scavenger runs a JobDag — heterogeneous jobs with dependency edges,
// priorities and deadlines, in the style of taskvine/makeflow workers; a
// bag of tasks is the edge-free case — on the simulated fleet, co-driven by
// the same behavioural model the monitoring experiment measures. Machines
// are claimed through the keyboard-idle guard, tasks checkpoint on a timer,
// evictions cost the progress beyond the last checkpoint, and:
//
//  * dependency-aware dispatch: a job becomes ready only when every parent
//    has completed; ready jobs are ordered by priority, then earliest
//    deadline, then id;
//  * event-driven eviction: the scheduler registers as a MachineObserver on
//    the behavioural driver, so interactive logins and power transitions
//    *between* scheduler steps still evict (and reset the idle guard) —
//    a pure poller would miss the paper's §5.2.2 invisible short cycles;
//  * speculative backups (the paper's "multiple executions"): when the
//    ready queue is empty, idle machines re-execute the running job with
//    the least secured checkpoint; the first copy to finish wins and
//    cancels its siblings;
//  * chaos tolerance: a faultsim::FaultPlan maps onto the harvest layer
//    (scripted crashes/outages make machines unclaimable and evict their
//    tasks; stochastic transient errors kill the attempt; hangs stall a
//    step; stragglers slow one), and evicted/failed jobs are retried from
//    their checkpoint under bounded exponential backoff;
//  * exactly-once accounting: each job's work is credited at its first
//    completion and never again, chaos and backups or not.
//
// Progress is measured in *index-seconds*: one second of exclusive CPU on a
// machine of NBench combined index 1.0.
//
// Retry semantics: the attempt budget (`max_attempts`) is consumed only by
// injected task failures — an eviction is the environment's fault, so it
// requeues (with backoff) without spending the budget. A job whose budget
// is exhausted goes to kFailed and its descendants stay kPending forever.
// While a job has several copies running, an evicted or failed copy just
// drops out; only the last running copy requeues the job.
//
// Determinism: the scheduler is single-threaded, every queue is a strict
// total order with the job id as the last tie-break, and all chaos draws
// come from one private stream (plan seed, substream kHarvest) gated on
// FaultPlan::Active() — an inactive plan makes zero draws, so a zero-fault
// run is bit-identical to a run with no plan at all. DagResult::ResultHash()
// fingerprints a run for such checks.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "labmon/faultsim/fault_plan.hpp"
#include "labmon/harvest/dag.hpp"
#include "labmon/obs/registry.hpp"
#include "labmon/util/time.hpp"
#include "labmon/winsim/fleet.hpp"
#include "labmon/workload/driver.hpp"

namespace labmon::harvest {

/// Scavenging policy knobs.
struct HarvestPolicy {
  /// Also run on occupied machines (stealing only the idle share), or
  /// restrict to user-free machines (eviction when somebody logs in).
  bool use_occupied_machines = false;
  /// Seconds of task runtime between checkpoints; 0 disables checkpointing
  /// (an eviction then loses the job's entire accrued progress).
  double checkpoint_interval_s = 15 * 60;
  /// Scheduler reaction period (matches real scavengers' polling).
  util::SimTime scheduler_step_s = 60;
  /// Machines must have been free for this long before being claimed
  /// (Condor-style "keyboard idle" guard). 0 claims immediately.
  util::SimTime claim_delay_s = 5 * 60;
  /// Speculative backup copies (the paper's "multiple executions"): when
  /// the ready queue drains, idle machines re-execute the least-progressed
  /// running jobs from their checkpoints; the first copy to finish wins.
  bool speculative_backups = false;
  /// Copies of one job that may run at once, the first one included.
  int max_copies_per_unit = 2;
};

/// Renders a policy label for bench tables.
[[nodiscard]] std::string DescribePolicy(const HarvestPolicy& policy);

/// Policy of a DAG harvesting run. The embedded HarvestPolicy supplies the
/// substrate knobs (occupied-machine use, checkpoint interval, scheduler
/// step, claim delay, speculative backups).
struct DagPolicy {
  HarvestPolicy grid;
  /// Injected-failure budget per job (evictions do not count against it).
  int max_attempts = 8;
  /// Bounded exponential backoff applied on every requeue:
  /// delay = min(base * 2^retries, max).
  double retry_backoff_base_s = 60.0;
  double retry_backoff_max_s = 30.0 * 60.0;
};

/// Terminal / in-flight state of one job.
enum class DagJobState : std::uint8_t {
  kPending,    ///< waiting on parents (or stranded behind a failed parent)
  kReady,      ///< dispatchable (includes backoff cooling)
  kRunning,    ///< claimed by a machine
  kCompleted,  ///< finished; credited exactly once
  kFailed,     ///< injected-failure budget exhausted
};

/// Per-job outcome record.
struct DagJobRun {
  DagJobState state = DagJobState::kPending;
  util::SimTime completed_at = 0;   ///< absolute sim time; 0 if never
  std::uint32_t attempts = 0;       ///< dispatches, backup copies included
  std::uint32_t evictions = 0;      ///< login + poweroff + chaos evictions
  std::uint32_t chaos_failures = 0; ///< injected failures (consume budget)
  std::uint32_t completions = 0;    ///< exactly-once invariant: always <= 1
  bool deadline_met = false;        ///< true iff completed within deadline
};

/// Outcome of one DAG harvesting run.
struct DagResult {
  std::uint64_t jobs_total = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t jobs_failed = 0;
  std::uint64_t deadline_misses = 0;  ///< among completed jobs with deadlines
  bool dag_finished = false;
  /// Wall seconds from start to the last completion (= horizon when the
  /// dag did not finish).
  double makespan_s = 0.0;
  /// Goodput: index-seconds credited to completed jobs plus surviving
  /// checkpointed progress of unfinished ones.
  double useful_index_seconds = 0.0;
  /// Eviction/failure waste: progress lost beyond the last checkpoint,
  /// in index-seconds.
  double wasted_index_seconds = 0.0;
  std::uint64_t evictions_login = 0;
  std::uint64_t evictions_poweroff = 0;
  std::uint64_t evictions_chaos = 0;   ///< scripted crash/outage windows
  std::uint64_t chaos_task_failures = 0;
  std::uint64_t retries = 0;           ///< requeues (evictions + failures)
  std::uint64_t checkpoints_written = 0;
  std::uint64_t backup_copies_started = 0;
  /// Copies stopped because a sibling finished (or failed) first.
  std::uint64_t backup_copies_cancelled = 0;
  double mean_busy_machines = 0.0;
  /// Fleet-average combined index used in the Fig 6 normalisation.
  double fleet_mean_index = 0.0;
  /// Useful throughput as dedicated machines of fleet-average index —
  /// divide by the fleet size for Figure 6's equivalence ratio.
  double effective_dedicated_machines = 0.0;
  /// Infinite-fleet lower bound of the dag (index-seconds).
  double critical_path_index_seconds = 0.0;
  /// List-schedule makespan on an equal-size dedicated cluster of
  /// fleet-average index (dag.hpp::DedicatedMakespanSeconds).
  double dedicated_makespan_s = 0.0;
  /// makespan / dedicated_makespan (0 when either is unknown); the price
  /// of volatility relative to owning the hardware outright.
  double harvest_slowdown = 0.0;
  /// makespan / (critical path / fleet-mean index): stretch against the
  /// dependency-bound lower envelope.
  double critical_path_stretch = 0.0;
  std::vector<DagJobRun> jobs;

  [[nodiscard]] double WasteFraction() const noexcept {
    const double gross = useful_index_seconds + wasted_index_seconds;
    return gross > 0.0 ? wasted_index_seconds / gross : 0.0;
  }

  /// FNV-1a fingerprint over every per-job record and global counter
  /// except the backup-copy counters (so hashes recorded before backups
  /// existed still hold). Bit-identical runs (same dag, seeds, plan) hash
  /// identically; a single divergent eviction or duplicated credit
  /// changes it.
  [[nodiscard]] std::uint64_t ResultHash() const noexcept;
};

/// The DAG scavenging scheduler. Owns no resources; runs against a fleet
/// and its behavioural driver. Registers itself as the driver's machine
/// observer for the duration of Run (restoring none after).
class DagScheduler final : public workload::MachineObserver {
 public:
  DagScheduler(winsim::Fleet& fleet, workload::WorkloadDriver& driver,
               DagPolicy policy);

  /// Installs the chaos scenario for subsequent Run calls. An inactive
  /// plan (default) is a strict no-op. Scripted outages resolve lab names
  /// against the fleet; unknown labs never fire.
  void SetFaultPlan(const faultsim::FaultPlan& plan);

  /// Optional metrics sink (labmon_harvest_* instruments).
  void SetMetrics(obs::Registry* registry);

  /// Runs `dag` from `start` until completion or `end`, co-simulating the
  /// campus behaviour. Deterministic. The dag must pass ValidateDag.
  [[nodiscard]] DagResult Run(const JobDag& dag, util::SimTime start,
                              util::SimTime end);

  // MachineObserver — driver transitions between scheduler steps.
  void OnBoot(std::size_t machine, util::SimTime t) override;
  void OnShutdown(std::size_t machine, util::SimTime t) override;
  void OnLogin(std::size_t machine, util::SimTime t) override;
  void OnLogout(std::size_t machine, util::SimTime t) override;

 private:
  struct Slot {
    bool has_task = false;
    std::size_t job = 0;
    double progress = 0.0;          ///< index-seconds done on this attempt
    double started_from = 0.0;      ///< checkpoint this attempt resumed from
    double runtime_since_cp = 0.0;  ///< task wall seconds since checkpoint
    util::SimTime free_since = 0;   ///< when the machine became eligible
    bool was_eligible = false;
    // Transition flags raised by observer callbacks between steps and
    // consumed at the next step.
    bool login_blip = false;   ///< an interactive login occurred
    bool power_blip = false;   ///< a boot or shutdown occurred
  };

  struct JobState {
    double checkpoint = 0.0;  ///< secured progress, index-seconds
    std::uint32_t waiting_on = 0;  ///< unfinished parents
    std::uint32_t retries = 0;     ///< requeues so far (backoff exponent)
  };

  struct CrashWindow {
    std::size_t first = 0;   ///< machine range [first, first+count)
    std::size_t count = 0;
    util::SimTime start = 0;
    util::SimTime end = 0;
  };

  [[nodiscard]] bool MachineDownByChaos(std::size_t machine,
                                        util::SimTime t) const noexcept;

  winsim::Fleet& fleet_;
  workload::WorkloadDriver& driver_;
  DagPolicy policy_;
  faultsim::FaultPlan plan_;
  bool chaos_active_ = false;
  std::vector<CrashWindow> crash_windows_;  ///< crashes + resolved outages
  obs::Registry* metrics_ = nullptr;
  std::vector<Slot> slots_;  ///< live only inside Run (observer target)
};

}  // namespace labmon::harvest
