#include "labmon/harvest/dag_scheduler.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <queue>
#include <utility>

#include "labmon/obs/harvest_metrics.hpp"
#include "labmon/util/strings.hpp"

namespace labmon::harvest {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void HashU64(std::uint64_t v, std::uint64_t* h) noexcept {
  for (int i = 0; i < 8; ++i) {
    *h ^= (v >> (8 * i)) & 0xffULL;
    *h *= kFnvPrime;
  }
}

void HashF64(double v, std::uint64_t* h) noexcept {
  HashU64(std::bit_cast<std::uint64_t>(v), h);
}

/// Ready-queue order: priority desc, earliest deadline (0 = none = last),
/// then job id. Total and strict, so dispatch order is deterministic.
struct ReadyBefore {
  const JobDag* dag;
  bool operator()(std::size_t a, std::size_t b) const noexcept {
    const DagJob& ja = dag->jobs[a];
    const DagJob& jb = dag->jobs[b];
    if (ja.priority != jb.priority) return ja.priority > jb.priority;
    const auto da = ja.deadline > 0 ? ja.deadline
                                    : std::numeric_limits<util::SimTime>::max();
    const auto db = jb.deadline > 0 ? jb.deadline
                                    : std::numeric_limits<util::SimTime>::max();
    if (da != db) return da < db;
    return a < b;
  }
};

}  // namespace

std::uint64_t DagResult::ResultHash() const noexcept {
  std::uint64_t h = kFnvOffset;
  HashU64(jobs_total, &h);
  HashU64(jobs_completed, &h);
  HashU64(jobs_failed, &h);
  HashU64(deadline_misses, &h);
  HashU64(dag_finished ? 1 : 0, &h);
  HashU64(evictions_login, &h);
  HashU64(evictions_poweroff, &h);
  HashU64(evictions_chaos, &h);
  HashU64(chaos_task_failures, &h);
  HashU64(retries, &h);
  HashU64(checkpoints_written, &h);
  HashF64(makespan_s, &h);
  HashF64(useful_index_seconds, &h);
  HashF64(wasted_index_seconds, &h);
  for (const DagJobRun& j : jobs) {
    HashU64(static_cast<std::uint64_t>(j.state), &h);
    HashU64(static_cast<std::uint64_t>(j.completed_at), &h);
    HashU64(j.attempts, &h);
    HashU64(j.evictions, &h);
    HashU64(j.chaos_failures, &h);
    HashU64(j.completions, &h);
    HashU64(j.deadline_met ? 1 : 0, &h);
  }
  return h;
}

std::string DescribePolicy(const HarvestPolicy& policy) {
  std::string out = policy.use_occupied_machines ? "free+occupied" : "free-only";
  if (policy.checkpoint_interval_s <= 0.0) {
    out += ", no ckpt";
  } else {
    out += ", ckpt " +
           util::FormatFixed(policy.checkpoint_interval_s / 60.0, 0) + " min";
  }
  if (policy.speculative_backups) out += ", backups";
  return out;
}

DagScheduler::DagScheduler(winsim::Fleet& fleet,
                           workload::WorkloadDriver& driver, DagPolicy policy)
    : fleet_(fleet), driver_(driver), policy_(policy) {}

void DagScheduler::SetFaultPlan(const faultsim::FaultPlan& plan) {
  plan_ = plan;
  chaos_active_ = plan_.Active();
  crash_windows_.clear();
  if (!chaos_active_) return;
  for (const auto& c : plan_.crashes) {
    if (c.machine >= fleet_.size() || c.down_seconds <= 0) continue;
    crash_windows_.push_back(
        {c.machine, 1, c.at, c.at + static_cast<util::SimTime>(c.down_seconds)});
  }
  for (const auto& o : plan_.outages) {
    if (o.end <= o.start) continue;
    for (const auto& lab : fleet_.labs()) {
      if (lab.name == o.lab) {
        crash_windows_.push_back({lab.first, lab.count, o.start, o.end});
        break;
      }
    }
  }
}

void DagScheduler::SetMetrics(obs::Registry* registry) { metrics_ = registry; }

bool DagScheduler::MachineDownByChaos(std::size_t machine,
                                      util::SimTime t) const noexcept {
  for (const CrashWindow& w : crash_windows_) {
    if (machine >= w.first && machine < w.first + w.count && t >= w.start &&
        t < w.end) {
      return true;
    }
  }
  return false;
}

void DagScheduler::OnBoot(std::size_t machine, util::SimTime t) {
  (void)t;
  if (machine < slots_.size()) slots_[machine].power_blip = true;
}

void DagScheduler::OnShutdown(std::size_t machine, util::SimTime t) {
  (void)t;
  if (machine < slots_.size()) slots_[machine].power_blip = true;
}

void DagScheduler::OnLogin(std::size_t machine, util::SimTime t) {
  (void)t;
  if (machine < slots_.size()) slots_[machine].login_blip = true;
}

void DagScheduler::OnLogout(std::size_t machine, util::SimTime t) {
  // A logout does not interrupt anything; eligibility is re-evaluated at
  // the next step (the keyboard-idle guard starts from the step boundary).
  (void)machine;
  (void)t;
}

DagResult DagScheduler::Run(const JobDag& dag, util::SimTime start,
                            util::SimTime end) {
  const std::size_t n = dag.jobs.size();
  DagResult result;
  result.jobs_total = n;
  result.makespan_s = static_cast<double>(end - start);
  result.jobs.assign(n, DagJobRun{});

  const auto instruments = obs::HarvestInstruments::For(metrics_);

  // Dependency bookkeeping: children adjacency + unfinished-parent counts.
  std::vector<JobState> jobs(n);
  std::vector<std::vector<std::uint32_t>> children(n);
  for (std::size_t i = 0; i < n; ++i) {
    jobs[i].waiting_on = static_cast<std::uint32_t>(dag.jobs[i].deps.size());
    for (std::uint32_t d : dag.jobs[i].deps) {
      children[d].push_back(static_cast<std::uint32_t>(i));
    }
  }

  // Ready heap whose top is the job ReadyBefore places first (the order
  // is strict and total, so the pop sequence does not depend on the push
  // sequence), plus a min-heap of requeued jobs cooling down, keyed by
  // (eligible_at, id) and promoted to ready once eligible_at passes.
  const auto dispatches_later = [before = ReadyBefore{&dag}](std::size_t a,
                                                             std::size_t b) {
    return before(b, a);
  };
  std::priority_queue<std::size_t, std::vector<std::size_t>,
                      decltype(dispatches_later)>
      ready(dispatches_later);
  using Cooling = std::pair<util::SimTime, std::size_t>;
  std::priority_queue<Cooling, std::vector<Cooling>, std::greater<>> cooling;
  const auto enqueue_ready = [&](std::size_t job) {
    ready.push(job);
    result.jobs[job].state = DagJobState::kReady;
  };
  for (std::size_t i = 0; i < n; ++i) {
    if (jobs[i].waiting_on == 0) enqueue_ready(i);
  }

  slots_.assign(fleet_.size(), Slot{});
  driver_.SetObserver(this);

  // Private chaos stream; never touched while the plan is inactive, so a
  // zero-fault run makes zero draws (bit-identity with a no-plan run).
  util::Rng chaos_rng(
      util::DeriveSeed(plan_.seed, util::seed_stream::kHarvest));
  const auto step = std::max<util::SimTime>(1, policy_.grid.scheduler_step_s);
  const double step_s = static_cast<double>(step);
  // Stochastic rates are per task-hour; convert to a per-step probability.
  const double hour_frac = step_s / 3600.0;
  const double p_fail = plan_.stochastic.transient_error_prob * hour_frac;
  const double p_hang = plan_.stochastic.hang_prob * hour_frac;
  const double p_straggle = plan_.stochastic.straggler_prob * hour_frac;
  const bool stochastic_chaos =
      chaos_active_ && (p_fail > 0.0 || p_hang > 0.0 || p_straggle > 0.0);

  double busy_machine_seconds = 0.0;
  double elapsed_s = 0.0;
  std::uint64_t terminal = 0;  // completed + failed

  // Running copies per job, kept only when backups can start: without
  // them a job runs on at most one slot.
  const bool backups = policy_.grid.speculative_backups;
  const auto max_copies = static_cast<std::uint32_t>(
      std::max(1, policy_.grid.max_copies_per_unit));
  std::vector<std::uint32_t> copies(backups ? n : 0, 0);

  // Frees a slot's attempt; true when it was its job's last running copy.
  const auto release = [&](Slot& slot) {
    slot.has_task = false;
    slot.progress = 0.0;
    slot.runtime_since_cp = 0.0;
    return copies.empty() || --copies[slot.job] == 0;
  };

  // Stops the other running copies of a job that just completed or
  // failed. Behind a completion they duplicated the winner's work from
  // their resume point on; behind a failure they lose what lies beyond
  // the job's checkpoint, as an eviction would.
  const auto cancel_siblings = [&](std::size_t job, bool completed) {
    if (copies.empty() || copies[job] == 0) return;
    for (Slot& other : slots_) {
      if (!other.has_task || other.job != job) continue;
      const double from =
          completed ? other.started_from : jobs[job].checkpoint;
      result.wasted_index_seconds += std::max(0.0, other.progress - from);
      ++result.backup_copies_cancelled;
      release(other);
    }
  };

  // Backup victim: the running job with the least secured checkpoint and
  // fewer than max_copies copies, lowest id on ties (n when none). Scans
  // the slots, so its cost is bounded by the fleet, not the dag.
  const auto pick_backup = [&]() {
    std::size_t best = n;
    for (const Slot& other : slots_) {
      if (!other.has_task || copies[other.job] >= max_copies) continue;
      const std::size_t job = other.job;
      if (best == n || jobs[job].checkpoint < jobs[best].checkpoint ||
          (jobs[job].checkpoint == jobs[best].checkpoint && job < best)) {
        best = job;
      }
    }
    return best;
  };

  // Requeues an interrupted/failed job under bounded exponential backoff.
  const auto requeue = [&](std::size_t job, util::SimTime t) {
    JobState& js = jobs[job];
    const double backoff =
        std::min(policy_.retry_backoff_base_s *
                     std::ldexp(1.0, static_cast<int>(std::min<std::uint32_t>(
                                    js.retries, 20))),
                 policy_.retry_backoff_max_s);
    ++js.retries;
    cooling.emplace(t + static_cast<util::SimTime>(backoff), job);
    result.jobs[job].state = DagJobState::kReady;
    ++result.retries;
    if (instruments.enabled()) instruments.retries->Increment();
  };

  // Marks `job` completed and releases its children. Exactly-once: the
  // completions counter is the audited invariant.
  const auto complete = [&](std::size_t job, util::SimTime at) {
    DagJobRun& run = result.jobs[job];
    run.state = DagJobState::kCompleted;
    run.completed_at = at;
    ++run.completions;
    const util::SimTime deadline = dag.jobs[job].deadline;
    if (deadline > 0) {
      run.deadline_met = at - start <= deadline;
      if (!run.deadline_met) ++result.deadline_misses;
    }
    ++result.jobs_completed;
    ++terminal;
    result.useful_index_seconds += dag.jobs[job].index_seconds;
    if (instruments.enabled()) {
      instruments.jobs_completed->Increment();
      instruments.turnaround_hours->Observe(
          static_cast<double>(at - start) / 3600.0);
    }
    // Failed parents never reach here, so their children keep a nonzero
    // waiting_on and stay stranded in kPending — by design.
    for (std::uint32_t child : children[job]) {
      if (--jobs[child].waiting_on == 0) enqueue_ready(child);
    }
  };

  for (util::SimTime t = start; t < end; t += step) {
    driver_.AdvanceTo(t);

    // Promote cooled-down jobs back into the ready order.
    while (!cooling.empty() && cooling.top().first <= t) {
      ready.push(cooling.top().second);
      cooling.pop();
    }
    if (instruments.enabled()) {
      instruments.queue_depth->Observe(static_cast<double>(ready.size()));
    }

    for (std::size_t i = 0; i < fleet_.size(); ++i) {
      auto& m = fleet_.machine(i);
      m.AdvanceTo(t);
      Slot& slot = slots_[i];
      const bool chaos_down = chaos_active_ && MachineDownByChaos(i, t);
      const bool session_evicts =
          !policy_.grid.use_occupied_machines &&
          (slot.login_blip || m.Session().has_value());
      const bool eligible = !chaos_down && m.powered_on() &&
                            (policy_.grid.use_occupied_machines ||
                             !m.Session().has_value());

      if (slot.has_task) {
        const std::size_t job = slot.job;
        JobState& js = jobs[job];
        bool evicted = false;
        if (chaos_down) {
          ++result.evictions_chaos;
          if (instruments.enabled()) instruments.evictions_chaos->Increment();
          evicted = true;
        } else if (slot.power_blip || !m.powered_on()) {
          ++result.evictions_poweroff;
          if (instruments.enabled()) {
            instruments.evictions_poweroff->Increment();
          }
          evicted = true;
        } else if (session_evicts) {
          ++result.evictions_login;
          if (instruments.enabled()) instruments.evictions_login->Increment();
          evicted = true;
        }

        if (evicted) {
          // Progress beyond the job's checkpoint is lost; unless another
          // copy still runs, the job cools down and retries. Evictions
          // never consume the failure budget.
          result.wasted_index_seconds +=
              std::max(0.0, slot.progress - js.checkpoint);
          ++result.jobs[job].evictions;
          if (release(slot)) requeue(job, t);
        } else {
          // Stochastic chaos, drawn in a fixed per-task protocol.
          bool failed = false;
          bool hung = false;
          double pace = 1.0;
          if (stochastic_chaos) {
            if (chaos_rng.Bernoulli(p_fail)) {
              failed = true;
            } else if (chaos_rng.Bernoulli(p_hang)) {
              hung = true;
            } else if (chaos_rng.Bernoulli(p_straggle)) {
              pace = 1.0 / chaos_rng.Uniform(
                               plan_.stochastic.straggler_multiplier_lo,
                               plan_.stochastic.straggler_multiplier_hi);
            }
          }
          if (failed) {
            result.wasted_index_seconds +=
                std::max(0.0, slot.progress - js.checkpoint);
            ++result.chaos_task_failures;
            ++result.jobs[job].chaos_failures;
            const bool last_copy = release(slot);
            if (result.jobs[job].chaos_failures >=
                static_cast<std::uint32_t>(std::max(1, policy_.max_attempts))) {
              // Budget exhausted: terminal failure. The checkpointed work
              // becomes waste at run end; descendants stay pending.
              result.jobs[job].state = DagJobState::kFailed;
              ++result.jobs_failed;
              ++terminal;
              if (instruments.enabled()) instruments.jobs_failed->Increment();
              cancel_siblings(job, /*completed=*/false);
            } else if (last_copy) {
              requeue(job, t);
            }
          } else {
            busy_machine_seconds += step_s;
            if (!hung) {
              const double idle_share =
                  std::max(0.0, 1.0 - m.cpu_busy_fraction());
              slot.progress +=
                  m.spec().CombinedIndex() * idle_share * step_s * pace;
            }
            slot.runtime_since_cp += step_s;
            if (policy_.grid.checkpoint_interval_s > 0.0 &&
                slot.runtime_since_cp >= policy_.grid.checkpoint_interval_s) {
              js.checkpoint = std::max(js.checkpoint, slot.progress);
              slot.runtime_since_cp = 0.0;
              ++result.checkpoints_written;
              if (instruments.enabled()) instruments.checkpoints->Increment();
            }
            if (slot.progress >= dag.jobs[job].index_seconds) {
              // First copy to finish wins; its siblings stop at once.
              complete(job, t + step);
              release(slot);
              cancel_siblings(job, /*completed=*/true);
              if (result.jobs_completed == n) {
                result.dag_finished = true;
                result.makespan_s = static_cast<double>(t + step - start);
              }
            }
          }
        }
      }

      if (!slot.has_task && eligible) {
        // The keyboard-idle guard restarts on any interaction inside the
        // step (a blip), and on the eligibility transition itself.
        const bool guard_reset =
            slot.power_blip || !slot.was_eligible ||
            (!policy_.grid.use_occupied_machines && slot.login_blip);
        if (guard_reset) slot.free_since = t;
        if (t - slot.free_since >= policy_.grid.claim_delay_s) {
          // Backups start only once nothing is waiting to run.
          std::size_t job = n;
          if (!ready.empty()) {
            job = ready.top();
            ready.pop();
          } else if (backups) {
            job = pick_backup();
            if (job < n) ++result.backup_copies_started;
          }
          if (job < n) {
            slot.has_task = true;
            slot.job = job;
            slot.progress = jobs[job].checkpoint;
            slot.started_from = slot.progress;
            slot.runtime_since_cp = 0.0;
            result.jobs[job].state = DagJobState::kRunning;
            ++result.jobs[job].attempts;
            if (backups) ++copies[job];
          }
        }
      }
      slot.was_eligible = eligible;
      slot.login_blip = false;
      slot.power_blip = false;
    }
    elapsed_s += step_s;
    if (terminal == n) break;
  }

  driver_.SetObserver(nullptr);

  // Surviving progress of live jobs still counts as useful (resumable);
  // the checkpointed progress of terminally failed jobs does not. Folding
  // each live copy into its job's checkpoint with a max leaves every job's
  // best progress there, however many copies it runs (the other copies'
  // progress is duplicate, neither useful nor charged); the sums then run
  // in job-id order.
  for (const Slot& slot : slots_) {
    if (slot.has_task) {
      double& best = jobs[slot.job].checkpoint;
      best = std::max(best, slot.progress);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const DagJobState state = result.jobs[i].state;
    if (state == DagJobState::kCompleted) continue;
    if (state == DagJobState::kFailed) {
      result.wasted_index_seconds += jobs[i].checkpoint;
      continue;
    }
    result.useful_index_seconds += jobs[i].checkpoint;
  }
  slots_.clear();

  result.mean_busy_machines =
      elapsed_s > 0.0 ? busy_machine_seconds / elapsed_s : 0.0;
  result.fleet_mean_index = fleet_.MeanCombinedIndex();
  if (result.makespan_s > 0.0 && result.fleet_mean_index > 0.0) {
    result.effective_dedicated_machines = result.useful_index_seconds /
                                          result.makespan_s /
                                          result.fleet_mean_index;
  }
  result.critical_path_index_seconds = CriticalPathIndexSeconds(dag);
  result.dedicated_makespan_s =
      DedicatedMakespanSeconds(dag, fleet_.size(), result.fleet_mean_index);
  if (result.dedicated_makespan_s > 0.0) {
    result.harvest_slowdown = result.makespan_s / result.dedicated_makespan_s;
  }
  if (result.critical_path_index_seconds > 0.0 &&
      result.fleet_mean_index > 0.0) {
    result.critical_path_stretch =
        result.makespan_s /
        (result.critical_path_index_seconds / result.fleet_mean_index);
  }
  if (instruments.enabled()) {
    instruments.effective_machines->Set(result.effective_dedicated_machines);
  }
  return result;
}

}  // namespace labmon::harvest
