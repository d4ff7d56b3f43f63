#include "labmon/ddc/coordinator.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <queue>

#include "labmon/faultsim/fault_injector.hpp"
#include "labmon/obs/prof.hpp"

namespace labmon::ddc {

namespace {
/// Probe latencies live between ~0.3 s (LAN success) and ~15 s (dead-host
/// timeout); buckets cover both regimes.
const std::vector<double> kLatencyBounds = {0.5, 1.0, 2.0, 4.0, 8.0, 16.0};
/// Iteration durations in seconds; the paper's period is 900 s, overruns
/// reach into the tens of minutes.
const std::vector<double> kIterationBounds = {300.0,  600.0,  900.0,
                                              1200.0, 1800.0, 3600.0};
/// Overrun beyond the period, seconds (0-bucket = iteration fit the period).
const std::vector<double> kOverrunBounds = {0.0,   60.0,   120.0,
                                            300.0, 600.0, 1800.0};
/// Retry backoff delays, seconds.
const std::vector<double> kBackoffBounds = {1.0, 2.0, 5.0, 10.0, 30.0, 60.0};
}  // namespace

Coordinator::Coordinator(winsim::Fleet& fleet, Probe& probe,
                         CoordinatorConfig config, SampleSink& sink,
                         AdvanceFn advance)
    : fleet_(fleet),
      probe_(probe),
      config_(config),
      sink_(sink),
      advance_(advance),
      executor_(config.exec_policy, config.seed, config.faults),
      // Jitter gets its own stream (seed-derived) so enabling retries never
      // perturbs the transport RNG for non-retried attempts.
      retry_rng_(config.seed ^ 0x9e3779b97f4a7c15ULL) {
  config_.retry = config.retry.Validated();
  first_ = std::min(config_.first_machine, fleet_.size());
  end_ = config_.machine_count == 0
             ? fleet_.size()
             : std::min(first_ + config_.machine_count, fleet_.size());
  // Resolve instruments once: the probe loop must only touch cached
  // atomics, never the registry mutex or label strings.
  if (config_.metrics) BindInstruments();
}

void Coordinator::AdvanceTo(util::SimTime t) {
  if (advance_) advance_(t);
}

void Coordinator::BindInstruments() {
  obs::Registry& registry = *config_.metrics;
  machine_metrics_.resize(end_ - first_);
  for (std::size_t i = first_; i < end_; ++i) {
    const std::string& machine = fleet_.machine(i).spec().name;
    const std::string& lab = fleet_.labs()[fleet_.LabOf(i)].name;
    MachineInstruments& m = machine_metrics_[i - first_];
    m.attempts = &registry.GetCounter(
        "labmon_ddc_probe_attempts_total",
        "Remote probe executions attempted per machine",
        {{"machine", machine}, {"lab", lab}});
    m.ok = &registry.GetCounter(
        "labmon_ddc_probe_outcomes_total",
        "Probe attempt outcomes per machine",
        {{"machine", machine}, {"lab", lab}, {"outcome", "ok"}});
    m.timeout = &registry.GetCounter(
        "labmon_ddc_probe_outcomes_total", "",
        {{"machine", machine}, {"lab", lab}, {"outcome", "timeout"}});
    m.error = &registry.GetCounter(
        "labmon_ddc_probe_outcomes_total", "",
        {{"machine", machine}, {"lab", lab}, {"outcome", "error"}});
  }
  const char* outcome_names[3] = {"ok", "timeout", "error"};
  for (int s = 0; s < 3; ++s) {
    latency_hist_[s] = &registry.GetHistogram(
        "labmon_ddc_probe_latency_seconds", kLatencyBounds,
        "Wall time one remote execution attempt consumed",
        {{"outcome", outcome_names[s]}});
  }
  iteration_hist_ = &registry.GetHistogram(
      "labmon_ddc_iteration_seconds", kIterationBounds,
      "Duration of one full sweep over the machine set");
  overrun_hist_ = &registry.GetHistogram(
      "labmon_ddc_iteration_overrun_seconds", kOverrunBounds,
      "Seconds an iteration ran past the sampling period");
  overrun_gauge_ = &registry.GetGauge(
      "labmon_ddc_iteration_overrun_current_seconds",
      "Overrun of the most recent iteration");
  iterations_counter_ = &registry.GetCounter(
      "labmon_ddc_iterations_total", "Completed coordinator iterations");
  retry_counter_ = &registry.GetCounter(
      "labmon_ddc_retry_attempts_total",
      "Extra probe attempts made beyond the first, per machine collection");
  recovered_counter_ = &registry.GetCounter(
      "labmon_ddc_collection_outcomes_total",
      "Terminal disposition of machine collections",
      {{"result", "recovered_after_retry"}});
  missing_counter_ = &registry.GetCounter(
      "labmon_ddc_collection_outcomes_total", "", {{"result", "missing"}});
  corrupt_counter_ = &registry.GetCounter(
      "labmon_ddc_collection_outcomes_total", "", {{"result", "corrupt"}});
  backoff_hist_ = &registry.GetHistogram(
      "labmon_ddc_retry_backoff_seconds", kBackoffBounds,
      "Backoff delay before each retry attempt");
}

void Coordinator::Tally(std::size_t machine_index,
                        const ExecOutcome& outcome) noexcept {
  ++attempts_;
  switch (outcome.status) {
    case ExecOutcome::Status::kOk: ++successes_; break;
    case ExecOutcome::Status::kTimeout: ++timeouts_; break;
    case ExecOutcome::Status::kError: ++errors_; break;
  }
  if (machine_metrics_.empty()) return;
  const MachineInstruments& m = machine_metrics_[machine_index - first_];
  m.attempts->Increment();
  switch (outcome.status) {
    case ExecOutcome::Status::kOk: m.ok->Increment(); break;
    case ExecOutcome::Status::kTimeout: m.timeout->Increment(); break;
    case ExecOutcome::Status::kError: m.error->Increment(); break;
  }
  latency_hist_[static_cast<int>(outcome.status)]->Observe(outcome.latency_s);
}

ExecOutcome Coordinator::ExecuteOne(std::size_t machine_index,
                                    util::SimTime t,
                                    bool* structured_filled) {
  // One call per attempt: build the span only when a tracer may take it.
  std::optional<obs::Span> span;
  if (config_.tracer) span.emplace("executor.execute", config_.tracer);
  // Hot path (one call per probe attempt): sampled, not timed in full,
  // to stay inside the profiler's overhead budget.
  obs::prof::SampledPhaseScope prof_scope(obs::prof::Phase::kProbe);
  *structured_filled = false;
  ExecOutcome outcome;
  if (config_.structured_fast_path) {
    // Deterministic 1-in-N cadence: every Nth structured success also
    // renders the text so the sink can verify the codecs still agree.
    const bool also_text =
        config_.structured_crosscheck_period != 0 &&
        structured_ok_ % config_.structured_crosscheck_period == 0;
    outcome = executor_.ExecuteStructured(probe_, fleet_.machine(machine_index),
                                          t, &scratch_, structured_filled,
                                          also_text);
    if (*structured_filled) ++structured_ok_;
  } else {
    outcome = executor_.Execute(probe_, fleet_.machine(machine_index), t);
  }
  if (span && span->active()) {
    span->SetSimRange(
        t, t + static_cast<util::SimTime>(std::llround(outcome.latency_s)));
  }
  return outcome;
}

util::SimTime Coordinator::CollectOnce(std::size_t machine_index,
                                       std::uint64_t iteration,
                                       util::SimTime iteration_start,
                                       util::SimTime start) {
  const RetryPolicy& retry = config_.retry;
  const double budget = retry.iteration_budget_s > 0.0
                            ? retry.iteration_budget_s
                            : static_cast<double>(config_.period);
  util::SimTime now = start;
  double next_backoff = retry.backoff_initial_s;
  bool failed_before = false;
  bool did_retry = false;
  bool last_was_reject = false;
  for (std::uint32_t attempt = 1;; ++attempt) {
    // The behaviour driver is non-monotone-safe, so advancing again for a
    // retry instant is fine; per-machine probe times stay monotone.
    AdvanceTo(now);
    CollectedSample sample;
    sample.machine_index = machine_index;
    sample.iteration = iteration;
    sample.attempt_time = now;
    sample.attempt_number = attempt;
    bool structured = false;
    sample.outcome = ExecuteOne(machine_index, now, &structured);
    if (structured) sample.structured = &scratch_;
    sample.recovered = sample.outcome.ok() && failed_before;
    Tally(machine_index, sample.outcome);
    const SampleVerdict verdict = sink_.OnSample(sample);
    now += static_cast<util::SimTime>(std::llround(sample.outcome.latency_s));

    const bool rejected =
        sample.outcome.ok() && verdict == SampleVerdict::kRejected;
    if (sample.outcome.ok() && !rejected) {
      if (failed_before) {
        ++recovered_;
        if (recovered_counter_) recovered_counter_->Increment();
      }
      return now;
    }
    failed_before = true;
    last_was_reject = rejected;

    const bool retryable =
        rejected ? retry.retry_rejects
                 : (sample.outcome.status == ExecOutcome::Status::kError ||
                    retry.retry_timeouts);
    if (!retryable || attempt >= static_cast<std::uint32_t>(
                                     retry.max_attempts)) {
      break;
    }
    double delay = std::min(retry.backoff_max_s, next_backoff);
    next_backoff = std::min(retry.backoff_max_s,
                            next_backoff * retry.backoff_multiplier);
    if (retry.jitter_fraction > 0.0) {
      delay *= 1.0 + retry.jitter_fraction * (2.0 * retry_rng_.Uniform() - 1.0);
    }
    // Stay inside the iteration budget: the delay plus a conservative
    // estimate of the next attempt (a full dead-host timeout) must fit.
    const double elapsed = static_cast<double>(now - iteration_start);
    if (elapsed + delay + executor_.policy().offline_timeout_mean_s > budget) {
      break;
    }
    if (!did_retry) {
      did_retry = true;
      ++retried_collections_;
    }
    ++retry_attempts_;
    if (retry_counter_) retry_counter_->Increment();
    if (backoff_hist_) backoff_hist_->Observe(delay);
    now += static_cast<util::SimTime>(std::llround(delay));
  }
  // Retries exhausted (or never allowed): classify the hole in the trace.
  if (last_was_reject) {
    ++corrupt_;
    if (corrupt_counter_) corrupt_counter_->Increment();
  } else {
    ++missing_;
    if (missing_counter_) missing_counter_->Increment();
  }
  return now;
}

RunStats Coordinator::Run(util::SimTime start, util::SimTime end) {
  Begin(start);
  StepUntil(end);
  return Finish();
}

void Coordinator::Begin(util::SimTime start) {
  // Tallies are per-run; without this a second run would fold the first
  // run's counts into its RunStats.
  attempts_ = successes_ = timeouts_ = errors_ = 0;
  missing_ = corrupt_ = recovered_ = 0;
  retry_attempts_ = retried_collections_ = 0;
  structured_ok_ = 0;
  faults_before_ = config_.faults ? config_.faults->injected_total() : 0;
  run_start_ = start;
  boundary_ = start;
  iteration_start_ = start;
  last_iteration_end_ = start;
  iterations_done_ = 0;
  iteration_s_sum_ = 0.0;
  max_iteration_s_ = 0.0;
}

void Coordinator::StepUntil(util::SimTime until) {
  while (config_.aligned_schedule ? boundary_ < until
                                  : iteration_start_ < until) {
    if (config_.aligned_schedule) {
      // Carry a late sweep, never skip a boundary: every range runs the
      // same sweep count over [start, end).
      iteration_start_ = std::max(boundary_, iteration_start_);
    }
    util::SimTime iteration_end;
    {
      obs::Span span("coordinator.iteration", config_.tracer);
      iteration_end =
          config_.mode == CoordinatorConfig::Mode::kSequential
              ? RunIterationSequential(iterations_done_, iteration_start_)
              : RunIterationParallel(iterations_done_, iteration_start_);
      span.SetSimRange(iteration_start_, iteration_end);
    }
    sink_.OnIterationEnd(iterations_done_, iteration_start_, iteration_end);
    const double duration =
        static_cast<double>(iteration_end - iteration_start_);
    iteration_s_sum_ += duration;
    max_iteration_s_ = std::max(max_iteration_s_, duration);
    if (iterations_counter_) {
      iterations_counter_->Increment();
      iteration_hist_->Observe(duration);
      const double overrun =
          std::max(0.0, duration - static_cast<double>(config_.period));
      overrun_hist_->Observe(overrun);
      overrun_gauge_->Set(overrun);
    }
    ++iterations_done_;
    last_iteration_end_ = iteration_end;
    if (config_.aligned_schedule) {
      boundary_ += config_.period;
      iteration_start_ = iteration_end;
    } else {
      // Next attempt at the next period boundary — or immediately, when the
      // iteration overran the period (the paper's 6,883 < 7,392 effect).
      iteration_start_ =
          std::max(iteration_start_ + config_.period, iteration_end);
    }
  }
}

RunStats Coordinator::Finish() {
  RunStats stats;
  stats.iterations = iterations_done_;
  stats.max_iteration_s = max_iteration_s_;
  stats.mean_iteration_s =
      iterations_done_
          ? iteration_s_sum_ / static_cast<double>(iterations_done_)
          : 0.0;
  stats.total_span_s =
      iterations_done_
          ? static_cast<double>(last_iteration_end_ - run_start_)
          : 0.0;

  // Fold per-attempt tallies (kept by the sequential/parallel loops via the
  // member counters below).
  stats.attempts = attempts_;
  stats.successes = successes_;
  stats.timeouts = timeouts_;
  stats.errors = errors_;
  stats.missing = missing_;
  stats.corrupt = corrupt_;
  stats.recovered_after_retry = recovered_;
  stats.retry_attempts = retry_attempts_;
  stats.retried_collections = retried_collections_;
  stats.faults_injected =
      config_.faults ? config_.faults->injected_total() - faults_before_ : 0;
  return stats;
}

util::SimTime Coordinator::RunIterationSequential(std::uint64_t iteration,
                                                  util::SimTime start) {
  util::SimTime now = start;
  for (std::size_t i = first_; i < end_; ++i) {
    now = CollectOnce(i, iteration, start, now);
  }
  return std::max(now, start + 1);
}

util::SimTime Coordinator::RunIterationParallel(std::uint64_t iteration,
                                                util::SimTime start) {
  // k workers pull machines in index order; the earliest-free worker takes
  // the next machine. Processing assignments by start instant keeps the
  // co-simulation's time monotone.
  using WorkerFree = std::pair<util::SimTime, int>;
  std::priority_queue<WorkerFree, std::vector<WorkerFree>,
                      std::greater<WorkerFree>> workers;
  const int k = std::max(1, config_.workers);
  for (int w = 0; w < k; ++w) workers.emplace(start, w);

  util::SimTime latest = start;
  for (std::size_t i = first_; i < end_; ++i) {
    auto [free_at, worker] = workers.top();
    workers.pop();
    const util::SimTime done = CollectOnce(i, iteration, start, free_at);
    latest = std::max(latest, done);
    workers.emplace(done, worker);
  }
  return std::max(latest, start + 1);
}

}  // namespace labmon::ddc
