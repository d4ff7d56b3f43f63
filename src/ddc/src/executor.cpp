#include "labmon/ddc/executor.hpp"

#include <algorithm>

#include "labmon/ddc/w32_probe.hpp"
#include "labmon/faultsim/fault_injector.hpp"

namespace labmon::ddc {

ExecPolicy ExecPolicy::Validated() const noexcept {
  ExecPolicy p = *this;
  p.success_latency_sigma_s = std::max(0.0, p.success_latency_sigma_s);
  p.success_latency_min_s = std::max(0.01, p.success_latency_min_s);
  p.success_latency_mean_s =
      std::max(p.success_latency_min_s, p.success_latency_mean_s);
  p.offline_timeout_sigma_s = std::max(0.0, p.offline_timeout_sigma_s);
  p.offline_timeout_min_s = std::max(0.01, p.offline_timeout_min_s);
  p.offline_timeout_mean_s =
      std::max(p.offline_timeout_min_s, p.offline_timeout_mean_s);
  p.transient_failure_prob = std::clamp(p.transient_failure_prob, 0.0, 1.0);
  return p;
}

RetryPolicy RetryPolicy::Validated() const noexcept {
  RetryPolicy p = *this;
  p.max_attempts = std::max(1, p.max_attempts);
  p.backoff_initial_s = std::max(0.0, p.backoff_initial_s);
  p.backoff_multiplier = std::max(1.0, p.backoff_multiplier);
  p.backoff_max_s = std::max(p.backoff_initial_s, p.backoff_max_s);
  p.jitter_fraction = std::clamp(p.jitter_fraction, 0.0, 1.0);
  p.iteration_budget_s = std::max(0.0, p.iteration_budget_s);
  return p;
}

std::string ExecOutcome::StderrText(std::string_view host) const {
  std::string text;
  switch (status) {
    case Status::kOk:
      break;
    case Status::kTimeout:
      text.append("psexec: could not connect to ").append(host);
      text.append(": timeout");
      if (*reason != '\0') text.append(" (").append(reason).append(")");
      break;
    case Status::kError:
      text.append(reason).append(" on ").append(host);
      break;
  }
  return text;
}

RemoteExecutor::RemoteExecutor(ExecPolicy policy, std::uint64_t seed,
                               faultsim::FaultInjector* faults)
    : policy_(policy.Validated()), rng_(seed), faults_(faults) {}

namespace {

/// Fills everything but the probe payload; returns true when the attempt
/// succeeded and the probe should actually run. One function so Execute and
/// ExecuteStructured draw from the RNG identically.
bool TransportAttempt(const ExecPolicy& policy, util::Rng& rng,
                      const winsim::Machine& machine, ExecOutcome* outcome) {
  if (!machine.powered_on()) {
    outcome->status = ExecOutcome::Status::kTimeout;
    outcome->latency_s = std::max(
        policy.offline_timeout_min_s,
        rng.Normal(policy.offline_timeout_mean_s,
                   policy.offline_timeout_sigma_s));
    outcome->exit_code = -1;
    return false;
  }
  if (rng.Bernoulli(policy.transient_failure_prob)) {
    outcome->status = ExecOutcome::Status::kError;
    outcome->latency_s = std::max(
        policy.success_latency_min_s,
        rng.Normal(policy.success_latency_mean_s,
                   policy.success_latency_sigma_s));
    outcome->exit_code = 2;
    outcome->reason = "psexec: RPC server busy";
    return false;
  }
  outcome->status = ExecOutcome::Status::kOk;
  outcome->latency_s = std::max(
      policy.success_latency_min_s,
      rng.Normal(policy.success_latency_mean_s,
                 policy.success_latency_sigma_s));
  outcome->exit_code = 0;
  return true;
}

/// Converts an injected transport fault into a finished outcome.
void FillFromFault(const faultsim::TransportFault& fault,
                   ExecOutcome* outcome) {
  if (fault.kind == faultsim::TransportFault::Kind::kTimeout) {
    outcome->status = ExecOutcome::Status::kTimeout;
    outcome->exit_code = -1;
  } else {
    outcome->status = ExecOutcome::Status::kError;
    outcome->exit_code = 2;
  }
  outcome->reason = fault.detail;
  outcome->latency_s = fault.latency_s;
}

}  // namespace

ExecOutcome RemoteExecutor::Execute(Probe& probe, winsim::Machine& machine,
                                    util::SimTime t) {
  ExecOutcome outcome;
  const bool faulted = faults_ != nullptr && faults_->active();
  if (faulted) {
    const faultsim::TransportFault fault = faults_->OnAttempt(machine.id(), t);
    if (fault.kind != faultsim::TransportFault::Kind::kNone) {
      FillFromFault(fault, &outcome);
      return outcome;
    }
  }
  if (TransportAttempt(policy_, rng_, machine, &outcome)) {
    if (faulted) {
      faults_->BeforeProbe(machine, t);
      const faultsim::WireFault wire = faults_->PlanWire();
      outcome.stdout_text = probe.Execute(machine, t);
      faults_->ApplyWire(wire, &outcome.stdout_text);
      outcome.latency_s *= wire.latency_multiplier;
    } else {
      outcome.stdout_text = probe.Execute(machine, t);
    }
  }
  return outcome;
}

ExecOutcome RemoteExecutor::ExecuteStructured(Probe& probe,
                                              winsim::Machine& machine,
                                              util::SimTime t,
                                              W32Sample* structured_out,
                                              bool* structured_filled,
                                              bool also_text) {
  *structured_filled = false;
  ExecOutcome outcome;
  const bool faulted = faults_ != nullptr && faults_->active();
  if (faulted) {
    const faultsim::TransportFault fault = faults_->OnAttempt(machine.id(), t);
    if (fault.kind != faultsim::TransportFault::Kind::kNone) {
      FillFromFault(fault, &outcome);
      return outcome;
    }
  }
  if (!TransportAttempt(policy_, rng_, machine, &outcome)) return outcome;
  if (faulted) {
    faults_->BeforeProbe(machine, t);
    const faultsim::WireFault wire = faults_->PlanWire();
    outcome.latency_s *= wire.latency_multiplier;
    if (wire.kind != faultsim::WireFault::Kind::kNone) {
      // A mangled wire payload has no structured form — ship text only.
      outcome.stdout_text = probe.Execute(machine, t);
      faults_->ApplyWire(wire, &outcome.stdout_text);
      return outcome;
    }
  }
  if (structured_out != nullptr &&
      probe.ExecuteInto(machine, t, structured_out)) {
    *structured_filled = true;
    // The cross-check cadence keeps the text codec continuously verified
    // against the structured surface without paying for it on every sample.
    if (also_text) outcome.stdout_text = probe.Execute(machine, t);
  } else {
    outcome.stdout_text = probe.Execute(machine, t);
  }
  return outcome;
}

}  // namespace labmon::ddc
