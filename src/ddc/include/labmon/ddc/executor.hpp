// RemoteExecutor — the psexec-style remote execution transport (§3).
//
// Models exactly the transport behaviour the study depended on: fast
// execution against a live host, *long* timeouts against a powered-off one
// ("psexec … executes application in remote windows machines"; perfmon/WMI
// were rejected for their even higher timeouts). Those offline timeouts are
// what made real iterations overrun 15 minutes and is why the paper logged
// 6,883 iterations instead of 77d/15min = 7,392.
//
// An optional labmon::faultsim::FaultInjector sits in front of the
// transport model: scripted/stochastic faults decide an attempt's fate
// before the normal latency draws, from the injector's own RNG stream, so
// a null or inactive injector leaves every draw — and the trace —
// bit-identical to a build without the fault layer.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "labmon/ddc/probe.hpp"
#include "labmon/util/rng.hpp"
#include "labmon/util/time.hpp"
#include "labmon/winsim/machine.hpp"

namespace labmon::faultsim {
class FaultInjector;
}  // namespace labmon::faultsim

namespace labmon::ddc {

/// Latency/failure model of remote execution over the lab LAN.
struct ExecPolicy {
  double success_latency_mean_s = 1.1;  ///< psexec spawn + probe run
  double success_latency_sigma_s = 0.4;
  double success_latency_min_s = 0.3;
  double offline_timeout_mean_s = 8.0;  ///< dead-host connect timeout
  double offline_timeout_sigma_s = 2.0;
  double offline_timeout_min_s = 3.0;
  double transient_failure_prob = 0.004;  ///< RPC busy / access denied blip

  /// Copy with every parameter clamped to a sane range (sigmas and
  /// probabilities non-negative, latency floors positive, means at least
  /// their floor). The identity for any already-valid policy, so applying
  /// it never perturbs an existing deterministic run.
  [[nodiscard]] ExecPolicy Validated() const noexcept;
};

/// Bounded-retry policy for one machine's collection inside an iteration.
/// Defaults are the paper's behaviour: one attempt, no retries.
struct RetryPolicy {
  int max_attempts = 1;            ///< total attempts (1 = no retries)
  double backoff_initial_s = 2.0;  ///< delay before the first retry
  double backoff_multiplier = 2.0;
  double backoff_max_s = 60.0;
  /// Uniform jitter applied to each backoff: delay * (1 ± fraction).
  double jitter_fraction = 0.25;
  /// Wall-clock budget one iteration may spend including retries; retries
  /// that cannot finish inside it are skipped. 0 means "the coordinator's
  /// sampling period".
  double iteration_budget_s = 0.0;
  /// Retry timeouts? Off by default: a powered-off host (the dominant
  /// timeout cause, §4.2) will not answer seconds later either.
  bool retry_timeouts = false;
  /// Retry attempts whose payload the sink rejected as corrupt?
  bool retry_rejects = true;

  [[nodiscard]] bool enabled() const noexcept { return max_attempts > 1; }
  /// Copy with attempts >= 1, delays/fractions non-negative, and the
  /// multiplier >= 1. Identity for valid policies.
  [[nodiscard]] RetryPolicy Validated() const noexcept;
};

/// Result of one remote execution attempt.
struct ExecOutcome {
  enum class Status : std::uint8_t { kOk, kTimeout, kError };
  Status status = Status::kTimeout;
  double latency_s = 0.0;     ///< wall time the attempt consumed
  int exit_code = -1;
  std::string stdout_text;
  /// Why a failed attempt failed, as static text ("" for an offline
  /// host's timeout and on success): a failed attempt allocates nothing.
  const char* reason = "";

  [[nodiscard]] bool ok() const noexcept { return status == Status::kOk; }
  /// psexec's stderr for this attempt against host `host` ("" on success).
  [[nodiscard]] std::string StderrText(std::string_view host) const;
};

/// Executes probes against machines with simulated transport behaviour.
class RemoteExecutor {
 public:
  explicit RemoteExecutor(ExecPolicy policy, std::uint64_t seed = 0xddcddc,
                          faultsim::FaultInjector* faults = nullptr);

  /// Attempts to run `probe` on `machine` at `t`. The machine must already
  /// be behaviourally up to date (driver advanced to >= t).
  [[nodiscard]] ExecOutcome Execute(Probe& probe, winsim::Machine& machine,
                                    util::SimTime t);

  /// As Execute, but tries the probe's structured fast path first: on a
  /// successful attempt against a probe that implements ExecuteInto,
  /// `*structured_out` is filled, `*structured_filled` is set, and stdout
  /// text is rendered only when `also_text` is set (the sink's fidelity
  /// cross-check cadence). Transport behaviour and RNG draw order are
  /// identical to Execute(), so a run is deterministic regardless of which
  /// entry point collected it. A wire fault (truncation/corruption) forces
  /// the text path: a mangled payload has no structured form.
  [[nodiscard]] ExecOutcome ExecuteStructured(Probe& probe,
                                              winsim::Machine& machine,
                                              util::SimTime t,
                                              W32Sample* structured_out,
                                              bool* structured_filled,
                                              bool also_text);

  [[nodiscard]] const ExecPolicy& policy() const noexcept { return policy_; }
  [[nodiscard]] faultsim::FaultInjector* faults() const noexcept {
    return faults_;
  }

 private:
  ExecPolicy policy_;
  util::Rng rng_;
  faultsim::FaultInjector* faults_ = nullptr;
};

}  // namespace labmon::ddc
