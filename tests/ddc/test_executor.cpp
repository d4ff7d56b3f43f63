#include "labmon/ddc/executor.hpp"

#include <gtest/gtest.h>

#include "labmon/ddc/w32_probe.hpp"
#include "labmon/faultsim/fault_injector.hpp"
#include "labmon/smart/disk_smart.hpp"

namespace labmon::ddc {
namespace {

winsim::Machine TestMachine() {
  winsim::MachineSpec spec;
  spec.name = "L01-PC01";
  spec.cpu_model = "Pentium III";
  spec.cpu_ghz = 1.1;
  spec.ram_mb = 256;
  spec.swap_mb = 384;
  spec.disk_gb = 18.6;
  return winsim::Machine(0, spec, smart::DiskSmart("S", 0, 0));
}

TEST(RemoteExecutorTest, OfflineMachineTimesOut) {
  winsim::Machine m = TestMachine();  // powered off
  RemoteExecutor exec(ExecPolicy{}, 1);
  W32Probe probe;
  const auto outcome = exec.Execute(probe, m, 100);
  EXPECT_EQ(outcome.status, ExecOutcome::Status::kTimeout);
  EXPECT_FALSE(outcome.ok());
  EXPECT_GE(outcome.latency_s, exec.policy().offline_timeout_min_s);
  EXPECT_TRUE(outcome.stdout_text.empty());
  EXPECT_EQ(outcome.StderrText(m.spec().name),
            "psexec: could not connect to L01-PC01: timeout");
  EXPECT_EQ(outcome.exit_code, -1);
}

TEST(RemoteExecutorTest, TransientBlipRendersRpcBusy) {
  winsim::Machine m = TestMachine();
  m.Boot(0);
  ExecPolicy policy;
  policy.transient_failure_prob = 1.0;
  RemoteExecutor exec(policy, 3);
  W32Probe probe;
  const auto outcome = exec.Execute(probe, m, 100);
  EXPECT_EQ(outcome.status, ExecOutcome::Status::kError);
  EXPECT_EQ(outcome.exit_code, 2);
  EXPECT_EQ(outcome.StderrText(m.spec().name),
            "psexec: RPC server busy on L01-PC01");
}

TEST(RemoteExecutorTest, OnlineMachineSucceeds) {
  winsim::Machine m = TestMachine();
  m.Boot(0);
  ExecPolicy policy;
  policy.transient_failure_prob = 0.0;
  RemoteExecutor exec(policy, 2);
  W32Probe probe;
  const auto outcome = exec.Execute(probe, m, 900);
  EXPECT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.exit_code, 0);
  EXPECT_GE(outcome.latency_s, policy.success_latency_min_s);
  EXPECT_NE(outcome.stdout_text.find("W32PROBE"), std::string::npos);
  EXPECT_TRUE(outcome.StderrText(m.spec().name).empty());
  // The probe observed the machine at the execution instant.
  const auto parsed = ParseW32ProbeOutput(outcome.stdout_text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().uptime_s, 900);
}

TEST(RemoteExecutorTest, OfflineTimeoutsAreMuchSlowerThanSuccess) {
  // The asymmetry that causes the paper's iteration overrun.
  winsim::Machine on = TestMachine();
  on.Boot(0);
  winsim::Machine off = TestMachine();
  ExecPolicy policy;
  policy.transient_failure_prob = 0.0;
  RemoteExecutor exec(policy, 3);
  W32Probe probe;
  double on_total = 0.0;
  double off_total = 0.0;
  for (int i = 0; i < 200; ++i) {
    on.AdvanceTo(i + 1);
    on_total += exec.Execute(probe, on, i + 1).latency_s;
    off_total += exec.Execute(probe, off, i + 1).latency_s;
  }
  EXPECT_GT(off_total, 3.0 * on_total);
}

TEST(RemoteExecutorTest, TransientFailuresAtConfiguredRate) {
  winsim::Machine m = TestMachine();
  m.Boot(0);
  ExecPolicy policy;
  policy.transient_failure_prob = 0.25;
  RemoteExecutor exec(policy, 4);
  W32Probe probe;
  int failures = 0;
  constexpr int kN = 4000;
  for (int i = 0; i < kN; ++i) {
    m.AdvanceTo(i + 1);
    const auto outcome = exec.Execute(probe, m, i + 1);
    if (outcome.status == ExecOutcome::Status::kError) {
      ++failures;
      EXPECT_EQ(outcome.exit_code, 2);
      EXPECT_TRUE(outcome.stdout_text.empty());
    }
  }
  EXPECT_NEAR(static_cast<double>(failures) / kN, 0.25, 0.03);
}

TEST(RemoteExecutorTest, DeterministicForSeed) {
  winsim::Machine m1 = TestMachine();
  winsim::Machine m2 = TestMachine();
  RemoteExecutor a(ExecPolicy{}, 99);
  RemoteExecutor b(ExecPolicy{}, 99);
  W32Probe probe;
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(a.Execute(probe, m1, i).latency_s,
                     b.Execute(probe, m2, i).latency_s);
  }
}

TEST(ExecPolicyTest, ValidatedIsIdentityForValidPolicies) {
  const ExecPolicy policy;
  const ExecPolicy validated = policy.Validated();
  EXPECT_DOUBLE_EQ(validated.success_latency_mean_s,
                   policy.success_latency_mean_s);
  EXPECT_DOUBLE_EQ(validated.success_latency_sigma_s,
                   policy.success_latency_sigma_s);
  EXPECT_DOUBLE_EQ(validated.success_latency_min_s,
                   policy.success_latency_min_s);
  EXPECT_DOUBLE_EQ(validated.offline_timeout_mean_s,
                   policy.offline_timeout_mean_s);
  EXPECT_DOUBLE_EQ(validated.offline_timeout_sigma_s,
                   policy.offline_timeout_sigma_s);
  EXPECT_DOUBLE_EQ(validated.offline_timeout_min_s,
                   policy.offline_timeout_min_s);
  EXPECT_DOUBLE_EQ(validated.transient_failure_prob,
                   policy.transient_failure_prob);
}

TEST(ExecPolicyTest, ValidatedClampsZeroAndNegativeParameters) {
  // Regression: zero/negative latency parameters used to reach the Normal
  // draws raw and could produce non-positive latencies.
  ExecPolicy bad;
  bad.success_latency_mean_s = -2.0;
  bad.success_latency_sigma_s = -1.0;
  bad.success_latency_min_s = 0.0;
  bad.offline_timeout_mean_s = 0.0;
  bad.offline_timeout_sigma_s = -3.0;
  bad.offline_timeout_min_s = -8.0;
  bad.transient_failure_prob = 1.5;
  const ExecPolicy fixed = bad.Validated();
  EXPECT_GE(fixed.success_latency_sigma_s, 0.0);
  EXPECT_GT(fixed.success_latency_min_s, 0.0);
  EXPECT_GE(fixed.success_latency_mean_s, fixed.success_latency_min_s);
  EXPECT_GE(fixed.offline_timeout_sigma_s, 0.0);
  EXPECT_GT(fixed.offline_timeout_min_s, 0.0);
  EXPECT_GE(fixed.offline_timeout_mean_s, fixed.offline_timeout_min_s);
  EXPECT_LE(fixed.transient_failure_prob, 1.0);
  EXPECT_GE(fixed.transient_failure_prob, 0.0);

  // The executor applies the clamp on construction: latencies stay sane.
  winsim::Machine m = TestMachine();
  m.Boot(0);
  RemoteExecutor exec(bad, 5);
  W32Probe probe;
  for (int i = 0; i < 100; ++i) {
    m.AdvanceTo(i + 1);
    const auto outcome = exec.Execute(probe, m, i + 1);
    EXPECT_GT(outcome.latency_s, 0.0);
  }
}

TEST(RetryPolicyTest, ValidatedClampsAndIsIdentityForValid) {
  const RetryPolicy valid;
  const RetryPolicy same = valid.Validated();
  EXPECT_EQ(same.max_attempts, valid.max_attempts);
  EXPECT_DOUBLE_EQ(same.backoff_initial_s, valid.backoff_initial_s);
  EXPECT_DOUBLE_EQ(same.backoff_multiplier, valid.backoff_multiplier);
  EXPECT_DOUBLE_EQ(same.backoff_max_s, valid.backoff_max_s);
  EXPECT_DOUBLE_EQ(same.jitter_fraction, valid.jitter_fraction);
  EXPECT_FALSE(valid.enabled());

  RetryPolicy bad;
  bad.max_attempts = 0;
  bad.backoff_initial_s = -2.0;
  bad.backoff_multiplier = 0.5;
  bad.backoff_max_s = -60.0;
  bad.jitter_fraction = 3.0;
  bad.iteration_budget_s = -1.0;
  const RetryPolicy fixed = bad.Validated();
  EXPECT_GE(fixed.max_attempts, 1);
  EXPECT_GE(fixed.backoff_initial_s, 0.0);
  EXPECT_GE(fixed.backoff_multiplier, 1.0);
  EXPECT_GE(fixed.backoff_max_s, fixed.backoff_initial_s);
  EXPECT_GE(fixed.jitter_fraction, 0.0);
  EXPECT_LE(fixed.jitter_fraction, 1.0);
  EXPECT_GE(fixed.iteration_budget_s, 0.0);
}

TEST(RemoteExecutorFaultTest, InjectedTimeoutAndErrorShapeTheOutcome) {
  faultsim::FaultPlan plan;
  plan.enabled = true;
  plan.crashes.push_back({0, 0, 1000});
  faultsim::FaultInjector injector(plan);
  winsim::Machine m = TestMachine();
  m.Boot(0);
  RemoteExecutor exec(ExecPolicy{}, 6, &injector);
  W32Probe probe;

  const auto crashed = exec.Execute(probe, m, 500);
  EXPECT_EQ(crashed.status, ExecOutcome::Status::kTimeout);
  EXPECT_EQ(crashed.exit_code, -1);
  const std::string crashed_text = crashed.StderrText(m.spec().name);
  EXPECT_NE(crashed_text.find("host crashed"), std::string::npos);
  EXPECT_NE(crashed_text.find("L01-PC01"), std::string::npos);
  EXPECT_TRUE(crashed.stdout_text.empty());

  faultsim::FaultPlan blips;
  blips.enabled = true;
  blips.stochastic.transient_error_prob = 1.0;
  faultsim::FaultInjector blip_injector(blips);
  RemoteExecutor blip_exec(ExecPolicy{}, 7, &blip_injector);
  winsim::Machine live = TestMachine();
  live.Boot(0);
  const auto blipped = blip_exec.Execute(probe, live, 100);
  EXPECT_EQ(blipped.status, ExecOutcome::Status::kError);
  EXPECT_EQ(blipped.exit_code, 2);
  EXPECT_NE(blipped.StderrText(live.spec().name).find("RPC server busy"),
            std::string::npos);
}

TEST(RemoteExecutorFaultTest, InactiveInjectorMatchesPlainExecutor) {
  // The null-vs-inactive identity at the executor level: same seed, same
  // machine state, bit-identical outcomes.
  faultsim::FaultPlan plan;  // disabled
  faultsim::FaultInjector injector(plan);
  winsim::Machine m1 = TestMachine();
  winsim::Machine m2 = TestMachine();
  m1.Boot(0);
  m2.Boot(0);
  RemoteExecutor plain(ExecPolicy{}, 42);
  RemoteExecutor faulted(ExecPolicy{}, 42, &injector);
  W32Probe probe;
  for (int i = 1; i <= 100; ++i) {
    m1.AdvanceTo(i);
    m2.AdvanceTo(i);
    const auto a = plain.Execute(probe, m1, i);
    const auto b = faulted.Execute(probe, m2, i);
    EXPECT_EQ(a.status, b.status);
    EXPECT_DOUBLE_EQ(a.latency_s, b.latency_s);
    EXPECT_EQ(a.stdout_text, b.stdout_text);
  }
}

TEST(RemoteExecutorFaultTest, WireCorruptionForcesTextPathInStructuredMode) {
  faultsim::FaultPlan plan;
  plan.enabled = true;
  plan.stochastic.wire_corruption_prob = 1.0;
  faultsim::FaultInjector injector(plan);
  winsim::Machine m = TestMachine();
  m.Boot(0);
  ExecPolicy policy;
  policy.transient_failure_prob = 0.0;
  RemoteExecutor exec(policy, 8, &injector);
  W32Probe probe;
  W32Sample scratch;
  bool structured = false;
  const auto outcome =
      exec.ExecuteStructured(probe, m, 100, &scratch, &structured, false);
  ASSERT_TRUE(outcome.ok());
  // A mangled wire has no structured form: the sample ships as (corrupted)
  // text for the sink to judge.
  EXPECT_FALSE(structured);
  EXPECT_FALSE(outcome.stdout_text.empty());
  EXPECT_GT(injector.injected(faultsim::FaultKind::kWireCorruption), 0u);
}

}  // namespace
}  // namespace labmon::ddc
