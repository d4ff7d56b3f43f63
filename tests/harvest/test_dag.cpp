// DAG model + DagScheduler property harness.
//
// The property tests execute randomly generated (but seeded) dags on the
// simulated fleet and check the structural invariants the scheduler must
// uphold for *every* dag: topological execution order, no job started
// before its parents completed, exactly-once completion credit, and
// bit-identical reruns — including when whole scheduler instances run
// concurrently inside ParallelFor at different worker counts. The golden
// suite pins the exact dispatch order: ResultHash constants recorded per
// job mix, with deadlines, and under a stochastic fault plan.
#include "labmon/harvest/dag.hpp"

#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "labmon/faultsim/fault_plan.hpp"
#include "labmon/harvest/dag_scheduler.hpp"
#include "labmon/util/parallel.hpp"
#include "labmon/winsim/paper_specs.hpp"

namespace labmon::harvest {
namespace {

// ---------------------------------------------------------------- dag model

TEST(JobDagTest, ValidateCatchesForwardEdgeViolation) {
  JobDag dag;
  dag.jobs.resize(2);
  dag.jobs[0].index_seconds = 10.0;
  dag.jobs[1].index_seconds = 10.0;
  dag.jobs[0].deps.push_back(1);  // edge points forward: invalid
  EXPECT_NE(ValidateDag(dag), "");
  dag.jobs[0].deps.clear();
  dag.jobs[1].deps.push_back(0);
  EXPECT_EQ(ValidateDag(dag), "");
}

TEST(JobDagTest, ValidateCatchesSelfAndDuplicateDeps) {
  JobDag dag;
  dag.jobs.resize(2);
  dag.jobs[0].index_seconds = 1.0;
  dag.jobs[1].index_seconds = 1.0;
  dag.jobs[1].deps = {1};  // self edge
  EXPECT_NE(ValidateDag(dag), "");
  dag.jobs[1].deps = {0, 0};  // duplicate
  EXPECT_NE(ValidateDag(dag), "");
  dag.jobs[1].deps = {0};
  EXPECT_EQ(ValidateDag(dag), "");
}

TEST(JobDagTest, ValidateCatchesBadSizes) {
  JobDag dag;
  dag.jobs.resize(1);
  dag.jobs[0].index_seconds = -1.0;
  EXPECT_NE(ValidateDag(dag), "");
  dag.jobs[0].index_seconds = 1.0;
  dag.jobs[0].deadline = -5;
  EXPECT_NE(ValidateDag(dag), "");
}

TEST(JobDagTest, CriticalPathOfChainIsTheSum) {
  JobDag dag;
  for (int i = 0; i < 4; ++i) {
    DagJob j;
    j.index_seconds = 100.0;
    if (i > 0) j.deps.push_back(static_cast<std::uint32_t>(i - 1));
    dag.jobs.push_back(j);
  }
  EXPECT_DOUBLE_EQ(CriticalPathIndexSeconds(dag), 400.0);
  EXPECT_DOUBLE_EQ(dag.TotalIndexSeconds(), 400.0);
}

TEST(JobDagTest, CriticalPathOfBagIsTheMax) {
  JobDag dag;
  for (double s : {50.0, 300.0, 120.0}) {
    DagJob j;
    j.index_seconds = s;
    dag.jobs.push_back(j);
  }
  EXPECT_DOUBLE_EQ(CriticalPathIndexSeconds(dag), 300.0);
}

TEST(JobDagTest, DedicatedMakespanOfBagPacksPerfectly) {
  // 8 equal independent jobs on 4 machines of index 2: two waves of
  // 100/2 = 50 s each.
  JobDag dag;
  for (int i = 0; i < 8; ++i) {
    DagJob j;
    j.index_seconds = 100.0;
    dag.jobs.push_back(j);
  }
  EXPECT_DOUBLE_EQ(DedicatedMakespanSeconds(dag, 4, 2.0), 100.0);
}

TEST(JobDagTest, DedicatedMakespanOfChainIgnoresExtraMachines) {
  JobDag dag;
  for (int i = 0; i < 5; ++i) {
    DagJob j;
    j.index_seconds = 60.0;
    if (i > 0) j.deps.push_back(static_cast<std::uint32_t>(i - 1));
    dag.jobs.push_back(j);
  }
  EXPECT_DOUBLE_EQ(DedicatedMakespanSeconds(dag, 1, 1.0), 300.0);
  EXPECT_DOUBLE_EQ(DedicatedMakespanSeconds(dag, 100, 1.0), 300.0);
  // Never below the critical-path bound.
  EXPECT_GE(DedicatedMakespanSeconds(dag, 100, 1.0),
            CriticalPathIndexSeconds(dag) / 1.0);
}

TEST(JobMixTest, EveryKindValidatesAndHasRequestedSize) {
  for (JobMixKind kind :
       {JobMixKind::kBagOfTasks, JobMixKind::kChain, JobMixKind::kFanInFanOut,
        JobMixKind::kRandomLayered, JobMixKind::kMixed}) {
    JobMixOptions o;
    o.kind = kind;
    o.jobs = 97;  // awkward size exercises the block remainders
    const JobDag dag = MakeJobMix(o);
    EXPECT_EQ(ValidateDag(dag), "") << JobMixName(kind);
    EXPECT_EQ(dag.jobs.size(), 97u) << JobMixName(kind);
    EXPECT_GT(dag.TotalIndexSeconds(), 0.0) << JobMixName(kind);
  }
}

TEST(JobMixTest, GenerationIsSeedDeterministic) {
  JobMixOptions o;
  o.kind = JobMixKind::kMixed;
  o.jobs = 200;
  const JobDag a = MakeJobMix(o);
  const JobDag b = MakeJobMix(o);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].index_seconds, b.jobs[i].index_seconds);
    EXPECT_EQ(a.jobs[i].priority, b.jobs[i].priority);
    EXPECT_EQ(a.jobs[i].deps, b.jobs[i].deps);
  }
  o.seed ^= 1;
  const JobDag c = MakeJobMix(o);
  bool differs = c.jobs.size() != a.jobs.size();
  for (std::size_t i = 0; !differs && i < a.jobs.size(); ++i) {
    differs = a.jobs[i].index_seconds != c.jobs[i].index_seconds ||
              a.jobs[i].deps != c.jobs[i].deps;
  }
  EXPECT_TRUE(differs);
}

TEST(JobMixTest, NamesRoundTrip) {
  for (JobMixKind kind :
       {JobMixKind::kBagOfTasks, JobMixKind::kChain, JobMixKind::kFanInFanOut,
        JobMixKind::kRandomLayered, JobMixKind::kMixed}) {
    const auto parsed = ParseJobMixName(JobMixName(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(ParseJobMixName("nope").has_value());
}

// ------------------------------------------------------- property harness

struct DagFixture {
  explicit DagFixture(int days = 3, std::uint64_t seed = 5) {
    campus.days = days;
    campus.seed = seed;
    util::Rng rng(seed);
    fleet = std::make_unique<winsim::Fleet>(winsim::MakePaperFleet(rng));
    driver = std::make_unique<workload::WorkloadDriver>(*fleet, campus);
  }
  workload::CampusConfig campus;
  std::unique_ptr<winsim::Fleet> fleet;
  std::unique_ptr<workload::WorkloadDriver> driver;
};

DagResult RunMix(DagFixture& f, const JobDag& dag, const DagPolicy& policy) {
  DagScheduler scheduler(*f.fleet, *f.driver, policy);
  return scheduler.Run(dag, 0, f.campus.EndTime());
}

// One full property check of a scheduler run against its dag.
void CheckInvariants(const JobDag& dag, const DagResult& result,
                     util::SimTime horizon) {
  ASSERT_EQ(result.jobs.size(), dag.jobs.size());
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < dag.jobs.size(); ++i) {
    const DagJobRun& run = result.jobs[i];
    // Exactly-once credit: a completed job completed exactly once, any
    // other state never.
    if (run.state == DagJobState::kCompleted) {
      ++completed;
      EXPECT_EQ(run.completions, 1u) << "job " << i;
      EXPECT_GT(run.completed_at, 0) << "job " << i;
      EXPECT_LE(run.completed_at, horizon) << "job " << i;
      // Topological order: no job completes before each of its parents.
      for (std::uint32_t d : dag.jobs[i].deps) {
        EXPECT_EQ(result.jobs[d].state, DagJobState::kCompleted)
            << "job " << i << " completed with unfinished parent " << d;
        EXPECT_GE(run.completed_at, result.jobs[d].completed_at)
            << "job " << i << " before parent " << d;
      }
    } else {
      EXPECT_EQ(run.completions, 0u) << "job " << i;
      if (run.state == DagJobState::kFailed) ++failed;
      // A stranded child of a failed parent must never have run to
      // completion (checked above) — and a pending job with a failed
      // ancestor must have zero attempts after the failure. (Attempts
      // before the parent failed are impossible: children only become
      // ready on parent *completion*.)
      for (std::uint32_t d : dag.jobs[i].deps) {
        if (result.jobs[d].state != DagJobState::kCompleted) {
          EXPECT_EQ(run.attempts, 0u)
              << "job " << i << " ran before parent " << d << " completed";
        }
      }
    }
  }
  EXPECT_EQ(result.jobs_completed, completed);
  EXPECT_EQ(result.jobs_failed, failed);
  EXPECT_GE(result.useful_index_seconds, 0.0);
  EXPECT_GE(result.wasted_index_seconds, 0.0);
  EXPECT_GE(result.WasteFraction(), 0.0);
  EXPECT_LE(result.WasteFraction(), 1.0);
  if (result.dag_finished) {
    EXPECT_EQ(result.jobs_completed, result.jobs_total);
    // All work credited exactly once: useful == the dag total.
    EXPECT_NEAR(result.useful_index_seconds, dag.TotalIndexSeconds(), 1e-6);
  }
}

TEST(DagSchedulerPropertyTest, RandomDagsUpholdInvariants) {
  // Speculative backups run several copies of one job at once; the first
  // to finish must still be the only completion, in topological order.
  std::uint64_t backups_started = 0;
  for (bool backups : {false, true}) {
    for (std::uint64_t seed : {1ull, 17ull, 404ull}) {
      for (JobMixKind kind : {JobMixKind::kChain, JobMixKind::kRandomLayered,
                              JobMixKind::kMixed}) {
        JobMixOptions o;
        o.kind = kind;
        o.jobs = 60;
        o.mean_index_hours = 4.0;
        o.seed = seed;
        const JobDag dag = MakeJobMix(o);
        DagFixture f(3, seed);
        DagPolicy policy;
        policy.grid.speculative_backups = backups;
        const DagResult result = RunMix(f, dag, policy);
        SCOPED_TRACE(std::string(JobMixName(kind)) + " seed " +
                     std::to_string(seed) + (backups ? " backups" : ""));
        CheckInvariants(dag, result, f.campus.EndTime());
        EXPECT_GT(result.jobs_completed, 0u);
        EXPECT_LE(result.backup_copies_cancelled,
                  result.backup_copies_started);
        backups_started += result.backup_copies_started;
      }
    }
  }
  EXPECT_GT(backups_started, 0u);
}

TEST(DagSchedulerPropertyTest, RerunsHashIdentically) {
  JobMixOptions o;
  o.kind = JobMixKind::kMixed;
  o.jobs = 80;
  const JobDag dag = MakeJobMix(o);
  const auto run = [&] {
    DagFixture f(2, 99);
    DagPolicy policy;
    return RunMix(f, dag, policy);
  };
  const DagResult a = run();
  const DagResult b = run();
  EXPECT_EQ(a.ResultHash(), b.ResultHash());
  EXPECT_EQ(a.useful_index_seconds, b.useful_index_seconds);
  EXPECT_EQ(a.makespan_s, b.makespan_s);
}

TEST(DagSchedulerPropertyTest, HashIsSensitiveToTheWorkload) {
  JobMixOptions o;
  o.jobs = 40;
  const JobDag dag = MakeJobMix(o);
  o.seed ^= 7;
  const JobDag other = MakeJobMix(o);
  DagFixture f1(1, 5);
  DagFixture f2(1, 5);
  DagPolicy policy;
  const DagResult a = RunMix(f1, dag, policy);
  const DagResult b = RunMix(f2, other, policy);
  EXPECT_NE(a.ResultHash(), b.ResultHash());
}

TEST(DagSchedulerPropertyTest, IndependentOfParallelForWorkerCount) {
  // Whole scheduler instances running concurrently must not disturb each
  // other (no hidden shared state), and the answer must not depend on the
  // worker count the surrounding harness happens to use.
  JobMixOptions o;
  o.kind = JobMixKind::kRandomLayered;
  o.jobs = 50;
  const JobDag dag = MakeJobMix(o);
  const auto hashes_at = [&](std::size_t workers) {
    std::vector<std::uint64_t> hashes(4, 0);
    util::ParallelFor(
        hashes.size(),
        [&](std::size_t i) {
          DagFixture f(2, 7);
          DagPolicy policy;
          hashes[i] = RunMix(f, dag, policy).ResultHash();
        },
        workers);
    return hashes;
  };
  const auto serial = hashes_at(1);
  const auto wide = hashes_at(4);
  for (std::size_t i = 1; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], serial[0]);
  }
  EXPECT_EQ(serial, wide);
}

// ------------------------------------------------------------ golden order

// ResultHash fingerprints every per-job record (state, completion time,
// attempts, evictions), so these constants pin the exact dispatch order
// of the ready queue — priority, then deadline, then id — and the
// requeue/backoff path. Each run oversubscribes the fleet and ends with
// jobs still in flight, so the surviving-progress accounting is pinned too.
// A change to any constant is a change of scheduler behaviour, not noise.
JobMixOptions GoldenMix(JobMixKind kind) {
  JobMixOptions o;
  o.kind = kind;
  o.jobs = 1500;
  o.mean_index_hours = 48.0;
  o.seed = 20050201;
  return o;
}

std::uint64_t GoldenHash(const JobDag& dag, const faultsim::FaultPlan* plan) {
  DagFixture f(2, 41);
  DagScheduler scheduler(*f.fleet, *f.driver, DagPolicy{});
  if (plan != nullptr) scheduler.SetFaultPlan(*plan);
  const DagResult result = scheduler.Run(dag, 0, f.campus.EndTime());
  EXPECT_FALSE(result.dag_finished);
  EXPECT_GT(result.retries, 0u);
  return result.ResultHash();
}

TEST(DagSchedulerGoldenTest, EveryJobMixDispatchesInThePinnedOrder) {
  const struct {
    JobMixKind kind;
    std::uint64_t hash;
  } kGolden[] = {
      {JobMixKind::kBagOfTasks, 0xc13ce8310849e36aULL},
      {JobMixKind::kChain, 0xe26ef011109f1073ULL},
      {JobMixKind::kFanInFanOut, 0x135ca6a5110931a1ULL},
      {JobMixKind::kRandomLayered, 0x564e1d79a36781c5ULL},
      {JobMixKind::kMixed, 0xeb77a550bea57b22ULL},
  };
  for (const auto& golden : kGolden) {
    SCOPED_TRACE(JobMixName(golden.kind));
    EXPECT_EQ(GoldenHash(MakeJobMix(GoldenMix(golden.kind)), nullptr),
              golden.hash);
  }
}

TEST(DagSchedulerGoldenTest, DeadlinesDispatchInThePinnedOrder) {
  // Three deadline classes (tight, loose, none) interleaved by id, so the
  // earliest-deadline tie-break decides between equal priorities.
  JobMixOptions o = GoldenMix(JobMixKind::kBagOfTasks);
  o.deadline = 36 * 3600;
  JobDag dag = MakeJobMix(o);
  for (std::size_t i = 0; i < dag.jobs.size(); ++i) {
    if (i % 3 == 1) dag.jobs[i].deadline = 12 * 3600;
    if (i % 3 == 2) dag.jobs[i].deadline = 0;
  }
  EXPECT_EQ(GoldenHash(dag, nullptr), 0xca0f1d856749eeffULL);
}

TEST(DagSchedulerGoldenTest, ChaosRequeuesInThePinnedOrder) {
  // Stochastic failures, hangs and stragglers plus one scripted crash:
  // failed and evicted attempts requeue under backoff, so the cooling
  // queue's promotion order is pinned too. The seed is fixed, unlike the
  // chaos suite's swept one.
  faultsim::FaultPlan plan;
  plan.enabled = true;
  plan.seed = 0x901d;
  plan.stochastic.transient_error_prob = 0.2;
  plan.stochastic.hang_prob = 0.05;
  plan.stochastic.straggler_prob = 0.1;
  plan.stochastic.straggler_multiplier_lo = 2.0;
  plan.stochastic.straggler_multiplier_hi = 8.0;
  faultsim::ScriptedCrash crash;
  crash.machine = 11;
  crash.at = 40000;
  crash.down_seconds = 7200;
  plan.crashes.push_back(crash);
  ASSERT_TRUE(plan.Active());
  EXPECT_EQ(GoldenHash(MakeJobMix(GoldenMix(JobMixKind::kMixed)), &plan),
            0x9c966e5da197a219ULL);
}

TEST(DagSchedulerTest, EmptyDagFinishesImmediately) {
  DagFixture f(1);
  DagPolicy policy;
  const DagResult result = RunMix(f, JobDag{}, policy);
  EXPECT_EQ(result.jobs_total, 0u);
  EXPECT_EQ(result.jobs_completed, 0u);
  EXPECT_FALSE(result.dag_finished);
  EXPECT_DOUBLE_EQ(result.useful_index_seconds, 0.0);
}

TEST(DagSchedulerTest, ZeroLengthHorizonIsANoOp) {
  DagFixture f(1);
  JobMixOptions o;
  o.jobs = 10;
  const JobDag dag = MakeJobMix(o);
  DagPolicy policy;
  DagScheduler scheduler(*f.fleet, *f.driver, policy);
  const DagResult result = scheduler.Run(dag, 0, 0);
  EXPECT_EQ(result.jobs_completed, 0u);
  EXPECT_DOUBLE_EQ(result.makespan_s, 0.0);
  EXPECT_DOUBLE_EQ(result.useful_index_seconds, 0.0);
  for (const DagJobRun& run : result.jobs) {
    EXPECT_EQ(run.attempts, 0u);
  }
}

TEST(DagSchedulerTest, PrioritiesDispatchFirst) {
  // A single always-on machine serialises execution, so the high-priority
  // job must strictly precede the equal-sized low-priority one even though
  // its id comes second.
  workload::CampusConfig campus;
  campus.days = 2;
  campus.seed = 11;
  campus.timetable.weekday_slot_prob = 0.0;
  campus.timetable.saturday_slot_prob = 0.0;
  campus.timetable.heavy_class_lab = -1;
  campus.arrivals.weekday_peak_per_hour = 0.0;
  campus.power.sweeps_enabled = false;
  campus.power.short_cycles_per_day = 0.0;
  util::Rng rng(campus.seed);
  winsim::Fleet fleet(winsim::MakePaperFleet(rng));
  workload::WorkloadDriver driver(fleet, campus);
  fleet.machine(0).Boot(0);  // only one machine ever powers on

  JobDag dag;
  DagJob low;
  low.index_seconds = 2.0 * 3600.0;
  low.priority = 0;
  DagJob high = low;
  high.priority = 5;
  dag.jobs = {low, high};
  DagPolicy policy;
  DagScheduler scheduler(fleet, driver, policy);
  const DagResult result = scheduler.Run(dag, 0, campus.EndTime());
  ASSERT_EQ(result.jobs[0].state, DagJobState::kCompleted);
  ASSERT_EQ(result.jobs[1].state, DagJobState::kCompleted);
  EXPECT_LT(result.jobs[1].completed_at, result.jobs[0].completed_at);
}

TEST(DagSchedulerTest, DeadlinesAreTracked) {
  JobDag dag;
  DagJob easy;
  easy.index_seconds = 3600.0;
  easy.deadline = 2 * util::kSecondsPerDay;  // generous
  DagJob hopeless;
  hopeless.index_seconds = 3600.0;
  hopeless.deadline = 60;  // one minute: cannot happen behind the claim delay
  dag.jobs = {easy, hopeless};
  DagFixture f(2, 13);
  DagPolicy policy;
  const DagResult result = RunMix(f, dag, policy);
  ASSERT_EQ(result.jobs_completed, 2u);
  EXPECT_TRUE(result.jobs[0].deadline_met);
  EXPECT_FALSE(result.jobs[1].deadline_met);
  EXPECT_EQ(result.deadline_misses, 1u);
}

TEST(DagSchedulerTest, BaselineComparisonsArePopulated) {
  JobMixOptions o;
  o.jobs = 40;
  const JobDag dag = MakeJobMix(o);
  DagFixture f(3, 19);
  DagPolicy policy;
  const DagResult result = RunMix(f, dag, policy);
  EXPECT_GT(result.fleet_mean_index, 0.0);
  EXPECT_DOUBLE_EQ(result.fleet_mean_index, f.fleet->MeanCombinedIndex());
  EXPECT_GT(result.critical_path_index_seconds, 0.0);
  EXPECT_GT(result.dedicated_makespan_s, 0.0);
  if (result.dag_finished) {
    // A volatile fleet can never beat the dedicated-cluster baseline of
    // the same size and index.
    EXPECT_GE(result.harvest_slowdown, 1.0);
    EXPECT_GE(result.critical_path_stretch, 1.0);
  }
}

}  // namespace
}  // namespace labmon::harvest
