// Bag-of-tasks suite for the DagScheduler: the survival techniques of the
// paper's §6 (checkpointing, claim delays, speculative backup copies) on an
// edge-free dag of identical jobs, plus the DescribePolicy labels.
#include "labmon/harvest/dag_scheduler.hpp"

#include <algorithm>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "labmon/winsim/paper_specs.hpp"

namespace labmon::harvest {
namespace {

struct GridFixture {
  explicit GridFixture(int days = 2, std::uint64_t seed = 5) {
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

// A campus with no classes, no walk-ins, no sweeps and no short cycles:
// once booted, machines stay on and session-free for the whole horizon.
workload::CampusConfig QuietCampus(int days, std::uint64_t seed) {
  workload::CampusConfig c;
  c.days = days;
  c.seed = seed;
  c.timetable.weekday_slot_prob = 0.0;
  c.timetable.saturday_slot_prob = 0.0;
  c.timetable.heavy_class_lab = -1;
  c.arrivals.weekday_peak_per_hour = 0.0;
  c.power.sweeps_enabled = false;
  c.power.short_cycles_per_day = 0.0;
  return c;
}

struct QuietFixture {
  explicit QuietFixture(int days = 1, std::uint64_t seed = 5)
      : campus(QuietCampus(days, seed)) {
    util::Rng rng(seed);
    fleet = std::make_unique<winsim::Fleet>(winsim::MakePaperFleet(rng));
    driver = std::make_unique<workload::WorkloadDriver>(*fleet, campus);
    // Booted after driver construction (it requires an all-off fleet);
    // with every behavioural rate zeroed the driver never touches them.
    for (std::size_t i = 0; i < fleet->size(); ++i) {
      fleet->machine(i).Boot(0);
    }
  }
  workload::CampusConfig campus;
  std::unique_ptr<winsim::Fleet> fleet;
  std::unique_ptr<workload::WorkloadDriver> driver;
};

JobDag UniformBag(std::size_t jobs, double job_hours) {
  DagJob job;
  job.index_seconds = job_hours * 3600.0;
  JobDag bag;
  bag.jobs.assign(jobs, job);
  return bag;
}

template <typename Fixture>
DagResult RunBag(Fixture& f, const HarvestPolicy& policy, std::size_t jobs,
                 double job_hours) {
  DagScheduler scheduler(*f.fleet, *f.driver, DagPolicy{.grid = policy});
  return scheduler.Run(UniformBag(jobs, job_hours), 0, f.campus.EndTime());
}

TEST(BagSchedulingTest, SmallBagCompletes) {
  GridFixture f;
  const auto result = RunBag(f, HarvestPolicy{}, 20, 5.0);
  EXPECT_TRUE(result.dag_finished);
  EXPECT_EQ(result.jobs_completed, 20u);
  EXPECT_GT(result.makespan_s, 0.0);
  EXPECT_LT(result.makespan_s, f.campus.EndTime());
  EXPECT_DOUBLE_EQ(result.useful_index_seconds, 20 * 5.0 * 3600.0);
}

TEST(BagSchedulingTest, AccountingInvariants) {
  GridFixture f;
  HarvestPolicy policy;
  policy.checkpoint_interval_s = 600;
  const auto result = RunBag(f, policy, 400, 20.0);
  EXPECT_LE(result.jobs_completed, result.jobs_total);
  EXPECT_GE(result.wasted_index_seconds, 0.0);
  EXPECT_GE(result.useful_index_seconds,
            static_cast<double>(result.jobs_completed) * 20.0 * 3600.0 -
                1e-6);
  EXPECT_GE(result.mean_busy_machines, 0.0);
  EXPECT_LE(result.mean_busy_machines, 169.0);
  EXPECT_GE(result.WasteFraction(), 0.0);
  EXPECT_LE(result.WasteFraction(), 1.0);
}

TEST(BagSchedulingTest, RerunsAreBitIdenticalAtFixedSeed) {
  const auto run = [&] {
    GridFixture f(2, 1234);
    HarvestPolicy policy;
    policy.checkpoint_interval_s = 600;
    return RunBag(f, policy, 800, 12.0);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.ResultHash(), b.ResultHash());
  EXPECT_EQ(a.mean_busy_machines, b.mean_busy_machines);
  EXPECT_EQ(a.effective_dedicated_machines, b.effective_dedicated_machines);
}

TEST(BagSchedulingTest, CheckpointingReducesWaste) {
  // Same behaviour (same seed), different checkpoint intervals: waste must
  // not increase as checkpoints get denser.
  const auto waste_at = [&](double interval_s) {
    GridFixture f(3, 13);
    HarvestPolicy policy;
    policy.checkpoint_interval_s = interval_s;
    return RunBag(f, policy, 2000, 15.0).wasted_index_seconds;
  };
  const double none = waste_at(0.0);
  const double hourly = waste_at(3600.0);
  const double frequent = waste_at(300.0);
  EXPECT_GT(none, hourly);
  EXPECT_GT(hourly, frequent);
}

TEST(BagSchedulingTest, CheckpointLossBoundsWasteFraction) {
  // Without checkpoints every eviction loses the attempt's whole progress,
  // so waste can only grow relative to a checkpointed run — but the
  // fraction stays a fraction in both, and only the checkpointed run
  // writes checkpoints.
  const auto run = [&](double ckpt_s) {
    GridFixture f(3, 13);
    HarvestPolicy policy;
    policy.checkpoint_interval_s = ckpt_s;
    policy.claim_delay_s = 0;  // aggressive claiming maximises collisions
    return RunBag(f, policy, 3000, 20.0);
  };
  const auto none = run(0.0);
  const auto frequent = run(300.0);
  EXPECT_GT(none.evictions_login + none.evictions_poweroff, 0u);
  EXPECT_GE(none.WasteFraction(), frequent.WasteFraction());
  EXPECT_GE(frequent.WasteFraction(), 0.0);
  EXPECT_LE(none.WasteFraction(), 1.0);
  EXPECT_EQ(none.checkpoints_written, 0u);
  EXPECT_GT(frequent.checkpoints_written, 0u);
}

TEST(BagSchedulingTest, OccupiedModeDeliversMoreThroughput) {
  const auto effective = [&](bool occupied) {
    GridFixture f(3, 21);
    HarvestPolicy policy;
    policy.use_occupied_machines = occupied;
    // Oversized bag: neither finishes, so throughput is comparable.
    return RunBag(f, policy, 100000, 20.0).effective_dedicated_machines;
  };
  const double free_only = effective(false);
  const double with_occupied = effective(true);
  EXPECT_GT(with_occupied, free_only);
  // Both bounded by the fleet's Figure-6 upper limit (~0.55 x 169).
  EXPECT_LT(with_occupied, 110.0);
  EXPECT_GT(free_only, 5.0);
}

TEST(BagSchedulingTest, ClaimDelayReducesLoginEvictions) {
  const auto login_evictions = [&](util::SimTime delay) {
    GridFixture f(2, 31);
    HarvestPolicy policy;
    policy.claim_delay_s = delay;
    return RunBag(f, policy, 100000, 20.0).evictions_login;
  };
  // A keyboard-idle guard must not make things worse.
  EXPECT_LE(login_evictions(30 * 60), login_evictions(0));
}

TEST(BagSchedulingTest, OccupiedModeParityOnSessionFreeFleet) {
  // On an always-on fleet with no interactive sessions the occupied-machine
  // knob must not change a single number: eligibility is identical.
  const auto run = [&](bool occupied) {
    QuietFixture f(1, 77);
    HarvestPolicy policy;
    policy.use_occupied_machines = occupied;
    return RunBag(f, policy, 500, 10.0);
  };
  const auto free_only = run(false);
  const auto occupied = run(true);
  EXPECT_EQ(free_only.ResultHash(), occupied.ResultHash());
  EXPECT_EQ(free_only.effective_dedicated_machines,
            occupied.effective_dedicated_machines);
}

TEST(BagSchedulingTest, QuietFleetHasNoEvictionsAndNoWaste) {
  QuietFixture f(1, 3);
  const auto result = RunBag(f, HarvestPolicy{}, 100, 5.0);
  EXPECT_TRUE(result.dag_finished);
  EXPECT_EQ(result.evictions_login, 0u);
  EXPECT_EQ(result.evictions_poweroff, 0u);
  EXPECT_DOUBLE_EQ(result.wasted_index_seconds, 0.0);
  EXPECT_DOUBLE_EQ(result.WasteFraction(), 0.0);
}

// ------------------------------------------------------ speculative backups

HarvestPolicy BackupPolicy(bool backups) {
  HarvestPolicy policy;
  policy.speculative_backups = backups;
  policy.checkpoint_interval_s = 900;
  return policy;
}

TEST(BagSchedulingTest, SpeculativeBackupsShortenTheTailAndCreditOnce) {
  // A bag sized so the tail is dominated by stragglers on slow or evicted
  // machines: backups must not lengthen the makespan, and duplicated
  // copies must surface as waste, never as double credit — a finished
  // bag's useful work equals the bag total exactly. ResultHash covers
  // every job's attempts (backup dispatches included), completion time
  // and the waste total, so the pinned constant catches any change to
  // victim choice, sibling cancellation or its waste charge.
  const auto run = [&](bool backups) {
    GridFixture f(3, 41);
    return RunBag(f, BackupPolicy(backups), 900, 25.0);
  };
  const auto without = run(false);
  const auto with = run(true);
  ASSERT_TRUE(without.dag_finished);
  ASSERT_TRUE(with.dag_finished);
  EXPECT_EQ(without.backup_copies_started, 0u);
  EXPECT_LE(with.makespan_s, without.makespan_s);
  EXPECT_EQ(with.useful_index_seconds, 900 * 25.0 * 3600.0);
  for (const DagJobRun& job : with.jobs) EXPECT_EQ(job.completions, 1u);
  EXPECT_EQ(with.ResultHash(), 0xb10418ed782c8906ULL);
  EXPECT_EQ(with.backup_copies_started, 40u);
  EXPECT_EQ(with.backup_copies_cancelled, 40u);
}

TEST(BagSchedulingTest, BackupsNeverExceedTheCopyLimit) {
  // On a quiet fleet nothing is evicted, so every dispatch after a job's
  // first is a backup copy running next to it: a job's attempts count its
  // concurrent copies. Ten jobs on 169 machines leave plenty idle. A
  // limit of one copy starts no backups at all.
  for (const int limit : {1, 2, 3}) {
    SCOPED_TRACE("limit " + std::to_string(limit));
    QuietFixture f(1, 7);
    HarvestPolicy policy = BackupPolicy(true);
    policy.max_copies_per_unit = limit;
    const auto result = RunBag(f, policy, 10, 50.0);
    ASSERT_TRUE(result.dag_finished);
    std::uint32_t most = 0;
    for (const DagJobRun& job : result.jobs) {
      EXPECT_LE(job.attempts, static_cast<std::uint32_t>(limit));
      most = std::max(most, job.attempts);
    }
    EXPECT_EQ(most, static_cast<std::uint32_t>(limit));
    EXPECT_EQ(result.backup_copies_started, 10u * (limit - 1));
    EXPECT_EQ(result.backup_copies_cancelled, result.backup_copies_started);
  }
}

TEST(DescribePolicyTest, Labels) {
  HarvestPolicy policy;
  policy.checkpoint_interval_s = 900;
  EXPECT_EQ(DescribePolicy(policy), "free-only, ckpt 15 min");
  policy.use_occupied_machines = true;
  policy.checkpoint_interval_s = 0;
  EXPECT_EQ(DescribePolicy(policy), "free+occupied, no ckpt");
  policy.speculative_backups = true;
  EXPECT_EQ(DescribePolicy(policy), "free+occupied, no ckpt, backups");
}

}  // namespace
}  // namespace labmon::harvest
