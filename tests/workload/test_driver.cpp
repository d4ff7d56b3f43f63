#include "labmon/workload/driver.hpp"

#include <memory>

#include <gtest/gtest.h>

#include "labmon/obs/prof.hpp"
#include "labmon/winsim/paper_specs.hpp"

namespace labmon::workload {
namespace {

using util::DayOfWeek;
using util::MakeTime;

struct DriverFixture;
std::uint64_t CountOn(DriverFixture& f);

struct DriverFixture {
  explicit DriverFixture(int days = 3, std::uint64_t seed = 11) {
    config.days = days;
    config.seed = seed;
    util::Rng rng(seed);
    fleet = std::make_unique<winsim::Fleet>(winsim::MakePaperFleet(rng));
    driver = std::make_unique<WorkloadDriver>(*fleet, config);
  }
  CampusConfig config;
  std::unique_ptr<winsim::Fleet> fleet;
  std::unique_ptr<WorkloadDriver> driver;
};

TEST(DriverOpeningHoursTest, WeekdayPolicy) {
  DriverFixture f;
  // Monday 10:00 open; Monday 05:00 closed (daily closure).
  EXPECT_TRUE(f.driver->IsOpen(MakeTime(0, 10)));
  EXPECT_FALSE(f.driver->IsOpen(MakeTime(0, 5)));
  // Monday 02:00 closed (Sunday night); Tuesday 02:00 open (Monday spill).
  EXPECT_FALSE(f.driver->IsOpen(MakeTime(0, 2)));
  EXPECT_TRUE(f.driver->IsOpen(MakeTime(1, 2)));
}

TEST(DriverOpeningHoursTest, WeekendPolicy) {
  DriverFixture f;
  // Saturday: morning open, evening closed after 21:00; 02:00 spill open.
  EXPECT_TRUE(f.driver->IsOpen(MakeTime(5, 10)));
  EXPECT_TRUE(f.driver->IsOpen(MakeTime(5, 2)));
  EXPECT_FALSE(f.driver->IsOpen(MakeTime(5, 21)));
  EXPECT_FALSE(f.driver->IsOpen(MakeTime(5, 23)));
  // Sunday fully closed.
  for (int h = 0; h < 24; h += 3) {
    EXPECT_FALSE(f.driver->IsOpen(MakeTime(6, h))) << "hour " << h;
  }
}

TEST(DriverArrivalRateTest, ZeroWhenClosed) {
  DriverFixture f;
  for (std::size_t lab = 0; lab < 11; ++lab) {
    EXPECT_DOUBLE_EQ(f.driver->ArrivalRate(lab, MakeTime(6, 12)), 0.0);
    EXPECT_DOUBLE_EQ(f.driver->ArrivalRate(lab, MakeTime(0, 5)), 0.0);
  }
}

TEST(DriverArrivalRateTest, AfternoonPeakDominatesMorning) {
  DriverFixture f;
  double afternoon = 0.0;
  double morning = 0.0;
  for (std::size_t lab = 0; lab < 11; ++lab) {
    afternoon += f.driver->ArrivalRate(lab, MakeTime(1, 15));
    morning += f.driver->ArrivalRate(lab, MakeTime(1, 8, 30));
  }
  EXPECT_GT(afternoon, morning);
  // Fleet-wide afternoon rate ~= configured peak.
  EXPECT_NEAR(afternoon, f.config.arrivals.weekday_peak_per_hour, 1e-9);
}

TEST(DriverArrivalRateTest, PopularLabsGetMoreTraffic) {
  DriverFixture f;
  // Lab 2 (L03, fastest P4) vs lab 10 (L11, slowest PIII).
  EXPECT_GT(f.driver->ArrivalRate(2, MakeTime(1, 15)),
            f.driver->ArrivalRate(10, MakeTime(1, 15)));
}

TEST(DriverStayOnTest, TendencyWithinUnitInterval) {
  DriverFixture f;
  int sticky = 0;
  for (std::size_t i = 0; i < f.fleet->size(); ++i) {
    const double s = f.driver->StayOnTendency(i);
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
    if (s >= f.config.power.sticky_stay_on_lo) ++sticky;
  }
  // Bimodal population: a recognisable sticky minority.
  EXPECT_GT(sticky, 5);
  EXPECT_LT(sticky, 85);
}

TEST(DriverSimulationTest, MachinesBootAndAreUsed) {
  DriverFixture f(2);
  f.driver->FinishAt(f.config.EndTime());
  const auto& truth = f.driver->ground_truth();
  EXPECT_GT(truth.boots, 50u);
  EXPECT_GT(truth.TotalLogins(), 100u);
  EXPECT_GT(truth.class_logins, 0u);
  EXPECT_GT(truth.walkin_logins, 0u);
  EXPECT_EQ(truth.boots, truth.shutdowns + CountOn(f));
}

TEST(DriverSimulationTest, AllMachinesOffBeforeFirstOpening) {
  DriverFixture f(1);
  f.driver->AdvanceTo(MakeTime(0, 7));  // Monday 07:00, before opening
  int on = 0;
  for (std::size_t i = 0; i < f.fleet->size(); ++i) {
    if (f.fleet->machine(i).powered_on()) ++on;
  }
  EXPECT_EQ(on, 0);
}

TEST(DriverSimulationTest, MachinesOnDuringMondayAfternoon) {
  DriverFixture f(1);
  f.driver->AdvanceTo(MakeTime(0, 15));
  f.fleet->AdvanceAllTo(MakeTime(0, 15));
  int on = 0;
  int occupied = 0;
  for (std::size_t i = 0; i < f.fleet->size(); ++i) {
    if (!f.fleet->machine(i).powered_on()) continue;
    ++on;
    if (f.fleet->machine(i).Session().has_value()) ++occupied;
  }
  EXPECT_GT(on, 40);
  EXPECT_GT(occupied, 10);
  EXPECT_LE(occupied, on);
}

TEST(DriverSimulationTest, GroundTruthPowerBalanceAtEnd) {
  DriverFixture f(3);
  f.driver->FinishAt(f.config.EndTime());
  std::uint64_t machine_boots = 0;
  std::uint64_t on_now = 0;
  for (std::size_t i = 0; i < f.fleet->size(); ++i) {
    machine_boots += f.fleet->machine(i).boots();
    on_now += f.fleet->machine(i).powered_on() ? 1 : 0;
  }
  const auto& truth = f.driver->ground_truth();
  // Every boot the driver recorded happened on some machine (reboots are
  // counted inside boots/shutdowns as a shutdown+boot pair).
  EXPECT_EQ(machine_boots, truth.boots);
  // Power balance: everything booted was either shut down or is still on.
  EXPECT_EQ(truth.boots, truth.shutdowns + on_now);
}

TEST(DriverSimulationTest, SessionsClearedWithPower) {
  DriverFixture f(2);
  f.driver->FinishAt(f.config.EndTime());
  for (std::size_t i = 0; i < f.fleet->size(); ++i) {
    if (!f.fleet->machine(i).powered_on()) {
      // Off machines can't hold sessions (enforced by Machine), and the
      // driver must agree.
      EXPECT_FALSE(f.fleet->machine(i).powered_on());
    }
  }
}

TEST(DriverSimulationTest, DeterministicForSeed) {
  DriverFixture a(2, 77);
  DriverFixture b(2, 77);
  a.driver->FinishAt(a.config.EndTime());
  b.driver->FinishAt(b.config.EndTime());
  EXPECT_EQ(a.driver->ground_truth().boots, b.driver->ground_truth().boots);
  EXPECT_EQ(a.driver->ground_truth().TotalLogins(),
            b.driver->ground_truth().TotalLogins());
  for (std::size_t i = 0; i < a.fleet->size(); ++i) {
    EXPECT_EQ(a.fleet->machine(i).DiskSmartData().PowerCycles(),
              b.fleet->machine(i).DiskSmartData().PowerCycles());
  }
}

TEST(DriverSimulationTest, DifferentSeedsDiffer) {
  DriverFixture a(2, 1);
  DriverFixture b(2, 2);
  a.driver->FinishAt(a.config.EndTime());
  b.driver->FinishAt(b.config.EndTime());
  EXPECT_NE(a.driver->ground_truth().TotalLogins(),
            b.driver->ground_truth().TotalLogins());
}

TEST(DriverSimulationTest, ShortCyclesHappen) {
  DriverFixture f(4);
  f.driver->FinishAt(f.config.EndTime());
  EXPECT_GT(f.driver->ground_truth().short_cycles, 10u);
}

TEST(DriverSimulationTest, ForgottenSessionsHappen) {
  DriverFixture f(4);
  f.driver->FinishAt(f.config.EndTime());
  EXPECT_GT(f.driver->ground_truth().forgotten_sessions, 5u);
}

TEST(DriverSimulationTest, SundayIsQuiet) {
  DriverFixture f(7);
  // Advance through Saturday close into Sunday noon.
  f.driver->AdvanceTo(MakeTime(6, 12));
  f.fleet->AdvanceAllTo(MakeTime(6, 12));
  int on = 0;
  int active_sessions = 0;
  for (std::size_t i = 0; i < f.fleet->size(); ++i) {
    const auto& m = f.fleet->machine(i);
    if (!m.powered_on()) continue;
    ++on;
    // Surviving machines must be near-idle (only ghosts remain).
    EXPECT_LT(m.cpu_busy_fraction(), 0.05);
    if (m.Session().has_value()) ++active_sessions;
  }
  // Some machines survive the weekend sweep, but far fewer than weekday.
  EXPECT_LT(on, 100);
  EXPECT_LE(active_sessions, on);
}

TEST(DriverSimulationTest, AdvanceIsMonotoneAndIdempotent) {
  DriverFixture f(1);
  f.driver->AdvanceTo(MakeTime(0, 12));
  const auto boots = f.driver->ground_truth().boots;
  f.driver->AdvanceTo(MakeTime(0, 12));  // same instant: no new events
  EXPECT_EQ(f.driver->ground_truth().boots, boots);
  EXPECT_EQ(f.driver->now(), MakeTime(0, 12));
}

class OpennessSweep : public ::testing::TestWithParam<int> {};

TEST_P(OpennessSweep, ArrivalRateZeroIffClosed) {
  // Property over every hour of the week: the arrival process runs exactly
  // when the classrooms are open.
  DriverFixture f;
  const int hour_of_week = GetParam();
  const auto t = util::MakeTime(hour_of_week / 24, hour_of_week % 24, 30);
  double rate = 0.0;
  for (std::size_t lab = 0; lab < 11; ++lab) {
    rate += f.driver->ArrivalRate(lab, t);
  }
  if (f.driver->IsOpen(t)) {
    EXPECT_GT(rate, 0.0) << util::FormatTimestamp(t);
  } else {
    EXPECT_DOUBLE_EQ(rate, 0.0) << util::FormatTimestamp(t);
  }
}

INSTANTIATE_TEST_SUITE_P(WeekHours, OpennessSweep,
                         ::testing::Range(0, 7 * 24));

/// Bytes a one-lab shard driver allocates when built over the campus's
/// first or last lab at `scale_labs` replicas of the paper's 11 labs. A
/// zero-day horizon schedules no event, so this counts the state the driver
/// keeps for its lab, not the horizon's pre-scheduled events.
std::uint64_t OneLabDriverBytes(int scale_labs, bool last_lab) {
  CampusConfig config;
  config.days = 0;
  util::Rng rng(11);
  winsim::Fleet fleet = winsim::MakePaperFleet(rng, {}, scale_labs);
  const CampusProfile profile = CampusProfile::Build(fleet, config);
  const std::size_t lab = last_lab ? fleet.lab_count() - 1 : 0;
  const obs::prof::AllocCounters before = obs::prof::ThreadAllocCounters();
  const WorkloadDriver driver(fleet, config, profile, lab, lab + 1);
  return obs::prof::ThreadAllocCounters().bytes - before.bytes;
}

TEST(DriverShardTest, OneLabStateDoesNotGrowWithTheFleet) {
  for (const bool last_lab : {false, true}) {
    EXPECT_EQ(OneLabDriverBytes(1, last_lab), OneLabDriverBytes(8, last_lab))
        << (last_lab ? "last lab" : "first lab");
  }
}

std::uint64_t CountOn(DriverFixture& f) {
  std::uint64_t on = 0;
  for (std::size_t i = 0; i < f.fleet->size(); ++i) {
    on += f.fleet->machine(i).powered_on() ? 1 : 0;
  }
  return on;
}

}  // namespace
}  // namespace labmon::workload
