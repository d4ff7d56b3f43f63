#include "labmon/trace/trace_store.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "labmon/obs/prof.hpp"
#include "labmon/util/parallel.hpp"

namespace labmon::trace {
namespace {

SampleRecord MakeTestRecord(std::uint32_t machine, std::uint32_t iteration,
                            std::int64_t t, bool session = false) {
  SampleRecord r;
  r.machine = machine;
  r.iteration = iteration;
  r.t = t;
  r.boot_time = t - 100;
  r.uptime_s = 100;
  r.cpu_idle_s = 99.5;
  r.mem_load_pct = 44;
  r.swap_load_pct = 21;
  r.disk_total_b = 74'500'000'000ULL;
  r.disk_free_b = 60'000'000'000ULL;
  r.smart_power_on_hours = 5123;
  r.smart_power_cycles = 811;
  r.net_sent_b = 123456;
  r.net_recv_b = 654321;
  if (session) {
    r.has_session = true;
    r.session_logon = t - 50;
    r.user = "a000042";
  }
  return r;
}

TEST(SampleRecordTest, Classification) {
  SampleRecord r = MakeTestRecord(0, 0, 100000, true);
  r.session_logon = r.t - 3600;  // 1 h old
  EXPECT_EQ(r.Classify(), LoginClass::kWithLogin);
  EXPECT_TRUE(r.CountsAsOccupied());
  r.session_logon = r.t - 11 * 3600;  // 11 h old -> forgotten
  EXPECT_EQ(r.Classify(), LoginClass::kForgotten);
  EXPECT_FALSE(r.CountsAsOccupied());
  r.has_session = false;
  EXPECT_EQ(r.Classify(), LoginClass::kNoLogin);
}

TEST(SampleRecordTest, ThresholdBoundaryIsInclusive) {
  SampleRecord r = MakeTestRecord(0, 0, 200000, true);
  r.session_logon = r.t - kForgottenThresholdSeconds;
  EXPECT_EQ(r.Classify(), LoginClass::kForgotten);  // "equal or above" (§4.2)
  r.session_logon = r.t - kForgottenThresholdSeconds + 1;
  EXPECT_EQ(r.Classify(), LoginClass::kWithLogin);
}

TEST(SampleRecordTest, CustomThreshold) {
  SampleRecord r = MakeTestRecord(0, 0, 100000, true);
  r.session_logon = r.t - 7 * 3600;
  EXPECT_EQ(r.Classify(6 * 3600), LoginClass::kForgotten);
  EXPECT_EQ(r.Classify(8 * 3600), LoginClass::kWithLogin);
  EXPECT_EQ(r.Classify(kNoForgottenThreshold), LoginClass::kWithLogin);
}

TEST(SampleRecordTest, DiskUsedBytes) {
  const SampleRecord r = MakeTestRecord(0, 0, 1000);
  EXPECT_EQ(r.DiskUsedBytes(), 14'500'000'000ULL);
}

TEST(TraceStoreTest, AppendAndIndex) {
  TraceStore store(3);
  store.Append(MakeTestRecord(0, 0, 900));
  store.Append(MakeTestRecord(2, 0, 910));
  store.Append(MakeTestRecord(0, 1, 1800));
  EXPECT_EQ(store.size(), 3u);
  const auto m0 = store.MachineSamples(0);
  ASSERT_EQ(m0.size(), 2u);
  EXPECT_EQ(store.samples()[m0[0]].t, 900);
  EXPECT_EQ(store.samples()[m0[1]].t, 1800);
  EXPECT_TRUE(store.MachineSamples(1).empty());
  EXPECT_EQ(store.MachineSamples(2).size(), 1u);
}

TEST(TraceStoreTest, ResponsesPerMachine) {
  TraceStore store(3);
  store.Append(MakeTestRecord(1, 0, 900));
  store.Append(MakeTestRecord(1, 1, 1800));
  const auto responses = store.ResponsesPerMachine();
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[0], 0u);
  EXPECT_EQ(responses[1], 2u);
}

TEST(TraceStoreTest, ClearSamplesEmptiesEveryMachineIndex) {
  TraceStore store(1352);
  store.Append(MakeTestRecord(3, 0, 900));
  store.Append(MakeTestRecord(900, 0, 901, true));
  store.Append(MakeTestRecord(3, 1, 1800));
  store.AppendIteration(IterationInfo{0, 900, 960, 2, 2});
  store.ClearSamples();

  EXPECT_EQ(store.size(), 0u);
  EXPECT_TRUE(store.iterations().empty());
  EXPECT_TRUE(store.users().empty());
  for (std::size_t m = 0; m < 1352; ++m) {
    EXPECT_TRUE(store.MachineSamples(m).empty()) << "machine " << m;
  }
  const auto responses = store.ResponsesPerMachine();
  ASSERT_EQ(responses.size(), 1352u);
  for (const std::uint32_t count : responses) EXPECT_EQ(count, 0u);

  store.Append(MakeTestRecord(900, 2, 2700));
  const auto index = store.MachineSamples(900);
  EXPECT_EQ(std::vector<std::uint32_t>(index.begin(), index.end()),
            std::vector<std::uint32_t>{0});
  EXPECT_TRUE(store.MachineSamples(3).empty());
}

TEST(TraceStoreTest, TotalAttemptsFromIterations) {
  TraceStore store(2);
  store.AppendIteration(IterationInfo{0, 0, 900, 169, 80});
  store.AppendIteration(IterationInfo{1, 900, 1800, 169, 90});
  EXPECT_EQ(store.TotalAttempts(), 338u);
  EXPECT_EQ(store.iterations().size(), 2u);
}

TEST(TraceStoreTest, CsvRoundTripPreservesEverything) {
  TraceStore store(4);
  store.Append(MakeTestRecord(0, 0, 900));
  store.Append(MakeTestRecord(3, 0, 905, /*session=*/true));
  store.Append(MakeTestRecord(3, 1, 1805, /*session=*/true));
  store.AppendIteration(IterationInfo{0, 0, 910, 4, 2});
  store.AppendIteration(IterationInfo{1, 900, 1810, 4, 1});

  const std::string samples_csv = store.SamplesToCsv();
  const std::string iterations_csv = store.IterationsToCsv();
  const auto restored =
      TraceStore::FromCsv(samples_csv, iterations_csv, 4);
  ASSERT_TRUE(restored.ok()) << restored.error();
  const TraceStore& r = restored.value();
  ASSERT_EQ(r.size(), 3u);
  ASSERT_EQ(r.iterations().size(), 2u);
  EXPECT_EQ(r.TotalAttempts(), 8u);

  const SampleRecord& original = store.samples()[1];
  const SampleRecord& copy = r.samples()[1];
  EXPECT_EQ(copy.machine, original.machine);
  EXPECT_EQ(copy.iteration, original.iteration);
  EXPECT_EQ(copy.t, original.t);
  EXPECT_EQ(copy.boot_time, original.boot_time);
  EXPECT_EQ(copy.uptime_s, original.uptime_s);
  EXPECT_NEAR(copy.cpu_idle_s, original.cpu_idle_s, 0.01);
  EXPECT_EQ(copy.mem_load_pct, original.mem_load_pct);
  EXPECT_EQ(copy.swap_load_pct, original.swap_load_pct);
  EXPECT_EQ(copy.disk_total_b, original.disk_total_b);
  EXPECT_EQ(copy.disk_free_b, original.disk_free_b);
  EXPECT_EQ(copy.smart_power_on_hours, original.smart_power_on_hours);
  EXPECT_EQ(copy.smart_power_cycles, original.smart_power_cycles);
  EXPECT_EQ(copy.net_sent_b, original.net_sent_b);
  EXPECT_EQ(copy.net_recv_b, original.net_recv_b);
  EXPECT_EQ(copy.has_session, original.has_session);
  EXPECT_EQ(copy.user, original.user);
  EXPECT_EQ(copy.session_logon, original.session_logon);
  // And the no-session record stayed session-free.
  EXPECT_FALSE(r.samples()[0].has_session);
}

TEST(TraceStoreTest, FromCsvRejectsGarbage) {
  EXPECT_FALSE(TraceStore::FromCsv("", "", 1).ok());
  EXPECT_FALSE(TraceStore::FromCsv("h\nonly-one-field\n",
                                   "iteration,s,e,a,su\n", 1)
                   .ok());
}

TEST(TraceStoreTest, IndexRebuiltAfterAppend) {
  TraceStore store(2);
  store.Append(MakeTestRecord(0, 0, 900));
  EXPECT_EQ(store.MachineSamples(0).size(), 1u);
  store.Append(MakeTestRecord(0, 1, 1800));
  EXPECT_EQ(store.MachineSamples(0).size(), 2u);  // eagerly maintained
}

TEST(TraceStoreTest, ColumnsMatchAppendedRecords) {
  TraceStore store(3);
  const SampleRecord plain = MakeTestRecord(1, 0, 900);
  const SampleRecord logged = MakeTestRecord(2, 0, 910, /*session=*/true);
  store.Append(plain);
  store.Append(logged);

  const TraceStore::Columns& c = store.columns();
  ASSERT_EQ(c.t.size(), 2u);
  EXPECT_EQ(c.machine[0], plain.machine);
  EXPECT_EQ(c.iteration[0], plain.iteration);
  EXPECT_EQ(c.t[0], plain.t);
  EXPECT_EQ(c.boot_time[0], plain.boot_time);
  EXPECT_EQ(c.uptime_s[0], plain.uptime_s);
  EXPECT_EQ(c.cpu_idle_s[0], plain.cpu_idle_s);
  EXPECT_EQ(c.mem_load_pct[0], plain.mem_load_pct);
  EXPECT_EQ(c.swap_load_pct[0], plain.swap_load_pct);
  EXPECT_EQ(c.disk_total_b[0], plain.disk_total_b);
  EXPECT_EQ(c.disk_free_b[0], plain.disk_free_b);
  EXPECT_EQ(c.smart_power_on_hours[0], plain.smart_power_on_hours);
  EXPECT_EQ(c.smart_power_cycles[0], plain.smart_power_cycles);
  EXPECT_EQ(c.net_sent_b[0], plain.net_sent_b);
  EXPECT_EQ(c.net_recv_b[0], plain.net_recv_b);
  EXPECT_EQ(c.has_session[0], 0);
  EXPECT_EQ(c.session_logon[0], 0);
  EXPECT_EQ(c.user_id[0], TraceStore::kNoUser);
  EXPECT_EQ(c.has_session[1], 1);
  EXPECT_EQ(c.session_logon[1], logged.session_logon);
  EXPECT_NE(c.user_id[1], TraceStore::kNoUser);
}

TEST(TraceStoreTest, UserInterningSharesIds) {
  TraceStore store(2);
  SampleRecord a = MakeTestRecord(0, 0, 900, /*session=*/true);
  SampleRecord b = MakeTestRecord(1, 0, 910, /*session=*/true);
  b.user = "b000007";
  SampleRecord c = MakeTestRecord(0, 1, 1800, /*session=*/true);  // same user as a
  store.Append(a);
  store.Append(b);
  store.Append(c);
  store.Append(MakeTestRecord(1, 1, 1810));  // no session

  ASSERT_EQ(store.users().size(), 2u);  // two distinct names interned once
  EXPECT_EQ(store.columns().user_id[0], store.columns().user_id[2]);
  EXPECT_NE(store.columns().user_id[0], store.columns().user_id[1]);
  EXPECT_EQ(store.UserOf(0), "a000042");
  EXPECT_EQ(store.UserOf(1), "b000007");
  EXPECT_EQ(store.UserOf(2), "a000042");
  EXPECT_EQ(store.UserOf(3), "");
  EXPECT_EQ(store.columns().user_id[3], TraceStore::kNoUser);
}

TEST(TraceStoreTest, InterningAKnownUserAllocatesNothing) {
  TraceStore store(1);
  // Longer than any small-string buffer, so a copy would allocate.
  const std::string user = "campus-user-with-a-long-login-name-0042";
  const obs::prof::AllocCounters before_miss = obs::prof::ThreadAllocCounters();
  const std::uint32_t id = store.InternUserId(user);
  const obs::prof::AllocCounters after_miss = obs::prof::ThreadAllocCounters();
  EXPECT_GT(after_miss.count, before_miss.count);  // the counters are live

  const obs::prof::AllocCounters before = obs::prof::ThreadAllocCounters();
  const std::uint32_t again = store.InternUserId(user);
  const obs::prof::AllocCounters after = obs::prof::ThreadAllocCounters();
  EXPECT_EQ(again, id);
  EXPECT_EQ(after.count, before.count);
  EXPECT_EQ(after.bytes, before.bytes);
  ASSERT_EQ(store.users().size(), 1u);
  EXPECT_EQ(store.users()[0], user);
}

/// Bytes a working store allocates for one 4-iteration window of the last
/// lab's 16 machines in a campus of `fleet_machines`.
std::uint64_t LastLabWindowBytes(std::uint32_t fleet_machines) {
  constexpr std::uint32_t kLabMachines = 16;
  TraceStore store(fleet_machines);
  const obs::prof::AllocCounters before = obs::prof::ThreadAllocCounters();
  for (std::uint32_t it = 0; it < 4; ++it) {
    for (std::uint32_t m = fleet_machines - kLabMachines; m < fleet_machines;
         ++m) {
      store.Append(MakeTestRecord(m, it, 900 * it + m, /*session=*/true));
    }
  }
  return obs::prof::ThreadAllocCounters().bytes - before.bytes;
}

TEST(TraceStoreTest, WorkingStoreIndexDoesNotGrowWithTheFleet) {
  // The paper campus (169 machines) and its 8-lab-replica scale-out.
  EXPECT_EQ(LastLabWindowBytes(169), LastLabWindowBytes(8 * 169));
}

TEST(TraceStoreTest, IndexCoversMachinesAppendedBelowTheFirst) {
  TraceStore store(8);
  store.Append(MakeTestRecord(5, 0, 100));
  store.Append(MakeTestRecord(2, 0, 110));
  store.Append(MakeTestRecord(5, 1, 1000));
  ASSERT_EQ(store.MachineSamples(5).size(), 2u);
  EXPECT_EQ(store.MachineSamples(5)[1], 2u);
  ASSERT_EQ(store.MachineSamples(2).size(), 1u);
  EXPECT_EQ(store.MachineSamples(2)[0], 1u);
  EXPECT_TRUE(store.MachineSamples(0).empty());
  EXPECT_TRUE(store.MachineSamples(7).empty());
  EXPECT_TRUE(store.MachineSamples(100).empty());
  EXPECT_EQ(store.ResponsesPerMachine(),
            (std::vector<std::uint32_t>{0, 0, 1, 0, 0, 2, 0, 0}));
  store.ClearSamples();
  EXPECT_TRUE(store.MachineSamples(5).empty());
  EXPECT_EQ(store.ResponsesPerMachine(), std::vector<std::uint32_t>(8, 0));
}

TEST(TraceStoreTest, RowViewGathersColumns) {
  TraceStore store(2);
  const SampleRecord original = MakeTestRecord(1, 3, 2700, /*session=*/true);
  store.Append(MakeTestRecord(0, 3, 2690));
  store.Append(original);

  // operator[], Sample() and iteration all gather the same row.
  const SampleRecord via_index = store.samples()[1];
  EXPECT_EQ(via_index.machine, original.machine);
  EXPECT_EQ(via_index.t, original.t);
  EXPECT_EQ(via_index.user, original.user);
  EXPECT_EQ(via_index.session_logon, original.session_logon);

  std::size_t rows = 0;
  for (const SampleRecord& r : store.samples()) {
    EXPECT_EQ(r.t, store.columns().t[rows]);
    EXPECT_EQ(r.machine, store.columns().machine[rows]);
    ++rows;
  }
  EXPECT_EQ(rows, store.size());
}

TEST(TraceStoreTest, ColumnHelpersMatchRecordHelpers) {
  TraceStore store(2);
  SampleRecord fresh = MakeTestRecord(0, 0, 100000, /*session=*/true);
  fresh.session_logon = fresh.t - 3600;
  SampleRecord forgotten = MakeTestRecord(1, 0, 100010, /*session=*/true);
  forgotten.session_logon = forgotten.t - 11 * 3600;
  store.Append(fresh);
  store.Append(forgotten);
  store.Append(MakeTestRecord(0, 1, 100900));

  for (std::size_t i = 0; i < store.size(); ++i) {
    const SampleRecord row = store.Sample(i);
    EXPECT_EQ(store.SessionSeconds(i), row.SessionSeconds());
    EXPECT_EQ(store.Classify(i), row.Classify());
    EXPECT_EQ(store.Classify(i, kNoForgottenThreshold),
              row.Classify(kNoForgottenThreshold));
    EXPECT_EQ(store.CountsAsOccupied(i), row.CountsAsOccupied());
    EXPECT_EQ(store.DiskUsedBytes(i), row.DiskUsedBytes());
  }
}

// Regression: the per-machine index used to be built lazily on the first
// MachineSamples() call, which raced when the first reader was a
// util::ParallelFor worker pool. The index is now built eagerly on Append;
// concurrent first reads on a freshly built store must agree and not crash
// (run under TSan in CI).
TEST(TraceStoreTest, ConcurrentFirstReadsAreSafe) {
  constexpr std::size_t kMachines = 32;
  constexpr std::size_t kIterations = 50;
  TraceStore store(kMachines);
  for (std::size_t s = 0; s < kIterations; ++s) {
    for (std::size_t m = 0; m < kMachines; ++m) {
      if ((s + m) % 7 == 0) continue;  // holes: machines miss iterations
      store.Append(MakeTestRecord(static_cast<std::uint32_t>(m),
                                  static_cast<std::uint32_t>(s),
                                  static_cast<std::int64_t>(900 * (s + 1))));
    }
  }

  std::atomic<std::uint64_t> total{0};
  std::atomic<bool> ok{true};
  util::ParallelFor(
      kMachines,
      [&](std::size_t m) {
        const auto rows = store.MachineSamples(m);
        total.fetch_add(rows.size(), std::memory_order_relaxed);
        for (const std::uint32_t row : rows) {
          if (store.columns().machine[row] != m) ok.store(false);
        }
        if (store.ResponsesPerMachine()[m] != rows.size()) ok.store(false);
        if (!rows.empty() && store.Sample(rows[0]).machine != m) {
          ok.store(false);
        }
      },
      /*workers=*/8);
  EXPECT_TRUE(ok.load());
  EXPECT_EQ(total.load(), store.size());
}

}  // namespace
}  // namespace labmon::trace
