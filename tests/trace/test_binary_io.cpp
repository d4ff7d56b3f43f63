#include "labmon/trace/binary_io.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <utility>

#include "labmon/core/experiment.hpp"

namespace labmon::trace {
namespace {

SampleRecord MakeSample(std::uint32_t machine, std::uint32_t iteration,
                        std::int64_t t, bool session) {
  SampleRecord r;
  r.machine = machine;
  r.iteration = iteration;
  r.t = t;
  r.boot_time = t - 500;
  r.uptime_s = 500;
  r.cpu_idle_s = 497.53;
  r.mem_load_pct = 44;
  r.swap_load_pct = 21;
  r.disk_total_b = 74'500'000'000ULL;
  r.disk_free_b = 60'000'000'123ULL;
  r.smart_power_on_hours = 5123;
  r.smart_power_cycles = 811;
  r.net_sent_b = 112233;
  r.net_recv_b = 445566;
  if (session) {
    r.has_session = true;
    r.user = "a0099";
    r.session_logon = t - 300;
  }
  return r;
}

TraceStore SmallStore() {
  TraceStore store(3);
  store.Append(MakeSample(0, 0, 900, false));
  store.Append(MakeSample(2, 0, 905, true));
  store.Append(MakeSample(0, 1, 1800, true));
  store.Append(MakeSample(2, 1, 1805, true));
  store.AppendIteration(IterationInfo{0, 0, 910, 3, 2});
  store.AppendIteration(IterationInfo{1, 900, 1810, 3, 2});
  return store;
}

void ExpectStoresEqual(const TraceStore& a, const TraceStore& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.iterations().size(), b.iterations().size());
  EXPECT_EQ(a.machine_count(), b.machine_count());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a.samples()[i];
    const auto& y = b.samples()[i];
    EXPECT_EQ(x.machine, y.machine);
    EXPECT_EQ(x.iteration, y.iteration);
    EXPECT_EQ(x.t, y.t);
    EXPECT_EQ(x.boot_time, y.boot_time);
    EXPECT_EQ(x.uptime_s, y.uptime_s);
    EXPECT_NEAR(x.cpu_idle_s, y.cpu_idle_s, 0.005);  // centisecond grid
    EXPECT_EQ(x.mem_load_pct, y.mem_load_pct);
    EXPECT_EQ(x.swap_load_pct, y.swap_load_pct);
    EXPECT_EQ(x.disk_total_b, y.disk_total_b);
    EXPECT_EQ(x.disk_free_b, y.disk_free_b);
    EXPECT_EQ(x.smart_power_on_hours, y.smart_power_on_hours);
    EXPECT_EQ(x.smart_power_cycles, y.smart_power_cycles);
    EXPECT_EQ(x.net_sent_b, y.net_sent_b);
    EXPECT_EQ(x.net_recv_b, y.net_recv_b);
    EXPECT_EQ(x.has_session, y.has_session);
    EXPECT_EQ(x.user, y.user);
    if (x.has_session) {
      EXPECT_EQ(x.session_logon, y.session_logon);
    }
  }
  for (std::size_t i = 0; i < a.iterations().size(); ++i) {
    EXPECT_EQ(a.iterations()[i].start_t, b.iterations()[i].start_t);
    EXPECT_EQ(a.iterations()[i].end_t, b.iterations()[i].end_t);
    EXPECT_EQ(a.iterations()[i].attempts, b.iterations()[i].attempts);
    EXPECT_EQ(a.iterations()[i].successes, b.iterations()[i].successes);
  }
}

TEST(BinaryTraceTest, RoundTripSmallStore) {
  const TraceStore store = SmallStore();
  const std::string bytes = SerializeTrace(store);
  EXPECT_EQ(bytes.substr(0, 5), "LMTR1");
  const auto restored = DeserializeTrace(bytes);
  ASSERT_TRUE(restored.ok()) << restored.error();
  ExpectStoresEqual(store, restored.value());
}

TEST(BinaryTraceTest, EmptyStore) {
  TraceStore store(5);
  const auto restored = DeserializeTrace(SerializeTrace(store));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().size(), 0u);
  EXPECT_EQ(restored.value().machine_count(), 5u);
}

TEST(BinaryTraceTest, RejectsBadMagic) {
  EXPECT_FALSE(DeserializeTrace("NOPE!whatever").ok());
  EXPECT_FALSE(DeserializeTrace("").ok());
}

TEST(BinaryTraceTest, RejectsTruncation) {
  const std::string bytes = SerializeTrace(SmallStore());
  for (const std::size_t cut : {bytes.size() - 1, bytes.size() / 2,
                                std::size_t{6}}) {
    EXPECT_FALSE(DeserializeTrace(bytes.substr(0, cut)).ok())
        << "cut at " << cut;
  }
}

TEST(BinaryTraceTest, RoundTripRealExperimentAndBeatsCsv) {
  core::ExperimentConfig config;
  config.campus.days = 2;
  const auto result = core::Experiment::Run(config);

  const std::string bytes = SerializeTrace(result.trace);
  const auto restored = DeserializeTrace(bytes);
  ASSERT_TRUE(restored.ok()) << restored.error();
  ExpectStoresEqual(result.trace, restored.value());

  const std::string csv = result.trace.SamplesToCsv();
  EXPECT_LT(bytes.size() * 3, csv.size())
      << "binary format should be at least 3x smaller than CSV "
      << "(binary=" << bytes.size() << ", csv=" << csv.size() << ")";
}

/// FNV-1a over a byte string.
std::uint64_t Fnv1a(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

TEST(BinaryTraceTest, PaperTraceBytesArePinned) {
  // Recorded while the delta arithmetic was still signed: any change to
  // the codec's transforms moves these bytes.
  core::ExperimentConfig config;
  config.campus.days = 2;
  const std::string bytes =
      SerializeTrace(core::Experiment::Run(config).trace);
  EXPECT_EQ(bytes.size(), 459106u);
  EXPECT_EQ(Fnv1a(bytes), 0x78277d7d969946efULL);
}

/// A store with every integer column drawn across its full 64-bit domain,
/// so per-machine deltas overflow int64_t. cpu_idle_s stays on the
/// centisecond grid LMTR1 stores exactly.
TraceStore RandomStore(std::mt19937_64& rng, std::size_t samples) {
  constexpr std::uint32_t kMachines = 16;
  TraceStore store(kMachines);
  std::uniform_int_distribution<std::uint64_t> u64;
  std::uniform_int_distribution<std::uint32_t> machine(0, kMachines - 1);
  std::uniform_int_distribution<std::int64_t> idle_cs(0, 400'000'000);
  std::uniform_int_distribution<int> user_pick(0, 4);
  for (std::size_t i = 0; i < samples; ++i) {
    SampleRecord r;
    r.machine = machine(rng);
    r.iteration = static_cast<std::uint32_t>(u64(rng));
    r.t = static_cast<std::int64_t>(u64(rng));
    r.boot_time = static_cast<std::int64_t>(u64(rng));
    r.uptime_s = static_cast<std::int64_t>(u64(rng));
    r.cpu_idle_s = static_cast<double>(idle_cs(rng)) / 100.0;
    r.ram_mb = static_cast<std::uint16_t>(u64(rng));
    r.mem_load_pct = static_cast<std::uint8_t>(u64(rng));
    r.swap_load_pct = static_cast<std::uint8_t>(u64(rng));
    r.disk_total_b = u64(rng);
    r.disk_free_b = u64(rng);
    r.smart_power_on_hours = u64(rng);
    r.smart_power_cycles = u64(rng);
    r.net_sent_b = u64(rng);
    r.net_recv_b = u64(rng);
    if (const int pick = user_pick(rng); pick > 0) {
      r.has_session = true;
      r.user = "user" + std::to_string(pick);
      r.session_logon = static_cast<std::int64_t>(u64(rng));
    }
    store.Append(std::move(r));
  }
  for (std::uint64_t i = 0; i < 3; ++i) {
    store.AppendIteration({i, static_cast<std::int64_t>(u64(rng)),
                           static_cast<std::int64_t>(u64(rng)),
                           static_cast<std::uint32_t>(u64(rng)),
                           static_cast<std::uint32_t>(u64(rng))});
  }
  return store;
}

TEST(BinaryTraceTest, RandomFullRangeStoresRoundTrip) {
  std::mt19937_64 rng(20050201);
  for (int round = 0; round < 4; ++round) {
    for (const std::size_t n : {1u, 2u, 7u, 64u, 257u}) {
      const TraceStore store = RandomStore(rng, n);
      const auto restored = DeserializeTrace(SerializeTrace(store));
      ASSERT_TRUE(restored.ok()) << restored.error();
      ExpectStoresEqual(store, restored.value());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(restored.value().columns().cpu_idle_s[i],
                  store.columns().cpu_idle_s[i]);
      }
    }
  }
}

TEST(BinaryTraceTest, FileRoundTrip) {
  const TraceStore store = SmallStore();
  const std::string path = ::testing::TempDir() + "/labmon_trace.lmtr";
  ASSERT_TRUE(WriteTraceFile(path, store).ok());
  const auto restored = ReadTraceFile(path);
  ASSERT_TRUE(restored.ok()) << restored.error();
  ExpectStoresEqual(store, restored.value());
  EXPECT_FALSE(ReadTraceFile("/nonexistent/file.lmtr").ok());
}

}  // namespace
}  // namespace labmon::trace
