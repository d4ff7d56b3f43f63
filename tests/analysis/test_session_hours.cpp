#include "labmon/analysis/session_hours.hpp"

#include <gtest/gtest.h>

#include "labmon/analysis/passes.hpp"
#include "labmon/analysis/pipeline.hpp"
#include "labmon/analysis/stream_fold.hpp"
#include "labmon/trace/block.hpp"
#include "labmon/trace/derived_trace.hpp"
#include "synthetic_trace.hpp"

namespace labmon::analysis {
namespace {

using testing::TraceBuilder;

TEST(SessionHourTest, BinsSamplesByRelativeHour) {
  TraceBuilder builder(1);
  const std::int64_t logon = 10000;
  // Samples at 30 min and 90 min into the session: bins 0 and 1.
  // Active first interval (90% idle), idle second interval (~100%).
  trace::TraceStore store(1);
  {
    trace::SampleRecord a;
    a.machine = 0;
    a.iteration = 0;
    a.t = logon + 1800;
    a.boot_time = 0;
    a.uptime_s = a.t;
    a.cpu_idle_s = 0.0;
    a.has_session = true;
    a.user = "u";
    a.session_logon = logon;
    store.Append(a);
    trace::SampleRecord b = a;
    b.iteration = 1;
    b.t = logon + 5400;
    b.uptime_s = b.t;
    b.cpu_idle_s = 3600 * 0.90;  // 90% idle over the hour between samples
    store.Append(b);
  }
  const auto profile = ComputeSessionHourProfile(store);
  ASSERT_GE(profile.bins.size(), 2u);
  EXPECT_EQ(profile.bins[1].samples, 1u);
  EXPECT_NEAR(profile.bins[1].mean_cpu_idle_pct, 90.0, 1e-9);
  EXPECT_EQ(profile.bins[0].samples, 0u);  // first sample closes no interval
}

TEST(SessionHourTest, NoThresholdFiltering) {
  // Samples 15 hours into a session must appear in bin 15, not be dropped.
  trace::TraceStore store(1);
  const std::int64_t logon = 0;
  trace::SampleRecord a;
  a.machine = 0;
  a.iteration = 0;
  a.t = logon + 15 * 3600;
  a.boot_time = -100;
  a.uptime_s = a.t + 100;
  a.cpu_idle_s = static_cast<double>(a.uptime_s) * 0.99;
  a.has_session = true;
  a.user = "u";
  a.session_logon = logon;
  store.Append(a);
  trace::SampleRecord b = a;
  b.iteration = 1;
  b.t = a.t + 900;
  b.uptime_s = a.uptime_s + 900;
  b.cpu_idle_s = a.cpu_idle_s + 900 * 0.997;
  store.Append(b);
  const auto profile = ComputeSessionHourProfile(store);
  EXPECT_EQ(profile.bins[15].samples, 1u);
  EXPECT_NEAR(profile.bins[15].mean_cpu_idle_pct, 99.7, 1e-6);
}

TEST(SessionHourTest, OverflowBinCollectsBeyondMax) {
  trace::TraceStore store(1);
  const std::int64_t logon = 0;
  trace::SampleRecord a;
  a.machine = 0;
  a.iteration = 0;
  a.t = 30 * 3600;
  a.boot_time = -10;
  a.uptime_s = a.t + 10;
  a.cpu_idle_s = static_cast<double>(a.uptime_s);
  a.has_session = true;
  a.user = "u";
  a.session_logon = logon;
  store.Append(a);
  trace::SampleRecord b = a;
  b.iteration = 1;
  b.t = a.t + 900;
  b.uptime_s = a.uptime_s + 900;
  b.cpu_idle_s = a.cpu_idle_s + 900;
  store.Append(b);
  const auto profile = ComputeSessionHourProfile(store, 24);
  EXPECT_EQ(profile.bins.back().samples, 1u);
}

TEST(SessionHourTest, FirstBinAbove99Detection) {
  SessionHourProfile profile;
  for (int h = 0; h < 12; ++h) {
    SessionHourBin bin;
    bin.hour = h;
    bin.samples = 100;
    bin.mean_cpu_idle_pct = h < 10 ? 95.0 : 99.5;
    profile.bins.push_back(bin);
  }
  // Recompute via the real function on a fabricated trace is cumbersome;
  // instead validate the rendering picks up the stored crossing.
  profile.first_bin_above_99 = 10;
  const std::string out = RenderSessionHourProfile(profile);
  EXPECT_NE(out.find("[10-11["), std::string::npos);
  EXPECT_NE(out.find("(paper: [10-11[)"), std::string::npos);
}

TEST(SessionHourTest, LogonAfterSampleCountsInHourZero) {
  // Every sample's logon lies 100 h after it: a negative session age, which
  // no valid trace has but crafted LMTR1/LMSG bytes decode to. Each engine
  // must count both closed intervals in hour 0 instead of indexing far
  // outside its bins.
  TraceBuilder builder(1);
  for (std::uint32_t i = 0; i < 3; ++i) {
    const std::int64_t t = 900 * (i + 1);
    builder.Sample(0, i, t, 0, 0.9, t + 100 * 3600);
  }
  builder.Iterations(3, 1);
  const auto trace = builder.Build();

  const auto legacy = ComputeSessionHourProfile(trace);
  EXPECT_EQ(legacy.bins[0].samples, 2u);

  trace::DerivedTrace derived(trace, trace::DerivedTraceOptions{});
  AnalysisPipeline pipeline(PipelineOptions{1, 8, nullptr});
  auto& pass = pipeline.Emplace<SessionHoursPass>();
  pipeline.Run(derived);

  StreamingAnalysisConfig config;
  config.machine_count = trace.machine_count();
  config.perf_index = {1.0};
  StreamingAnalysis fold(std::move(config));
  trace::StoreReader reader(trace, 64);
  while (const trace::TraceBlock* block = reader.Next()) fold.Accept(*block);
  trace::TraceStore summary(trace.machine_count());
  for (const auto& info : trace.iterations()) summary.AppendIteration(info);
  const auto streamed = fold.Finish(summary);

  for (const auto* profile : {&pass.result(), &streamed.session_hours}) {
    ASSERT_EQ(profile->bins.size(), legacy.bins.size());
    for (std::size_t h = 0; h < legacy.bins.size(); ++h) {
      EXPECT_EQ(profile->bins[h].samples, legacy.bins[h].samples);
      EXPECT_EQ(profile->bins[h].mean_cpu_idle_pct,
                legacy.bins[h].mean_cpu_idle_pct);
    }
  }
}

TEST(SessionHourTest, SamplesWithoutSessionIgnored) {
  TraceBuilder builder(1);
  builder.Sample(0, 0, 900, 0, 0.99).Sample(0, 1, 1800, 0, 0.99);
  const auto trace = builder.Build();
  const auto profile = ComputeSessionHourProfile(trace);
  for (const auto& bin : profile.bins) {
    EXPECT_EQ(bin.samples, 0u);
  }
  EXPECT_EQ(profile.first_bin_above_99, -1);
}

}  // namespace
}  // namespace labmon::analysis
