#include "labmon/stats/running_stats.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "labmon/util/rng.hpp"

namespace labmon::stats {
namespace {

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStatsTest, SingleValue) {
  RunningStats s;
  s.Add(5.0);
  EXPECT_EQ(s.count(), 1);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(RunningStatsTest, KnownMoments) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // population variance
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatsTest, WeightedMeanMatchesManual) {
  RunningStats s;
  s.AddWeighted(10.0, 1.0);
  s.AddWeighted(20.0, 3.0);
  EXPECT_DOUBLE_EQ(s.mean(), (10.0 + 60.0) / 4.0);
  EXPECT_DOUBLE_EQ(s.weight(), 4.0);
}

TEST(RunningStatsTest, ZeroOrNegativeWeightIgnored) {
  RunningStats s;
  s.AddWeighted(10.0, 0.0);
  s.AddWeighted(10.0, -1.0);
  EXPECT_EQ(s.count(), 0);
}

TEST(RunningStatsTest, MergeMatchesSequential) {
  util::Rng rng(99);
  RunningStats whole;
  RunningStats a;
  RunningStats b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Normal(3.0, 7.0);
    whole.Add(x);
    (i % 2 ? a : b).Add(x);
  }
  RunningStats merged = a;
  merged.Merge(b);
  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_NEAR(merged.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(merged.variance(), whole.variance(), 1e-7);
  EXPECT_DOUBLE_EQ(merged.min(), whole.min());
  EXPECT_DOUBLE_EQ(merged.max(), whole.max());
}

TEST(RunningStatsTest, MergeWithEmpty) {
  RunningStats a;
  a.Add(1.0);
  a.Add(3.0);
  RunningStats empty;
  RunningStats copy = a;
  copy.Merge(empty);
  EXPECT_DOUBLE_EQ(copy.mean(), 2.0);
  empty.Merge(a);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
  EXPECT_EQ(empty.count(), 2);
}

void ExpectSameCountWeightMean(const RunningStats& a, const RunningStats& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.weight()),
            std::bit_cast<std::uint64_t>(b.weight()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.mean()),
            std::bit_cast<std::uint64_t>(b.mean()));
}

TEST(RunningStatsTest, MergeMeanMatchesMergeBitForBit) {
  // Unit-weight sequences split into two accumulators; the lengths include
  // empty-into-empty, empty-into-full and full-into-empty.
  util::Rng rng(2005);
  for (const int into_n : {0, 1, 2, 7, 300}) {
    for (const int from_n : {0, 1, 3, 8, 500}) {
      RunningStats into;
      RunningStats from;
      // (count, mean) the way a compact accumulator keeps it: the
      // unit-weight update `mean += (x - mean) / n`.
      std::int64_t n = 0;
      double mean = 0.0;
      for (int i = 0; i < into_n; ++i) into.Add(rng.Normal(50.0, 30.0));
      for (int i = 0; i < from_n; ++i) {
        const double x = rng.Normal(50.0, 30.0);
        from.Add(x);
        mean += (x - mean) / static_cast<double>(++n);
      }
      ASSERT_EQ(n, from.count());
      EXPECT_EQ(std::bit_cast<std::uint64_t>(mean),
                std::bit_cast<std::uint64_t>(from.mean()));

      RunningStats by_stats = into;
      by_stats.Merge(from);
      RunningStats by_mean = into;
      by_mean.MergeMean(n, mean);
      ExpectSameCountWeightMean(by_mean, by_stats);
      // Merging again into the merged state (the fleet reduction chains
      // every machine's bin into one accumulator).
      by_stats.Merge(from);
      by_mean.MergeMean(n, mean);
      ExpectSameCountWeightMean(by_mean, by_stats);
    }
  }
}

TEST(RunningStatsTest, NumericallyStableNearLargeOffset) {
  // Classic catastrophic-cancellation check: values ~1e9 with tiny spread.
  RunningStats s;
  for (int i = 0; i < 1000; ++i) {
    s.Add(1e9 + (i % 2 ? 0.5 : -0.5));
  }
  EXPECT_NEAR(s.variance(), 0.25, 1e-6);
}

class WeightedEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(WeightedEquivalenceTest, IntegerWeightEqualsRepetition) {
  const int w = GetParam();
  util::Rng rng(1234 + static_cast<std::uint64_t>(w));
  RunningStats weighted;
  RunningStats repeated;
  for (int i = 0; i < 200; ++i) {
    const double x = rng.Uniform(-5.0, 5.0);
    weighted.AddWeighted(x, w);
    for (int k = 0; k < w; ++k) repeated.Add(x);
  }
  EXPECT_NEAR(weighted.mean(), repeated.mean(), 1e-9);
  EXPECT_NEAR(weighted.variance(), repeated.variance(), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Weights, WeightedEquivalenceTest,
                         ::testing::Values(1, 2, 5, 11));

}  // namespace
}  // namespace labmon::stats
