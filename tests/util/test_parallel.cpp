#include "labmon/util/parallel.hpp"

#include <sched.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <numeric>
#include <set>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "labmon/util/staging_ring.hpp"

namespace labmon::util {
namespace {

/// Threads of this process (Linux); 0 where /proc is not available.
std::size_t ThreadCount() {
  std::error_code ec;
  std::size_t n = 0;
  for (std::filesystem::directory_iterator it("/proc/self/task", ec), end;
       !ec && it != end; it.increment(ec)) {
    ++n;
  }
  return ec ? 0 : n;
}

// First in the file, so it meets a pool no earlier test has grown: the
// consumer parks in Pop before the producer starts, so the producer only
// runs if the pool grows instead of queueing it behind a busy worker.
TEST(WorkerPoolTest, TasksHandingOffThroughACapacityOneRingComplete) {
  constexpr int kItems = 1000;
  StagingRing<int> ring(1);
  long long sum = 0;
  PoolTask consumer = RunOnPool([&] {
    int item = 0;
    while (ring.Pop(item)) sum += item;
  });
  bool pushed_all = true;
  PoolTask producer = RunOnPool([&] {
    for (int i = 1; i <= kItems; ++i) pushed_all &= ring.Push(int{i});
    ring.Close();
  });
  producer.join();
  consumer.join();
  EXPECT_TRUE(pushed_all);
  EXPECT_EQ(sum, static_cast<long long>(kItems) * (kItems + 1) / 2);
}

TEST(WorkerPoolTest, RegionsAfterAWarmUpStartNoThread) {
  std::atomic<std::size_t> total{0};
  const auto region = [&] {
    ParallelFor(64, [&](std::size_t i) { total += i; }, 4);
  };
  region();
  const std::size_t before = ThreadCount();
  for (int r = 0; r < 100; ++r) region();
  EXPECT_EQ(total.load(), 101u * (64u * 63u / 2u));
  if (before == 0) GTEST_SKIP() << "no /proc/self/task";
  EXPECT_EQ(ThreadCount(), before);
}

TEST(WorkerPoolTest, EachChunkRunsOnTheSameWorkerFromRegionToRegion) {
  // Chunk w goes to the w-th idle worker, which persists between regions.
  const auto region_tids = [] {
    std::vector<pid_t> tids(4, 0);
    ParallelFor(tids.size(), [&](std::size_t w) { tids[w] = gettid(); },
                tids.size());
    return tids;
  };
  const std::vector<pid_t> first = region_tids();
  for (int r = 0; r < 10; ++r) EXPECT_EQ(region_tids(), first);
  EXPECT_EQ(std::set<pid_t>(first.begin(), first.end()).size(), first.size());
}

TEST(WorkerPoolTest, NestedParallelForCompletes) {
  constexpr std::size_t kOuter = 4;
  constexpr std::size_t kInner = 100;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  ParallelFor(
      kOuter,
      [&](std::size_t o) {
        ParallelFor(kInner, [&](std::size_t i) { ++hits[o * kInner + i]; },
                    4);
      },
      kOuter);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(WorkerPoolTest, ConcurrentCallersEachGetTheirOwnResults) {
  constexpr std::size_t kCallers = 4;
  constexpr std::size_t kRounds = 20;
  constexpr std::size_t kN = 10000;
  std::vector<std::size_t> correct(kCallers, 0);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      const std::size_t want = (c + 1) * kN * (kN - 1) / 2;
      for (std::size_t round = 0; round < kRounds; ++round) {
        std::atomic<std::size_t> sum{0};
        ParallelForChunked(
            kN,
            [&](std::size_t begin, std::size_t end) {
              std::size_t local = 0;
              for (std::size_t i = begin; i < end; ++i) local += i * (c + 1);
              sum += local;
            },
            3);
        if (sum.load() == want) ++correct[c];
      }
    });
  }
  for (auto& t : callers) t.join();
  for (std::size_t c = 0; c < kCallers; ++c) {
    EXPECT_EQ(correct[c], kRounds) << "caller " << c;
  }
}

TEST(WorkerPoolTest, DefaultHandleIsNotJoinableAndMovedHandleJoinsOnce) {
  PoolTask empty;
  EXPECT_FALSE(empty.joinable());
  empty.join();  // no task: a no-op
  std::atomic<int> runs{0};
  PoolTask task = RunOnPool([&] { ++runs; });
  EXPECT_TRUE(task.joinable());
  PoolTask moved = std::move(task);
  EXPECT_FALSE(task.joinable());  // NOLINT(bugprone-use-after-move)
  moved.join();
  EXPECT_FALSE(moved.joinable());
  EXPECT_EQ(runs.load(), 1);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  ParallelFor(kN, [&](std::size_t i) { ++hits[i]; }, 4);
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, ZeroCountIsNoop) {
  bool called = false;
  ParallelFor(0, [&](std::size_t) { called = true; }, 4);
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, SingleWorkerRunsInline) {
  std::vector<std::size_t> order;
  ParallelFor(5, [&](std::size_t i) { order.push_back(i); }, 1);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelForTest, PropagatesException) {
  EXPECT_THROW(
      ParallelFor(
          100,
          [](std::size_t i) {
            if (i == 50) throw std::runtime_error("boom");
          },
          4),
      std::runtime_error);
}

TEST(ParallelForChunkedTest, ChunksAreDisjointAndCover) {
  constexpr std::size_t kN = 1001;  // deliberately not divisible
  std::vector<std::atomic<int>> hits(kN);
  ParallelForChunked(
      kN,
      [&](std::size_t begin, std::size_t end) {
        EXPECT_LE(begin, end);
        for (std::size_t i = begin; i < end; ++i) ++hits[i];
      },
      3);
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1);
  }
}

TEST(ParallelForChunkedTest, SumReductionMatchesSerial) {
  constexpr std::size_t kN = 100000;
  std::vector<double> data(kN);
  std::iota(data.begin(), data.end(), 0.0);
  std::atomic<long long> total{0};
  ParallelForChunked(
      kN,
      [&](std::size_t begin, std::size_t end) {
        double local = 0.0;
        for (std::size_t i = begin; i < end; ++i) local += data[i];
        total += static_cast<long long>(local);
      },
      8);
  EXPECT_EQ(total.load(),
            static_cast<long long>(kN) * (kN - 1) / 2);
}

TEST(ParallelForChunkedTest, ZeroCountIsNoop) {
  bool called = false;
  ParallelForChunked(
      0, [&](std::size_t, std::size_t) { called = true; }, 4);
  EXPECT_FALSE(called);
}

TEST(ParallelForChunkedTest, WorkersExceedingCountStillCover) {
  std::vector<std::atomic<int>> hits(3);
  ParallelForChunked(
      3,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) ++hits[i];
      },
      64);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForChunkedTest, PropagatesException) {
  EXPECT_THROW(
      ParallelForChunked(
          1000,
          [](std::size_t begin, std::size_t) {
            if (begin > 0) throw std::runtime_error("chunk boom");
          },
          4),
      std::runtime_error);
}

TEST(ParallelForTest, DefaultWorkerCountPositive) {
  EXPECT_GE(DefaultWorkerCount(), 1u);
}

TEST(EffectiveCpusTest, FollowsThisThreadsAffinity) {
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int first = 0;
  while (first < CPU_SETSIZE && !CPU_ISSET(first, &saved)) ++first;
  ASSERT_LT(first, CPU_SETSIZE);
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const std::size_t pinned = EffectiveCpus();
  const std::size_t workers = DefaultWorkerCount();
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(pinned, 1u);
  EXPECT_EQ(workers, 1u);
  EXPECT_GE(EffectiveCpus(), 1u);
  EXPECT_LE(EffectiveCpus(),
            static_cast<std::size_t>(CPU_COUNT(&saved)));
}

TEST(ParallelForTest, WorkersExceedingCountStillCorrect) {
  std::vector<std::atomic<int>> hits(3);
  ParallelFor(3, [&](std::size_t i) { ++hits[i]; }, 64);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

}  // namespace
}  // namespace labmon::util
