#include "labmon/util/parallel.hpp"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace labmon::util {

namespace detail {

/// One persistent pool thread. Every field but `thread` is guarded by the
/// pool's mutex.
struct PoolWorker {
  std::function<void()> task;
  bool idle = true;       ///< free for the next RunOnPool
  bool assigned = false;  ///< `task` waits for the thread to pick it up
  bool finished = false;  ///< the task returned and its callable is gone
  std::condition_variable wake;         ///< thread: assigned, or stopping
  std::condition_variable finished_cv;  ///< joiner: finished
  std::thread thread;
};

}  // namespace detail

namespace {

std::atomic<ParallelObserver> g_observer{nullptr};

std::uint64_t NowNs() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// An exception escaping a pool task ends the program, as it would escape
/// a std::thread's entry function.
void RunTask(const std::function<void()>& task) noexcept { task(); }

/// The process-wide pool. Workers are never removed before exit, so a
/// PoolTask's worker pointer stays valid.
class WorkerPool {
 public:
  WorkerPool() = default;
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Runs at exit, when every handle has been joined: wakes the parked
  /// workers and joins them.
  ~WorkerPool() {
    {
      const std::scoped_lock lock(mutex_);
      stopping_ = true;
    }
    for (const auto& worker : workers_) worker->wake.notify_one();
    for (const auto& worker : workers_) worker->thread.join();
  }

  detail::PoolWorker* Start(std::function<void()> task) {
    detail::PoolWorker* worker = nullptr;
    {
      const std::scoped_lock lock(mutex_);
      for (const auto& candidate : workers_) {
        if (candidate->idle) {
          worker = candidate.get();
          break;
        }
      }
      if (worker == nullptr) {
        // Every worker is busy, and a task may block until another runs:
        // grow. Reserve first so the push cannot throw past a live thread.
        workers_.reserve(workers_.size() + 1);
        auto fresh = std::make_unique<detail::PoolWorker>();
        fresh->thread = std::thread([this, w = fresh.get()] { Loop(*w); });
        worker = fresh.get();
        workers_.push_back(std::move(fresh));
      }
      worker->task = std::move(task);
      worker->idle = false;
      worker->assigned = true;
      worker->finished = false;
    }
    worker->wake.notify_one();
    return worker;
  }

  void Join(detail::PoolWorker& worker) {
    std::unique_lock lock(mutex_);
    worker.finished_cv.wait(lock, [&] { return worker.finished; });
    worker.idle = true;
  }

 private:
  void Loop(detail::PoolWorker& worker) {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock lock(mutex_);
        worker.wake.wait(lock, [&] { return worker.assigned || stopping_; });
        if (!worker.assigned) return;
        worker.assigned = false;
        task.swap(worker.task);
      }
      RunTask(task);
      task = nullptr;  // the callable's captures die before join returns
      {
        const std::scoped_lock lock(mutex_);
        worker.finished = true;
      }
      worker.finished_cv.notify_one();
    }
  }

  std::mutex mutex_;  // guards stopping_, workers_ and each worker's state
  bool stopping_ = false;
  /// Index order is assignment priority: the lowest idle worker goes first.
  std::vector<std::unique_ptr<detail::PoolWorker>> workers_;
};

WorkerPool& Pool() {
  static WorkerPool pool;
  return pool;
}

/// CPUs a cgroup quota allows, rounded up; 0 when unlimited.
std::size_t QuotaCpus(long long quota, long long period) {
  if (quota <= 0 || period <= 0) return 0;
  return static_cast<std::size_t>(quota / period + (quota % period != 0));
}

/// cgroup v2: "max <period>" or "<quota> <period>".
std::size_t CpuMaxLimit(const std::filesystem::path& dir) {
  std::ifstream in(dir / "cpu.max");
  std::string quota;
  long long period = 0;
  if (!(in >> quota >> period) || quota == "max") return 0;
  try {
    return QuotaCpus(std::stoll(quota), period);
  } catch (const std::exception&) {
    return 0;
  }
}

/// cgroup v1: cpu.cfs_quota_us (-1 = unlimited) over cpu.cfs_period_us.
std::size_t CfsQuotaLimit(const std::filesystem::path& dir) {
  std::ifstream quota_in(dir / "cpu.cfs_quota_us");
  std::ifstream period_in(dir / "cpu.cfs_period_us");
  long long quota = 0;
  long long period = 0;
  if (!(quota_in >> quota) || !(period_in >> period)) return 0;
  return QuotaCpus(quota, period);
}

/// The process's cgroup path in the hierarchy whose /proc/self/cgroup
/// controller list contains `controller` ("" = the v2 unified hierarchy,
/// listed as "0::<path>").
std::string CgroupPath(const std::string& controller) {
  std::ifstream in("/proc/self/cgroup");
  for (std::string line; std::getline(in, line);) {
    const std::size_t a = line.find(':');
    const std::size_t b = a == std::string::npos ? a : line.find(':', a + 1);
    if (b == std::string::npos) continue;
    const std::string list = "," + line.substr(a + 1, b - a - 1) + ",";
    if (list.find("," + controller + ",") != std::string::npos) {
      return line.substr(b + 1);
    }
  }
  return "/";
}

/// Tightest limit from the process's cgroup up to the hierarchy's mount
/// root. Inside a cgroup namespace the path may not exist below the
/// mount, which then reads as the root's own limit.
std::size_t TightestLimit(
    const std::filesystem::path& mount, const std::string& cgroup,
    std::size_t (*limit_of)(const std::filesystem::path&)) {
  std::size_t tightest = 0;
  std::filesystem::path relative =
      std::filesystem::path(cgroup).relative_path();
  for (;;) {
    const std::size_t limit = limit_of(mount / relative);
    if (limit > 0 && (tightest == 0 || limit < tightest)) tightest = limit;
    if (relative.empty()) return tightest;
    relative = relative.parent_path();
  }
}

/// CPUs the cgroup CPU quota allows, 0 when there is none. A unified (v2)
/// hierarchy shows itself by cgroup.controllers at its root; otherwise
/// the v1 cpu controller's mount is read.
std::size_t CgroupCpuLimit() {
  std::error_code ec;
  const std::filesystem::path root = "/sys/fs/cgroup";
  if (std::filesystem::exists(root / "cgroup.controllers", ec)) {
    return TightestLimit(root, CgroupPath(""), &CpuMaxLimit);
  }
  const std::string cgroup = CgroupPath("cpu");
  for (const char* mount : {"cpu", "cpu,cpuacct", "cpuacct,cpu"}) {
    if (std::filesystem::exists(root / mount, ec)) {
      return TightestLimit(root / mount, cgroup, &CfsQuotaLimit);
    }
  }
  return 0;
}

}  // namespace

PoolTask::PoolTask(PoolTask&& other) noexcept
    : worker_(std::exchange(other.worker_, nullptr)) {}

PoolTask& PoolTask::operator=(PoolTask&& other) noexcept {
  if (this != &other) {
    join();
    worker_ = std::exchange(other.worker_, nullptr);
  }
  return *this;
}

PoolTask::~PoolTask() { join(); }

void PoolTask::join() noexcept {
  if (worker_ == nullptr) return;
  Pool().Join(*worker_);
  worker_ = nullptr;
}

PoolTask RunOnPool(std::function<void()> task) {
  return PoolTask(Pool().Start(std::move(task)));
}

void SetParallelObserver(ParallelObserver observer) noexcept {
  g_observer.store(observer, std::memory_order_relaxed);
}

std::size_t EffectiveCpus() noexcept {
  std::size_t cpus = 0;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    cpus = static_cast<std::size_t>(CPU_COUNT(&set));
  }
  if (cpus == 0) cpus = std::thread::hardware_concurrency();
  try {
    const std::size_t quota = CgroupCpuLimit();
    if (quota > 0) cpus = cpus == 0 ? quota : std::min(cpus, quota);
  } catch (const std::exception&) {
    // An unreadable cgroup tree leaves the affinity count.
  }
  return std::max<std::size_t>(1, cpus);
}

std::size_t DefaultWorkerCount() noexcept { return EffectiveCpus(); }

void ParallelForChunked(
    std::size_t count,
    FunctionRef<void(std::size_t, std::size_t)> body,
    std::size_t workers) {
  if (workers == 0) workers = DefaultWorkerCount();
  workers = std::min(workers, count);
  if (count == 0) return;
  if (workers <= 1 || count < 2) {
    body(0, count);
    return;
  }

  const ParallelObserver observer =
      g_observer.load(std::memory_order_relaxed);
  const std::uint64_t region_t0 = observer != nullptr ? NowNs() : 0;
  const std::size_t chunk = (count + workers - 1) / workers;
  const std::size_t chunks = (count + chunk - 1) / chunk;
  std::vector<ParallelWorkerStats> stats(observer != nullptr ? chunks : 0);

  std::exception_ptr first_error;
  std::mutex error_mutex;
  const auto run_chunk = [&](std::size_t w) {
    const std::uint64_t t_start = observer != nullptr ? NowNs() : 0;
    try {
      body(w * chunk, std::min(count, (w + 1) * chunk));
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
    }
    if (observer != nullptr) {
      stats[w].start_delay_ns = t_start - region_t0;
      stats[w].busy_ns = NowNs() - t_start;
    }
  };
  {
    std::vector<PoolTask> tasks;
    tasks.reserve(chunks);
    for (std::size_t w = 0; w < chunks; ++w) {
      // Two words: std::function stores it inline, without allocating.
      tasks.push_back(RunOnPool([&run_chunk, w] { run_chunk(w); }));
    }
  }  // every handle joins here
  if (first_error) std::rethrow_exception(first_error);
  if (observer != nullptr) {
    ParallelRegionStats region;
    region.count = count;
    region.wall_ns = NowNs() - region_t0;
    region.workers = stats.data();
    region.worker_count = chunks;
    observer(region);
  }
}

void ParallelFor(std::size_t count, FunctionRef<void(std::size_t)> body,
                 std::size_t workers) {
  ParallelForChunked(
      count,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) body(i);
      },
      workers);
}

}  // namespace labmon::util
