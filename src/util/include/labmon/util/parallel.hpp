// Shared-memory parallel helpers on one process-wide worker pool.
//
// Every thread the pipeline needs — ParallelFor's chunks, the streamed
// engine's merge, fold and replay stages — is a task on the same pool.
// Workers persist for the life of the process and park between tasks, so
// a campaign that runs thousands of parallel regions starts each thread
// once. A task goes to the lowest-numbered idle worker, and a worker is
// idle again only once the task's handle has been joined; callers that
// start their tasks in a fixed order therefore put each role (shard s,
// merge, fold) on the same thread, and so in the same malloc arena, from
// one run to the next. Stage tasks block on each other through rings, so
// the pool never queues a task behind a busy worker: it grows by one
// worker when every worker is busy, and the threads it ever creates equal
// the peak number of tasks running at once. Nothing is detached: the pool
// stops and joins its parked workers at process exit.
//
// Used by the analysis layer to fan per-machine computations across cores
// and by the streamed engine for its stages; exceptions thrown by a
// ParallelFor body are propagated to the caller.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "labmon/util/function_ref.hpp"

namespace labmon::util {

/// CPUs this thread may actually run on: its affinity mask, limited by the
/// cgroup CPU quota (v2 `cpu.max`, else v1 `cpu.cfs_quota_us` /
/// `cpu.cfs_period_us`, rounded up). At least 1.
[[nodiscard]] std::size_t EffectiveCpus() noexcept;

/// Number of workers ParallelFor will use by default (EffectiveCpus()).
[[nodiscard]] std::size_t DefaultWorkerCount() noexcept;

namespace detail {
struct PoolWorker;
}  // namespace detail

/// Handle of one task running on the worker pool (RunOnPool). Move-only;
/// like std::jthread it joins on destruction, and joining is what returns
/// the worker to the pool.
class PoolTask {
 public:
  PoolTask() noexcept = default;
  PoolTask(PoolTask&& other) noexcept;
  /// Joins the task this handle holds, then takes over `other`'s.
  PoolTask& operator=(PoolTask&& other) noexcept;
  PoolTask(const PoolTask&) = delete;
  PoolTask& operator=(const PoolTask&) = delete;
  ~PoolTask();

  [[nodiscard]] bool joinable() const noexcept { return worker_ != nullptr; }
  /// Waits for the task to return (its callable is destroyed by then).
  void join() noexcept;

 private:
  friend PoolTask RunOnPool(std::function<void()> task);
  explicit PoolTask(detail::PoolWorker* worker) noexcept : worker_(worker) {}

  detail::PoolWorker* worker_ = nullptr;
};

/// Runs `task` on the lowest-numbered idle pool worker, starting a new
/// worker when all are busy. As with std::thread, an exception escaping
/// `task` ends the program; catch inside the task to report it.
[[nodiscard]] PoolTask RunOnPool(std::function<void()> task);

/// Per-worker timing of one ParallelFor region (observer hook below).
struct ParallelWorkerStats {
  std::uint64_t start_delay_ns = 0;  ///< region entry -> worker body start
  std::uint64_t busy_ns = 0;         ///< time inside the worker body
};

/// One multi-threaded ParallelFor/ParallelForChunked region. `workers`
/// points at `worker_count` entries, valid only during the observer call.
struct ParallelRegionStats {
  std::size_t count = 0;    ///< items the region covered
  std::uint64_t wall_ns = 0;  ///< region entry -> all workers joined
  const ParallelWorkerStats* workers = nullptr;
  std::size_t worker_count = 0;
};

/// Observer invoked after every region that ran on the pool (inline runs
/// are not reported). A worker's start delay is the hand-off latency from
/// region entry to a parked pool worker picking up its chunk (plus a
/// thread start only when the pool had to grow). Install with null to
/// remove. The profiler (labmon::obs::prof) uses this to surface
/// queue-wait and barrier-wait; util itself stays observability-free. The
/// pointer is a process-global; installing is thread-safe, the observer
/// itself must be.
using ParallelObserver = void (*)(const ParallelRegionStats&);
void SetParallelObserver(ParallelObserver observer) noexcept;

/// Runs body(i) for i in [0, count) across `workers` pool tasks with static
/// block scheduling. Runs inline when count is small or workers <= 1.
/// The first exception thrown by any invocation is rethrown on the caller.
/// The body is taken by non-owning reference (no std::function allocation).
/// A body may itself call ParallelFor.
void ParallelFor(std::size_t count, FunctionRef<void(std::size_t)> body,
                 std::size_t workers = 0);

/// Chunked variant: body(begin, end) over disjoint ranges covering
/// [0, count). Lets callers keep per-chunk accumulators without sharing.
void ParallelForChunked(
    std::size_t count,
    FunctionRef<void(std::size_t begin, std::size_t end)> body,
    std::size_t workers = 0);

}  // namespace labmon::util
