// labmon::obs::prof — always-available, shard-aware profiler.
//
// The obs registry answers "how often"; spans answer "when". This layer
// answers "where did the wall time and the bytes go, per shard, per
// phase" — cheaply enough to leave compiled in everywhere:
//
//  * Phase timers: RAII PhaseScope tags a region with a Phase (simulate /
//    probe / collect / merge / analysis / ...). Each thread owns a private
//    log — plain stores, no atomics, no locks on the hot path — holding
//    (a) exact per-(shard, phase) aggregates (wall self/inclusive time,
//    scope count, allocation bytes/count) that never drop data, and (b) a
//    bounded ring of individual timestamped records for timeline export
//    (drop-oldest on overflow, never blocks; drops are counted).
//  * Hot-path sampling: SampledPhaseScope times 1 of every
//    hot_sample_period scopes (weighting the aggregate by the period) so
//    the per-machine-sample probe/advance path stays within the <= 2%
//    overhead budget; the phase *shares* it reports are unbiased because
//    the ~200k machine-samples per run are statistically homogeneous.
//  * Shard attribution: ShardScope sets the thread's current shard id;
//    scopes opened inside it are attributed to that shard.
//  * Allocation accounting: the library interposes global operator
//    new/delete (see prof.cpp) and tallies per-thread bytes/counts;
//    a PhaseScope charges the delta to its phase, children excluded
//    (self-allocation, mirroring self-time).
//  * Contention: when enabled, the profiler installs the
//    util::SetParallelObserver hook and surfaces per-worker queue-wait
//    (hand-off to a parked pool worker, to start) and barrier-wait
//    (finish-to-join) as registry
//    histograms (labmon_prof_queue_wait_seconds /
//    labmon_prof_barrier_wait_seconds).
//
// When disabled (the default), a PhaseScope costs one relaxed atomic load
// and a branch; the allocation tallies are two thread-local increments per
// new/delete. Enable() is not thread-safe against concurrently open
// scopes — flip it between runs, not during one.
//
// The profiler never perturbs simulation output: it reads clocks and
// counters only, so the collected trace is bit-identical with profiling on
// or off (pinned by tests/obs/test_obs_prof.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace labmon::obs {
class Tracer;
}  // namespace labmon::obs

namespace labmon::obs::prof {

/// Phases of the reproduction pipeline a scope can be charged to.
enum class Phase : std::uint8_t {
  kBuildFleet = 0,  ///< fleet + campus-profile construction
  kSimulate,        ///< workload driver advancement (behaviour model)
  kProbe,           ///< remote execution attempts (transport + codec)
  kCollect,         ///< coordinator sweep shell (sink, retry logic, tallies)
  kMerge,           ///< deterministic per-lab trace merge
  kAnalysis,        ///< derived trace + analysis pipeline
  kSnapshot,        ///< snapshot cache load/store
  kExport,          ///< report/CSV/exporter output
  kStage,           ///< pipelined engine: block sealing + ring transfer/waits
  kFold,            ///< pipelined engine: streaming-analysis fold stage
  kOther,
};
inline constexpr std::size_t kPhaseCount = 11;
[[nodiscard]] const char* PhaseName(Phase phase) noexcept;

/// Shard id meaning "not inside any shard" (serial / coordinator thread).
inline constexpr std::uint32_t kNoShard = 0xffffffffu;

struct Options {
  /// Per-thread ring capacity for individual records (timeline export).
  /// Aggregates are exact regardless; only timeline records drop.
  std::size_t ring_capacity = 8192;
  /// SampledPhaseScope times 1 of every `hot_sample_period` scopes and
  /// weights the aggregate by the period, so per-machine-sample hot paths
  /// (hundreds of thousands of scopes per run) cost a thread-local
  /// increment when sampled out instead of two clock reads. 1 = time
  /// every scope (SampledPhaseScope degenerates to PhaseScope).
  std::uint32_t hot_sample_period = 32;
};

/// Enables the profiler process-wide and installs the ParallelFor
/// observer. Not thread-safe against open scopes.
void Enable(const Options& options = {});
/// Disables scope recording and uninstalls the ParallelFor observer.
/// Accumulated data stays readable until Reset().
void Disable();
[[nodiscard]] bool Enabled() noexcept;
/// Zeroes every thread log (aggregates, rings, drop counters). Call
/// between runs, never while scopes are open on other threads.
void Reset();

/// Monotonic per-thread allocation tallies (bytes requested / call count),
/// maintained by the operator new/delete interposition. Always counting,
/// whether or not the profiler is enabled.
struct AllocCounters {
  std::uint64_t bytes = 0;
  std::uint64_t count = 0;
};
[[nodiscard]] AllocCounters ThreadAllocCounters() noexcept;

namespace detail {
struct ThreadLog;
/// Returns this thread's log, creating (or reusing a retired) one.
ThreadLog* AcquireThreadLog();
void RecordScopeExit(ThreadLog* log, Phase phase, std::uint32_t shard,
                     std::uint8_t depth, std::uint64_t start_ns,
                     std::uint64_t total_ns, std::uint64_t self_ns,
                     std::uint64_t bytes_self, std::uint64_t allocs_self,
                     std::uint64_t weight = 1);
[[nodiscard]] std::uint64_t NowNanos() noexcept;
/// True for the 1-in-period scope that should be timed (bumps the
/// thread-local tick); false costs one increment and a branch. Ticks are
/// kept per phase: hot scopes of different phases strictly alternate on a
/// thread (advance, probe, advance, ...), so a single shared counter mod
/// period would phase-lock and starve one of the streams entirely.
[[nodiscard]] bool SampleHotScope(Phase phase) noexcept;
// Thread-local scope stack head + current shard (defined in prof.cpp).
}  // namespace detail

/// Tags the current thread with a shard id for the scope's lifetime.
class ShardScope {
 public:
  explicit ShardScope(std::uint32_t shard) noexcept;
  ShardScope(const ShardScope&) = delete;
  ShardScope& operator=(const ShardScope&) = delete;
  ~ShardScope();

 private:
  std::uint32_t previous_ = kNoShard;
  bool active_ = false;
};

/// RAII phase timer. Nesting is supported: a parent's self time/allocation
/// excludes its children's, so per-phase self aggregates sum to the real
/// wall time without double counting.
class PhaseScope {
 public:
  explicit PhaseScope(Phase phase) noexcept;
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;
  ~PhaseScope();

  [[nodiscard]] bool active() const noexcept { return log_ != nullptr; }

 private:
  friend class SampledPhaseScope;
  detail::ThreadLog* log_ = nullptr;  ///< null = profiler disabled
  PhaseScope* parent_ = nullptr;
  Phase phase_ = Phase::kOther;
  std::uint32_t shard_ = kNoShard;
  std::uint8_t depth_ = 0;
  std::uint64_t start_ns_ = 0;
  std::uint64_t bytes0_ = 0;
  std::uint64_t allocs0_ = 0;
  // Totals propagated up by exiting children.
  std::uint64_t child_ns_ = 0;
  std::uint64_t child_bytes_ = 0;
  std::uint64_t child_allocs_ = 0;
};

/// Statistical phase timer for per-machine-sample hot paths (one probe,
/// one driver advance). Times 1 of every Options::hot_sample_period
/// scopes and records it with that weight, so aggregates estimate the
/// full population while a sampled-out scope costs a single thread-local
/// increment. Hot scopes are leaves by design: they propagate their
/// weighted time to the enclosing PhaseScope (keeping the parent's self
/// time statistically correct) but do not expect children of their own.
class SampledPhaseScope {
 public:
  explicit SampledPhaseScope(Phase phase) noexcept;
  SampledPhaseScope(const SampledPhaseScope&) = delete;
  SampledPhaseScope& operator=(const SampledPhaseScope&) = delete;
  ~SampledPhaseScope();

  [[nodiscard]] bool active() const noexcept { return log_ != nullptr; }

 private:
  detail::ThreadLog* log_ = nullptr;  ///< null = disabled or sampled out
  Phase phase_ = Phase::kOther;
  std::uint32_t shard_ = kNoShard;
  std::uint32_t weight_ = 1;
  std::uint8_t depth_ = 0;
  std::uint64_t start_ns_ = 0;
  std::uint64_t bytes0_ = 0;
  std::uint64_t allocs0_ = 0;
};

/// One timeline record (ring entry).
struct Record {
  std::uint64_t start_ns = 0;  ///< since profiler epoch (Enable time)
  std::uint64_t dur_ns = 0;
  std::uint64_t self_ns = 0;
  std::uint64_t alloc_bytes = 0;  ///< self (children excluded)
  std::uint32_t alloc_count = 0;
  std::uint32_t shard = kNoShard;
  std::uint32_t thread = 0;  ///< dense per-process log ordinal
  Phase phase = Phase::kOther;
  std::uint8_t depth = 0;
};

/// Exact per-(shard, phase) aggregate.
struct PhaseAgg {
  std::uint32_t shard = kNoShard;
  Phase phase = Phase::kOther;
  std::uint64_t count = 0;        ///< scopes closed
  std::uint64_t self_ns = 0;      ///< wall time, children excluded
  std::uint64_t incl_ns = 0;      ///< wall time including children
  std::uint64_t alloc_bytes = 0;  ///< bytes allocated, children excluded
  std::uint64_t alloc_count = 0;  ///< allocations, children excluded
};

/// Drained profiler state.
struct Report {
  std::vector<PhaseAgg> rows;    ///< sorted by (shard, phase)
  std::vector<Record> records;   ///< all retained ring records, by start_ns
  std::uint64_t dropped_records = 0;
  std::size_t thread_logs = 0;

  /// Sum of self_ns over rows matching `phase` (any shard), seconds.
  [[nodiscard]] double PhaseSelfSeconds(Phase phase) const noexcept;
  /// Sum of alloc_bytes over rows matching `phase` (any shard).
  [[nodiscard]] std::uint64_t PhaseAllocBytes(Phase phase) const noexcept;
};

/// Aggregates every thread log (live and retired). Does not clear.
[[nodiscard]] Report Drain();

/// Replays the report's timeline records into `tracer` as completed spans
/// named "prof.<phase>" (shard in the name when set), so the existing
/// Chrome-trace exporter renders profiler output directly.
void AppendSpans(const Report& report, Tracer& tracer);

/// Renders the report as a JSON object fragment:
///   {"dropped_records":N,"thread_logs":N,"phases":[{...},...]}
/// (no trailing newline; embeddable in a larger document).
[[nodiscard]] std::string ReportJson(const Report& report);

}  // namespace labmon::obs::prof
