#include "labmon/obs/prof.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <new>

#include "labmon/obs/registry.hpp"
#include "labmon/obs/span.hpp"
#include "labmon/util/parallel.hpp"
#include "labmon/util/strings.hpp"

namespace labmon::obs::prof {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint32_t> g_hot_period{32};

// Per-thread monotonic allocation tallies, bumped by the operator
// new/delete interposition below. Constant-initialised, so they are safe
// to touch from any allocation, however early.
thread_local std::uint64_t t_alloc_bytes = 0;
thread_local std::uint64_t t_alloc_count = 0;

thread_local std::uint32_t t_shard = kNoShard;
thread_local PhaseScope* t_open = nullptr;
thread_local std::uint32_t t_hot_tick[kPhaseCount] = {};

struct PhaseTotals {
  std::uint64_t count = 0;
  std::uint64_t self_ns = 0;
  std::uint64_t incl_ns = 0;
  std::uint64_t alloc_bytes = 0;
  std::uint64_t alloc_count = 0;
};

struct ShardRows {
  std::uint32_t shard = kNoShard;
  PhaseTotals rows[kPhaseCount];
};

}  // namespace

namespace detail {

/// One thread's private log. Single-writer (the owning thread); readers
/// (Drain/Reset) run only when no scopes are open — post-join by contract.
struct ThreadLog {
  std::vector<ShardRows> shards;
  std::size_t last_idx = 0;  ///< cache: index into shards for last_shard
  std::uint32_t last_shard = kNoShard - 1;  ///< never a valid initial hit

  std::vector<Record> ring;  ///< fixed size once created
  std::size_t write_pos = 0;
  std::size_t count = 0;
  std::uint64_t dropped = 0;

  std::uint32_t ordinal = 0;
  bool in_use = false;
};

}  // namespace detail

namespace {

using detail::ThreadLog;

/// Global log registry. Leaked on purpose: thread-exit hooks and
/// late allocations may touch it during shutdown.
struct ProfState {
  std::mutex mutex;
  std::vector<std::unique_ptr<ThreadLog>> logs;
  std::vector<ThreadLog*> free_logs;  ///< retired by exited threads
  Options options;
};

ProfState& State() {
  static ProfState* state = new ProfState;
  return *state;
}

/// Releases the thread's log back to the pool at thread exit. The log's
/// contents survive (Drain still sees them); only the slot is reusable.
struct ThreadLogHandle {
  ThreadLog* log = nullptr;
  ~ThreadLogHandle() {
    if (log == nullptr) return;
    ProfState& state = State();
    const std::lock_guard<std::mutex> lock(state.mutex);
    log->in_use = false;
    state.free_logs.push_back(log);
  }
};

thread_local ThreadLogHandle t_log_handle;

std::uint64_t EpochNanos() noexcept {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

void ClearLog(ThreadLog& log, std::size_t ring_capacity) {
  log.shards.clear();
  log.last_idx = 0;
  log.last_shard = kNoShard - 1;
  if (log.ring.size() != ring_capacity) {
    log.ring.assign(ring_capacity, Record{});
  }
  log.write_pos = 0;
  log.count = 0;
  log.dropped = 0;
}

/// Feeds ParallelFor region stats into the default registry: queue wait =
/// spawn-to-start latency, barrier wait = time a finished worker spent
/// waiting for the join (the stragglers' shadow).
void ParallelObserverFn(const util::ParallelRegionStats& stats) {
  static const std::vector<double> kWaitBounds = {
      1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 30.0};
  auto& registry = DefaultRegistry();
  auto& queue_wait = registry.GetHistogram(
      "labmon_prof_queue_wait_seconds", kWaitBounds,
      "Per-worker delay between ParallelFor entry and worker body start.");
  auto& barrier_wait = registry.GetHistogram(
      "labmon_prof_barrier_wait_seconds", kWaitBounds,
      "Per-worker idle time between its last item and the region join.");
  for (std::size_t w = 0; w < stats.worker_count; ++w) {
    const auto& worker = stats.workers[w];
    queue_wait.Observe(static_cast<double>(worker.start_delay_ns) * 1e-9);
    const std::uint64_t occupied = worker.start_delay_ns + worker.busy_ns;
    const std::uint64_t wait =
        stats.wall_ns > occupied ? stats.wall_ns - occupied : 0;
    barrier_wait.Observe(static_cast<double>(wait) * 1e-9);
  }
  registry
      .GetCounter("labmon_prof_parallel_regions_total",
                  "ParallelFor regions observed by the profiler.")
      .Increment();
}

}  // namespace

namespace detail {

std::uint64_t NowNanos() noexcept { return EpochNanos(); }

bool SampleHotScope(Phase phase) noexcept {
  const std::uint32_t period = g_hot_period.load(std::memory_order_relaxed);
  if (period <= 1) return true;
  return ++t_hot_tick[static_cast<std::size_t>(phase)] % period == 0;
}

ThreadLog* AcquireThreadLog() {
  if (t_log_handle.log != nullptr) return t_log_handle.log;
  ProfState& state = State();
  const std::lock_guard<std::mutex> lock(state.mutex);
  ThreadLog* log = nullptr;
  if (!state.free_logs.empty()) {
    log = state.free_logs.back();
    state.free_logs.pop_back();
  } else {
    state.logs.push_back(std::make_unique<ThreadLog>());
    log = state.logs.back().get();
    log->ordinal = static_cast<std::uint32_t>(state.logs.size() - 1);
    log->ring.assign(state.options.ring_capacity, Record{});
  }
  log->in_use = true;
  t_log_handle.log = log;
  return log;
}

void RecordScopeExit(ThreadLog* log, Phase phase, std::uint32_t shard,
                     std::uint8_t depth, std::uint64_t start_ns,
                     std::uint64_t total_ns, std::uint64_t self_ns,
                     std::uint64_t bytes_self, std::uint64_t allocs_self,
                     std::uint64_t weight) {
  // Aggregate row (exact for weight 1; a weighted exit extrapolates the
  // sampled-out siblings of a SampledPhaseScope).
  if (shard != log->last_shard) {
    std::size_t i = 0;
    for (; i < log->shards.size(); ++i) {
      if (log->shards[i].shard == shard) break;
    }
    if (i == log->shards.size()) {
      log->shards.emplace_back();
      log->shards.back().shard = shard;
    }
    log->last_idx = i;
    log->last_shard = shard;
  }
  PhaseTotals& row =
      log->shards[log->last_idx].rows[static_cast<std::size_t>(phase)];
  row.count += weight;
  row.self_ns += self_ns * weight;
  row.incl_ns += total_ns * weight;
  row.alloc_bytes += bytes_self * weight;
  row.alloc_count += allocs_self * weight;

  // Timeline record (bounded ring, drop-oldest, never blocks).
  if (!log->ring.empty()) {
    Record& slot = log->ring[log->write_pos];
    slot.start_ns = start_ns;
    slot.dur_ns = total_ns;
    slot.self_ns = self_ns;
    slot.alloc_bytes = bytes_self;
    slot.alloc_count = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(allocs_self, 0xffffffffu));
    slot.shard = shard;
    slot.thread = log->ordinal;
    slot.phase = phase;
    slot.depth = depth;
    log->write_pos = (log->write_pos + 1) % log->ring.size();
    if (log->count < log->ring.size()) {
      ++log->count;
    } else {
      ++log->dropped;
    }
  }
}

}  // namespace detail

const char* PhaseName(Phase phase) noexcept {
  switch (phase) {
    case Phase::kBuildFleet: return "build_fleet";
    case Phase::kSimulate: return "simulate";
    case Phase::kProbe: return "probe";
    case Phase::kCollect: return "collect";
    case Phase::kMerge: return "merge";
    case Phase::kAnalysis: return "analysis";
    case Phase::kSnapshot: return "snapshot";
    case Phase::kExport: return "export";
    case Phase::kStage: return "stage";
    case Phase::kFold: return "fold";
    case Phase::kOther: return "other";
  }
  return "other";
}

void Enable(const Options& options) {
  {
    ProfState& state = State();
    const std::lock_guard<std::mutex> lock(state.mutex);
    state.options = options;
  }
  g_hot_period.store(std::max<std::uint32_t>(1, options.hot_sample_period),
                     std::memory_order_relaxed);
  (void)EpochNanos();  // pin the epoch before the first scope
  util::SetParallelObserver(&ParallelObserverFn);
  g_enabled.store(true, std::memory_order_relaxed);
}

void Disable() {
  g_enabled.store(false, std::memory_order_relaxed);
  util::SetParallelObserver(nullptr);
}

bool Enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

void Reset() {
  ProfState& state = State();
  const std::lock_guard<std::mutex> lock(state.mutex);
  for (auto& log : state.logs) {
    ClearLog(*log, state.options.ring_capacity);
  }
}

AllocCounters ThreadAllocCounters() noexcept {
  return {t_alloc_bytes, t_alloc_count};
}

ShardScope::ShardScope(std::uint32_t shard) noexcept {
  if (!Enabled()) return;
  active_ = true;
  previous_ = t_shard;
  t_shard = shard;
}

ShardScope::~ShardScope() {
  if (active_) t_shard = previous_;
}

PhaseScope::PhaseScope(Phase phase) noexcept {
  if (!Enabled()) return;
  log_ = detail::AcquireThreadLog();
  parent_ = t_open;
  t_open = this;
  phase_ = phase;
  shard_ = t_shard;
  depth_ = parent_ != nullptr
               ? static_cast<std::uint8_t>(
                     std::min<int>(parent_->depth_ + 1, 255))
               : 0;
  start_ns_ = detail::NowNanos();
  bytes0_ = t_alloc_bytes;
  allocs0_ = t_alloc_count;
}

PhaseScope::~PhaseScope() {
  if (log_ == nullptr) return;
  const std::uint64_t now = detail::NowNanos();
  const std::uint64_t total_ns = now - start_ns_;
  const std::uint64_t bytes_total = t_alloc_bytes - bytes0_;
  const std::uint64_t allocs_total = t_alloc_count - allocs0_;
  const std::uint64_t self_ns =
      total_ns - std::min(total_ns, child_ns_);
  const std::uint64_t bytes_self =
      bytes_total - std::min(bytes_total, child_bytes_);
  const std::uint64_t allocs_self =
      allocs_total - std::min(allocs_total, child_allocs_);
  t_open = parent_;
  if (parent_ != nullptr) {
    parent_->child_ns_ += total_ns;
    parent_->child_bytes_ += bytes_total;
    parent_->child_allocs_ += allocs_total;
  }
  detail::RecordScopeExit(log_, phase_, shard_, depth_, start_ns_, total_ns,
                          self_ns, bytes_self, allocs_self);
}

SampledPhaseScope::SampledPhaseScope(Phase phase) noexcept {
  if (!Enabled() || !detail::SampleHotScope(phase)) return;
  log_ = detail::AcquireThreadLog();
  phase_ = phase;
  shard_ = t_shard;
  weight_ = g_hot_period.load(std::memory_order_relaxed);
  if (weight_ == 0) weight_ = 1;
  depth_ = t_open != nullptr
               ? static_cast<std::uint8_t>(
                     std::min<int>(t_open->depth_ + 1, 255))
               : 0;
  start_ns_ = detail::NowNanos();
  bytes0_ = t_alloc_bytes;
  allocs0_ = t_alloc_count;
}

SampledPhaseScope::~SampledPhaseScope() {
  if (log_ == nullptr) return;
  const std::uint64_t total_ns = detail::NowNanos() - start_ns_;
  const std::uint64_t bytes = t_alloc_bytes - bytes0_;
  const std::uint64_t allocs = t_alloc_count - allocs0_;
  // Statistically remove this hot leaf (and its sampled-out siblings)
  // from the enclosing PhaseScope's self time.
  if (t_open != nullptr) {
    t_open->child_ns_ += total_ns * weight_;
    t_open->child_bytes_ += bytes * weight_;
    t_open->child_allocs_ += allocs * weight_;
  }
  detail::RecordScopeExit(log_, phase_, shard_, depth_, start_ns_, total_ns,
                          total_ns, bytes, allocs, weight_);
}

double Report::PhaseSelfSeconds(Phase phase) const noexcept {
  std::uint64_t ns = 0;
  for (const PhaseAgg& row : rows) {
    if (row.phase == phase) ns += row.self_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

std::uint64_t Report::PhaseAllocBytes(Phase phase) const noexcept {
  std::uint64_t bytes = 0;
  for (const PhaseAgg& row : rows) {
    if (row.phase == phase) bytes += row.alloc_bytes;
  }
  return bytes;
}

Report Drain() {
  Report report;
  ProfState& state = State();
  const std::lock_guard<std::mutex> lock(state.mutex);
  report.thread_logs = state.logs.size();
  std::map<std::pair<std::uint32_t, std::uint8_t>, PhaseAgg> agg;
  for (const auto& log : state.logs) {
    for (const ShardRows& shard_rows : log->shards) {
      for (std::size_t p = 0; p < kPhaseCount; ++p) {
        const PhaseTotals& row = shard_rows.rows[p];
        if (row.count == 0) continue;
        PhaseAgg& out =
            agg[{shard_rows.shard, static_cast<std::uint8_t>(p)}];
        out.shard = shard_rows.shard;
        out.phase = static_cast<Phase>(p);
        out.count += row.count;
        out.self_ns += row.self_ns;
        out.incl_ns += row.incl_ns;
        out.alloc_bytes += row.alloc_bytes;
        out.alloc_count += row.alloc_count;
      }
    }
    report.dropped_records += log->dropped;
    // Ring: oldest first. When full, the oldest record sits at write_pos.
    const std::size_t n = log->count;
    const std::size_t cap = log->ring.size();
    const std::size_t begin = n < cap ? 0 : log->write_pos;
    for (std::size_t i = 0; i < n; ++i) {
      report.records.push_back(log->ring[(begin + i) % cap]);
    }
  }
  for (const auto& [key, row] : agg) report.rows.push_back(row);
  std::sort(report.records.begin(), report.records.end(),
            [](const Record& a, const Record& b) {
              return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                              : a.dur_ns > b.dur_ns;
            });
  return report;
}

void AppendSpans(const Report& report, Tracer& tracer) {
  for (const Record& record : report.records) {
    SpanRecord span;
    span.name = std::string("prof.") + PhaseName(record.phase);
    if (record.shard != kNoShard) {
      span.name += "/shard" + std::to_string(record.shard);
    }
    span.start_us = record.start_ns / 1000;
    span.duration_us = record.dur_ns / 1000;
    span.thread_id = record.thread;
    span.depth = record.depth;
    tracer.Record(std::move(span));
  }
}

std::string ReportJson(const Report& report) {
  std::string out;
  out += "{\"dropped_records\":" + std::to_string(report.dropped_records);
  out += ",\"thread_logs\":" + std::to_string(report.thread_logs);
  out += ",\"phases\":[";
  bool first = true;
  for (const PhaseAgg& row : report.rows) {
    if (!first) out += ',';
    first = false;
    out += "{\"shard\":";
    out += row.shard == kNoShard
               ? std::string("-1")
               : std::to_string(static_cast<std::int64_t>(row.shard));
    out += ",\"phase\":\"";
    out += PhaseName(row.phase);
    out += "\",\"count\":" + std::to_string(row.count);
    out += ",\"wall_self_s\":" +
           util::FormatFixed(static_cast<double>(row.self_ns) * 1e-9, 6);
    out += ",\"wall_incl_s\":" +
           util::FormatFixed(static_cast<double>(row.incl_ns) * 1e-9, 6);
    out += ",\"alloc_bytes\":" + std::to_string(row.alloc_bytes);
    out += ",\"alloc_count\":" + std::to_string(row.alloc_count);
    out += '}';
  }
  out += "]}";
  return out;
}

}  // namespace labmon::obs::prof

// ---------------------------------------------------------------------------
// Global allocation interposition. Every new/delete in the process lands
// here (the linker pulls this TU in because Experiment/Coordinator
// reference PhaseScope). Tallies are two thread-local increments; the
// profiler charges deltas to phase scopes. Deletes are not subtracted —
// the counters measure allocation *pressure* (monotonic), not live bytes.
// ---------------------------------------------------------------------------

namespace {

// The nothrow forms return nullptr on failure; the throwing forms wrap
// them. Every form must be replaced: a form left to the runtime (or to a
// sanitizer) allocates with an allocator our delete does not pair with.
inline void* ProfTryAlloc(std::size_t size, std::size_t align) noexcept {
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size != 0 ? size : 1);
  } else if (posix_memalign(&p, std::max(align, sizeof(void*)),
                            size != 0 ? size : 1) != 0) {
    p = nullptr;
  }
  if (p == nullptr) return nullptr;
  labmon::obs::prof::t_alloc_bytes += size;
  ++labmon::obs::prof::t_alloc_count;
  return p;
}

inline void* ProfAlloc(std::size_t size, std::size_t align) {
  void* p = ProfTryAlloc(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

constexpr std::size_t kDefaultAlign = alignof(std::max_align_t);

}  // namespace

void* operator new(std::size_t size) { return ProfAlloc(size, kDefaultAlign); }
void* operator new[](std::size_t size) {
  return ProfAlloc(size, kDefaultAlign);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return ProfAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ProfAlloc(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return ProfTryAlloc(size, kDefaultAlign);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return ProfTryAlloc(size, kDefaultAlign);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return ProfTryAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return ProfTryAlloc(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
