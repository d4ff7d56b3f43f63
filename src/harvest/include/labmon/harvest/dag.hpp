// DAG job model for the harvest scheduler.
//
// A JobDag is a batch of heterogeneous work items with dependency edges,
// per-job sizes (in index-seconds, see dag_scheduler.hpp), priorities and
// optional deadlines — the taskvine/makeflow-style workload the paper's §6
// "desktop grid computing" conclusion implies but never runs. Edges point
// strictly backwards (every dependency id is smaller than the job's own
// id), so a valid dag is acyclic by construction and job id order is a
// topological order.
//
// The workload-mix generator produces the four canonical shapes of the
// grid-scheduling literature — bag-of-tasks, chains, fan-in/fan-out
// diamonds, and random layered DAGs — from a seed, deterministically: the
// same options build the identical dag on every platform.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "labmon/util/rng.hpp"
#include "labmon/util/time.hpp"

namespace labmon::harvest {

/// One job of a dag batch.
struct DagJob {
  /// Work, in index-seconds (one second of exclusive CPU on a machine of
  /// NBench combined index 1.0).
  double index_seconds = 0.0;
  /// Higher runs first; ties broken by earliest deadline, then job id.
  int priority = 0;
  /// Completion deadline relative to the run's start (0 = none). Informs
  /// scheduling order (EDF tie-break) and the deadline-miss tally; a missed
  /// deadline never cancels the job.
  util::SimTime deadline = 0;
  /// Parent job ids; every id must be < this job's own id.
  std::vector<std::uint32_t> deps;
};

/// A dependency-ordered batch of jobs.
struct JobDag {
  std::vector<DagJob> jobs;

  [[nodiscard]] double TotalIndexSeconds() const noexcept;
};

/// Structural validation: forward-only edges, no self/duplicate deps,
/// finite non-negative sizes. Returns "" when valid, else a diagnostic.
[[nodiscard]] std::string ValidateDag(const JobDag& dag);

/// Longest dependency path, in index-seconds — the infinite-fleet lower
/// bound on any schedule's work content.
[[nodiscard]] double CriticalPathIndexSeconds(const JobDag& dag);

/// Makespan of a deterministic priority list schedule of `dag` on
/// `machines` identical *dedicated* machines of `machine_index` — no
/// interruptions, no volatility. The baseline the harvested fleet is
/// compared against (the denominator of critical-path stretch and of the
/// dedicated-vs-harvested tables).
[[nodiscard]] double DedicatedMakespanSeconds(const JobDag& dag,
                                              std::size_t machines,
                                              double machine_index);

/// Canonical workload shapes.
enum class JobMixKind : std::uint8_t {
  kBagOfTasks,     ///< independent jobs, no edges
  kChain,          ///< parallel chains (sequential pipelines)
  kFanInFanOut,    ///< diamond blocks: source -> W middles -> sink
  kRandomLayered,  ///< random layer widths, 1-3 parents from the layer above
  kMixed,          ///< one quarter of each shape above
};

[[nodiscard]] const char* JobMixName(JobMixKind kind) noexcept;
/// Parses "bag" / "chain" / "fanio" / "layered" / "mixed".
[[nodiscard]] std::optional<JobMixKind> ParseJobMixName(std::string_view name);

struct JobMixOptions {
  JobMixKind kind = JobMixKind::kMixed;
  std::size_t jobs = 120;
  /// Per-job work drawn log-normal with this mean/sigma (index-hours).
  double mean_index_hours = 8.0;
  double sigma_index_hours = 4.0;
  /// Applied to every job when nonzero (seconds from run start).
  util::SimTime deadline = 0;
  std::uint64_t seed = 20050201;
};

/// Builds a seed-deterministic dag of the requested shape. The result
/// always passes ValidateDag.
[[nodiscard]] JobDag MakeJobMix(const JobMixOptions& options);

}  // namespace labmon::harvest
