#include "labmon/harvest/dag.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <sstream>

namespace labmon::harvest {
namespace {

// Job sizes are drawn log-normal (heavy right tail, like real batch
// workloads) but clamped so no single job dwarfs the batch: at least one
// index-minute, at most 16x the configured mean.
double DrawIndexSeconds(util::Rng& rng, const JobMixOptions& o) {
  const double mean_s = std::max(o.mean_index_hours, 1.0 / 60.0) * 3600.0;
  const double sigma_s = std::max(o.sigma_index_hours, 0.0) * 3600.0;
  double v = sigma_s > 0.0 ? rng.LogNormalMeanStd(mean_s, sigma_s) : mean_s;
  return std::clamp(v, 60.0, 16.0 * mean_s);
}

DagJob DrawJob(util::Rng& rng, const JobMixOptions& o) {
  DagJob j;
  j.index_seconds = DrawIndexSeconds(rng, o);
  // A sprinkle of priority classes exercises the ready-queue ordering
  // without dominating it: most jobs are priority 0.
  j.priority = rng.Bernoulli(0.1) ? static_cast<int>(rng.UniformInt(1, 3)) : 0;
  j.deadline = o.deadline;
  return j;
}

void AppendBagOfTasks(JobDag& dag, util::Rng& rng, const JobMixOptions& o,
                      std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) dag.jobs.push_back(DrawJob(rng, o));
}

void AppendChains(JobDag& dag, util::Rng& rng, const JobMixOptions& o,
                  std::size_t count) {
  // Parallel pipelines of 3-6 stages each.
  std::size_t made = 0;
  while (made < count) {
    const std::size_t len = std::min<std::size_t>(
        count - made, static_cast<std::size_t>(rng.UniformInt(3, 6)));
    for (std::size_t k = 0; k < len; ++k) {
      DagJob j = DrawJob(rng, o);
      if (k > 0) j.deps.push_back(static_cast<std::uint32_t>(dag.jobs.size() - 1));
      dag.jobs.push_back(std::move(j));
    }
    made += len;
  }
}

void AppendFanInFanOut(JobDag& dag, util::Rng& rng, const JobMixOptions& o,
                       std::size_t count) {
  // Diamond blocks: one source fans out to W middles which fan into a sink.
  std::size_t made = 0;
  while (made < count) {
    if (count - made < 3) {  // not enough left for a diamond
      AppendBagOfTasks(dag, rng, o, count - made);
      return;
    }
    const std::size_t width = std::min<std::size_t>(
        count - made - 2, static_cast<std::size_t>(rng.UniformInt(2, 8)));
    const auto source = static_cast<std::uint32_t>(dag.jobs.size());
    dag.jobs.push_back(DrawJob(rng, o));
    DagJob sink = DrawJob(rng, o);
    for (std::size_t w = 0; w < width; ++w) {
      DagJob mid = DrawJob(rng, o);
      mid.deps.push_back(source);
      sink.deps.push_back(static_cast<std::uint32_t>(dag.jobs.size()));
      dag.jobs.push_back(std::move(mid));
    }
    dag.jobs.push_back(std::move(sink));
    made += width + 2;
  }
}

void AppendRandomLayered(JobDag& dag, util::Rng& rng, const JobMixOptions& o,
                         std::size_t count) {
  // Random layer widths; each non-root job depends on 1-3 jobs of the
  // previous layer. Forward-only edges by construction.
  std::vector<std::uint32_t> prev_layer;
  std::size_t made = 0;
  while (made < count) {
    const std::size_t width = std::min<std::size_t>(
        count - made, static_cast<std::size_t>(rng.UniformInt(2, 10)));
    std::vector<std::uint32_t> layer;
    layer.reserve(width);
    for (std::size_t w = 0; w < width; ++w) {
      DagJob j = DrawJob(rng, o);
      if (!prev_layer.empty()) {
        const auto parents = static_cast<std::size_t>(rng.UniformInt(
            1, static_cast<std::int64_t>(std::min<std::size_t>(3, prev_layer.size()))));
        // Sample distinct parents; the candidate pool is small, so a simple
        // draw-and-check loop stays O(parents^2).
        for (std::size_t p = 0; p < parents; ++p) {
          const auto pick = prev_layer[static_cast<std::size_t>(rng.UniformInt(
              0, static_cast<std::int64_t>(prev_layer.size()) - 1))];
          if (std::find(j.deps.begin(), j.deps.end(), pick) == j.deps.end())
            j.deps.push_back(pick);
        }
        std::sort(j.deps.begin(), j.deps.end());
      }
      layer.push_back(static_cast<std::uint32_t>(dag.jobs.size()));
      dag.jobs.push_back(std::move(j));
    }
    prev_layer = std::move(layer);
    made += width;
  }
}

}  // namespace

double JobDag::TotalIndexSeconds() const noexcept {
  double sum = 0.0;
  for (const DagJob& j : jobs) sum += j.index_seconds;
  return sum;
}

std::string ValidateDag(const JobDag& dag) {
  for (std::size_t i = 0; i < dag.jobs.size(); ++i) {
    const DagJob& j = dag.jobs[i];
    if (!(j.index_seconds >= 0.0) || !std::isfinite(j.index_seconds)) {
      std::ostringstream os;
      os << "job " << i << ": index_seconds must be finite and >= 0";
      return os.str();
    }
    if (j.deadline < 0) {
      std::ostringstream os;
      os << "job " << i << ": negative deadline";
      return os.str();
    }
    std::vector<std::uint32_t> seen;
    for (std::uint32_t d : j.deps) {
      if (d >= i) {
        std::ostringstream os;
        os << "job " << i << ": dependency " << d
           << " is not a lower job id (edges must point backwards)";
        return os.str();
      }
      if (std::find(seen.begin(), seen.end(), d) != seen.end()) {
        std::ostringstream os;
        os << "job " << i << ": duplicate dependency " << d;
        return os.str();
      }
      seen.push_back(d);
    }
  }
  return {};
}

double CriticalPathIndexSeconds(const JobDag& dag) {
  // Job ids are a topological order, so one forward pass suffices.
  std::vector<double> finish(dag.jobs.size(), 0.0);
  double best = 0.0;
  for (std::size_t i = 0; i < dag.jobs.size(); ++i) {
    double start = 0.0;
    for (std::uint32_t d : dag.jobs[i].deps) start = std::max(start, finish[d]);
    finish[i] = start + dag.jobs[i].index_seconds;
    best = std::max(best, finish[i]);
  }
  return best;
}

double DedicatedMakespanSeconds(const JobDag& dag, std::size_t machines,
                                double machine_index) {
  if (dag.jobs.empty() || machines == 0 || machine_index <= 0.0) return 0.0;
  const std::size_t n = dag.jobs.size();

  std::vector<double> finish(n, 0.0);

  // Machines as a min-heap of (next-free time, machine id); ties broken by
  // id so the schedule is deterministic.
  using Slot = std::pair<double, std::size_t>;
  std::priority_queue<Slot, std::vector<Slot>, std::greater<>> free_at;
  for (std::size_t m = 0; m < machines; ++m) free_at.emplace(0.0, m);

  // Pending jobs ordered by (-priority, id).
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const DagJob& ja = dag.jobs[a];
    const DagJob& jb = dag.jobs[b];
    if (ja.priority != jb.priority) return ja.priority > jb.priority;
    return a < b;
  });

  double makespan = 0.0;
  // Walk the pending jobs in passes. A job whose parents are all scheduled
  // goes to the earliest-free machine, starting no earlier than its ready
  // time (the latest finish among its parents); any other job is deferred
  // to the next pass, so a priority inversion across an edge only delays
  // the child. Job ids are topological, so every pass makes progress.
  std::vector<bool> done(n, false);
  std::vector<std::size_t> remaining = std::move(order);
  while (!remaining.empty()) {
    std::vector<std::size_t> deferred;
    bool progressed = false;
    for (std::size_t id : remaining) {
      bool parents_done = true;
      double r = 0.0;
      for (std::uint32_t d : dag.jobs[id].deps) {
        if (!done[d]) {
          parents_done = false;
          break;
        }
        r = std::max(r, finish[d]);
      }
      if (!parents_done) {
        deferred.push_back(id);
        continue;
      }
      auto [free_t, m] = free_at.top();
      free_at.pop();
      const double start = std::max(free_t, r);
      finish[id] = start + dag.jobs[id].index_seconds / machine_index;
      free_at.emplace(finish[id], m);
      makespan = std::max(makespan, finish[id]);
      done[id] = true;
      progressed = true;
    }
    if (!progressed) break;  // unreachable for a valid dag
    remaining = std::move(deferred);
  }
  return makespan;
}

const char* JobMixName(JobMixKind kind) noexcept {
  switch (kind) {
    case JobMixKind::kBagOfTasks: return "bag";
    case JobMixKind::kChain: return "chain";
    case JobMixKind::kFanInFanOut: return "fanio";
    case JobMixKind::kRandomLayered: return "layered";
    case JobMixKind::kMixed: return "mixed";
  }
  return "?";
}

std::optional<JobMixKind> ParseJobMixName(std::string_view name) {
  if (name == "bag") return JobMixKind::kBagOfTasks;
  if (name == "chain") return JobMixKind::kChain;
  if (name == "fanio") return JobMixKind::kFanInFanOut;
  if (name == "layered") return JobMixKind::kRandomLayered;
  if (name == "mixed") return JobMixKind::kMixed;
  return std::nullopt;
}

JobDag MakeJobMix(const JobMixOptions& options) {
  JobDag dag;
  dag.jobs.reserve(options.jobs);
  util::Rng rng(util::DeriveSeed(options.seed, util::seed_stream::kHarvest,
                                 static_cast<std::uint64_t>(options.kind)));
  switch (options.kind) {
    case JobMixKind::kBagOfTasks:
      AppendBagOfTasks(dag, rng, options, options.jobs);
      break;
    case JobMixKind::kChain:
      AppendChains(dag, rng, options, options.jobs);
      break;
    case JobMixKind::kFanInFanOut:
      AppendFanInFanOut(dag, rng, options, options.jobs);
      break;
    case JobMixKind::kRandomLayered:
      AppendRandomLayered(dag, rng, options, options.jobs);
      break;
    case JobMixKind::kMixed: {
      const std::size_t q = options.jobs / 4;
      AppendBagOfTasks(dag, rng, options, q);
      AppendChains(dag, rng, options, q);
      AppendFanInFanOut(dag, rng, options, q);
      AppendRandomLayered(dag, rng, options, options.jobs - 3 * q);
      break;
    }
  }
  return dag;
}

}  // namespace labmon::harvest
