#include "labmon/trace/merge.hpp"

#include <algorithm>

#include "labmon/obs/prof.hpp"
#include "labmon/trace/front_order.hpp"

namespace labmon::trace {

TraceStore MergeTraces(std::span<const TraceStore> parts) {
  obs::prof::PhaseScope prof_scope(obs::prof::Phase::kMerge);
  TraceStore merged(parts.empty() ? 0 : parts.front().machine_count());
  if (parts.empty()) return merged;

  std::size_t total = 0;
  std::size_t max_iters = 0;
  for (const TraceStore& p : parts) {
    total += p.size();
    max_iters = std::max(max_iters, p.iterations().size());
  }
  merged.Reserve(total);

  // Per-part cursors. Samples are appended iteration-major, so each part's
  // iteration block is a contiguous run at its cursor.
  std::vector<std::size_t> cursor(parts.size(), 0);
  std::vector<std::size_t> it_cursor(parts.size(), 0);

  struct Key {
    std::int64_t t;
    std::uint32_t machine;
    std::size_t part;
    std::size_t idx;
  };
  std::vector<Key> block;
  FrontOrder<Key> order;

  // Lazily-built part-local → merged user-id translation. Merged ids are
  // assigned at the first merged-order appearance of each user string,
  // exactly as the old per-sample re-intern did, so serialised output
  // (and hence trace hashes) stays bit-identical. After the first
  // appearance the per-sample cost is one vector lookup instead of a
  // string copy + hash.
  std::vector<std::vector<std::uint32_t>> user_remap(parts.size());
  for (std::size_t p = 0; p < parts.size(); ++p) {
    user_remap[p].assign(parts[p].users().size(), TraceStore::kNoUser);
  }

  for (std::size_t it = 0; it < max_iters; ++it) {
    block.clear();
    IterationInfo info;
    info.iteration = it;
    bool any = false;
    for (std::size_t p = 0; p < parts.size(); ++p) {
      const auto its = parts[p].iterations();
      if (it_cursor[p] >= its.size()) continue;
      const IterationInfo& pi = its[it_cursor[p]];
      if (pi.iteration != it) continue;
      ++it_cursor[p];
      if (!any) {
        info.start_t = pi.start_t;
        info.end_t = pi.end_t;
        any = true;
      } else {
        info.start_t = std::min(info.start_t, pi.start_t);
        info.end_t = std::max(info.end_t, pi.end_t);
      }
      info.attempts += pi.attempts;
      info.successes += pi.successes;
      const TraceStore::Columns& cols = parts[p].columns();
      while (cursor[p] < parts[p].size() && cols.iteration[cursor[p]] == it) {
        block.push_back(
            {cols.t[cursor[p]], cols.machine[cursor[p]], p, cursor[p]});
        ++cursor[p];
      }
    }
    // (t, machine) is a total order: a machine is probed at most once per
    // iteration, so ties in t cannot repeat a machine.
    order.Order(block);
    // Columnar append: no SampleRecord gather, no user-string re-intern.
    for (const Key& k : block) {
      const TraceStore::Columns& cols = parts[k.part].columns();
      std::uint32_t uid = cols.user_id[k.idx];
      if (uid != TraceStore::kNoUser) {
        std::uint32_t& mapped = user_remap[k.part][uid];
        if (mapped == TraceStore::kNoUser) {
          mapped = merged.InternUserId(parts[k.part].users()[uid]);
        }
        uid = mapped;
      }
      merged.AppendFrom(cols, k.idx, uid);
    }
    if (any) merged.AppendIteration(info);
  }
  return merged;
}

}  // namespace labmon::trace
