#include "labmon/trace/merge_frontier.hpp"

#include <algorithm>
#include <type_traits>
#include <utility>

namespace labmon::trace {

MergeFrontier::MergeFrontier(std::size_t part_count,
                             std::size_t /*machine_count*/,
                             std::size_t block_samples)
    : parts_(part_count),
      block_samples_(std::max<std::size_t>(1, block_samples)) {}

void MergeFrontier::Append(std::size_t part,
                           std::unique_ptr<TraceBlock> block) {
  Part& p = parts_[part];
  Slot slot;
  slot.view = block.get();
  slot.owned = std::move(block);
  p.slots.push_back(std::move(slot));
  ++buffered_blocks_;
}

void MergeFrontier::AppendView(std::size_t part, const TraceBlock* block) {
  Slot slot;
  slot.view = block;
  parts_[part].slots.push_back(std::move(slot));
  ++buffered_blocks_;
}

void MergeFrontier::FinishPart(std::size_t part) {
  parts_[part].done = true;
}

void MergeFrontier::RetireExhausted(std::size_t part) {
  Part& p = parts_[part];
  while (!p.slots.empty()) {
    const TraceBlock& head = *p.slots.front().view;
    if (p.idx < head.size() || p.it_idx < head.iterations.size()) break;
    Slot slot = std::move(p.slots.front());
    p.slots.pop_front();
    p.idx = 0;
    p.it_idx = 0;
    if (p.source != kNoSource) {
      retired_sources_.push_back(p.source);
      p.source = kNoSource;
    }
    --buffered_blocks_;
    if (slot.owned) retired_.emplace_back(part, std::move(slot.owned));
  }
}

MergeFrontier::Scan MergeFrontier::CheckReady() {
  while (scan_pos_ < parts_.size()) {
    Part& part = parts_[scan_pos_];
    RetireExhausted(scan_pos_);
    if (!part.slots.empty()) {
      scan_content_ = true;
    } else if (!part.done) {
      stalled_part_ = scan_pos_;
      return Scan::kStalled;
    }
    ++scan_pos_;
  }
  return scan_content_ ? Scan::kReady : Scan::kExhausted;
}

void MergeFrontier::GatherFront() {
  const std::uint64_t it = next_front_;
  front_keys_.clear();
  IterationInfo info;
  info.iteration = it;
  bool any = false;
  for (Part& part : parts_) {
    if (part.slots.empty()) continue;  // finished part, stream drained
    const TraceBlock& block = *part.slots.front().view;
    // Drop malformed (non-monotonic / info-less) rows so a corrupt input
    // cannot wedge the merge loop; MergeTraces drops the same rows by
    // leaving its cursor stuck until max_iters.
    while (part.idx < block.size() &&
           block.cols.iteration[part.idx] < it) {
      ++part.idx;
    }
    while (part.it_idx < block.iterations.size() &&
           block.iterations[part.it_idx].iteration < it) {
      ++part.it_idx;
    }
    if (part.it_idx >= block.iterations.size() ||
        block.iterations[part.it_idx].iteration != it) {
      continue;
    }
    const IterationInfo& pi = block.iterations[part.it_idx];
    ++part.it_idx;
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
    const TraceStore::Columns& cols = block.cols;
    if (part.source == kNoSource && part.idx < block.size()) {
      if (free_sources_.empty()) {
        part.source = static_cast<std::uint32_t>(sources_.size());
        sources_.emplace_back();
      } else {
        part.source = free_sources_.back();
        free_sources_.pop_back();
      }
      sources_[part.source].block = &block;
      sources_[part.source].remap_block = ~std::uint64_t{0};
    }
    while (part.idx < block.size() && cols.iteration[part.idx] == it) {
      front_keys_.push_back({cols.t[part.idx], cols.machine[part.idx],
                             static_cast<std::uint32_t>(part.idx), &block,
                             part.source});
      ++part.idx;
    }
  }
  if (any) iterations_.push_back(info);
  ++next_front_;
  // The next front starts a fresh readiness scan (this one consumed
  // content, so earlier parts may now be exhausted).
  scan_pos_ = 0;
  scan_content_ = false;
}

std::uint32_t MergeFrontier::MergedUserId(std::uint32_t source,
                                          std::uint32_t uid) {
  Source& src = sources_[source];
  if (src.remap_block != blocks_) {
    src.remap.assign(src.block->users.size(), TraceStore::kNoUser);
    src.remap_block = blocks_;
  }
  std::uint32_t& mapped = src.remap[uid];
  if (mapped == TraceStore::kNoUser) {
    const std::string& user = src.block->users[uid];
    if (const auto it = user_ids_.find(user); it != user_ids_.end()) {
      mapped = it->second;
    } else {
      mapped = static_cast<std::uint32_t>(sealed_.users.size());
      user_ids_.emplace(user, mapped);
      sealed_.users.push_back(user);
    }
  }
  return mapped;
}

void MergeFrontier::AppendFront() {
  using Columns = TraceStore::Columns;
  const Key* keys = front_keys_.data();
  const std::size_t n = front_keys_.size();
  Columns& dst = sealed_.cols;
  const std::size_t base = sealed_.size();
  TraceStore::ForEachColumn([&](auto member) {
    auto& out = dst.*member;
    // Size a fresh block for block_samples plus one front, not by doubling:
    // merged blocks are pooled, so capacity doubled past block_samples
    // would stay allocated in every one of them.
    if (out.capacity() < base + n) {
      out.reserve(std::max(base + n, block_samples_ + n));
    }
    out.resize(base + n);
    if constexpr (std::is_same_v<decltype(member),
                                 std::vector<std::uint32_t> Columns::*>) {
      if (member == &Columns::user_id) return;  // translated below
    }
    auto* o = out.data() + base;
    for (std::size_t k = 0; k < n; ++k) {
      o[k] = (keys[k].block->cols.*member)[keys[k].idx];
    }
  });
  // Interning in merged order gives each user the id a per-row re-intern
  // would; a session-free row keeps kNoUser whatever its source holds.
  std::uint32_t* user_id = dst.user_id.data() + base;
  for (std::size_t k = 0; k < n; ++k) {
    const Columns& src = keys[k].block->cols;
    std::uint32_t uid = src.user_id[keys[k].idx];
    if (uid != TraceStore::kNoUser) uid = MergedUserId(keys[k].source, uid);
    user_id[k] = src.has_session[keys[k].idx] != 0 ? uid : TraceStore::kNoUser;
  }
}

void MergeFrontier::Seal(EmitFn emit) {
  if (sealed_.empty()) return;
  samples_ += sealed_.size();
  ++blocks_;  // every source's remap is now stale
  emit(sealed_);
  sealed_.Clear();
  user_ids_.clear();
}

std::size_t MergeFrontier::Advance(EmitFn emit, RecycleFn recycle,
                                   std::size_t /*sort_workers*/) {
  std::size_t fronts_merged = 0;
  while (!finished_) {
    const Scan scan = CheckReady();
    if (scan == Scan::kReady) {
      GatherFront();
      order_.Order(front_keys_);
      AppendFront();
      ++fronts_merged;
      if (sealed_.size() >= block_samples_) Seal(emit);
    }
    // Consumed owned blocks (and their sources) are safe to recycle once
    // the front's rows are appended (its keys referenced them).
    for (auto& [part, block] : retired_) {
      recycle(part, std::move(block));
    }
    retired_.clear();
    free_sources_.insert(free_sources_.end(), retired_sources_.begin(),
                         retired_sources_.end());
    retired_sources_.clear();
    if (scan == Scan::kExhausted) {
      Seal(emit);  // trailing partial block
      finished_ = true;
      break;
    }
    if (scan == Scan::kStalled) break;
  }
  return fronts_merged;
}

}  // namespace labmon::trace
