// FrontOrder — orders one iteration front's sample keys by (t, machine) in
// linear time; MergeFrontier and MergeTraces share it.
//
// Every lab starts its sweep at the same period boundary, so a front spans
// a few minutes of t and a stable counting pass on t - min_t orders it.
// Keys are gathered part by part and machine ids are lab-contiguous, so
// equal t values already come in ascending machine order. The result is
// checked to increase strictly in (t, machine); when it does not (a repeated
// key included), or when the span exceeds max(4096, 4n), the front falls
// back to std::sort of the keys as gathered, and the fallback is counted.
// Every input thus gets exactly the comparison sort's order.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace labmon::trace {

/// `Key` has `std::int64_t t` and `std::uint32_t machine` members.
template <typename Key>
class FrontOrder {
 public:
  /// Orders `keys` (one front, in gathered order) by (t, machine).
  void Order(std::vector<Key>& keys) {
    const std::size_t n = keys.size();
    if (n < 2) return;
    const auto [lo, hi] = std::minmax_element(
        keys.begin(), keys.end(),
        [](const Key& a, const Key& b) { return a.t < b.t; });
    // In uint64_t, so a front holding INT64_MIN and INT64_MAX is no
    // signed overflow.
    const auto min_t = static_cast<std::uint64_t>(lo->t);
    const std::uint64_t span = static_cast<std::uint64_t>(hi->t) - min_t;
    if (span < std::max<std::uint64_t>(4096, 4 * std::uint64_t{n})) {
      const auto bucket = [min_t](const Key& k) {
        return static_cast<std::size_t>(static_cast<std::uint64_t>(k.t) -
                                        min_t);
      };
      counts_.assign(static_cast<std::size_t>(span) + 1, 0);
      for (const Key& k : keys) ++counts_[bucket(k)];
      std::uint32_t offset = 0;
      for (std::uint32_t& c : counts_) offset += std::exchange(c, offset);
      scratch_.resize(n);
      for (const Key& k : keys) scratch_[counts_[bucket(k)]++] = k;
      const auto out_of_order = [](const Key& a, const Key& b) {
        return b.t < a.t || (b.t == a.t && b.machine <= a.machine);
      };
      if (std::adjacent_find(scratch_.begin(), scratch_.end(),
                             out_of_order) == scratch_.end()) {
        keys.swap(scratch_);
        return;
      }
    }
    ++fallback_sorts_;
    std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
      return a.t != b.t ? a.t < b.t : a.machine < b.machine;
    });
  }

  /// Fronts that fell back to the comparison sort.
  [[nodiscard]] std::uint64_t fallback_sorts() const noexcept {
    return fallback_sorts_;
  }

 private:
  std::vector<Key> scratch_;
  std::vector<std::uint32_t> counts_;
  std::uint64_t fallback_sorts_ = 0;
};

}  // namespace labmon::trace
