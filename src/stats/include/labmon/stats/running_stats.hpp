// Welford online mean/variance with support for weighted observations and
// merging (so per-chunk accumulators from ParallelFor can be combined).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>

namespace labmon::stats {

/// Numerically stable streaming statistics accumulator.
///
/// Add/Merge are defined inline: analysis passes call them millions of
/// times per sweep, and the call overhead is measurable at that rate.
class RunningStats {
 public:
  /// Adds one observation with weight 1.
  void Add(double x) noexcept { AddWeighted(x, 1.0); }

  /// Adds an observation with a non-negative weight (e.g. a time-interval
  /// length, so time-weighted averages fall out naturally).
  void AddWeighted(double x, double weight) noexcept {
    if (weight <= 0.0) return;
    ++count_;
    const double new_weight = weight_ + weight;
    const double delta = x - mean_;
    const double r = delta * weight / new_weight;
    mean_ += r;
    m2_ += weight_ * delta * r;
    weight_ = new_weight;
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  /// Merges another accumulator into this one (parallel reduction step).
  void Merge(const RunningStats& other) noexcept {
    if (other.count_ == 0) return;
    if (count_ == 0) {
      *this = other;
      return;
    }
    const double total = weight_ + other.weight_;
    const double delta = other.mean_ - mean_;
    mean_ += delta * other.weight_ / total;
    m2_ += other.m2_ + delta * delta * weight_ * other.weight_ / total;
    weight_ = total;
    count_ += other.count_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }

  /// Merges `n` unit-weight observations whose running mean is `mean`: the
  /// count/weight/mean steps of Merge with `other.weight_ == n`, so
  /// count(), weight() and mean() get the same bits Merge would give them.
  /// m2, min and max are not carried, so variance(), stddev(), min() and
  /// max() are meaningless afterwards; callers that merge this way read
  /// only count(), weight() and mean().
  void MergeMean(std::int64_t n, double mean) noexcept {
    if (n == 0) return;
    const auto w = static_cast<double>(n);
    if (count_ == 0) {
      count_ = n;
      weight_ = w;
      mean_ = mean;
      return;
    }
    const double total = weight_ + w;
    mean_ += (mean - mean_) * w / total;
    weight_ = total;
    count_ += n;
  }

  [[nodiscard]] std::int64_t count() const noexcept { return count_; }
  [[nodiscard]] double weight() const noexcept { return weight_; }
  [[nodiscard]] double mean() const noexcept { return count_ ? mean_ : 0.0; }
  /// Population variance (weighted).
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }
  [[nodiscard]] double sum() const noexcept { return mean_ * weight_; }

 private:
  std::int64_t count_ = 0;
  double weight_ = 0.0;
  double mean_ = 0.0;
  double m2_ = 0.0;  ///< weighted sum of squared deviations
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace labmon::stats
