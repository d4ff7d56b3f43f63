// Week-folded binning: accumulates (time, value) observations into bins of
// the 7-day week, producing the weekly-distribution curves of Figures 5/6.
#pragma once

#include <string>
#include <vector>

#include "labmon/stats/running_stats.hpp"
#include "labmon/util/time.hpp"

namespace labmon::stats {

/// Averages observations per position-in-week. The canonical resolution is
/// one bin per sampling period (15 min -> 672 bins/week), matching how the
/// paper's weekly plots are built from its samples.
class WeeklyProfile {
 public:
  /// `bin_minutes` must divide the 10080-minute week.
  explicit WeeklyProfile(int bin_minutes = 15);

  /// Folds `t` into the week and accumulates `value` (optionally weighted).
  void Add(util::SimTime t, double value, double weight = 1.0) noexcept {
    bins_[BinOf(t)].AddWeighted(value, weight);
  }

  /// Merges `n` unit-weight observations with running mean `mean` into
  /// bin i (RunningStats::MergeMean; only count, weight and mean are kept).
  void MergeMeanAt(std::size_t i, std::int64_t n, double mean) noexcept {
    bins_[i].MergeMean(n, mean);
  }

  /// Merges another profile with the same bin width into this one
  /// (bin-wise RunningStats::Merge; parallel reduction step).
  void Merge(const WeeklyProfile& other) noexcept;

  [[nodiscard]] std::size_t bin_count() const noexcept { return bins_.size(); }
  [[nodiscard]] int bin_minutes() const noexcept { return bin_minutes_; }

  /// Mean of bin i (0 when the bin never received data).
  [[nodiscard]] double Mean(std::size_t i) const noexcept;
  [[nodiscard]] const RunningStats& Bin(std::size_t i) const noexcept {
    return bins_[i];
  }

  /// Bin index a given instant folds into.
  [[nodiscard]] std::size_t BinOf(util::SimTime t) const noexcept {
    return BinOf(t, bin_minutes_);
  }
  /// The same folding for `bin_minutes`-wide bins, without a profile (for
  /// accumulators that keep their own per-bin state).
  [[nodiscard]] static std::size_t BinOf(util::SimTime t,
                                         int bin_minutes) noexcept {
    const auto minute_of_week =
        (t % util::kSecondsPerWeek) / util::kSecondsPerMinute;
    return static_cast<std::size_t>(minute_of_week / bin_minutes);
  }
  /// Bins per week at `bin_minutes` (which must divide the week).
  [[nodiscard]] static std::size_t BinCount(int bin_minutes) noexcept {
    return static_cast<std::size_t>(
        util::kSecondsPerWeek / util::kSecondsPerMinute / bin_minutes);
  }
  /// Start minute-of-week of bin i.
  [[nodiscard]] int BinStartMinute(std::size_t i) const noexcept {
    return static_cast<int>(i) * bin_minutes_;
  }
  /// Label like "Tue 14:30" for bin i.
  [[nodiscard]] std::string BinLabel(std::size_t i) const;

  /// Mean over all bins whose start lies in [minute_lo, minute_hi) of the
  /// week; empty bins are skipped.
  [[nodiscard]] double MeanOverWindow(int minute_lo, int minute_hi) const noexcept;

  /// Minimum/maximum of the per-bin means (ignoring empty bins).
  [[nodiscard]] double MinBinMean() const noexcept;
  [[nodiscard]] double MaxBinMean() const noexcept;
  /// Index of the bin with the smallest mean (SIZE_MAX when all empty).
  [[nodiscard]] std::size_t ArgMinBin() const noexcept;

 private:
  int bin_minutes_;
  std::vector<RunningStats> bins_;
};

}  // namespace labmon::stats
