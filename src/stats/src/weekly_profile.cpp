#include "labmon/stats/weekly_profile.hpp"

#include <cassert>
#include <cstdio>
#include <limits>

namespace labmon::stats {

namespace {
constexpr int kMinutesPerWeek = 7 * 24 * 60;
}

WeeklyProfile::WeeklyProfile(int bin_minutes) : bin_minutes_(bin_minutes) {
  assert(bin_minutes > 0 && kMinutesPerWeek % bin_minutes == 0);
  bins_.resize(BinCount(bin_minutes));
}

void WeeklyProfile::Merge(const WeeklyProfile& other) noexcept {
  assert(bin_minutes_ == other.bin_minutes_);
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    bins_[i].Merge(other.bins_[i]);
  }
}

double WeeklyProfile::Mean(std::size_t i) const noexcept {
  return bins_[i].mean();
}

std::string WeeklyProfile::BinLabel(std::size_t i) const {
  const int minute = BinStartMinute(i);
  const int day = minute / (24 * 60);
  const int hour = (minute / 60) % 24;
  const int min = minute % 60;
  char buf[32];
  std::snprintf(buf, sizeof buf, "%s %02d:%02d",
                util::DayName(static_cast<util::DayOfWeek>(day)), hour, min);
  return buf;
}

double WeeklyProfile::MeanOverWindow(int minute_lo, int minute_hi) const noexcept {
  RunningStats agg;
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    const int m = BinStartMinute(i);
    if (m >= minute_lo && m < minute_hi && bins_[i].count() > 0) {
      agg.AddWeighted(bins_[i].mean(), bins_[i].weight());
    }
  }
  return agg.mean();
}

double WeeklyProfile::MinBinMean() const noexcept {
  double best = std::numeric_limits<double>::infinity();
  for (const auto& b : bins_) {
    if (b.count() > 0 && b.mean() < best) best = b.mean();
  }
  return best;
}

double WeeklyProfile::MaxBinMean() const noexcept {
  double best = -std::numeric_limits<double>::infinity();
  for (const auto& b : bins_) {
    if (b.count() > 0 && b.mean() > best) best = b.mean();
  }
  return best;
}

std::size_t WeeklyProfile::ArgMinBin() const noexcept {
  std::size_t arg = std::numeric_limits<std::size_t>::max();
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    if (bins_[i].count() > 0 && bins_[i].mean() < best) {
      best = bins_[i].mean();
      arg = i;
    }
  }
  return arg;
}

}  // namespace labmon::stats
