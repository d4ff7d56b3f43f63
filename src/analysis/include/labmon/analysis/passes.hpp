// The paper's eight analyses as single-sweep pipeline passes.
//
// Each pass produces the same result struct as its legacy serial
// Compute* counterpart (which remains available as the reference
// implementation); the golden tests in tests/analysis assert parity.
// After AnalysisPipeline::Run the result is read through the typed
// reference Emplace() returned.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "labmon/analysis/aggregate.hpp"
#include "labmon/analysis/availability.hpp"
#include "labmon/analysis/capacity.hpp"
#include "labmon/analysis/equivalence.hpp"
#include "labmon/analysis/per_lab.hpp"
#include "labmon/analysis/pipeline.hpp"
#include "labmon/analysis/session_hours.hpp"
#include "labmon/analysis/stability.hpp"
#include "labmon/analysis/weekly.hpp"
#include "labmon/stats/histogram.hpp"
#include "labmon/stats/running_stats.hpp"
#include "labmon/stats/weekly_profile.hpp"

namespace labmon::analysis {

/// Table 2 — per-login-class aggregation (ComputeTable2).
class AggregatePass final : public AnalysisPass {
 public:
  explicit AggregatePass(trace::IntervalOptions options = {})
      : options_(options) {}

  /// Per-machine accumulator shared by the materialised sweep and the
  /// streaming fold: both build one MachineAcc per machine from the same
  /// event sequence and fold it with FoldMachine, so the two paths agree
  /// bit-for-bit.
  ///
  /// Table 2 reads only means, so each login class keeps a sample count,
  /// an interval count and six running means (64 B instead of six
  /// RunningStats' 288 B). As in WeeklyPass::MachineAcc, every add has unit
  /// weight, `mean += (x - mean) / n` is RunningStats::Add's mean update
  /// bit for bit, and FoldMachine merges with RunningStats::MergeMean, so
  /// the fleet columns get the bits full RunningStats would give them. ram,
  /// swap and disk share the sample count; cpu_idle, sent and recv share
  /// the interval count.
  struct MachineAcc {
    struct Class {
      std::uint64_t samples = 0;
      std::uint64_t intervals = 0;
      double ram = 0.0;
      double swap = 0.0;
      double disk = 0.0;
      double cpu = 0.0;
      double sent = 0.0;
      double recv = 0.0;

      void AddSample(double ram_load, double swap_load,
                     double disk_used_gb) noexcept {
        const auto n = static_cast<double>(++samples);
        ram += (ram_load - ram) / n;
        swap += (swap_load - swap) / n;
        disk += (disk_used_gb - disk) / n;
      }
      void AddInterval(double cpu_idle_pct, double sent_bps,
                       double recv_bps) noexcept {
        const auto n = static_cast<double>(++intervals);
        cpu += (cpu_idle_pct - cpu) / n;
        sent += (sent_bps - sent) / n;
        recv += (recv_bps - recv) / n;
      }
    };
    std::uint64_t raw_login = 0;
    std::uint64_t reclassified = 0;
    Class no_login;
    Class with_login;

    void AddSample(trace::LoginClass cls, bool has_session, double ram_load,
                   double swap_load, double disk_used_gb) noexcept {
      if (has_session) ++raw_login;
      if (cls == trace::LoginClass::kForgotten) ++reclassified;
      // Forgotten counts as non-occupied (the paper reclassifies it).
      if (cls == trace::LoginClass::kWithLogin) {
        with_login.AddSample(ram_load, swap_load, disk_used_gb);
      } else {
        no_login.AddSample(ram_load, swap_load, disk_used_gb);
      }
    }
    void AddInterval(trace::LoginClass cls, double cpu_idle_pct,
                     double sent_bps, double recv_bps) noexcept {
      if (cls == trace::LoginClass::kWithLogin) {
        with_login.AddInterval(cpu_idle_pct, sent_bps, recv_bps);
      } else {
        no_login.AddInterval(cpu_idle_pct, sent_bps, recv_bps);
      }
    }
  };
  void FoldMachine(std::size_t machine, const MachineAcc& acc,
                   State& state) const;

  [[nodiscard]] std::string_view name() const override { return "table2"; }
  [[nodiscard]] std::unique_ptr<State> MakeState(
      const PassContext& ctx) const override;
  void AccumulateMachine(const PassContext& ctx, std::size_t machine,
                         State& state) const override;
  void MergeState(State& into, State& from) const override;
  void Finalize(const PassContext& ctx, State& merged) override;

  [[nodiscard]] const Table2Result& result() const noexcept {
    return result_;
  }
  [[nodiscard]] const trace::IntervalOptions& options() const noexcept {
    return options_;
  }

 private:
  struct Impl;
  trace::IntervalOptions options_;
  Table2Result result_;
};

/// Figures 3 and 4 — availability series, uptime ranking, session lengths.
struct AvailabilityResult {
  AvailabilitySeries series;
  UptimeRanking ranking;
  SessionLengthDistribution session_lengths{stats::Histogram(0.0, 96.0, 48)};
};

class AvailabilityPass final : public AnalysisPass {
 public:
  explicit AvailabilityPass(
      std::int64_t forgotten_threshold_s = trace::kForgottenThresholdSeconds)
      : forgotten_threshold_s_(forgotten_threshold_s) {}

  /// Per-machine session/response accumulator (see AggregatePass::MachineAcc
  /// for the sharing rationale). The per-iteration powered-on/user-free
  /// counts are integers and live in the state (materialised) or a global
  /// vector (streaming) — integer adds commute, so both agree exactly.
  struct MachineAcc {
    std::uint64_t responses = 0;  ///< samples this machine contributed
    stats::Histogram histogram{0.0, 96.0, 48};
    stats::RunningStats lengths;
    double uptime_total_h = 0.0;
    double uptime_within_h = 0.0;
    std::uint64_t sessions_within = 0;
    std::uint64_t total_sessions = 0;

    void AddSession(std::int64_t last_uptime_s) noexcept {
      const double hours = static_cast<double>(last_uptime_s) / 3600.0;
      histogram.Add(hours);
      lengths.Add(hours);
      uptime_total_h += hours;
      ++total_sessions;
      if (hours <= 96.0) {
        ++sessions_within;
        uptime_within_h += hours;
      }
    }
  };
  void FoldMachine(std::size_t machine, const MachineAcc& acc,
                   State& state) const;
  /// Adds externally-accumulated per-iteration powered-on / user-free
  /// counts into a state (streaming fold installs its global vectors into
  /// the merged total before Finalize).
  static void AddIterationCounts(State& state,
                                 std::span<const std::uint32_t> on,
                                 std::span<const std::uint32_t> free);

  [[nodiscard]] std::int64_t forgotten_threshold_s() const noexcept {
    return forgotten_threshold_s_;
  }

  [[nodiscard]] std::string_view name() const override {
    return "availability";
  }
  [[nodiscard]] std::unique_ptr<State> MakeState(
      const PassContext& ctx) const override;
  void AccumulateMachine(const PassContext& ctx, std::size_t machine,
                         State& state) const override;
  void MergeState(State& into, State& from) const override;
  void Finalize(const PassContext& ctx, State& merged) override;

  [[nodiscard]] const AvailabilityResult& result() const noexcept {
    return result_;
  }

 private:
  struct Impl;
  std::int64_t forgotten_threshold_s_;
  AvailabilityResult result_;
};

/// Per-lab usage table plus fleet resource headroom.
struct PerLabResult {
  std::vector<LabUsage> usage;  ///< per lab, fleet row last
  ResourceHeadroom headroom;
};

class PerLabPass final : public AnalysisPass {
 public:
  explicit PerLabPass(
      std::vector<LabKey> labs,
      std::int64_t forgotten_threshold_s = trace::kForgottenThresholdSeconds)
      : labs_(std::move(labs)),
        forgotten_threshold_s_(forgotten_threshold_s) {}

  /// Per-machine accumulator (see AggregatePass::MachineAcc). RAM-class
  /// stats are kept as runs of consecutive same-size samples so a machine
  /// whose reported module size changes mid-trace folds each run into the
  /// right class, in time order, exactly as the materialised sweep does.
  ///
  /// The pass reads only counts and means, so each series keeps a running
  /// mean beside a shared count, as AggregatePass::MachineAcc does: ram and
  /// free_disk share `samples`, idle has `intervals`, and a class run's pct
  /// and mb share its own sample count. FoldMachine merges with
  /// RunningStats::MergeMean, which gives the bits full RunningStats would.
  struct MachineAcc {
    std::uint64_t samples = 0;
    std::uint64_t occupied = 0;
    std::uint64_t intervals = 0;
    double ram = 0.0;
    double free_disk = 0.0;
    double idle = 0.0;
    struct ClassRun {
      int ram_mb = 0;
      std::uint64_t samples = 0;
      double pct = 0.0;
      double mb = 0.0;
    };
    std::vector<ClassRun> class_runs;

    void AddSample(trace::LoginClass cls, double ram_load, double free_disk_gb,
                   int ram_mb, double free_ram_mb) {
      const auto n = static_cast<double>(++samples);
      if (cls == trace::LoginClass::kWithLogin) ++occupied;
      ram += (ram_load - ram) / n;
      free_disk += (free_disk_gb - free_disk) / n;
      if (ram_mb > 0) {
        if (class_runs.empty() || class_runs.back().ram_mb != ram_mb) {
          class_runs.push_back({ram_mb, 0, 0.0, 0.0});
        }
        ClassRun& run = class_runs.back();
        const auto run_n = static_cast<double>(++run.samples);
        run.pct += ((100.0 - ram_load) - run.pct) / run_n;
        run.mb += (free_ram_mb - run.mb) / run_n;
      }
    }
    void AddInterval(double cpu_idle_pct) noexcept {
      idle += (cpu_idle_pct - idle) / static_cast<double>(++intervals);
    }
  };
  void FoldMachine(std::size_t machine, const MachineAcc& acc,
                   State& state) const;

  [[nodiscard]] std::int64_t forgotten_threshold_s() const noexcept {
    return forgotten_threshold_s_;
  }

  [[nodiscard]] std::string_view name() const override { return "per_lab"; }
  [[nodiscard]] std::unique_ptr<State> MakeState(
      const PassContext& ctx) const override;
  void AccumulateMachine(const PassContext& ctx, std::size_t machine,
                         State& state) const override;
  void MergeState(State& into, State& from) const override;
  void Finalize(const PassContext& ctx, State& merged) override;

  [[nodiscard]] const PerLabResult& result() const noexcept {
    return result_;
  }

 private:
  struct Impl;
  [[nodiscard]] std::size_t LabOf(std::size_t machine) const noexcept;
  std::vector<LabKey> labs_;
  std::int64_t forgotten_threshold_s_;
  PerLabResult result_;
};

/// Figure 2 — idleness by relative session hour (ComputeSessionHourProfile).
class SessionHoursPass final : public AnalysisPass {
 public:
  explicit SessionHoursPass(int max_hours = 24) : max_hours_(max_hours) {}

  /// Per-machine relative-hour bins (see AggregatePass::MachineAcc).
  /// Construct with `max_hours() + 1` bins; the last bin absorbs longer
  /// sessions. Finalize reads only counts and means, so a bin is a running
  /// (count, mean), merged with RunningStats::MergeMean.
  struct MachineAcc {
    struct Bin {
      std::uint64_t count = 0;
      double mean = 0.0;
    };
    std::vector<Bin> bins;

    MachineAcc() = default;
    explicit MachineAcc(std::size_t bin_count) : bins(bin_count) {}

    /// `session_seconds` is the closing sample's session age; callers only
    /// feed intervals whose closing sample carries a session. A negative
    /// age (a logon after the sample: never in a valid trace, but decodable
    /// from crafted bytes) counts in hour 0, where ages in (-1 h, 0) land
    /// by truncation anyway.
    void AddInterval(std::int64_t session_seconds,
                     double cpu_idle_pct) noexcept {
      const auto bin = static_cast<std::size_t>(std::clamp<std::int64_t>(
          session_seconds / 3600, 0,
          static_cast<std::int64_t>(bins.size()) - 1));
      Bin& b = bins[bin];
      b.mean += (cpu_idle_pct - b.mean) / static_cast<double>(++b.count);
    }
  };
  void FoldMachine(std::size_t machine, const MachineAcc& acc,
                   State& state) const;

  [[nodiscard]] int max_hours() const noexcept { return max_hours_; }

  [[nodiscard]] std::string_view name() const override {
    return "session_hours";
  }
  [[nodiscard]] std::unique_ptr<State> MakeState(
      const PassContext& ctx) const override;
  void AccumulateMachine(const PassContext& ctx, std::size_t machine,
                         State& state) const override;
  void MergeState(State& into, State& from) const override;
  void Finalize(const PassContext& ctx, State& merged) override;

  [[nodiscard]] const SessionHourProfile& result() const noexcept {
    return result_;
  }

 private:
  struct Impl;
  int max_hours_;
  SessionHourProfile result_;
};

/// Figure 5 — weekly usage profiles (ComputeWeeklyProfiles).
class WeeklyPass final : public AnalysisPass {
 public:
  explicit WeeklyPass(int bin_minutes = 15) : bin_minutes_(bin_minutes) {}

  /// Per-machine weekly state (see AggregatePass::MachineAcc): one Bin per
  /// position-in-week holds all five series, so an event touches one
  /// 48-byte bin (one or two cache lines) instead of two or three separate
  /// profiles (672 bins at 15 min: 31.5 KiB).
  ///
  /// Each series keeps only a running (count, mean). Every add has unit
  /// weight, so RunningStats's weight would equal its count exactly, and
  /// `mean += (x - mean) / n` is AddWeighted(x, 1.0)'s mean update bit for
  /// bit; FoldMachine merges with RunningStats::MergeMean, whose steps are
  /// Merge's. The fleet profiles thus get the same count, weight and mean
  /// as if each machine had kept full RunningStats. ram and swap share the
  /// sample count (both are added on every sample at the same bin); cpu_idle,
  /// sent and recv share the interval count.
  ///
  /// The acc is a view: bin i lives at `base[i * stride]`, in storage its
  /// owner keeps. The materialised sweep passes a per-machine vector with
  /// stride 1; the streaming fold passes one fleet vector laid out
  /// bin-major, machine-minor (stride = machine count), so the machines of
  /// one iteration, probed at about the same time of week, update adjacent
  /// bins instead of one cold bin per machine.
  ///
  /// Two independent bin cursors (samples, intervals) let consecutive
  /// events one bin apart skip the modulo — both event feeds arrive in
  /// time order per machine in either path, so the cursors are valid.
  struct MachineAcc {
    struct Bin {
      std::uint32_t samples = 0;    ///< observations of ram and swap
      std::uint32_t intervals = 0;  ///< observations of cpu_idle/sent/recv
      double ram = 0.0;
      double swap = 0.0;
      double cpu_idle = 0.0;
      double sent = 0.0;
      double recv = 0.0;
    };

    /// Bins per machine at `bin_minutes`.
    [[nodiscard]] static std::size_t BinCount(int bin_minutes) noexcept {
      return stats::WeeklyProfile::BinCount(bin_minutes);
    }

    /// A view of BinCount(bin_minutes) zeroed bins at base[i * stride].
    MachineAcc(int bin_minutes, Bin* base, std::size_t stride)
        : base_(base),
          stride_(stride),
          bin_count_(BinCount(bin_minutes)),
          bin_minutes_(bin_minutes),
          bin_seconds_(static_cast<std::int64_t>(bin_minutes) *
                       util::kSecondsPerMinute),
          sample_prev_t_(-2 * bin_seconds_),
          interval_prev_t_(-2 * bin_seconds_) {}

    [[nodiscard]] std::size_t bin_count() const noexcept { return bin_count_; }
    [[nodiscard]] const Bin& bin(std::size_t i) const noexcept {
      return base_[i * stride_];
    }

    void AddSample(std::int64_t t, double ram_load,
                   double swap_load) noexcept {
      sample_bin_ = NextBin(t, sample_prev_t_, sample_bin_);
      sample_prev_t_ = t;
      Bin& b = base_[sample_bin_ * stride_];
      const auto n = static_cast<double>(++b.samples);
      b.ram += (ram_load - b.ram) / n;
      b.swap += (swap_load - b.swap) / n;
    }
    void AddInterval(std::int64_t end_t, double cpu_idle_pct, double sent_bps,
                     double recv_bps) noexcept {
      interval_bin_ = NextBin(end_t, interval_prev_t_, interval_bin_);
      interval_prev_t_ = end_t;
      Bin& b = base_[interval_bin_ * stride_];
      const auto n = static_cast<double>(++b.intervals);
      b.cpu_idle += (cpu_idle_pct - b.cpu_idle) / n;
      b.sent += (sent_bps - b.sent) / n;
      b.recv += (recv_bps - b.recv) / n;
    }

   private:
    [[nodiscard]] std::size_t NextBin(std::int64_t t, std::int64_t prev_t,
                                      std::size_t bin) const noexcept {
      if (t - prev_t == bin_seconds_) {
        return ++bin == bin_count_ ? 0 : bin;
      }
      return stats::WeeklyProfile::BinOf(t, bin_minutes_);
    }
    Bin* base_;
    std::size_t stride_;
    std::size_t bin_count_;
    int bin_minutes_;
    std::int64_t bin_seconds_;
    std::int64_t sample_prev_t_;
    std::int64_t interval_prev_t_;
    std::size_t sample_bin_ = 0;
    std::size_t interval_bin_ = 0;
  };
  void FoldMachine(std::size_t machine, const MachineAcc& acc,
                   State& state) const;
  /// FoldMachine for each of `accs` in order, walked bin by bin: every
  /// bin gets the same merges in the same order, so the same bits. The
  /// streaming fold folds a chunk of machines this way, because their bins
  /// for one position-in-week sit side by side in its fleet vector.
  void FoldMachines(std::span<const MachineAcc* const> accs,
                    State& state) const;

  [[nodiscard]] int bin_minutes() const noexcept { return bin_minutes_; }

  [[nodiscard]] std::string_view name() const override { return "weekly"; }
  [[nodiscard]] std::unique_ptr<State> MakeState(
      const PassContext& ctx) const override;
  void AccumulateMachine(const PassContext& ctx, std::size_t machine,
                         State& state) const override;
  void MergeState(State& into, State& from) const override;
  void Finalize(const PassContext& ctx, State& merged) override;

  [[nodiscard]] const WeeklyProfiles& result() const noexcept {
    return result_;
  }

 private:
  struct Impl;
  int bin_minutes_;
  WeeklyProfiles result_{stats::WeeklyProfile(15), stats::WeeklyProfile(15),
                         stats::WeeklyProfile(15), stats::WeeklyProfile(15),
                         stats::WeeklyProfile(15), 0.0, {}, 0.0, 0.0};
};

/// Figure 6 — cluster-equivalence ratio (ComputeEquivalence).
class EquivalencePass final : public AnalysisPass {
 public:
  explicit EquivalencePass(
      std::vector<double> perf_index, int bin_minutes = 15,
      std::int64_t forgotten_threshold_s = trace::kForgottenThresholdSeconds)
      : perf_index_(std::move(perf_index)),
        bin_minutes_(bin_minutes),
        forgotten_threshold_s_(forgotten_threshold_s) {}

  /// True when the pass has a performance index for `machine`.
  [[nodiscard]] bool TracksMachine(std::size_t machine) const noexcept {
    return machine < perf_index_.size();
  }
  /// One interval's CET contribution — the single place the streamed and
  /// materialised paths compute it, so the doubles match bit-for-bit.
  [[nodiscard]] double Contribution(std::size_t machine,
                                    double cpu_idle_pct) const noexcept {
    return cpu_idle_pct / 100.0 * perf_index_[machine];
  }
  /// Adds externally-accumulated per-iteration occupied/free contribution
  /// sums into a state (streaming fold installs its global vectors into
  /// the merged total before Finalize).
  static void AddIterationSums(State& state, std::span<const double> occupied,
                               std::span<const double> free);

  [[nodiscard]] std::int64_t forgotten_threshold_s() const noexcept {
    return forgotten_threshold_s_;
  }

  [[nodiscard]] std::string_view name() const override {
    return "equivalence";
  }
  [[nodiscard]] std::unique_ptr<State> MakeState(
      const PassContext& ctx) const override;
  void AccumulateMachine(const PassContext& ctx, std::size_t machine,
                         State& state) const override;
  void MergeState(State& into, State& from) const override;
  void Finalize(const PassContext& ctx, State& merged) override;

  [[nodiscard]] const EquivalenceResult& result() const noexcept {
    return result_;
  }

 private:
  struct Impl;
  std::vector<double> perf_index_;
  int bin_minutes_;
  std::int64_t forgotten_threshold_s_;
  EquivalenceResult result_{stats::WeeklyProfile(15), stats::WeeklyProfile(15),
                            stats::WeeklyProfile(15)};
};

/// §5.2 — machine-session stats and SMART ground truth (ComputeSessionStats
/// + ComputeSmartStats; the session count feeds the SMART excess figure).
struct StabilityResult {
  SessionStats sessions;
  SmartStats smart;
};

class StabilityPass final : public AnalysisPass {
 public:
  explicit StabilityPass(int experiment_days)
      : experiment_days_(experiment_days) {}

  /// Per-machine session lengths plus SMART first/last sample values (see
  /// AggregatePass::MachineAcc).
  struct MachineAcc {
    stats::RunningStats lengths;
    std::uint64_t session_count = 0;
    bool has_samples = false;
    std::uint64_t first_power_on_hours = 0;
    std::uint64_t first_power_cycles = 0;
    std::uint64_t last_power_on_hours = 0;
    std::uint64_t last_power_cycles = 0;

    void AddSession(std::int64_t last_uptime_s) noexcept {
      lengths.Add(static_cast<double>(last_uptime_s) / 3600.0);
      ++session_count;
    }
    void AddSample(std::uint64_t power_on_hours,
                   std::uint64_t power_cycles) noexcept {
      if (!has_samples) {
        first_power_on_hours = power_on_hours;
        first_power_cycles = power_cycles;
        has_samples = true;
      }
      last_power_on_hours = power_on_hours;
      last_power_cycles = power_cycles;
    }
  };
  void FoldMachine(std::size_t machine, const MachineAcc& acc,
                   State& state) const;

  [[nodiscard]] std::string_view name() const override { return "stability"; }
  [[nodiscard]] std::unique_ptr<State> MakeState(
      const PassContext& ctx) const override;
  void AccumulateMachine(const PassContext& ctx, std::size_t machine,
                         State& state) const override;
  void MergeState(State& into, State& from) const override;
  void Finalize(const PassContext& ctx, State& merged) override;

  [[nodiscard]] const StabilityResult& result() const noexcept {
    return result_;
  }

 private:
  struct Impl;
  int experiment_days_;
  StabilityResult result_;
};

/// §6 — harvestable RAM/disk capacity (ComputeHarvestableCapacity).
class CapacityPass final : public AnalysisPass {
 public:
  explicit CapacityPass(CapacityOptions options = {}) : options_(options) {}

  /// Adds externally-accumulated per-iteration free-RAM (MB) and free-disk
  /// (GB) sums into a state (streaming fold installs its global vectors
  /// into the merged total before Finalize).
  static void AddIterationSums(State& state, std::span<const double> ram_mb,
                               std::span<const double> disk_gb);

  [[nodiscard]] std::string_view name() const override { return "capacity"; }
  [[nodiscard]] std::unique_ptr<State> MakeState(
      const PassContext& ctx) const override;
  void AccumulateMachine(const PassContext& ctx, std::size_t machine,
                         State& state) const override;
  void MergeState(State& into, State& from) const override;
  void Finalize(const PassContext& ctx, State& merged) override;

  [[nodiscard]] const CapacityResult& result() const noexcept {
    return result_;
  }
  [[nodiscard]] const CapacityOptions& options() const noexcept {
    return options_;
  }

 private:
  struct Impl;
  CapacityOptions options_;
  CapacityResult result_;
};

}  // namespace labmon::analysis
