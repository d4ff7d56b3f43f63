#include "labmon/analysis/passes.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <map>
#include <memory>
#include <utility>

#include "labmon/stats/running_stats.hpp"

namespace labmon::analysis {

namespace {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double idx = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

}  // namespace

// ---------------------------------------------------------------- table2

struct AggregatePass::Impl final : AnalysisPass::State {
  struct Acc {
    std::uint64_t samples = 0;
    stats::RunningStats cpu_idle;
    stats::RunningStats ram;
    stats::RunningStats swap;
    stats::RunningStats disk_used_gb;
    stats::RunningStats sent_bps;
    stats::RunningStats recv_bps;

    void Merge(const Acc& o) {
      samples += o.samples;
      cpu_idle.Merge(o.cpu_idle);
      ram.Merge(o.ram);
      swap.Merge(o.swap);
      disk_used_gb.Merge(o.disk_used_gb);
      sent_bps.Merge(o.sent_bps);
      recv_bps.Merge(o.recv_bps);
    }
    void Fill(Table2Column& col, std::uint64_t total_attempts) const {
      col.samples = samples;
      col.uptime_pct = total_attempts
                           ? 100.0 * static_cast<double>(samples) /
                                 static_cast<double>(total_attempts)
                           : 0.0;
      col.cpu_idle_pct = cpu_idle.mean();
      col.ram_load_pct = ram.mean();
      col.swap_load_pct = swap.mean();
      col.disk_used_gb = disk_used_gb.mean();
      col.sent_bps = sent_bps.mean();
      col.recv_bps = recv_bps.mean();
    }
  };

  Acc no_login;
  Acc with_login;
  std::uint64_t raw_login_samples = 0;
  std::uint64_t reclassified_samples = 0;
};

std::unique_ptr<AnalysisPass::State> AggregatePass::MakeState(
    const PassContext&) const {
  return std::make_unique<Impl>();
}

void AggregatePass::AccumulateMachine(const PassContext& ctx,
                                      std::size_t machine,
                                      State& state) const {
  const auto& c = ctx.trace.columns();
  const std::int64_t threshold = options_.forgotten_threshold_s;

  // The per-machine accumulator lives in a non-escaping local so the
  // running means stay in registers across the tight loops, folding into
  // the chunk state once per machine. Routing every sample through a
  // class-selected reference into the chunk state instead forces each
  // update through memory — several times slower over the full trace.
  MachineAcc acc;
  for (const std::uint32_t idx : ctx.trace.MachineSamples(machine)) {
    acc.AddSample(ctx.derived.SampleClass(idx, threshold),
                  c.has_session[idx] != 0, c.mem_load_pct[idx],
                  c.swap_load_pct[idx],
                  static_cast<double>(ctx.trace.DiskUsedBytes(idx)) / 1e9);
  }
  const auto& iv = ctx.derived.interval_columns();
  const auto range = ctx.derived.MachineIntervalRange(machine);
  for (std::size_t i = range.begin; i < range.end; ++i) {
    acc.AddInterval(ctx.derived.IntervalClassAt(i, threshold),
                    iv.cpu_idle_pct[i], iv.sent_bps[i], iv.recv_bps[i]);
  }
  FoldMachine(machine, acc, state);
}

void AggregatePass::FoldMachine(std::size_t /*machine*/, const MachineAcc& acc,
                                State& state) const {
  auto& st = static_cast<Impl&>(state);
  st.raw_login_samples += acc.raw_login;
  st.reclassified_samples += acc.reclassified;
  const auto fold = [](Impl::Acc& into, const MachineAcc::Class& from) {
    const auto samples = static_cast<std::int64_t>(from.samples);
    const auto intervals = static_cast<std::int64_t>(from.intervals);
    into.samples += from.samples;
    into.ram.MergeMean(samples, from.ram);
    into.swap.MergeMean(samples, from.swap);
    into.disk_used_gb.MergeMean(samples, from.disk);
    into.cpu_idle.MergeMean(intervals, from.cpu);
    into.sent_bps.MergeMean(intervals, from.sent);
    into.recv_bps.MergeMean(intervals, from.recv);
  };
  fold(st.no_login, acc.no_login);
  fold(st.with_login, acc.with_login);
}

void AggregatePass::MergeState(State& into, State& from) const {
  auto& a = static_cast<Impl&>(into);
  auto& b = static_cast<Impl&>(from);
  a.no_login.Merge(b.no_login);
  a.with_login.Merge(b.with_login);
  a.raw_login_samples += b.raw_login_samples;
  a.reclassified_samples += b.reclassified_samples;
}

void AggregatePass::Finalize(const PassContext& ctx, State& merged) {
  auto& st = static_cast<Impl&>(merged);
  result_ = Table2Result{};
  result_.total_attempts = ctx.trace.TotalAttempts();
  result_.iterations = ctx.trace.iterations().size();
  result_.raw_login_samples = st.raw_login_samples;
  result_.reclassified_samples = st.reclassified_samples;
  st.no_login.Fill(result_.no_login, result_.total_attempts);
  st.with_login.Fill(result_.with_login, result_.total_attempts);
  Impl::Acc both = st.no_login;
  both.Merge(st.with_login);
  both.Fill(result_.both, result_.total_attempts);
}

// ---------------------------------------------------------- availability

struct AvailabilityPass::Impl final : AnalysisPass::State {
  std::vector<std::uint32_t> on;    ///< responding machines per iteration
  std::vector<std::uint32_t> free;  ///< ... without an effective session
  std::vector<std::uint64_t> responses;  ///< per machine, for the ranking
  stats::Histogram histogram{0.0, 96.0, 48};
  stats::RunningStats lengths;
  double uptime_total_h = 0.0;
  double uptime_within_h = 0.0;
  std::uint64_t sessions_within = 0;
  std::uint64_t total_sessions = 0;
};

std::unique_ptr<AnalysisPass::State> AvailabilityPass::MakeState(
    const PassContext& ctx) const {
  auto state = std::make_unique<Impl>();
  state->on.assign(ctx.trace.iterations().size(), 0);
  state->free.assign(ctx.trace.iterations().size(), 0);
  state->responses.assign(ctx.trace.machine_count(), 0);
  return state;
}

void AvailabilityPass::AccumulateMachine(const PassContext& ctx,
                                         std::size_t machine,
                                         State& state) const {
  auto& st = static_cast<Impl&>(state);
  const auto& c = ctx.trace.columns();
  MachineAcc acc;
  for (const std::uint32_t idx : ctx.trace.MachineSamples(machine)) {
    const std::uint32_t it = c.iteration[idx];
    ++acc.responses;
    if (it >= st.on.size()) continue;
    ++st.on[it];
    if (ctx.derived.SampleClass(idx, forgotten_threshold_s_) !=
        trace::LoginClass::kWithLogin) {
      ++st.free[it];
    }
  }
  for (const auto& session : ctx.derived.MachineSessions(machine)) {
    acc.AddSession(session.last_uptime_s);
  }
  FoldMachine(machine, acc, state);
}

void AvailabilityPass::FoldMachine(std::size_t machine, const MachineAcc& acc,
                                   State& state) const {
  auto& st = static_cast<Impl&>(state);
  if (machine < st.responses.size()) st.responses[machine] += acc.responses;
  st.histogram.Merge(acc.histogram);
  st.lengths.Merge(acc.lengths);
  st.uptime_total_h += acc.uptime_total_h;
  st.uptime_within_h += acc.uptime_within_h;
  st.sessions_within += acc.sessions_within;
  st.total_sessions += acc.total_sessions;
}

void AvailabilityPass::AddIterationCounts(State& state,
                                          std::span<const std::uint32_t> on,
                                          std::span<const std::uint32_t> free) {
  auto& st = static_cast<Impl&>(state);
  if (st.on.size() < on.size()) {
    st.on.resize(on.size(), 0);
    st.free.resize(free.size(), 0);
  }
  for (std::size_t i = 0; i < on.size(); ++i) st.on[i] += on[i];
  for (std::size_t i = 0; i < free.size(); ++i) st.free[i] += free[i];
}

void AvailabilityPass::MergeState(State& into, State& from) const {
  auto& a = static_cast<Impl&>(into);
  auto& b = static_cast<Impl&>(from);
  if (a.on.size() < b.on.size()) {
    a.on.resize(b.on.size(), 0);
    a.free.resize(b.free.size(), 0);
  }
  for (std::size_t i = 0; i < b.on.size(); ++i) {
    a.on[i] += b.on[i];
    a.free[i] += b.free[i];
  }
  if (a.responses.size() < b.responses.size()) {
    a.responses.resize(b.responses.size(), 0);
  }
  for (std::size_t i = 0; i < b.responses.size(); ++i) {
    a.responses[i] += b.responses[i];
  }
  a.histogram.Merge(b.histogram);
  a.lengths.Merge(b.lengths);
  a.uptime_total_h += b.uptime_total_h;
  a.uptime_within_h += b.uptime_within_h;
  a.sessions_within += b.sessions_within;
  a.total_sessions += b.total_sessions;
}

void AvailabilityPass::Finalize(const PassContext& ctx, State& merged) {
  auto& st = static_cast<Impl&>(merged);
  result_ = AvailabilityResult{};
  for (std::size_t i = 0; i < ctx.trace.iterations().size(); ++i) {
    const auto t = ctx.trace.iterations()[i].start_t;
    result_.series.powered_on.Append(t, st.on[i]);
    result_.series.user_free.Append(t, st.free[i]);
  }
  result_.series.mean_powered_on = result_.series.powered_on.Mean();
  result_.series.mean_user_free = result_.series.user_free.Mean();

  // Ranking needs only the per-machine response counts the sweep gathered —
  // no trace walk, so the streamed path (whose finalize context holds no
  // samples) produces the identical ranking.
  result_.ranking =
      ComputeUptimeRanking(st.responses, ctx.trace.iterations().size());

  auto& dist = result_.session_lengths;
  dist.histogram = st.histogram;
  dist.total_sessions = st.total_sessions;
  dist.fraction_within_96h =
      st.total_sessions == 0
          ? 0.0
          : 100.0 * static_cast<double>(st.sessions_within) /
                static_cast<double>(st.total_sessions);
  dist.uptime_fraction_within_96h =
      st.uptime_total_h > 0.0
          ? 100.0 * st.uptime_within_h / st.uptime_total_h
          : 0.0;
  dist.mean_hours = st.lengths.mean();
  dist.stddev_hours = st.lengths.stddev();
}

// --------------------------------------------------------------- per_lab

struct PerLabPass::Impl final : AnalysisPass::State {
  struct LabAcc {
    std::uint64_t samples = 0;
    std::uint64_t occupied = 0;
    stats::RunningStats idle;
    stats::RunningStats ram;
    stats::RunningStats free_disk_gb;

    void Merge(const LabAcc& o) {
      samples += o.samples;
      occupied += o.occupied;
      idle.Merge(o.idle);
      ram.Merge(o.ram);
      free_disk_gb.Merge(o.free_disk_gb);
    }
  };
  struct ClassAcc {
    stats::RunningStats pct;
    stats::RunningStats mb;
  };

  /// Per-lab accumulators plus a slot for machines outside every lab
  /// range; the fleet row and the headroom figures are merges of these,
  /// built in Finalize (one accumulation per sample, not two).
  std::vector<LabAcc> labs;
  std::map<int, ClassAcc> ram_classes;
};

std::size_t PerLabPass::LabOf(std::size_t machine) const noexcept {
  for (std::size_t l = 0; l < labs_.size(); ++l) {
    if (machine >= labs_[l].first_machine &&
        machine < labs_[l].first_machine + labs_[l].machine_count) {
      return l;
    }
  }
  return labs_.size();
}

std::unique_ptr<AnalysisPass::State> PerLabPass::MakeState(
    const PassContext&) const {
  auto state = std::make_unique<Impl>();
  state->labs.resize(labs_.size() + 1);
  return state;
}

void PerLabPass::AccumulateMachine(const PassContext& ctx,
                                   std::size_t machine, State& state) const {
  const auto& c = ctx.trace.columns();
  const std::int64_t threshold = forgotten_threshold_s_;

  // Same local-accumulator pattern as AggregatePass: a machine belongs to
  // exactly one lab and (in practice) one installed-RAM class, so the
  // whole walk accumulates into a register-resident acc and folds once at
  // the end.
  MachineAcc acc;
  for (const std::uint32_t idx : ctx.trace.MachineSamples(machine)) {
    acc.AddSample(ctx.derived.SampleClass(idx, threshold), c.mem_load_pct[idx],
                  static_cast<double>(c.disk_free_b[idx]) / 1e9,
                  c.ram_mb[idx], ctx.trace.FreeRamMb(idx));
  }
  const auto& iv = ctx.derived.interval_columns();
  const auto range = ctx.derived.MachineIntervalRange(machine);
  for (std::size_t i = range.begin; i < range.end; ++i) {
    acc.AddInterval(iv.cpu_idle_pct[i]);
  }
  FoldMachine(machine, acc, state);
}

void PerLabPass::FoldMachine(std::size_t machine, const MachineAcc& acc,
                             State& state) const {
  auto& st = static_cast<Impl&>(state);
  auto& lab = st.labs[LabOf(machine)];
  lab.samples += acc.samples;
  lab.occupied += acc.occupied;
  const auto samples = static_cast<std::int64_t>(acc.samples);
  lab.ram.MergeMean(samples, acc.ram);
  lab.free_disk_gb.MergeMean(samples, acc.free_disk);
  lab.idle.MergeMean(static_cast<std::int64_t>(acc.intervals), acc.idle);
  for (const auto& run : acc.class_runs) {
    auto& cls = st.ram_classes[run.ram_mb];
    const auto run_samples = static_cast<std::int64_t>(run.samples);
    cls.pct.MergeMean(run_samples, run.pct);
    cls.mb.MergeMean(run_samples, run.mb);
  }
}

void PerLabPass::MergeState(State& into, State& from) const {
  auto& a = static_cast<Impl&>(into);
  auto& b = static_cast<Impl&>(from);
  if (a.labs.size() < b.labs.size()) a.labs.resize(b.labs.size());
  for (std::size_t l = 0; l < b.labs.size(); ++l) a.labs[l].Merge(b.labs[l]);
  for (const auto& [ram_mb, acc] : b.ram_classes) {
    auto& mine = a.ram_classes[ram_mb];
    mine.pct.Merge(acc.pct);
    mine.mb.Merge(acc.mb);
  }
}

void PerLabPass::Finalize(const PassContext& ctx, State& merged) {
  auto& st = static_cast<Impl&>(merged);
  result_ = PerLabResult{};

  const double iterations =
      static_cast<double>(ctx.trace.iterations().size());
  // Fleet = merge of every lab accumulator (plus the outside-any-lab slot).
  Impl::LabAcc fleet;
  for (const auto& acc : st.labs) fleet.Merge(acc);
  result_.usage.reserve(labs_.size() + 1);
  for (std::size_t l = 0; l <= labs_.size(); ++l) {
    LabUsage usage;
    if (l < labs_.size()) {
      usage.name = labs_[l].name;
      usage.machines = labs_[l].machine_count;
    } else {
      usage.name = "Fleet";
      usage.machines = ctx.trace.machine_count();
    }
    const auto& acc = l < labs_.size() ? st.labs[l] : fleet;
    usage.samples = acc.samples;
    const double attempts = iterations * static_cast<double>(usage.machines);
    usage.uptime_pct =
        attempts > 0.0
            ? 100.0 * static_cast<double>(acc.samples) / attempts
            : 0.0;
    usage.occupied_pct =
        attempts > 0.0
            ? 100.0 * static_cast<double>(acc.occupied) / attempts
            : 0.0;
    usage.cpu_idle_pct = acc.idle.mean();
    usage.ram_load_pct = acc.ram.mean();
    usage.free_disk_gb = acc.free_disk_gb.mean();
    result_.usage.push_back(std::move(usage));
  }

  auto& h = result_.headroom;
  h.cpu_idle_pct = fleet.idle.mean();
  h.unused_ram_pct = fleet.ram.count() > 0 ? 100.0 - fleet.ram.mean() : 0.0;
  h.free_disk_gb_per_machine = fleet.free_disk_gb.mean();
  h.free_disk_tb_fleet = fleet.free_disk_gb.mean() *
                         static_cast<double>(ctx.trace.machine_count()) /
                         1024.0;
  // Exact when the trace carries installed-RAM sizes; otherwise fall back
  // to the paper's fleet mean of 340.8 MB/machine (Table 1).
  stats::RunningStats free_ram_mb;
  for (const auto& [ram_mb, acc] : st.ram_classes) free_ram_mb.Merge(acc.mb);
  const double mean_free_mb = free_ram_mb.count() > 0
                                  ? free_ram_mb.mean()
                                  : h.unused_ram_pct / 100.0 * 340.8;
  h.unused_ram_gb_fleet = mean_free_mb *
                          static_cast<double>(ctx.trace.machine_count()) /
                          1024.0;
  for (const auto& [ram_mb, acc] : st.ram_classes) {
    MemoryClassHeadroom cls;
    cls.ram_mb = ram_mb;
    cls.samples = static_cast<std::uint64_t>(acc.pct.count());
    cls.unused_pct = acc.pct.mean();
    cls.free_mb = acc.mb.mean();
    h.by_ram_class.push_back(cls);
  }
}

// --------------------------------------------------------- session_hours

struct SessionHoursPass::Impl final : AnalysisPass::State {
  std::vector<stats::RunningStats> bins;
};

std::unique_ptr<AnalysisPass::State> SessionHoursPass::MakeState(
    const PassContext&) const {
  auto state = std::make_unique<Impl>();
  state->bins.resize(static_cast<std::size_t>(max_hours_) + 1);
  return state;
}

void SessionHoursPass::AccumulateMachine(const PassContext& ctx,
                                         std::size_t machine,
                                         State& state) const {
  const auto& c = ctx.trace.columns();
  // Figure 2 is computed on raw login samples — no threshold filtering
  // (this analysis is what *establishes* the threshold), so only the
  // closing sample's session presence matters, not the interval class.
  MachineAcc acc(static_cast<std::size_t>(max_hours_) + 1);
  const auto& iv = ctx.derived.interval_columns();
  const auto range = ctx.derived.MachineIntervalRange(machine);
  for (std::size_t i = range.begin; i < range.end; ++i) {
    const std::uint32_t closing = iv.end_index[i];
    if (!c.has_session[closing]) continue;
    acc.AddInterval(ctx.trace.SessionSeconds(closing), iv.cpu_idle_pct[i]);
  }
  FoldMachine(machine, acc, state);
}

void SessionHoursPass::FoldMachine(std::size_t /*machine*/,
                                   const MachineAcc& acc, State& state) const {
  auto& st = static_cast<Impl&>(state);
  const std::size_t n = std::min(st.bins.size(), acc.bins.size());
  for (std::size_t b = 0; b < n; ++b) {
    st.bins[b].MergeMean(static_cast<std::int64_t>(acc.bins[b].count),
                         acc.bins[b].mean);
  }
}

void SessionHoursPass::MergeState(State& into, State& from) const {
  auto& a = static_cast<Impl&>(into);
  auto& b = static_cast<Impl&>(from);
  for (std::size_t i = 0; i < a.bins.size(); ++i) a.bins[i].Merge(b.bins[i]);
}

void SessionHoursPass::Finalize(const PassContext&, State& merged) {
  auto& st = static_cast<Impl&>(merged);
  result_ = SessionHourProfile{};
  result_.bins.reserve(st.bins.size());
  for (std::size_t h = 0; h < st.bins.size(); ++h) {
    SessionHourBin bin;
    bin.hour = static_cast<int>(h);
    bin.samples = static_cast<std::uint64_t>(st.bins[h].count());
    bin.mean_cpu_idle_pct = st.bins[h].mean();
    result_.bins.push_back(bin);
    if (result_.first_bin_above_99 < 0 && bin.samples > 0 &&
        bin.mean_cpu_idle_pct >= 99.0) {
      result_.first_bin_above_99 = bin.hour;
    }
  }
}

// ---------------------------------------------------------------- weekly

struct WeeklyPass::Impl final : AnalysisPass::State {
  explicit Impl(int bin_minutes)
      : cpu_idle(bin_minutes),
        ram(bin_minutes),
        swap(bin_minutes),
        sent(bin_minutes),
        recv(bin_minutes) {}
  stats::WeeklyProfile cpu_idle;
  stats::WeeklyProfile ram;
  stats::WeeklyProfile swap;
  stats::WeeklyProfile sent;
  stats::WeeklyProfile recv;
};

std::unique_ptr<AnalysisPass::State> WeeklyPass::MakeState(
    const PassContext&) const {
  return std::make_unique<Impl>(bin_minutes_);
}

void WeeklyPass::AccumulateMachine(const PassContext& ctx,
                                   std::size_t machine, State& state) const {
  const auto& c = ctx.trace.columns();
  // The acc tracks the week-folded bin incrementally (a machine's
  // consecutive events are almost always exactly one bin width apart),
  // keeping the 64-bit modulo and divisions of BinOf off the hot path.
  std::vector<MachineAcc::Bin> bins(MachineAcc::BinCount(bin_minutes_));
  MachineAcc acc(bin_minutes_, bins.data(), 1);
  for (const std::uint32_t idx : ctx.trace.MachineSamples(machine)) {
    acc.AddSample(c.t[idx], c.mem_load_pct[idx], c.swap_load_pct[idx]);
  }
  const auto& iv = ctx.derived.interval_columns();
  const auto range = ctx.derived.MachineIntervalRange(machine);
  for (std::size_t i = range.begin; i < range.end; ++i) {
    acc.AddInterval(iv.end_t[i], iv.cpu_idle_pct[i], iv.sent_bps[i],
                    iv.recv_bps[i]);
  }
  FoldMachine(machine, acc, state);
}

void WeeklyPass::FoldMachine(std::size_t /*machine*/, const MachineAcc& acc,
                             State& state) const {
  const MachineAcc* one = &acc;
  FoldMachines({&one, 1}, state);
}

void WeeklyPass::FoldMachines(std::span<const MachineAcc* const> accs,
                              State& state) const {
  auto& st = static_cast<Impl&>(state);
  if (accs.empty()) return;
  // In the streaming fold's fleet vector consecutive bins of a machine are
  // a row (~65 KB at 8 labs) apart, too far for the hardware prefetcher,
  // so fetch the bins a few rows ahead (at 8 labs: ~23 → ~15 ms).
  constexpr std::size_t kPrefetchBins = 8;
  const std::size_t bins = accs.front()->bin_count();
  for (std::size_t i = 0; i < bins; ++i) {
    if (i + kPrefetchBins < bins) {
      for (const MachineAcc* acc : accs) {
        __builtin_prefetch(&acc->bin(i + kPrefetchBins));
      }
    }
    for (const MachineAcc* acc : accs) {
      const MachineAcc::Bin& b = acc->bin(i);
      st.ram.MergeMeanAt(i, b.samples, b.ram);
      st.swap.MergeMeanAt(i, b.samples, b.swap);
      st.cpu_idle.MergeMeanAt(i, b.intervals, b.cpu_idle);
      st.sent.MergeMeanAt(i, b.intervals, b.sent);
      st.recv.MergeMeanAt(i, b.intervals, b.recv);
    }
  }
}

void WeeklyPass::MergeState(State& into, State& from) const {
  auto& a = static_cast<Impl&>(into);
  auto& b = static_cast<Impl&>(from);
  a.cpu_idle.Merge(b.cpu_idle);
  a.ram.Merge(b.ram);
  a.swap.Merge(b.swap);
  a.sent.Merge(b.sent);
  a.recv.Merge(b.recv);
}

void WeeklyPass::Finalize(const PassContext&, State& merged) {
  auto& st = static_cast<Impl&>(merged);
  result_ = WeeklyProfiles{std::move(st.cpu_idle), std::move(st.ram),
                           std::move(st.swap),     std::move(st.sent),
                           std::move(st.recv),     0.0,
                           {},                     0.0,
                           0.0};
  result_.min_cpu_idle_pct = result_.cpu_idle_pct.MinBinMean();
  const auto argmin = result_.cpu_idle_pct.ArgMinBin();
  if (argmin != static_cast<std::size_t>(-1)) {
    result_.min_cpu_idle_when = result_.cpu_idle_pct.BinLabel(argmin);
  }
  result_.min_ram_load_pct = result_.ram_load_pct.MinBinMean();
  // The 04:00–08:00 closed window, averaged over Tue–Fri mornings
  // (Monday's 04–08 follows the closed Sunday so machines are mostly off).
  double closed_sum = 0.0;
  int closed_n = 0;
  for (int day = 1; day <= 4; ++day) {  // Tue..Fri
    const int lo = day * 24 * 60 + 4 * 60;
    const int hi = day * 24 * 60 + 8 * 60;
    const double v = result_.cpu_idle_pct.MeanOverWindow(lo, hi);
    if (v > 0.0) {
      closed_sum += v;
      ++closed_n;
    }
  }
  result_.closed_hours_cpu_idle = closed_n ? closed_sum / closed_n : 0.0;
}

// ----------------------------------------------------------- equivalence

struct EquivalencePass::Impl final : AnalysisPass::State {
  std::vector<double> occupied_sum;  ///< per iteration, perf-weighted
  std::vector<double> free_sum;
};

std::unique_ptr<AnalysisPass::State> EquivalencePass::MakeState(
    const PassContext& ctx) const {
  auto state = std::make_unique<Impl>();
  state->occupied_sum.assign(ctx.trace.iterations().size(), 0.0);
  state->free_sum.assign(ctx.trace.iterations().size(), 0.0);
  return state;
}

void EquivalencePass::AccumulateMachine(const PassContext& ctx,
                                        std::size_t machine,
                                        State& state) const {
  auto& st = static_cast<Impl&>(state);
  if (machine >= perf_index_.size()) return;
  const auto& c = ctx.trace.columns();
  const auto& iv = ctx.derived.interval_columns();
  const auto range = ctx.derived.MachineIntervalRange(machine);
  for (std::size_t i = range.begin; i < range.end; ++i) {
    const std::uint32_t it = c.iteration[iv.end_index[i]];
    if (it >= st.occupied_sum.size()) continue;
    const double contribution = Contribution(machine, iv.cpu_idle_pct[i]);
    if (ctx.derived.IntervalClassAt(i, forgotten_threshold_s_) ==
        trace::LoginClass::kWithLogin) {
      st.occupied_sum[it] += contribution;
    } else {
      st.free_sum[it] += contribution;
    }
  }
}

void EquivalencePass::AddIterationSums(State& state,
                                       std::span<const double> occupied,
                                       std::span<const double> free) {
  auto& st = static_cast<Impl&>(state);
  if (st.occupied_sum.size() < occupied.size()) {
    st.occupied_sum.resize(occupied.size(), 0.0);
    st.free_sum.resize(free.size(), 0.0);
  }
  for (std::size_t i = 0; i < occupied.size(); ++i) {
    st.occupied_sum[i] += occupied[i];
  }
  for (std::size_t i = 0; i < free.size(); ++i) st.free_sum[i] += free[i];
}

void EquivalencePass::MergeState(State& into, State& from) const {
  auto& a = static_cast<Impl&>(into);
  auto& b = static_cast<Impl&>(from);
  if (a.occupied_sum.size() < b.occupied_sum.size()) {
    a.occupied_sum.resize(b.occupied_sum.size(), 0.0);
    a.free_sum.resize(b.free_sum.size(), 0.0);
  }
  for (std::size_t i = 0; i < b.occupied_sum.size(); ++i) {
    a.occupied_sum[i] += b.occupied_sum[i];
    a.free_sum[i] += b.free_sum[i];
  }
}

void EquivalencePass::Finalize(const PassContext& ctx, State& merged) {
  auto& st = static_cast<Impl&>(merged);
  assert(perf_index_.size() >= ctx.trace.machine_count());
  double fleet_perf = 0.0;
  for (std::size_t m = 0; m < ctx.trace.machine_count(); ++m) {
    fleet_perf += perf_index_[m];
  }

  result_ = EquivalenceResult{stats::WeeklyProfile(bin_minutes_),
                              stats::WeeklyProfile(bin_minutes_),
                              stats::WeeklyProfile(bin_minutes_)};
  if (fleet_perf <= 0.0 || ctx.trace.iterations().empty()) return;

  stats::RunningStats occupied_mean;
  stats::RunningStats free_mean;
  for (std::size_t it = 0; it < ctx.trace.iterations().size(); ++it) {
    const auto t = ctx.trace.iterations()[it].start_t;
    const double occ = st.occupied_sum[it] / fleet_perf;
    const double fre = st.free_sum[it] / fleet_perf;
    result_.weekly_occupied.Add(t, occ);
    result_.weekly_free.Add(t, fre);
    result_.weekly_total.Add(t, occ + fre);
    occupied_mean.Add(occ);
    free_mean.Add(fre);
  }
  result_.mean_occupied = occupied_mean.mean();
  result_.mean_free = free_mean.mean();
  result_.mean_total = result_.mean_occupied + result_.mean_free;
}

// ------------------------------------------------------------- stability

struct StabilityPass::Impl final : AnalysisPass::State {
  stats::RunningStats lengths;  ///< session lengths in hours
  std::uint64_t session_count = 0;
  stats::RunningStats per_machine_cycles;
  stats::RunningStats experiment_ratio;
  stats::RunningStats life_ratio;
  std::uint64_t total_cycles = 0;
};

std::unique_ptr<AnalysisPass::State> StabilityPass::MakeState(
    const PassContext&) const {
  return std::make_unique<Impl>();
}

void StabilityPass::AccumulateMachine(const PassContext& ctx,
                                      std::size_t machine,
                                      State& state) const {
  MachineAcc acc;
  for (const auto& session : ctx.derived.MachineSessions(machine)) {
    acc.AddSession(session.last_uptime_s);
  }
  const auto indices = ctx.trace.MachineSamples(machine);
  if (!indices.empty()) {
    const auto& c = ctx.trace.columns();
    // Only the first and last sample matter; feeding both gives the acc
    // the same first/last values a full streamed walk would record.
    acc.AddSample(c.smart_power_on_hours[indices.front()],
                  c.smart_power_cycles[indices.front()]);
    acc.AddSample(c.smart_power_on_hours[indices.back()],
                  c.smart_power_cycles[indices.back()]);
  }
  FoldMachine(machine, acc, state);
}

void StabilityPass::FoldMachine(std::size_t /*machine*/, const MachineAcc& acc,
                                State& state) const {
  auto& st = static_cast<Impl&>(state);
  st.lengths.Merge(acc.lengths);
  st.session_count += acc.session_count;
  if (!acc.has_samples) return;
  // Cycles accumulated during the monitoring window. The first sample's
  // counter already includes the boot that made the machine reachable, so
  // the difference undercounts by the pre-first-sample boots — the same
  // bias the real methodology has.
  const std::uint64_t cycles =
      acc.last_power_cycles - acc.first_power_cycles;
  const std::uint64_t hours =
      acc.last_power_on_hours - acc.first_power_on_hours;
  st.total_cycles += cycles;
  st.per_machine_cycles.Add(static_cast<double>(cycles));
  if (cycles > 0) {
    st.experiment_ratio.Add(static_cast<double>(hours) /
                            static_cast<double>(cycles));
  }
  // Whole-life ratio from the absolute counters of the last sample.
  if (acc.last_power_cycles > 0) {
    st.life_ratio.Add(static_cast<double>(acc.last_power_on_hours) /
                      static_cast<double>(acc.last_power_cycles));
  }
}

void StabilityPass::MergeState(State& into, State& from) const {
  auto& a = static_cast<Impl&>(into);
  auto& b = static_cast<Impl&>(from);
  a.lengths.Merge(b.lengths);
  a.session_count += b.session_count;
  a.per_machine_cycles.Merge(b.per_machine_cycles);
  a.experiment_ratio.Merge(b.experiment_ratio);
  a.life_ratio.Merge(b.life_ratio);
  a.total_cycles += b.total_cycles;
}

void StabilityPass::Finalize(const PassContext&, State& merged) {
  auto& st = static_cast<Impl&>(merged);
  result_ = StabilityResult{};
  result_.sessions.session_count = st.session_count;
  result_.sessions.mean_hours = st.lengths.mean();
  result_.sessions.stddev_hours = st.lengths.stddev();

  auto& smart = result_.smart;
  smart.experiment_cycles = st.total_cycles;
  smart.cycles_per_machine_mean = st.per_machine_cycles.mean();
  smart.cycles_per_machine_stddev = st.per_machine_cycles.stddev();
  smart.cycles_per_machine_day =
      experiment_days_ > 0
          ? st.per_machine_cycles.mean() / experiment_days_
          : 0.0;
  smart.cycle_excess_over_sessions_pct =
      st.session_count > 0
          ? 100.0 * (static_cast<double>(st.total_cycles) /
                         static_cast<double>(st.session_count) -
                     1.0)
          : 0.0;
  smart.experiment_hours_per_cycle_mean = st.experiment_ratio.mean();
  smart.experiment_hours_per_cycle_stddev = st.experiment_ratio.stddev();
  smart.life_hours_per_cycle_mean = st.life_ratio.mean();
  smart.life_hours_per_cycle_stddev = st.life_ratio.stddev();
}

// -------------------------------------------------------------- capacity

struct CapacityPass::Impl final : AnalysisPass::State {
  std::vector<double> ram_mb_sum;   ///< per iteration
  std::vector<double> disk_gb_sum;
};

std::unique_ptr<AnalysisPass::State> CapacityPass::MakeState(
    const PassContext& ctx) const {
  auto state = std::make_unique<Impl>();
  state->ram_mb_sum.assign(ctx.trace.iterations().size(), 0.0);
  state->disk_gb_sum.assign(ctx.trace.iterations().size(), 0.0);
  return state;
}

void CapacityPass::AccumulateMachine(const PassContext& ctx,
                                     std::size_t machine,
                                     State& state) const {
  auto& st = static_cast<Impl&>(state);
  const auto& c = ctx.trace.columns();
  for (const std::uint32_t idx : ctx.trace.MachineSamples(machine)) {
    const std::uint32_t it = c.iteration[idx];
    if (it >= st.ram_mb_sum.size()) continue;
    st.ram_mb_sum[it] += ctx.trace.FreeRamMb(idx);
    st.disk_gb_sum[it] += static_cast<double>(c.disk_free_b[idx]) / 1e9;
  }
}

void CapacityPass::AddIterationSums(State& state,
                                    std::span<const double> ram_mb,
                                    std::span<const double> disk_gb) {
  auto& st = static_cast<Impl&>(state);
  if (st.ram_mb_sum.size() < ram_mb.size()) {
    st.ram_mb_sum.resize(ram_mb.size(), 0.0);
    st.disk_gb_sum.resize(disk_gb.size(), 0.0);
  }
  for (std::size_t i = 0; i < ram_mb.size(); ++i) {
    st.ram_mb_sum[i] += ram_mb[i];
  }
  for (std::size_t i = 0; i < disk_gb.size(); ++i) {
    st.disk_gb_sum[i] += disk_gb[i];
  }
}

void CapacityPass::MergeState(State& into, State& from) const {
  auto& a = static_cast<Impl&>(into);
  auto& b = static_cast<Impl&>(from);
  if (a.ram_mb_sum.size() < b.ram_mb_sum.size()) {
    a.ram_mb_sum.resize(b.ram_mb_sum.size(), 0.0);
    a.disk_gb_sum.resize(b.disk_gb_sum.size(), 0.0);
  }
  for (std::size_t i = 0; i < b.ram_mb_sum.size(); ++i) {
    a.ram_mb_sum[i] += b.ram_mb_sum[i];
    a.disk_gb_sum[i] += b.disk_gb_sum[i];
  }
}

void CapacityPass::Finalize(const PassContext& ctx, State& merged) {
  auto& st = static_cast<Impl&>(merged);
  result_ = CapacityResult();
  const std::size_t iterations = ctx.trace.iterations().size();
  const double replication = std::max(1, options_.replication);
  std::vector<double> ram_points;
  std::vector<double> disk_points;
  ram_points.reserve(iterations);
  disk_points.reserve(iterations);
  for (std::size_t i = 0; i < iterations; ++i) {
    const auto t = ctx.trace.iterations()[i].start_t;
    const double ram_gb = st.ram_mb_sum[i] / 1024.0 *
                          options_.ram_donation_fraction / replication;
    const double disk_tb = st.disk_gb_sum[i] / 1024.0 *
                           options_.disk_donation_fraction / replication;
    result_.ram_gb.Append(t, ram_gb);
    result_.ram_gb_weekly.Add(t, ram_gb);
    result_.disk_tb.Append(t, disk_tb);
    ram_points.push_back(ram_gb);
    disk_points.push_back(disk_tb);
  }
  result_.mean_ram_gb = result_.ram_gb.Mean();
  result_.p10_ram_gb = Percentile(ram_points, 0.10);
  result_.mean_disk_tb = result_.disk_tb.Mean();
  result_.p10_disk_tb = Percentile(disk_points, 0.10);
}

}  // namespace labmon::analysis
