#include "labmon/workload/driver.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace labmon::workload {

namespace {

using util::DayOfWeek;
using util::SimTime;

constexpr double kBootDelaySeconds = 75.0;  // POST + Win2000 startup

}  // namespace

WorkloadDriver::WorkloadDriver(winsim::Fleet& fleet, const CampusConfig& config)
    : fleet_(fleet),
      config_(config),
      owned_profile_(std::make_unique<CampusProfile>(
          CampusProfile::Build(fleet, config))),
      profile_(owned_profile_.get()) {
  Init(0, fleet_.lab_count());
}

WorkloadDriver::WorkloadDriver(winsim::Fleet& fleet, const CampusConfig& config,
                               const CampusProfile& profile,
                               std::size_t lab_begin, std::size_t lab_end)
    : fleet_(fleet), config_(config), profile_(&profile) {
  Init(lab_begin, lab_end);
}

void WorkloadDriver::Init(std::size_t lab_begin, std::size_t lab_end) {
  lab_begin_ = lab_begin;
  lab_end_ = lab_end;
  const auto labs = fleet_.labs();
  first_machine_ = labs[lab_begin_].first;
  machine_end_ = labs[lab_end_ - 1].first + labs[lab_end_ - 1].count;

  labs_.resize(lab_end_ - lab_begin_);
  for (std::size_t l = lab_begin_; l < lab_end_; ++l) {
    Lab(l).rng = util::Rng(
        util::DeriveSeed(config_.seed, util::seed_stream::kLabEvents, l));
  }

  // Per-machine temperament, fixed disk image and short power cycles, all
  // from the machine's own substream: the values depend only on the machine
  // identity, never on which other machines this driver covers.
  const SimTime end = config_.EndTime();
  machines_.resize(machine_end_ - first_machine_);
  for (std::size_t i = first_machine_; i < machine_end_; ++i) {
    util::Rng mrng(
        util::DeriveSeed(config_.seed, util::seed_stream::kMachineTraits, i));
    auto& st = Machine(i);
    const PowerModel& pm = config_.power;
    st.stay_on = mrng.Bernoulli(pm.sticky_fraction)
                     ? mrng.Uniform(pm.sticky_stay_on_lo, pm.sticky_stay_on_hi)
                     : mrng.Uniform(pm.normal_stay_on_lo, pm.normal_stay_on_hi);
    st.disk_image_gb = DiskImageGbFor(fleet_.machine(i).spec().disk_gb) +
                       mrng.Normal(0.0, config_.disk.jitter_gb);
    st.disk_image_gb = std::max(2.0, st.disk_image_gb);
    st.compute_server =
        mrng.Bernoulli(config_.activity.compute_server_fraction);

    // Short power cycles (invisible to 15-min sampling). Busy labs see more
    // of them, and some machines are chronically power-cycled, which spreads
    // the per-machine SMART cycle counts (the paper's sigma = 37). The
    // weight scales by the campus's lab count, not the covered range's, so
    // a lab's draws do not depend on its shard.
    const double lab_weight = profile_->arrival_weight[fleet_.LabOf(i)] *
                              static_cast<double>(fleet_.lab_count());
    const double short_rate = config_.power.short_cycles_per_day * lab_weight *
                              mrng.LogNormalMeanStd(1.0, 0.9);
    for (int day = 0; day < config_.days; ++day) {
      const int cycles = mrng.Poisson(short_rate);
      for (int c = 0; c < cycles; ++c) {
        // Place in the busy part of the day; the handler checks openness.
        const SimTime t =
            util::MakeTime(day, 8) +
            mrng.UniformInt(0, 15 * util::kSecondsPerHour - 1);
        if (t < end) {
          Push(t, EventKind::kShortCycleStart, static_cast<std::uint32_t>(i));
        }
      }
    }
  }

  ScheduleCalendar();
}

void WorkloadDriver::Push(SimTime t, EventKind kind, std::uint32_t index,
                          std::uint64_t gen, SimTime aux, bool flag) {
  queue_.push(Event{t, next_seq_++, kind, index, gen, aux, flag});
}

void WorkloadDriver::ScheduleCalendar() {
  const SimTime end = config_.EndTime();
  const int weeks = (config_.days + 6) / 7;

  // Class blocks, instantiated weekly (only the covered labs' blocks).
  for (int w = 0; w < weeks; ++w) {
    for (std::size_t b = 0; b < profile_->timetable.blocks().size(); ++b) {
      const ClassBlock& block = profile_->timetable.blocks()[b];
      if (block.lab < lab_begin_ || block.lab >= lab_end_) continue;
      const SimTime start = block.StartInWeek(w);
      const SimTime stop = block.EndInWeek(w);
      if (start >= end) continue;
      Push(start, EventKind::kClassStart,
           static_cast<std::uint32_t>(block.lab), 0, stop, block.cpu_heavy);
      Push(std::min(stop, end - 1), EventKind::kClassEnd,
           static_cast<std::uint32_t>(block.lab));
    }
  }

  // Hourly walk-in planners and closing sweeps.
  for (int day = 0; day < config_.days; ++day) {
    for (std::size_t lab = lab_begin_; lab < lab_end_; ++lab) {
      for (int hour = 0; hour < 24; ++hour) {
        Push(util::MakeTime(day, hour), EventKind::kHourPlan,
             static_cast<std::uint32_t>(lab));
      }
      const auto dow = static_cast<DayOfWeek>(day % 7);
      if (!config_.power.sweeps_enabled) continue;
      if (dow == DayOfWeek::kSaturday) {
        // Weekend sweep at Saturday close.
        Push(util::MakeTime(day, config_.hours.saturday_close_hour),
             EventKind::kSweep, static_cast<std::uint32_t>(lab), 0, 0, true);
      } else if (dow != DayOfWeek::kSunday) {
        // Nightly sweep at next-day 04:00 (weekday close).
        const SimTime sweep_t =
            util::MakeTime(day + 1, config_.hours.weekday_close_hour);
        if (sweep_t < end) {
          Push(sweep_t, EventKind::kSweep, static_cast<std::uint32_t>(lab));
        }
      }
    }
  }
}

void WorkloadDriver::AdvanceTo(SimTime t) {
  while (!queue_.empty() && queue_.top().t <= t) {
    const Event e = queue_.top();
    queue_.pop();
    now_ = std::max(now_, e.t);
    ++dispatched_;
    Dispatch(e);
  }
  now_ = std::max(now_, t);
}

void WorkloadDriver::FinishAt(SimTime t) {
  AdvanceTo(t);
  fleet_.AdvanceRangeTo(first_machine_, machine_end_ - first_machine_, t);
}

double WorkloadDriver::StayOnTendency(std::size_t machine) const noexcept {
  return machines_[machine - first_machine_].stay_on;
}

bool WorkloadDriver::IsOpen(SimTime t) const noexcept {
  const auto c = util::ToCivil(t);
  if (c.dow == DayOfWeek::kSunday && !config_.hours.sunday_open) return false;
  if (c.hour >= config_.hours.weekday_close_hour && c.hour < config_.hours.open_hour) {
    return false;  // the 04:00–08:00 daily closure
  }
  if (c.hour >= config_.hours.open_hour) {
    if (c.dow == DayOfWeek::kSaturday) {
      return c.hour < config_.hours.saturday_close_hour;
    }
    return true;
  }
  // 00:00–04:00: spill-over from the previous day's opening.
  switch (c.dow) {
    case DayOfWeek::kMonday:  // Sunday night — closed
    case DayOfWeek::kSunday:  // Saturday closed at 21:00
      return false;
    default:
      return true;
  }
}

double WorkloadDriver::ArrivalRate(std::size_t lab, SimTime t) const noexcept {
  if (!IsOpen(t)) return 0.0;
  const auto c = util::ToCivil(t);
  const ArrivalModel& m = config_.arrivals;
  double factor;
  if (c.hour < 4) {
    factor = m.night_factor;
  } else if (c.hour < 10) {
    factor = m.morning_factor;
  } else if (c.hour < 14) {
    factor = m.midday_factor;
  } else if (c.hour < 18) {
    factor = m.afternoon_factor;
  } else if (c.hour < 22) {
    factor = m.evening_factor;
  } else {
    factor = m.night_factor;
  }
  if (c.dow == DayOfWeek::kSaturday) factor *= m.saturday_factor;
  return m.weekday_peak_per_hour * profile_->arrival_peak_scale * factor *
         profile_->arrival_weight[lab];
}

// ---------------------------------------------------------------------------
// Event dispatch
// ---------------------------------------------------------------------------

void WorkloadDriver::Dispatch(const Event& e) {
  switch (e.kind) {
    case EventKind::kClassStart: OnClassStart(e); break;
    case EventKind::kClassEnd: OnClassEnd(e); break;
    case EventKind::kSeatStart: OnSeatStart(e); break;
    case EventKind::kHourPlan: OnHourPlan(e); break;
    case EventKind::kArrival: OnArrival(e); break;
    case EventKind::kDeferredLogin: OnDeferredLogin(e); break;
    case EventKind::kSessionEnd: OnSessionEnd(e); break;
    case EventKind::kActivityPhase: OnActivityPhase(e); break;
    case EventKind::kAbandonSettle: OnAbandonSettle(e); break;
    case EventKind::kBootSettle: OnBootSettle(e); break;
    case EventKind::kSweep: OnSweep(e); break;
    case EventKind::kShortCycleStart: OnShortCycleStart(e); break;
    case EventKind::kShortCycleEnd: OnShortCycleEnd(e); break;
  }
}

void WorkloadDriver::OnClassStart(const Event& e) {
  const std::size_t lab = e.index;
  util::Rng& rng = Lab(lab).rng;
  Lab(lab).in_class = true;
  const auto& info = fleet_.labs()[lab];
  for (std::size_t i = info.first; i < info.first + info.count; ++i) {
    auto& m = fleet_.machine(i);
    m.AdvanceTo(e.t);
    // Classroom prep: ghost sessions are logged off; live walk-in sessions
    // often stay (the student attends the class or keeps the seat);
    // occasionally a free machine is rebooted (an extra SMART power cycle).
    bool seat_taken = false;
    if (m.powered_on() && m.Session().has_value()) {
      auto& st = Machine(i);
      if (st.sess != SessKind::kForgotten &&
          rng.Bernoulli(config_.timetable.keep_walkin_in_class)) {
        seat_taken = true;
      } else {
        ForceLogout(i, e.t);
      }
    }
    if (m.powered_on() && !seat_taken &&
        rng.Bernoulli(config_.power.class_start_reboot_prob)) {
      ShutdownMachine(i, e.t);
      BootMachine(i, e.t);
      ++truth_.reboots;
    }
    // Enrolled student sits down within the first minutes.
    const double occupancy = e.flag ? config_.timetable.heavy_class_occupancy
                                    : config_.timetable.class_occupancy;
    if (!seat_taken && rng.Bernoulli(occupancy)) {
      const SimTime sit = e.t + rng.UniformInt(0, 7 * 60);
      const SimTime planned_end =
          e.aux + static_cast<SimTime>(rng.Normal(-5.0 * 60.0, 5.0 * 60.0));
      Push(sit, EventKind::kSeatStart, static_cast<std::uint32_t>(i),
           Machine(i).session_gen, std::max(sit + 10 * 60, planned_end),
           e.flag);
    }
  }
}

void WorkloadDriver::OnClassEnd(const Event& e) {
  Lab(e.index).in_class = false;
}

void WorkloadDriver::OnSeatStart(const Event& e) {
  const std::size_t i = e.index;
  auto& m = fleet_.machine(i);
  m.AdvanceTo(e.t);
  if (m.powered_on() && m.Session().has_value()) return;  // already taken
  if (!m.powered_on()) BootMachine(i, e.t);
  LoginMachine(i, e.t, SessKind::kClass, e.aux, e.flag);
}

void WorkloadDriver::OnHourPlan(const Event& e) {
  const double rate = ArrivalRate(e.index, e.t);
  if (rate <= 0.0) return;
  util::Rng& rng = Lab(e.index).rng;
  const int n = rng.Poisson(rate);
  for (int k = 0; k < n; ++k) {
    Push(e.t + rng.UniformInt(0, util::kSecondsPerHour - 1),
         EventKind::kArrival, e.index);
  }
}

void WorkloadDriver::OnArrival(const Event& e) {
  const std::size_t lab = e.index;
  if (!IsOpen(e.t)) return;
  if (Lab(lab).in_class) {
    ++truth_.lost_arrivals;
    return;
  }
  util::Rng& rng = Lab(lab).rng;
  const auto& info = fleet_.labs()[lab];
  // Prefer a free powered-on machine; otherwise power one on; as a last
  // resort, take over a machine abandoned with a forgotten session.
  std::vector<std::size_t> on_free;
  std::vector<std::size_t> off;
  std::vector<std::size_t> ghosts;
  for (std::size_t i = info.first; i < info.first + info.count; ++i) {
    auto& m = fleet_.machine(i);
    if (!m.powered_on()) {
      off.push_back(i);
    } else if (!m.Session().has_value()) {
      on_free.push_back(i);
    } else if (Machine(i).sess == SessKind::kForgotten) {
      ghosts.push_back(i);
    }
  }
  const ArrivalModel& am = config_.arrivals;
  double minutes;
  if (rng.Bernoulli(am.long_stay_prob)) {
    minutes = 60.0 * rng.Uniform(am.long_stay_hours_lo, am.long_stay_hours_hi);
  } else {
    minutes = std::min(am.session_minutes_cap,
                       rng.LogNormalMeanStd(am.session_minutes_mean,
                                            am.session_minutes_sigma));
  }
  const auto length = static_cast<SimTime>(
      std::max(120.0, minutes * static_cast<double>(util::kSecondsPerMinute)));
  if (config_.arrivals.prefer_off_machines && !off.empty()) {
    const std::size_t i = off[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(off.size()) - 1))];
    fleet_.machine(i).AdvanceTo(e.t);
    BootMachine(i, e.t);
    Push(e.t + static_cast<SimTime>(kBootDelaySeconds),
         EventKind::kDeferredLogin, static_cast<std::uint32_t>(i),
         Machine(i).power_gen, e.t + length, false);
  } else if (!on_free.empty()) {
    const std::size_t i = on_free[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(on_free.size()) - 1))];
    fleet_.machine(i).AdvanceTo(e.t);
    LoginMachine(i, e.t, SessKind::kWalkin, e.t + length, false);
  } else if (!off.empty()) {
    const std::size_t i = off[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(off.size()) - 1))];
    fleet_.machine(i).AdvanceTo(e.t);
    BootMachine(i, e.t);
    Push(e.t + static_cast<SimTime>(kBootDelaySeconds),
         EventKind::kDeferredLogin, static_cast<std::uint32_t>(i),
         Machine(i).power_gen, e.t + length, false);
  } else if (!ghosts.empty()) {
    const std::size_t i = ghosts[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(ghosts.size()) - 1))];
    fleet_.machine(i).AdvanceTo(e.t);
    ForceLogout(i, e.t);  // the ghost session is finally logged off
    LoginMachine(i, e.t, SessKind::kWalkin, e.t + length, false);
  } else {
    ++truth_.lost_arrivals;
  }
}

void WorkloadDriver::OnDeferredLogin(const Event& e) {
  const std::size_t i = e.index;
  auto& m = fleet_.machine(i);
  if (!m.powered_on() || Machine(i).power_gen != e.gen) return;
  m.AdvanceTo(e.t);
  if (m.Session().has_value()) return;
  LoginMachine(i, e.t, SessKind::kWalkin, e.aux, false);
}

void WorkloadDriver::OnSessionEnd(const Event& e) {
  const std::size_t i = e.index;
  auto& st = Machine(i);
  if (st.session_gen != e.gen) return;  // stale
  auto& m = fleet_.machine(i);
  if (!m.powered_on() || !m.Session().has_value()) return;
  m.AdvanceTo(e.t);

  util::Rng& rng = EventRng(i);
  const SessKind kind = st.sess;
  if (rng.Bernoulli(ForgetProb(kind))) {
    // The user walks away without logging out: the session persists, the
    // residual activity dies down after a short tail (§4.2, Figure 2).
    st.sess = SessKind::kForgotten;
    ++truth_.forgotten_sessions;
    const double tail_s =
        rng.Exponential(config_.forgotten.abandon_tail_minutes * 60.0);
    Push(e.t + static_cast<SimTime>(std::max(30.0, tail_s)),
         EventKind::kAbandonSettle, static_cast<std::uint32_t>(i),
         st.session_gen);
    return;
  }

  ForceLogout(i, e.t);
  const auto hour = util::ToCivil(e.t).hour;
  const bool evening =
      hour >= config_.power.evening_hour || hour < config_.hours.open_hour;
  // The machine's stay-on tendency (lab signage, teacher boxes) damps the
  // user's inclination to power it off.
  const double off_prob =
      (evening ? config_.power.off_after_evening : OffProb(kind)) *
      (1.0 - Machine(i).stay_on);
  if (rng.Bernoulli(off_prob)) {
    ShutdownMachine(i, e.t);
  }
}

void WorkloadDriver::OnActivityPhase(const Event& e) {
  const std::size_t i = e.index;
  auto& st = Machine(i);
  if (st.session_gen != e.gen) return;  // stale
  auto& m = fleet_.machine(i);
  if (!m.powered_on() || !m.Session().has_value()) return;
  if (st.sess == SessKind::kNone) return;
  m.AdvanceTo(e.t);

  util::Rng& rng = EventRng(i);
  const ActivityModel& am = config_.activity;
  const NetworkModel& nm = config_.network;
  const double busy = DrawPhaseBusy(rng, st.heavy);
  m.SetCpuBusyFraction(am.background_busy + busy);

  double recv_bps;
  double sent_bps;
  if (st.heavy) {
    // The CPU-heavy practical computes locally; traffic stays modest.
    recv_bps = rng.Uniform(1500.0, 8000.0);
    sent_bps = recv_bps * rng.Uniform(0.2, 0.5);
  } else if (busy < 0.05) {
    // Reading/thinking: near-background traffic.
    recv_bps = nm.background_recv_bps * rng.Uniform(1.0, 4.0);
    sent_bps = nm.background_sent_bps * rng.Uniform(1.0, 3.0);
  } else {
    recv_bps = rng.LogNormalMeanStd(nm.active_recv_bps_mean,
                                    nm.active_recv_bps_sigma);
    sent_bps =
        recv_bps * rng.Uniform(nm.active_sent_ratio_lo, nm.active_sent_ratio_hi);
  }
  m.SetNetRates(sent_bps, recv_bps);

  const double phase_s = rng.Exponential(am.phase_minutes_mean * 60.0);
  Push(e.t + static_cast<SimTime>(std::max(20.0, phase_s)),
       EventKind::kActivityPhase, static_cast<std::uint32_t>(i),
       st.session_gen);
}

void WorkloadDriver::OnAbandonSettle(const Event& e) {
  const std::size_t i = e.index;
  auto& st = Machine(i);
  if (st.session_gen != e.gen) return;
  if (st.sess != SessKind::kForgotten) return;
  auto& m = fleet_.machine(i);
  if (!m.powered_on()) return;
  m.AdvanceTo(e.t);
  // Kill pending activity events; the login session itself stays open.
  ++st.session_gen;
  ApplyIdleRates(i);
}

void WorkloadDriver::OnBootSettle(const Event& e) {
  const std::size_t i = e.index;
  if (Machine(i).power_gen != e.gen) return;
  auto& m = fleet_.machine(i);
  if (!m.powered_on()) return;
  m.AdvanceTo(e.t);
  if (!m.Session().has_value()) ApplyIdleRates(i);
}

void WorkloadDriver::OnSweep(const Event& e) {
  const std::size_t lab = e.index;
  util::Rng& rng = Lab(lab).rng;
  const PowerModel& pm = config_.power;
  const double floor = e.flag ? pm.weekend_kill_floor : pm.sweep_kill_floor;
  const double scale = e.flag ? pm.weekend_kill_scale : pm.sweep_kill_scale;
  const auto& info = fleet_.labs()[lab];
  for (std::size_t i = info.first; i < info.first + info.count; ++i) {
    auto& m = fleet_.machine(i);
    if (!m.powered_on()) continue;
    m.AdvanceTo(e.t);
    auto& st = Machine(i);
    // Anyone still working at closing time is shooed out: the session
    // either ends properly or is left open (and becomes a forgotten one
    // that survives as long as the machine does). Staff powers machines
    // off, but does not log ghost sessions off machines it leaves running.
    if (m.Session().has_value() && st.sess != SessKind::kForgotten) {
      if (rng.Bernoulli(config_.forgotten.forget_prob_at_close)) {
        st.sess = SessKind::kForgotten;
        ++st.session_gen;  // cancels pending session/activity events
        ++truth_.forgotten_sessions;
        ApplyIdleRates(i);
      } else {
        ForceLogout(i, e.t);
      }
    }
    double kill = floor + scale * (1.0 - st.stay_on);
    if (st.sess == SessKind::kForgotten) {
      kill *= config_.power.ghost_kill_multiplier;
    }
    if (rng.Bernoulli(kill)) {
      ShutdownMachine(i, e.t);
      ++truth_.sweep_shutdowns;
    }
  }
}

void WorkloadDriver::OnShortCycleStart(const Event& e) {
  const std::size_t i = e.index;
  auto& m = fleet_.machine(i);
  if (m.powered_on()) return;
  if (!IsOpen(e.t)) return;
  const std::size_t lab = fleet_.LabOf(i);
  if (Lab(lab).in_class) return;
  m.AdvanceTo(e.t);
  BootMachine(i, e.t);
  ++truth_.short_cycles;
  util::Rng& rng = Lab(lab).rng;
  const double minutes = rng.Uniform(config_.power.short_cycle_minutes_lo,
                                     config_.power.short_cycle_minutes_hi);
  Push(e.t + static_cast<SimTime>(minutes * 60.0), EventKind::kShortCycleEnd,
       static_cast<std::uint32_t>(i), Machine(i).power_gen);
}

void WorkloadDriver::OnShortCycleEnd(const Event& e) {
  const std::size_t i = e.index;
  if (Machine(i).power_gen != e.gen) return;
  auto& m = fleet_.machine(i);
  if (!m.powered_on() || m.Session().has_value()) return;
  m.AdvanceTo(e.t);
  ShutdownMachine(i, e.t);
}

// ---------------------------------------------------------------------------
// Machine manipulation
// ---------------------------------------------------------------------------

void WorkloadDriver::BootMachine(std::size_t i, SimTime t) {
  auto& m = fleet_.machine(i);
  auto& st = Machine(i);
  util::Rng& rng = EventRng(i);
  m.Boot(t);
  ++st.power_gen;
  ++truth_.boots;
  if (observer_ != nullptr) observer_->OnBoot(i, t);

  const auto& spec = m.spec();
  const MemoryModel& mm = config_.memory;
  double base_mem;
  double base_swap;
  if (spec.ram_mb >= 512) {
    base_mem = mm.base_load_512mb;
    base_swap = mm.swap_base_512mb;
  } else if (spec.ram_mb >= 256) {
    base_mem = mm.base_load_256mb;
    base_swap = mm.swap_base_256mb;
  } else {
    base_mem = mm.base_load_128mb;
    base_swap = mm.swap_base_128mb;
  }
  st.base_mem = std::clamp(base_mem + rng.Normal(0.0, mm.base_jitter), 5.0, 95.0);
  st.base_swap =
      std::clamp(base_swap + rng.Normal(0.0, mm.swap_jitter), 2.0, 90.0);
  st.app_mem_points = 0.0;
  st.app_swap_points = 0.0;
  st.temp_disk_bytes = 0.0;
  st.sess = SessKind::kNone;
  st.heavy = false;

  m.SetMemLoadPercent(st.base_mem);
  m.SetSwapLoadPercent(st.base_swap);
  m.SetDiskUsedBytes(static_cast<std::uint64_t>(st.disk_image_gb * 1e9));

  // Boot burst, then settle to the idle baseline.
  m.SetCpuBusyFraction(config_.activity.boot_busy);
  const NetworkModel& nm = config_.network;
  m.SetNetRates(nm.background_sent_bps * 2.5, nm.background_recv_bps * 3.0);
  Push(t + static_cast<SimTime>(config_.activity.boot_busy_seconds),
       EventKind::kBootSettle, static_cast<std::uint32_t>(i), st.power_gen);
}

void WorkloadDriver::ShutdownMachine(std::size_t i, SimTime t) {
  auto& m = fleet_.machine(i);
  auto& st = Machine(i);
  m.Shutdown(t);
  ++st.power_gen;
  ++st.session_gen;
  st.sess = SessKind::kNone;
  ++truth_.shutdowns;
  // A shutdown implies the end of any interactive session; observers get
  // only the shutdown (the stronger signal).
  if (observer_ != nullptr) observer_->OnShutdown(i, t);
}

void WorkloadDriver::LoginMachine(std::size_t i, SimTime t, SessKind kind,
                                  SimTime planned_end, bool heavy) {
  auto& m = fleet_.machine(i);
  auto& st = Machine(i);
  if (m.Session().has_value()) return;

  // Lab-scoped account names: the per-lab sequence keeps a lab's user ids
  // independent of campus-wide login interleaving (shard invariance).
  const std::size_t lab = fleet_.LabOf(i);
  util::Rng& rng = Lab(lab).rng;
  char user[32];
  std::snprintf(user, sizeof user, "a%03llu%05llu",
                static_cast<unsigned long long>(lab),
                static_cast<unsigned long long>(Lab(lab).next_student++));
  m.Login(user, t);
  ++st.session_gen;
  st.sess = kind;
  st.heavy = heavy;
  if (observer_ != nullptr) observer_->OnLogin(i, t);
  if (kind == SessKind::kClass) {
    ++truth_.class_logins;
  } else {
    ++truth_.walkin_logins;
  }

  const MemoryModel& mm = config_.memory;
  const double app_mb =
      std::max(15.0, rng.Normal(mm.app_mb_mean, mm.app_mb_sigma));
  st.app_mem_points = app_mb / m.spec().ram_mb * 100.0;
  st.app_swap_points =
      mm.swap_app_points_mean * (256.0 / m.spec().ram_mb) *
      rng.Uniform(0.6, 1.4);
  m.SetMemLoadPercent(std::min(95.0, st.base_mem + st.app_mem_points));
  m.SetSwapLoadPercent(std::min(90.0, st.base_swap + st.app_swap_points));

  st.temp_disk_bytes = rng.Uniform(config_.disk.student_temp_mb_lo,
                                   config_.disk.student_temp_mb_hi) *
                       1e6;
  m.SetDiskUsedBytes(static_cast<std::uint64_t>(st.disk_image_gb * 1e9 +
                                                st.temp_disk_bytes));

  const SimTime end = std::max(planned_end, t + 2 * util::kSecondsPerMinute);
  Push(end, EventKind::kSessionEnd, static_cast<std::uint32_t>(i),
       st.session_gen);
  Push(t + 5, EventKind::kActivityPhase, static_cast<std::uint32_t>(i),
       st.session_gen);
}

void WorkloadDriver::ForceLogout(std::size_t i, SimTime t) {
  auto& m = fleet_.machine(i);
  auto& st = Machine(i);
  if (!m.powered_on()) return;
  m.AdvanceTo(t);
  if (!m.Session().has_value()) return;
  m.Logout();
  ++st.session_gen;
  st.sess = SessKind::kNone;
  st.heavy = false;
  st.app_mem_points = 0.0;
  st.app_swap_points = 0.0;
  // Local temp area is cleaned at logout (usage policy, §5).
  st.temp_disk_bytes = 0.0;
  m.SetMemLoadPercent(st.base_mem);
  m.SetSwapLoadPercent(st.base_swap);
  m.SetDiskUsedBytes(static_cast<std::uint64_t>(st.disk_image_gb * 1e9));
  ApplyIdleRates(i);
  if (observer_ != nullptr) observer_->OnLogout(i, t);
}

void WorkloadDriver::ApplyIdleRates(std::size_t i) {
  auto& m = fleet_.machine(i);
  util::Rng& rng = EventRng(i);
  const NetworkModel& nm = config_.network;
  if (Machine(i).compute_server) {
    // A compute box crunches whenever it is powered on ("some of the
    // machines presented a continuous 100% CPU usage", §5 / Bolosky).
    m.SetCpuBusyFraction(rng.Uniform(config_.activity.compute_server_busy_lo,
                                     config_.activity.compute_server_busy_hi));
  } else {
    m.SetCpuBusyFraction(config_.activity.background_busy *
                         rng.Uniform(0.7, 1.5));
  }
  m.SetNetRates(
      nm.background_sent_bps * (1.0 + rng.Normal(0.0, nm.background_jitter)),
      nm.background_recv_bps * (1.0 + rng.Normal(0.0, nm.background_jitter)));
}

double WorkloadDriver::DiskImageGbFor(double disk_gb) const noexcept {
  const DiskModel& dm = config_.disk;
  if (disk_gb >= 70.0) return dm.image_gb_large;
  if (disk_gb >= 50.0) return dm.image_gb_medium;
  if (disk_gb >= 30.0) return dm.image_gb_small;
  if (disk_gb >= 17.0) return dm.image_gb_tiny;
  return dm.image_gb_mini;
}

double WorkloadDriver::DrawPhaseBusy(util::Rng& rng, bool heavy_session) {
  const ActivityModel& am = config_.activity;
  if (heavy_session) {
    return rng.Uniform(am.heavy_class_busy_lo, am.heavy_class_busy_hi);
  }
  const double u = rng.Uniform();
  if (u < am.light_prob) {
    return rng.Uniform(am.light_busy_lo, am.light_busy_hi);
  }
  if (u < am.light_prob + am.medium_prob) {
    return rng.Uniform(am.medium_busy_lo, am.medium_busy_hi);
  }
  return rng.Uniform(am.heavy_busy_lo, am.heavy_busy_hi);
}

double WorkloadDriver::ForgetProb(SessKind kind) const noexcept {
  switch (kind) {
    case SessKind::kWalkin: return config_.forgotten.forget_prob_walkin;
    case SessKind::kClass: return config_.forgotten.forget_prob_class;
    default: return 0.0;
  }
}

double WorkloadDriver::OffProb(SessKind kind) const noexcept {
  switch (kind) {
    case SessKind::kWalkin: return config_.power.off_after_walkin;
    case SessKind::kClass: return config_.power.off_after_class;
    default: return 0.0;
  }
}

}  // namespace labmon::workload
