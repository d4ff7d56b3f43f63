// WorkloadDriver — the discrete-event behavioural engine.
//
// Drives a winsim::Fleet through the experiment: weekly class timetables,
// walk-in student arrivals, interactive activity phases, forgotten logouts,
// night closing sweeps, short power cycles and boot bursts. The DDC
// coordinator co-simulates by calling `AdvanceTo(t)` before probing, so
// machine state is always consistent with the behavioural history at every
// sample instant.
//
// Sharding: a driver can cover the whole campus (the classic constructor)
// or any contiguous lab range sharing a precomputed CampusProfile. Labs are
// behaviourally closed systems — classes, arrivals, sweeps, short cycles and
// sessions never cross a lab boundary — and every stochastic draw comes from
// a per-lab or per-machine substream (util::DeriveSeed), so a lab's history
// is bit-identical whether it is simulated alone, with its shard, or with
// the whole campus.
#pragma once

#include <cstdint>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "labmon/util/rng.hpp"
#include "labmon/util/time.hpp"
#include "labmon/winsim/fleet.hpp"
#include "labmon/workload/config.hpp"
#include "labmon/workload/profile.hpp"
#include "labmon/workload/timetable.hpp"

namespace labmon::workload {

/// Counters of what "really happened" — ground truth the sampling-based
/// analyses can be validated against (e.g. §5.2.2's invisible short cycles).
struct GroundTruth {
  std::uint64_t boots = 0;
  std::uint64_t shutdowns = 0;
  std::uint64_t reboots = 0;
  std::uint64_t short_cycles = 0;
  std::uint64_t class_logins = 0;
  std::uint64_t walkin_logins = 0;
  std::uint64_t forgotten_sessions = 0;
  std::uint64_t lost_arrivals = 0;
  std::uint64_t sweep_shutdowns = 0;

  [[nodiscard]] std::uint64_t TotalLogins() const noexcept {
    return class_logins + walkin_logins;
  }

  GroundTruth& operator+=(const GroundTruth& other) noexcept {
    boots += other.boots;
    shutdowns += other.shutdowns;
    reboots += other.reboots;
    short_cycles += other.short_cycles;
    class_logins += other.class_logins;
    walkin_logins += other.walkin_logins;
    forgotten_sessions += other.forgotten_sessions;
    lost_arrivals += other.lost_arrivals;
    sweep_shutdowns += other.sweep_shutdowns;
    return *this;
  }
};

/// Observer of machine-level behavioural transitions, invoked synchronously
/// from AdvanceTo at the exact event instants. This is the interactive-
/// session eviction signal of the harvest layer: a scavenger that merely
/// polls machine state on its scheduler period would miss sessions and
/// power cycles shorter than a step (the §5.2.2 "invisible" short cycles),
/// while a hook sees every one. Callbacks must not mutate the fleet or the
/// driver. Default implementations do nothing, so observers override only
/// the transitions they care about.
class MachineObserver {
 public:
  virtual ~MachineObserver() = default;
  virtual void OnBoot(std::size_t machine, util::SimTime t) {
    (void)machine;
    (void)t;
  }
  virtual void OnShutdown(std::size_t machine, util::SimTime t) {
    (void)machine;
    (void)t;
  }
  virtual void OnLogin(std::size_t machine, util::SimTime t) {
    (void)machine;
    (void)t;
  }
  virtual void OnLogout(std::size_t machine, util::SimTime t) {
    (void)machine;
    (void)t;
  }
};

class WorkloadDriver {
 public:
  /// Whole-campus driver. The fleet must outlive the driver. All machines
  /// must be powered off and at time 0. Builds its own CampusProfile.
  WorkloadDriver(winsim::Fleet& fleet, const CampusConfig& config);

  /// Shard driver covering labs [lab_begin, lab_end). `profile` must cover
  /// the whole fleet and outlive the driver; events, machine stepping and
  /// ground truth are confined to the range's machines.
  WorkloadDriver(winsim::Fleet& fleet, const CampusConfig& config,
                 const CampusProfile& profile, std::size_t lab_begin,
                 std::size_t lab_end);

  WorkloadDriver(const WorkloadDriver&) = delete;
  WorkloadDriver& operator=(const WorkloadDriver&) = delete;

  /// Processes every behavioural event with timestamp <= t. Monotone.
  void AdvanceTo(util::SimTime t);

  /// Advances to `t` and integrates the range's machine counters to `t`
  /// (call once at the end of the experiment).
  void FinishAt(util::SimTime t);

  [[nodiscard]] const Timetable& timetable() const noexcept {
    return profile_->timetable;
  }
  [[nodiscard]] const GroundTruth& ground_truth() const noexcept {
    return truth_;
  }
  [[nodiscard]] const CampusConfig& config() const noexcept { return config_; }
  [[nodiscard]] util::SimTime now() const noexcept { return now_; }
  /// Behavioural events dispatched so far (micro-benchmark counter).
  [[nodiscard]] std::uint64_t dispatched_events() const noexcept {
    return dispatched_;
  }

  /// Installs (or, with nullptr, removes) the transition observer. The
  /// observer must outlive the driver or be removed first; it never affects
  /// the behavioural simulation (no RNG draws, no state changes).
  void SetObserver(MachineObserver* observer) noexcept { observer_ = observer; }

  /// Per-machine behavioural temperament (tests & ablations). `machine` is
  /// a fleet-global id inside the driver's range.
  [[nodiscard]] double StayOnTendency(std::size_t machine) const noexcept;

  /// Walk-in arrival rate (students/hour) for a lab at an instant — exposed
  /// for tests of the intensity shape.
  [[nodiscard]] double ArrivalRate(std::size_t lab, util::SimTime t) const noexcept;

  /// True when the classrooms are open at `t` (§4.2 opening policy).
  [[nodiscard]] bool IsOpen(util::SimTime t) const noexcept;

 private:
  enum class EventKind : std::uint8_t {
    kClassStart,
    kClassEnd,
    kSeatStart,
    kHourPlan,
    kArrival,
    kDeferredLogin,
    kSessionEnd,
    kActivityPhase,
    kAbandonSettle,
    kBootSettle,
    kSweep,
    kShortCycleStart,
    kShortCycleEnd,
  };

  struct Event {
    util::SimTime t = 0;
    std::uint64_t seq = 0;  ///< FIFO tie-break for determinism
    EventKind kind{};
    std::uint32_t index = 0;     ///< lab or machine index (fleet-global)
    std::uint64_t gen = 0;       ///< generation tag (stale-event filter)
    util::SimTime aux = 0;       ///< e.g. planned session end
    bool flag = false;           ///< e.g. cpu-heavy / weekend sweep
  };

  struct EventLater {
    bool operator()(const Event& a, const Event& b) const noexcept {
      return a.t != b.t ? a.t > b.t : a.seq > b.seq;
    }
  };

  enum class SessKind : std::uint8_t { kNone, kWalkin, kClass, kForgotten };

  struct MachineState {
    std::uint64_t power_gen = 0;
    std::uint64_t session_gen = 0;
    SessKind sess = SessKind::kNone;
    bool heavy = false;
    double stay_on = 0.0;            ///< resists sweeps when high
    bool compute_server = false;     ///< crunches 100% CPU whenever on
    double disk_image_gb = 0.0;      ///< OS+software image (fixed)
    double base_mem = 0.0;           ///< drawn per boot
    double base_swap = 0.0;
    double app_mem_points = 0.0;     ///< while a session's apps are open
    double app_swap_points = 0.0;
    double temp_disk_bytes = 0.0;    ///< student temp area
  };

  struct LabState {
    /// The lab's event-time stream (substream kLabEvents).
    util::Rng rng;
    /// Login sequence for synthetic usernames ("a<lab><seq>"), so a lab's
    /// user names do not depend on campus-wide login interleaving.
    std::uint64_t next_student = 1;
    bool in_class = false;
  };

  void Init(std::size_t lab_begin, std::size_t lab_end);

  /// State of a covered machine or lab, by fleet-global id: events and
  /// observers speak fleet-global ids, the state is sized to the range.
  [[nodiscard]] MachineState& Machine(std::size_t i) noexcept {
    return machines_[i - first_machine_];
  }
  [[nodiscard]] LabState& Lab(std::size_t lab) noexcept {
    return labs_[lab - lab_begin_];
  }

  /// The event-time stream of the lab a machine belongs to. Every draw a
  /// handler makes for machine `i` must come from here, so a lab's draw
  /// sequence is independent of which other labs this driver covers.
  [[nodiscard]] util::Rng& EventRng(std::size_t machine) noexcept {
    return Lab(fleet_.LabOf(machine)).rng;
  }

  // -- scheduling helpers --------------------------------------------------
  void Push(util::SimTime t, EventKind kind, std::uint32_t index,
            std::uint64_t gen = 0, util::SimTime aux = 0, bool flag = false);
  void ScheduleCalendar();

  // -- event handlers --------------------------------------------------
  void Dispatch(const Event& e);
  void OnClassStart(const Event& e);
  void OnClassEnd(const Event& e);
  void OnSeatStart(const Event& e);
  void OnHourPlan(const Event& e);
  void OnArrival(const Event& e);
  void OnDeferredLogin(const Event& e);
  void OnSessionEnd(const Event& e);
  void OnActivityPhase(const Event& e);
  void OnAbandonSettle(const Event& e);
  void OnBootSettle(const Event& e);
  void OnSweep(const Event& e);
  void OnShortCycleStart(const Event& e);
  void OnShortCycleEnd(const Event& e);

  // -- machine manipulation -------------------------------------------
  void BootMachine(std::size_t i, util::SimTime t);
  void ShutdownMachine(std::size_t i, util::SimTime t);
  void LoginMachine(std::size_t i, util::SimTime t, SessKind kind,
                    util::SimTime planned_end, bool heavy);
  void ForceLogout(std::size_t i, util::SimTime t);
  void ApplyIdleRates(std::size_t i);
  [[nodiscard]] double DiskImageGbFor(double disk_gb) const noexcept;
  [[nodiscard]] double DrawPhaseBusy(util::Rng& rng, bool heavy_session);
  [[nodiscard]] double ForgetProb(SessKind kind) const noexcept;
  [[nodiscard]] double OffProb(SessKind kind) const noexcept;

  winsim::Fleet& fleet_;
  CampusConfig config_;
  std::unique_ptr<CampusProfile> owned_profile_;  ///< whole-campus ctor only
  const CampusProfile* profile_;
  std::size_t lab_begin_ = 0;
  std::size_t lab_end_ = 0;        ///< exclusive
  std::size_t first_machine_ = 0;
  std::size_t machine_end_ = 0;    ///< exclusive
  std::priority_queue<Event, std::vector<Event>, EventLater> queue_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  util::SimTime now_ = 0;
  /// Sized to the covered range, so a one-lab driver holds O(lab), not
  /// O(fleet): machines_[i - first_machine_], labs_[lab - lab_begin_].
  std::vector<MachineState> machines_;
  std::vector<LabState> labs_;
  GroundTruth truth_;
  MachineObserver* observer_ = nullptr;
};

}  // namespace labmon::workload
