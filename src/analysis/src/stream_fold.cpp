#include "labmon/analysis/stream_fold.hpp"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "labmon/obs/prof.hpp"

namespace labmon::analysis {

namespace {

/// TraceStore::Classify over loose values (the streamed sample's columns).
[[nodiscard]] trace::LoginClass ClassifyValue(bool has_session,
                                              std::int64_t session_s,
                                              std::int64_t threshold_s) {
  if (!has_session) return trace::LoginClass::kNoLogin;
  return session_s >= threshold_s ? trace::LoginClass::kForgotten
                                  : trace::LoginClass::kWithLogin;
}

/// trace::ClassifyInterval over endpoint classes: the closing sample
/// decides, unless the opening one shows an occupied machine.
[[nodiscard]] trace::LoginClass IntervalClass(trace::LoginClass a,
                                              trace::LoginClass b) {
  if (b == trace::LoginClass::kWithLogin) return b;
  return a == trace::LoginClass::kWithLogin ? a : b;
}

/// ConsumeRing's stream-hash thread: Start() hands it one block and the
/// hash so far, Wait() returns the hash chained through the block. It
/// holds one block at a time, so the FNV chain runs in stream order. The
/// destructor finishes a started block before it joins, so the block
/// must outlive the hasher.
class BlockHasher {
 public:
  BlockHasher() : thread_([this] { Run(); }) {}
  BlockHasher(const BlockHasher&) = delete;
  BlockHasher& operator=(const BlockHasher&) = delete;
  ~BlockHasher() {
    {
      const std::scoped_lock lock(mutex_);
      stop_ = true;
    }
    wake_.notify_one();
    thread_.join();
  }

  void Start(std::uint64_t hash, const trace::TraceBlock& block) {
    {
      const std::scoped_lock lock(mutex_);
      hash_ = hash;
      block_ = &block;
    }
    wake_.notify_one();
  }

  [[nodiscard]] std::uint64_t Wait() {
    std::unique_lock lock(mutex_);
    done_.wait(lock, [&] { return block_ == nullptr; });
    return hash_;
  }

 private:
  void Run() {
    std::unique_lock lock(mutex_);
    for (;;) {
      wake_.wait(lock, [&] { return block_ != nullptr || stop_; });
      if (block_ == nullptr) return;
      const trace::TraceBlock& block = *block_;
      const std::uint64_t seed = hash_;
      lock.unlock();
      const std::uint64_t hash = trace::HashBlockSamples(seed, block);
      lock.lock();
      hash_ = hash;
      block_ = nullptr;
      done_.notify_one();
    }
  }

  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  const trace::TraceBlock* block_ = nullptr;
  bool stop_ = false;
  std::uint64_t hash_ = 0;
  std::thread thread_;  // last: it reads every member above
};

}  // namespace

/// Per-machine cursor + the per-pass accumulators the materialised sweep
/// builds per machine, O(machines) and independent of trace length. The
/// weekly acc is a view into the fold's fleet-wide weekly_bins_ (31.5 KiB
/// per machine), the rest is ~3 KB per machine.
struct StreamingAnalysis::MachineState {
  MachineState(const StreamingAnalysisConfig& cfg,
               WeeklyPass::MachineAcc::Bin* weekly_base)
      : hours(static_cast<std::size_t>(cfg.session_hours_max) + 1),
        weekly(cfg.bin_minutes, weekly_base, cfg.machine_count) {}

  // Interval-emission cursor (previous sample of this machine).
  trace::IntervalEndpoint prev;
  bool has_prev = false;
  trace::LoginClass prev_cls = trace::LoginClass::kNoLogin;
  trace::LoginClass prev_cls_eq = trace::LoginClass::kNoLogin;

  // Session state machine (mirrors trace::AppendMachineSessions).
  bool session_open = false;
  std::int64_t open_boot_time = 0;
  std::int64_t open_last_uptime_s = 0;

  AggregatePass::MachineAcc agg;
  AvailabilityPass::MachineAcc avail;
  SessionHoursPass::MachineAcc hours;
  WeeklyPass::MachineAcc weekly;
  StabilityPass::MachineAcc stab;
  PerLabPass::MachineAcc lab;
};

StreamingAnalysis::StreamingAnalysis(StreamingAnalysisConfig config)
    : config_(std::move(config)),
      agg_pass_(config_.intervals),
      avail_pass_(config_.intervals.forgotten_threshold_s),
      hours_pass_(config_.session_hours_max),
      weekly_pass_(config_.bin_minutes),
      eq_pass_(config_.perf_index, config_.bin_minutes,
               config_.equivalence_threshold_s),
      stab_pass_(config_.experiment_days),
      lab_pass_(config_.labs, config_.intervals.forgotten_threshold_s),
      cap_pass_(config_.capacity) {
  // Bin-major, machine-minor: bin i of machine m is
  // weekly_bins_[i * machine_count + m].
  weekly_bins_.resize(WeeklyPass::MachineAcc::BinCount(config_.bin_minutes) *
                      config_.machine_count);
  machines_.reserve(config_.machine_count);
  for (std::size_t m = 0; m < config_.machine_count; ++m) {
    machines_.emplace_back(config_, weekly_bins_.data() + m);
  }
  slots_.resize(config_.machine_count);
  entries_.reserve(config_.machine_count);
}

StreamingAnalysis::~StreamingAnalysis() = default;

std::uint64_t StreamingAnalysis::ConsumeRing(
    util::StagingRing<trace::TraceBlock>& ring,
    util::RecyclingPool<trace::TraceBlock>* recycle,
    std::uint64_t hash_seed) {
  obs::prof::PhaseScope prof_scope(obs::prof::Phase::kFold);
  std::uint64_t hash = hash_seed;
  trace::TraceBlock block;
  // Declared after `block`: on every exit, an exception out of Accept
  // included, the hasher finishes the block it holds and joins first.
  BlockHasher hasher;
  while (ring.Pop(block)) {
    // Blocks queued behind this one mean the fold is the slow stage: the
    // helper then takes the hash off it. A fold that keeps up hashes
    // inline and adds no runnable thread beside the stages ahead of it.
    if (ring.size() > 0) {
      hasher.Start(hash, block);
      Accept(block);
      hash = hasher.Wait();
    } else {
      hash = trace::HashBlockSamples(hash, block);
      Accept(block);
    }
    if (recycle != nullptr) {
      block.Clear();
      recycle->Release(std::move(block));
    }
  }
  return hash;
}

void StreamingAnalysis::Accept(const trace::TraceBlock& block) {
  const trace::TraceStore::Columns& c = block.cols;
  for (std::size_t i = 0; i < block.size(); ++i) {
    const std::uint32_t m = c.machine[i];
    if (m >= machines_.size()) continue;
    const std::uint64_t it = c.iteration[i];
    if (iteration_open_ && it != current_iteration_) CloseIteration();
    current_iteration_ = it;
    iteration_open_ = true;

    MachineState& ms = machines_[m];
    const std::int64_t t = c.t[i];
    const std::int64_t boot = c.boot_time[i];
    const std::int64_t uptime = c.uptime_s[i];
    const bool has_session = c.has_session[i] != 0;
    const std::int64_t session_s = has_session ? t - c.session_logon[i] : 0;
    const trace::LoginClass cls = ClassifyValue(
        has_session, session_s, config_.intervals.forgotten_threshold_s);
    const trace::LoginClass cls_eq =
        ClassifyValue(has_session, session_s, config_.equivalence_threshold_s);

    // Session state machine: a changed boot epoch or shrinking uptime
    // closes the open session and opens a new one.
    if (!ms.session_open || boot != ms.open_boot_time ||
        uptime < ms.open_last_uptime_s) {
      if (ms.session_open) {
        ms.avail.AddSession(ms.open_last_uptime_s);
        ms.stab.AddSession(ms.open_last_uptime_s);
      }
      ms.session_open = true;
      ms.open_boot_time = boot;
    }
    ms.open_last_uptime_s = uptime;

    // Interval between this sample and the machine's previous one — the
    // same emission core the materialised derivation uses.
    const trace::IntervalEndpoint endpoint{t,
                                           boot,
                                           uptime,
                                           c.cpu_idle_s[i],
                                           c.net_sent_b[i],
                                           c.net_recv_b[i]};
    double eq_occupied = 0.0;
    double eq_free = 0.0;
    if (ms.has_prev) {
      trace::detail::EmitIntervalFromEndpoints(
          ms.prev, endpoint, m, config_.intervals,
          [&] { return IntervalClass(ms.prev_cls, cls); },
          [&](const trace::SampleInterval& iv) {
            ms.agg.AddInterval(iv.login_class, iv.cpu_idle_pct, iv.sent_bps,
                               iv.recv_bps);
            if (has_session) ms.hours.AddInterval(session_s, iv.cpu_idle_pct);
            ms.weekly.AddInterval(iv.end_t, iv.cpu_idle_pct, iv.sent_bps,
                                  iv.recv_bps);
            ms.lab.AddInterval(iv.cpu_idle_pct);
            if (eq_pass_.TracksMachine(m)) {
              const double cet = eq_pass_.Contribution(m, iv.cpu_idle_pct);
              if (IntervalClass(ms.prev_cls_eq, cls_eq) ==
                  trace::LoginClass::kWithLogin) {
                eq_occupied = cet;
              } else {
                eq_free = cet;
              }
            }
            if (detector_ != nullptr) {
              detector_->OnInterval(iv.end_t, m, iv.cpu_idle_pct);
            }
          });
    }
    ms.prev = endpoint;
    ms.prev_cls = cls;
    ms.prev_cls_eq = cls_eq;
    ms.has_prev = true;

    // Sample-fed accumulators. Formulas mirror the TraceStore helpers the
    // materialised passes call (FreeRamMb, DiskUsedBytes).
    ms.agg.AddSample(cls, has_session, c.mem_load_pct[i], c.swap_load_pct[i],
                     static_cast<double>(c.disk_total_b[i] - c.disk_free_b[i]) /
                         1e9);
    ++ms.avail.responses;
    if (on_.size() <= it) {
      on_.resize(it + 1, 0);
      free_.resize(it + 1, 0);
    }
    ++on_[it];
    if (cls != trace::LoginClass::kWithLogin) ++free_[it];
    ms.weekly.AddSample(t, c.mem_load_pct[i], c.swap_load_pct[i]);
    const double free_ram_mb =
        c.ram_mb[i] * (100.0 - c.mem_load_pct[i]) / 100.0;
    const double free_disk_gb = static_cast<double>(c.disk_free_b[i]) / 1e9;
    ms.lab.AddSample(cls, c.mem_load_pct[i], free_disk_gb, c.ram_mb[i],
                     free_ram_mb);
    ms.stab.AddSample(c.smart_power_on_hours[i], c.smart_power_cycles[i]);

    // Chain this sample's per-iteration contributions onto its slot.
    const auto entry = static_cast<std::uint32_t>(entries_.size());
    entries_.push_back(
        {free_ram_mb, free_disk_gb, eq_occupied, eq_free, kNoEntry});
    Slot& slot = slots_[m];
    if (slot.head == kNoEntry) {
      slot.head = entry;
    } else {
      entries_[slot.tail].next = entry;
    }
    slot.tail = entry;
    touched_lo_ = std::min(touched_lo_, m);
    touched_hi_ = std::max(touched_hi_, m);
    if (detector_ != nullptr) detector_->OnSample(t, m, c.mem_load_pct[i]);
    ++samples_;
  }
}

void StreamingAnalysis::CloseIteration() {
  const std::uint64_t it = current_iteration_;
  iteration_open_ = false;
  if (eq_occupied_.size() <= it) {
    eq_occupied_.resize(it + 1, 0.0);
    eq_free_.resize(it + 1, 0.0);
  }
  if (cap_ram_mb_.size() <= it) {
    cap_ram_mb_.resize(it + 1, 0.0);
    cap_disk_gb_.resize(it + 1, 0.0);
  }

  // Replay the buffered contributions by machine slot, chunk-grouped:
  // each chunk's contributions sum into a zero-initialised partial in
  // ascending machine order (a machine's own entries in arrival order),
  // and the partials add in ascending chunk order — the exact
  // floating-point association of the materialised chunk sweep plus serial
  // reduction. The +0.0 an entry holds for a class it does not feed
  // leaves that class's (never -0.0) sums unchanged, as does a chunk's
  // +0.0 partial.
  const std::size_t per_chunk =
      std::max<std::size_t>(1, config_.machines_per_chunk);
  double occupied = 0.0;
  double free = 0.0;
  double ram_mb = 0.0;
  double disk_gb = 0.0;
  const auto flush = [&] {
    eq_occupied_[it] += occupied;
    eq_free_[it] += free;
    cap_ram_mb_[it] += ram_mb;
    cap_disk_gb_[it] += disk_gb;
    occupied = free = ram_mb = disk_gb = 0.0;
  };
  std::size_t chunk = touched_lo_ / per_chunk;
  for (std::uint32_t m = touched_lo_; m <= touched_hi_; ++m) {
    Slot& slot = slots_[m];
    if (slot.head == kNoEntry) continue;
    if (m / per_chunk != chunk) {
      flush();
      chunk = m / per_chunk;
    }
    for (std::uint32_t e = slot.head; e != kNoEntry; e = entries_[e].next) {
      const Entry& entry = entries_[e];
      occupied += entry.eq_occupied;
      free += entry.eq_free;
      ram_mb += entry.ram_mb;
      disk_gb += entry.disk_gb;
    }
    slot = Slot{};
  }
  flush();
  entries_.clear();
  touched_lo_ = kNoEntry;
  touched_hi_ = 0;
}

StreamingAnalysisResult StreamingAnalysis::Finish(
    const trace::TraceStore& summary) {
  obs::prof::PhaseScope prof_scope(obs::prof::Phase::kAnalysis);
  if (iteration_open_) CloseIteration();
  for (MachineState& ms : machines_) {
    if (ms.session_open) {
      ms.avail.AddSession(ms.open_last_uptime_s);
      ms.stab.AddSession(ms.open_last_uptime_s);
      ms.session_open = false;
    }
  }

  // Per-iteration vectors sized exactly to the merged iteration metadata
  // (samples beyond it are dropped, as the materialised sweep drops them).
  const std::size_t iter_count = summary.iterations().size();
  on_.resize(iter_count, 0);
  free_.resize(iter_count, 0);
  eq_occupied_.resize(iter_count, 0.0);
  eq_free_.resize(iter_count, 0.0);
  cap_ram_mb_.resize(iter_count, 0.0);
  cap_disk_gb_.resize(iter_count, 0.0);

  // The summary store holds no samples, so the derivation is empty; every
  // Finalize only reads machine_count / iteration metadata through ctx.
  const trace::DerivedTrace derived(
      summary, trace::DerivedTraceOptions{config_.intervals});
  const PassContext ctx{summary, derived};

  // Replays AnalysisPipeline::Run's reduction: one state per chunk,
  // machines folded ascending within the chunk, chunk states merged
  // ascending into the total.
  const std::size_t per_chunk =
      std::max<std::size_t>(1, config_.machines_per_chunk);
  const std::size_t machine_count = machines_.size();
  // fold_chunk(begin, end, state) folds machines [begin, end) in order.
  const auto reduce_chunks = [&](auto& pass, auto&& fold_chunk) {
    auto total = pass.MakeState(ctx);
    for (std::size_t begin = 0; begin < machine_count; begin += per_chunk) {
      auto state = pass.MakeState(ctx);
      fold_chunk(begin, std::min(begin + per_chunk, machine_count), *state);
      pass.MergeState(*total, *state);
    }
    return total;
  };
  const auto reduce = [&](auto& pass, auto&& fold) {
    return reduce_chunks(pass, [&](std::size_t begin, std::size_t end,
                                   AnalysisPass::State& s) {
      for (std::size_t m = begin; m < end; ++m) fold(m, s);
    });
  };

  StreamingAnalysisResult result;
  {
    auto total = reduce(agg_pass_, [&](std::size_t m, AnalysisPass::State& s) {
      agg_pass_.FoldMachine(m, machines_[m].agg, s);
    });
    agg_pass_.Finalize(ctx, *total);
    result.table2 = agg_pass_.result();
  }
  {
    auto total =
        reduce(avail_pass_, [&](std::size_t m, AnalysisPass::State& s) {
          avail_pass_.FoldMachine(m, machines_[m].avail, s);
        });
    AvailabilityPass::AddIterationCounts(*total, on_, free_);
    avail_pass_.Finalize(ctx, *total);
    result.availability = avail_pass_.result();
  }
  {
    auto total =
        reduce(hours_pass_, [&](std::size_t m, AnalysisPass::State& s) {
          hours_pass_.FoldMachine(m, machines_[m].hours, s);
        });
    hours_pass_.Finalize(ctx, *total);
    result.session_hours = hours_pass_.result();
  }
  {
    // Chunk by chunk, bin by bin (see WeeklyPass::FoldMachines).
    std::vector<const WeeklyPass::MachineAcc*> accs;
    auto total = reduce_chunks(weekly_pass_, [&](std::size_t begin,
                                                 std::size_t end,
                                                 AnalysisPass::State& s) {
      accs.clear();
      for (std::size_t m = begin; m < end; ++m) {
        accs.push_back(&machines_[m].weekly);
      }
      weekly_pass_.FoldMachines(accs, s);
    });
    weekly_pass_.Finalize(ctx, *total);
    result.weekly = weekly_pass_.result();
  }
  {
    auto total = eq_pass_.MakeState(ctx);
    EquivalencePass::AddIterationSums(*total, eq_occupied_, eq_free_);
    eq_pass_.Finalize(ctx, *total);
    result.equivalence = eq_pass_.result();
  }
  {
    auto total =
        reduce(stab_pass_, [&](std::size_t m, AnalysisPass::State& s) {
          stab_pass_.FoldMachine(m, machines_[m].stab, s);
        });
    stab_pass_.Finalize(ctx, *total);
    result.stability = stab_pass_.result();
  }
  {
    auto total = reduce(lab_pass_, [&](std::size_t m, AnalysisPass::State& s) {
      lab_pass_.FoldMachine(m, machines_[m].lab, s);
    });
    lab_pass_.Finalize(ctx, *total);
    result.per_lab = lab_pass_.result();
  }
  {
    auto total = cap_pass_.MakeState(ctx);
    CapacityPass::AddIterationSums(*total, cap_ram_mb_, cap_disk_gb_);
    cap_pass_.Finalize(ctx, *total);
    result.capacity = cap_pass_.result();
  }
  return result;
}

}  // namespace labmon::analysis
