#include "labmon/trace/trace_store.hpp"

#include <algorithm>
#include <sstream>

#include "labmon/util/csv.hpp"
#include "labmon/util/strings.hpp"

namespace labmon::trace {

void TraceStore::Reserve(std::size_t samples) {
  ForEachColumn([&](auto member) { (columns_.*member).reserve(samples); });
}

std::uint32_t TraceStore::InternUser(const std::string& user) {
  // Look up first: emplace would build (and free) a node holding a copy of
  // the string before finding the key, and almost every call is a hit.
  if (const auto it = user_ids_.find(user); it != user_ids_.end()) {
    return it->second;
  }
  const auto id = static_cast<std::uint32_t>(users_.size());
  user_ids_.emplace(user, id);
  users_.push_back(user);
  return id;
}

void TraceStore::Append(const SampleRecord& record) {
  const auto index = static_cast<std::uint32_t>(size());
  columns_.machine.push_back(record.machine);
  columns_.iteration.push_back(record.iteration);
  columns_.t.push_back(record.t);
  columns_.boot_time.push_back(record.boot_time);
  columns_.uptime_s.push_back(record.uptime_s);
  columns_.cpu_idle_s.push_back(record.cpu_idle_s);
  columns_.ram_mb.push_back(record.ram_mb);
  columns_.mem_load_pct.push_back(record.mem_load_pct);
  columns_.swap_load_pct.push_back(record.swap_load_pct);
  columns_.disk_total_b.push_back(record.disk_total_b);
  columns_.disk_free_b.push_back(record.disk_free_b);
  columns_.smart_power_on_hours.push_back(record.smart_power_on_hours);
  columns_.smart_power_cycles.push_back(record.smart_power_cycles);
  columns_.net_sent_b.push_back(record.net_sent_b);
  columns_.net_recv_b.push_back(record.net_recv_b);
  columns_.has_session.push_back(record.has_session ? 1 : 0);
  columns_.session_logon.push_back(record.has_session ? record.session_logon
                                                      : 0);
  columns_.user_id.push_back(record.has_session ? InternUser(record.user)
                                                : kNoUser);
  IndexSample(record.machine, index);
}

void TraceStore::AppendFrom(const Columns& src, std::size_t i,
                            std::uint32_t user_id) {
  const auto index = static_cast<std::uint32_t>(size());
  const std::uint32_t machine = src.machine[i];
  // Generic column-to-column copy; only user_id needs the caller's
  // translation (and a canonical kNoUser for session-free rows — source
  // stores built through Append already hold canonical session_logon).
  ForEachColumn(
      [&](auto member) { (columns_.*member).push_back((src.*member)[i]); });
  columns_.user_id.back() = src.has_session[i] != 0 ? user_id : kNoUser;
  IndexSample(machine, index);
}

void TraceStore::IndexSample(std::uint32_t machine, std::uint32_t index) {
  // The index spans only the machines appended so far, so a one-lab
  // working store holds a lab's lists, not the fleet's.
  if (per_machine_.empty()) {
    // A few labs' worth of slots up front: growing a lab store's index slot
    // by slot measured ~15% slower on a materialised 132-lab run.
    per_machine_.reserve(64);
    index_first_ = machine;
  } else if (machine < index_first_) {
    // Widen downward by at least the range already indexed: a merged
    // store meets its machines in no fixed order, and one shift per new
    // lowest machine would cost O(machines) each time.
    const std::size_t widen =
        std::max<std::size_t>(index_first_ - machine,
                              std::min(index_first_, per_machine_.size()));
    per_machine_.insert(per_machine_.begin(), widen, {});
    index_first_ -= widen;
  }
  const std::size_t slot = machine - index_first_;
  if (slot >= per_machine_.size()) per_machine_.resize(slot + 1);
  per_machine_[slot].push_back(index);
}

void TraceStore::ClearSamples() {
  // Append and AppendFrom are the only writers of the machine index, and
  // each also appends to the machine column: clearing the lists of the
  // machines sampled costs the block, not the fleet.
  for (const std::uint32_t machine : columns_.machine) {
    per_machine_[machine - index_first_].clear();
  }
  ForEachColumn([&](auto member) { (columns_.*member).clear(); });
  iterations_.clear();
  users_.clear();
  user_ids_.clear();
}

void TraceStore::AppendIteration(IterationInfo info) {
  iterations_.push_back(info);
}

std::uint64_t TraceStore::TotalAttempts() const noexcept {
  std::uint64_t total = 0;
  for (const auto& it : iterations_) total += it.attempts;
  return total;
}

SampleRecord TraceStore::Sample(std::size_t i) const {
  SampleRecord s;
  s.machine = columns_.machine[i];
  s.iteration = columns_.iteration[i];
  s.t = columns_.t[i];
  s.boot_time = columns_.boot_time[i];
  s.uptime_s = columns_.uptime_s[i];
  s.cpu_idle_s = columns_.cpu_idle_s[i];
  s.ram_mb = columns_.ram_mb[i];
  s.mem_load_pct = columns_.mem_load_pct[i];
  s.swap_load_pct = columns_.swap_load_pct[i];
  s.disk_total_b = columns_.disk_total_b[i];
  s.disk_free_b = columns_.disk_free_b[i];
  s.smart_power_on_hours = columns_.smart_power_on_hours[i];
  s.smart_power_cycles = columns_.smart_power_cycles[i];
  s.net_sent_b = columns_.net_sent_b[i];
  s.net_recv_b = columns_.net_recv_b[i];
  s.has_session = columns_.has_session[i] != 0;
  if (s.has_session) {
    s.session_logon = columns_.session_logon[i];
    s.user = users_[columns_.user_id[i]];
  }
  return s;
}

std::string_view TraceStore::UserOf(std::size_t i) const noexcept {
  const std::uint32_t id = columns_.user_id[i];
  return id == kNoUser ? std::string_view{} : std::string_view(users_[id]);
}

std::span<const std::uint32_t> TraceStore::MachineSamples(
    std::size_t machine) const noexcept {
  if (machine < index_first_) return {};
  const std::size_t slot = machine - index_first_;
  if (slot >= per_machine_.size()) return {};
  return per_machine_[slot];
}

std::vector<std::uint32_t> TraceStore::ResponsesPerMachine() const {
  std::vector<std::uint32_t> counts(
      std::max(machine_count_, index_first_ + per_machine_.size()), 0);
  for (std::size_t s = 0; s < per_machine_.size(); ++s) {
    counts[index_first_ + s] =
        static_cast<std::uint32_t>(per_machine_[s].size());
  }
  return counts;
}

std::string TraceStore::SamplesToCsv() const {
  std::ostringstream oss;
  util::CsvWriter w(oss);
  w.Row("machine", "iteration", "t", "boot_time", "uptime_s", "cpu_idle_s",
        "ram_mb", "mem_load_pct", "swap_load_pct", "disk_total_b", "disk_free_b",
        "smart_poh", "smart_cycles", "net_sent_b", "net_recv_b", "user",
        "session_logon");
  const Columns& c = columns_;
  for (std::size_t i = 0; i < size(); ++i) {
    const bool session = c.has_session[i] != 0;
    w.Row(std::to_string(c.machine[i]), std::to_string(c.iteration[i]),
          std::to_string(c.t[i]), std::to_string(c.boot_time[i]),
          std::to_string(c.uptime_s[i]), util::FormatFixed(c.cpu_idle_s[i], 2),
          std::to_string(c.ram_mb[i]), std::to_string(c.mem_load_pct[i]),
          std::to_string(c.swap_load_pct[i]),
          std::to_string(c.disk_total_b[i]), std::to_string(c.disk_free_b[i]),
          std::to_string(c.smart_power_on_hours[i]),
          std::to_string(c.smart_power_cycles[i]),
          std::to_string(c.net_sent_b[i]), std::to_string(c.net_recv_b[i]),
          session ? std::string(UserOf(i)) : "",
          session ? std::to_string(c.session_logon[i]) : "");
  }
  return oss.str();
}

std::string TraceStore::IterationsToCsv() const {
  std::ostringstream oss;
  util::CsvWriter w(oss);
  w.Row("iteration", "start_t", "end_t", "attempts", "successes");
  for (const auto& it : iterations_) {
    w.Row(std::to_string(it.iteration), std::to_string(it.start_t),
          std::to_string(it.end_t), std::to_string(it.attempts),
          std::to_string(it.successes));
  }
  return oss.str();
}

util::Result<TraceStore> TraceStore::FromCsv(const std::string& samples_csv,
                                             const std::string& iterations_csv,
                                             std::size_t machine_count) {
  using R = util::Result<TraceStore>;
  const auto samples_doc = util::ParseCsv(samples_csv);
  if (!samples_doc.ok()) return R::Err("samples: " + samples_doc.error());
  const auto iter_doc = util::ParseCsv(iterations_csv);
  if (!iter_doc.ok()) return R::Err("iterations: " + iter_doc.error());

  TraceStore store(machine_count);
  store.Reserve(samples_doc.value().rows.size());
  for (const auto& row : samples_doc.value().rows) {
    if (row.size() < 17) return R::Err("short sample row");
    const auto i64 = [&](std::size_t col) {
      return util::ParseInt64(row[col]).value_or(0);
    };
    SampleRecord s;
    s.machine = static_cast<std::uint32_t>(i64(0));
    s.iteration = static_cast<std::uint32_t>(i64(1));
    s.t = i64(2);
    s.boot_time = i64(3);
    s.uptime_s = i64(4);
    s.cpu_idle_s = util::ParseDouble(row[5]).value_or(0.0);
    s.ram_mb = static_cast<std::uint16_t>(i64(6));
    s.mem_load_pct = static_cast<std::uint8_t>(i64(7));
    s.swap_load_pct = static_cast<std::uint8_t>(i64(8));
    s.disk_total_b = static_cast<std::uint64_t>(i64(9));
    s.disk_free_b = static_cast<std::uint64_t>(i64(10));
    s.smart_power_on_hours = static_cast<std::uint64_t>(i64(11));
    s.smart_power_cycles = static_cast<std::uint64_t>(i64(12));
    s.net_sent_b = static_cast<std::uint64_t>(i64(13));
    s.net_recv_b = static_cast<std::uint64_t>(i64(14));
    s.has_session = !row[15].empty();
    if (s.has_session) {
      s.user = row[15];
      s.session_logon = i64(16);
    }
    store.Append(s);
  }
  for (const auto& row : iter_doc.value().rows) {
    if (row.size() < 5) return R::Err("short iteration row");
    IterationInfo info;
    info.iteration =
        static_cast<std::uint64_t>(util::ParseInt64(row[0]).value_or(0));
    info.start_t = util::ParseInt64(row[1]).value_or(0);
    info.end_t = util::ParseInt64(row[2]).value_or(0);
    info.attempts =
        static_cast<std::uint32_t>(util::ParseInt64(row[3]).value_or(0));
    info.successes =
        static_cast<std::uint32_t>(util::ParseInt64(row[4]).value_or(0));
    store.AppendIteration(info);
  }
  return store;
}

}  // namespace labmon::trace
