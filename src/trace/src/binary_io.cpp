#include "labmon/trace/binary_io.hpp"

#include <vector>

#include "labmon/obs/registry.hpp"
#include "labmon/obs/span.hpp"
#include "labmon/util/csv.hpp"
#include "labmon/util/varint.hpp"

namespace labmon::trace {

namespace {

constexpr char kMagic[] = "LMTR1";
constexpr std::size_t kMagicLen = 5;

/// Per-machine previous-sample state used for delta coding. Deltas are
/// taken in u64 wraparound, so every 64-bit column value round-trips
/// without signed overflow; wherever the signed difference does not
/// overflow, the written delta (and so every byte) is the same.
struct Previous {
  std::uint64_t t = 0;
  std::uint64_t iteration = 0;
  std::uint64_t boot_time = 0;
  std::uint64_t uptime_s = 0;
  std::uint64_t idle_cs = 0;  ///< idle seconds in centiseconds (exact: the
                              ///< probe emits 2 decimals)
  std::uint64_t ram_mb = 0;
  std::uint64_t mem = 0;
  std::uint64_t swap = 0;
  std::uint64_t disk_total = 0;
  std::uint64_t disk_free = 0;
  std::uint64_t poh = 0;
  std::uint64_t cycles = 0;
  std::uint64_t sent = 0;
  std::uint64_t recv = 0;
  std::uint64_t logon = 0;
};

/// Writes `value - prev` (u64 wraparound) as a zigzag varint and returns
/// `value` as the next `prev`.
template <typename T>
std::uint64_t PutDelta(std::string& out, T value, std::uint64_t prev) {
  const auto v = static_cast<std::uint64_t>(value);
  util::PutSignedVarint(out, static_cast<std::int64_t>(v - prev));
  return v;
}

std::int64_t IdleCentiseconds(double idle_s) {
  return static_cast<std::int64_t>(idle_s * 100.0 + 0.5);
}

/// Bulk-updates the default registry's trace I/O counters (one call per
/// serialise/parse, never per record, so the codec hot loop stays clean).
void CountTraceIo(const char* direction, std::uint64_t bytes,
                  std::uint64_t records) {
  obs::Registry& registry = obs::DefaultRegistry();
  registry
      .GetCounter("labmon_trace_io_bytes_total",
                  "Binary trace bytes moved through the LMTR1 codec",
                  {{"direction", direction}})
      .Increment(bytes);
  registry
      .GetCounter("labmon_trace_io_records_total",
                  "Sample records moved through the LMTR1 codec",
                  {{"direction", direction}})
      .Increment(records);
}

}  // namespace

std::string SerializeTrace(const BlockView& trace) {
  obs::Span span("trace.serialize");
  const TraceStore::Columns& c = trace.cols;
  const std::size_t n = trace.size();
  std::string out;
  out.reserve(n * 24 + 64);
  out.append(kMagic, kMagicLen);

  // User string table — the store's interned (or the block's local) table,
  // which is already in first-appearance order.
  util::PutVarint(out, trace.machine_count);
  util::PutVarint(out, n);
  util::PutVarint(out, trace.iterations.size());
  util::PutVarint(out, trace.users.size());
  for (const std::string& user : trace.users) {
    util::PutVarint(out, user.size());
    out.append(user);
  }

  std::vector<Previous> prev(trace.machine_count);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t machine = c.machine[i];
    if (machine >= prev.size()) prev.resize(std::size_t{machine} + 1);
    Previous& p = prev[machine];
    util::PutVarint(out, machine);
    p.iteration = PutDelta(out, c.iteration[i], p.iteration);
    p.t = PutDelta(out, c.t[i], p.t);
    p.boot_time = PutDelta(out, c.boot_time[i], p.boot_time);
    p.uptime_s = PutDelta(out, c.uptime_s[i], p.uptime_s);
    p.idle_cs = PutDelta(out, IdleCentiseconds(c.cpu_idle_s[i]), p.idle_cs);
    p.ram_mb = PutDelta(out, c.ram_mb[i], p.ram_mb);
    p.mem = PutDelta(out, c.mem_load_pct[i], p.mem);
    p.swap = PutDelta(out, c.swap_load_pct[i], p.swap);
    p.disk_total = PutDelta(out, c.disk_total_b[i], p.disk_total);
    p.disk_free = PutDelta(out, c.disk_free_b[i], p.disk_free);
    p.poh = PutDelta(out, c.smart_power_on_hours[i], p.poh);
    p.cycles = PutDelta(out, c.smart_power_cycles[i], p.cycles);
    p.sent = PutDelta(out, c.net_sent_b[i], p.sent);
    p.recv = PutDelta(out, c.net_recv_b[i], p.recv);
    if (c.has_session[i] != 0) {
      util::PutVarint(out, 1 + c.user_id[i]);
      p.logon = PutDelta(out, c.session_logon[i], p.logon);
    } else {
      util::PutVarint(out, 0);
    }
  }

  // Iteration metadata (delta against the previous iteration row).
  std::uint64_t prev_start = 0;
  std::uint64_t prev_end = 0;
  for (const auto& it : trace.iterations) {
    prev_start = PutDelta(out, it.start_t, prev_start);
    prev_end = PutDelta(out, it.end_t, prev_end);
    util::PutVarint(out, it.attempts);
    util::PutVarint(out, it.successes);
  }
  CountTraceIo("write", out.size(), n);
  return out;
}

util::Result<TraceStore> DeserializeTrace(std::string_view bytes) {
  obs::Span span("trace.deserialize");
  using R = util::Result<TraceStore>;
  if (bytes.size() < kMagicLen ||
      bytes.compare(0, kMagicLen, kMagic, kMagicLen) != 0) {
    return R::Err("not a LMTR1 trace (bad magic)");
  }
  util::VarintReader reader(bytes);
  (void)reader.ReadBytes(kMagicLen);

  const auto machine_count = reader.Read();
  const auto sample_count = reader.Read();
  const auto iteration_count = reader.Read();
  const auto user_count = reader.Read();
  if (!machine_count || !sample_count || !iteration_count || !user_count) {
    return R::Err("truncated header");
  }
  if (*sample_count > (std::uint64_t{1} << 32) ||
      *user_count > (std::uint64_t{1} << 28)) {
    return R::Err("implausible header counts");
  }

  std::vector<std::string> users;
  users.reserve(*user_count);
  for (std::uint64_t i = 0; i < *user_count; ++i) {
    const auto len = reader.Read();
    if (!len || *len > 4096) return R::Err("garbled user table");
    auto name = reader.ReadBytes(*len);
    if (!name) return R::Err("truncated user table");
    users.push_back(std::move(*name));
  }

  TraceStore store(*machine_count);
  store.Reserve(*sample_count);
  std::vector<Previous> prev(*machine_count);
  for (std::uint64_t n = 0; n < *sample_count; ++n) {
    const auto machine = reader.Read();
    if (!machine) return R::Err("truncated sample stream");
    if (*machine >= prev.size()) prev.resize(*machine + 1);
    Previous& p = prev[*machine];

    SampleRecord s;
    s.machine = static_cast<std::uint32_t>(*machine);
    const auto read = [&](std::uint64_t& base) -> bool {
      const auto delta = reader.ReadSigned();
      if (!delta) return false;
      base += static_cast<std::uint64_t>(*delta);
      return true;
    };
    if (!read(p.iteration) || !read(p.t) || !read(p.boot_time) ||
        !read(p.uptime_s) || !read(p.idle_cs) || !read(p.ram_mb) ||
        !read(p.mem) ||
        !read(p.swap) || !read(p.disk_total) || !read(p.disk_free) ||
        !read(p.poh) || !read(p.cycles) || !read(p.sent) || !read(p.recv)) {
      return R::Err("truncated sample fields");
    }
    s.iteration = static_cast<std::uint32_t>(p.iteration);
    s.t = static_cast<std::int64_t>(p.t);
    s.boot_time = static_cast<std::int64_t>(p.boot_time);
    s.uptime_s = static_cast<std::int64_t>(p.uptime_s);
    s.cpu_idle_s =
        static_cast<double>(static_cast<std::int64_t>(p.idle_cs)) / 100.0;
    s.ram_mb = static_cast<std::uint16_t>(p.ram_mb);
    s.mem_load_pct = static_cast<std::uint8_t>(p.mem);
    s.swap_load_pct = static_cast<std::uint8_t>(p.swap);
    s.disk_total_b = p.disk_total;
    s.disk_free_b = p.disk_free;
    s.smart_power_on_hours = p.poh;
    s.smart_power_cycles = p.cycles;
    s.net_sent_b = p.sent;
    s.net_recv_b = p.recv;

    const auto user_ref = reader.Read();
    if (!user_ref) return R::Err("truncated session field");
    if (*user_ref > 0) {
      if (*user_ref > users.size()) return R::Err("dangling user reference");
      s.has_session = true;
      s.user = users[*user_ref - 1];
      if (!read(p.logon)) return R::Err("truncated logon field");
      s.session_logon = static_cast<std::int64_t>(p.logon);
    }
    store.Append(std::move(s));
  }

  std::uint64_t prev_start = 0;
  std::uint64_t prev_end = 0;
  for (std::uint64_t i = 0; i < *iteration_count; ++i) {
    const auto ds = reader.ReadSigned();
    const auto de = reader.ReadSigned();
    const auto attempts = reader.Read();
    const auto successes = reader.Read();
    if (!ds || !de || !attempts || !successes) {
      return R::Err("truncated iteration metadata");
    }
    prev_start += static_cast<std::uint64_t>(*ds);
    prev_end += static_cast<std::uint64_t>(*de);
    IterationInfo info;
    info.iteration = i;
    info.start_t = static_cast<std::int64_t>(prev_start);
    info.end_t = static_cast<std::int64_t>(prev_end);
    info.attempts = static_cast<std::uint32_t>(*attempts);
    info.successes = static_cast<std::uint32_t>(*successes);
    store.AppendIteration(info);
  }
  CountTraceIo("read", bytes.size(), store.size());
  return store;
}

util::Result<bool> WriteTraceFile(const std::string& path,
                                  const TraceStore& store) {
  return util::WriteTextFile(path, SerializeTrace(store));
}

util::Result<TraceStore> ReadTraceFile(const std::string& path) {
  auto bytes = util::ReadTextFile(path);
  if (!bytes.ok()) return util::Result<TraceStore>::Err(bytes.error());
  return DeserializeTrace(bytes.value());
}

}  // namespace labmon::trace
