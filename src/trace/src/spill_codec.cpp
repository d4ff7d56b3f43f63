#include "labmon/trace/spill_codec.hpp"

#include <algorithm>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "labmon/trace/binary_io.hpp"
#include "labmon/util/varint.hpp"

namespace labmon::trace {

namespace {

constexpr std::string_view kLmsg1Magic = "LMSG1";
constexpr std::string_view kLmsg2Magic = "LMSG2";

// Same sanity bounds as the LMTR1 parser: a corrupt count must fail fast,
// not drive a multi-gigabyte reserve.
constexpr std::uint64_t kMaxSamples = std::uint64_t{1} << 32;
constexpr std::uint64_t kMaxUsers = std::uint64_t{1} << 28;
constexpr std::uint64_t kMaxIterations = std::uint64_t{1} << 28;
constexpr std::uint64_t kMaxUserLen = 4096;
// Fallback machine-id bound when the caller has no segment header count.
constexpr std::uint64_t kMaxMachines = std::uint64_t{1} << 26;

// The LMSG2 transform tables below (EncodeBlock/DecodeBlock) are written
// out per column. If this fires, a column was added to (or removed from)
// TraceStore::Columns: give it a transform in both directions, a name in
// kColumnNames, and bump the LMSG2 version if old readers would misparse.
static_assert(
    [] {
      std::size_t n = 0;
      TraceStore::ForEachColumn([&n](auto) { ++n; });
      return n;
    }() == kSpillColumnCount,
    "TraceStore column set changed: update the LMSG2 spill codec");

constexpr const char* kColumnNames[kSpillColumnCount] = {
    "machine",          "iteration",
    "t",                "boot_time",
    "uptime_s",         "cpu_idle_s",
    "ram_mb",           "mem_load_pct",
    "swap_load_pct",    "disk_total_b",
    "disk_free_b",      "smart_power_on_hours",
    "smart_power_cycles", "net_sent_b",
    "net_recv_b",       "has_session",
    "session_logon",    "user_id"};

/// Idle seconds -> centiseconds, the same transform LMTR1 applies (the
/// probe emits two decimals, so the value is exact and the decode-side
/// `/100.0` is bit-identical across codecs). Unlike LMTR1 the cast is
/// guarded: non-finite or out-of-range doubles (possible only from hostile
/// inputs, never from the probe) map to 0 instead of undefined behaviour.
std::int64_t IdleCentiseconds(double idle_s) noexcept {
  const double cs = idle_s * 100.0 + 0.5;
  constexpr double kBound = 9.0e18;
  if (!(cs > -kBound && cs < kBound)) return 0;
  return static_cast<std::int64_t>(cs);
}

std::size_t VarintLen(std::uint64_t v) noexcept {
  std::size_t len = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++len;
  }
  return len;
}

constexpr std::size_t kMaxVarintLen = 10;

/// Writes `v` as a varint at `p` (which must have kMaxVarintLen bytes
/// free) and returns the byte after it.
char* WriteVarint(char* p, std::uint64_t v) noexcept {
  while (v >= 0x80) {
    *p++ = static_cast<char>((v & 0x7f) | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<char>(v);
  return p;
}

// ---------------------------------------------------------------------------
// Token-stream RLE layer. A column is first transformed into one u64 token
// per row, then coded as groups:
//   varint header h:  h & 1 == 1  ->  run of (h >> 1) copies of one
//                                     following varint token
//                     h & 1 == 0  ->  (h >> 1) literal varint tokens follow
// Groups are never empty; the decoder checks exact token counts and exact
// section byte counts, so a flipped length or header fails loudly.
// ---------------------------------------------------------------------------

constexpr std::size_t kMinRun = 3;

/// Most bytes RleEncode writes for `n` tokens: groups are never empty, so
/// there are at most n group headers and n tokens, each one varint.
constexpr std::size_t RleEncodeBound(std::size_t n) noexcept {
  return 2 * kMaxVarintLen * n;
}

/// Writes the token groups of `tokens` at `out`, which must have
/// RleEncodeBound(tokens.size()) bytes free; returns the end of the
/// section. Sized once by the caller, so no varint checks capacity.
char* RleEncode(const std::vector<std::uint64_t>& tokens, char* out) {
  const std::size_t n = tokens.size();
  std::size_t lit_start = 0;
  const auto flush_literals = [&](std::size_t end) {
    if (end == lit_start) return;
    out = WriteVarint(out, std::uint64_t{end - lit_start} << 1);
    for (std::size_t k = lit_start; k < end; ++k) {
      out = WriteVarint(out, tokens[k]);
    }
  };
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i + 1;
    while (j < n && tokens[j] == tokens[i]) ++j;
    if (j - i >= kMinRun) {
      flush_literals(i);
      out = WriteVarint(out, (std::uint64_t{j - i} << 1) | 1);
      out = WriteVarint(out, tokens[i]);
      lit_start = j;
    }
    i = j;
  }
  flush_literals(n);
  return out;
}

/// Reads one varint at `p`, which must be below `end`, into `v`; returns
/// the byte after it, or nullptr on truncated or overlong input (the
/// checks of util::VarintReader::Read).
inline const std::uint8_t* ReadVarint(const std::uint8_t* p,
                                      const std::uint8_t* end,
                                      std::uint64_t& v) noexcept {
  if (p < end && *p < 0x80) {
    v = *p;
    return p + 1;
  }
  std::uint64_t value = 0;
  int shift = 0;
  while (p < end) {
    const std::uint8_t byte = *p++;
    if (shift >= 63 && byte > 1) return nullptr;  // overlong
    value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      v = value;
      return p;
    }
    shift += 7;
  }
  return nullptr;  // truncated
}

/// Decodes one column section [p, end) of n rows into `dst` in a single
/// pass over its token groups: `convert(i, token, dst[i])` turns row i's
/// token into its value, or returns false, having set `err`, to reject
/// it. `dst` grows a group at a time, so a corrupt sample count costs only
/// the rows the section really holds. The section must hold exactly n
/// tokens and nothing after them.
template <typename T, typename Convert>
bool DecodeColumn(const std::uint8_t* p, const std::uint8_t* end,
                  std::size_t n, std::vector<T>& dst, std::string& err,
                  Convert&& convert) {
  dst.clear();
  std::size_t i = 0;
  while (i < n) {
    std::uint64_t header = 0;
    p = ReadVarint(p, end, header);
    if (p == nullptr) {
      err = "truncated token group header";
      return false;
    }
    const std::uint64_t count = header >> 1;
    if (count == 0 || count > n - i) {
      err = "token group overruns column";
      return false;
    }
    const std::size_t stop = i + static_cast<std::size_t>(count);
    dst.resize(stop);
    T* const values = dst.data();
    if (header & 1) {
      std::uint64_t token = 0;
      p = ReadVarint(p, end, token);
      if (p == nullptr) {
        err = "truncated run value";
        return false;
      }
      for (; i < stop; ++i) {
        if (!convert(i, token, values[i])) return false;
      }
    } else {
      for (; i < stop; ++i) {
        std::uint64_t token = 0;
        p = ReadVarint(p, end, token);
        if (p == nullptr) {
          err = "truncated literal token";
          return false;
        }
        if (!convert(i, token, values[i])) return false;
      }
    }
  }
  if (p != end) {
    err = "trailing bytes in column section";
    return false;
  }
  return true;
}

// Per-thread scratch so the stateless codec singletons stay shareable
// across threads without locking or steady-state allocation.
struct CodecScratch {
  std::vector<std::uint64_t> tokens;  ///< one column's tokens (encode only)
  /// Per-machine previous value (u64 wrap domain), indexed by machine id
  /// minus the block's lowest id: a block costs its own machine range,
  /// not the fleet's.
  std::vector<std::uint64_t> prev;
  std::string section;  ///< grow-only; RleEncode writes into its front
};

CodecScratch& Scratch() {
  thread_local CodecScratch scratch;
  return scratch;
}

/// The machine ids a block's per-machine delta state covers: from `base`,
/// the block's lowest id, through its highest (`span` ids).
struct MachineRange {
  std::uint32_t base = 0;
  std::size_t span = 0;
};

MachineRange RangeOf(const std::vector<std::uint32_t>& machines) noexcept {
  if (machines.empty()) return {};
  const auto [lo, hi] = std::minmax_element(machines.begin(), machines.end());
  return {*lo, std::size_t{*hi} - *lo + 1};
}

// ---------------------------------------------------------------------------
// LMSG1: the original row-major LMTR1 payload, kept for compatibility.
// ---------------------------------------------------------------------------

class Lmsg1Codec final : public SpillCodec {
 public:
  [[nodiscard]] SpillCodecId id() const noexcept override {
    return SpillCodecId::kLmsg1;
  }
  [[nodiscard]] std::string_view magic() const noexcept override {
    return kLmsg1Magic;
  }

  void EncodeBlock(const BlockView& block, std::string& out,
                   SpillColumnBytes* /*columns*/) const override {
    out = SerializeTrace(block);
  }

  [[nodiscard]] util::Result<bool> DecodeBlock(
      std::string_view payload, std::size_t /*machine_count*/,
      TraceBlock& out) const override {
    auto store = DeserializeTrace(payload);
    if (!store.ok()) return util::Result<bool>::Err(store.error());
    out.AssignFrom(store.value());
    return true;
  }
};

// ---------------------------------------------------------------------------
// LMSG2: per-column transforms + RLE'd varint token streams.
//
// Payload layout:
//   varint sample_count, varint iteration_count, varint user_count
//   user table: { varint len, len bytes } x user_count
//   per column, in TraceStore::ForEachColumn order:
//     varint section_len, section bytes (RLE token groups, see above)
//   iteration rows: { zigzag d_start, zigzag d_end,
//                     varint attempts, varint successes } x iteration_count
//
// Column transforms (all delta arithmetic is u64 wraparound, so every
// 64-bit pattern round-trips without signed overflow):
//   machine, iteration, t           stream delta vs previous row (zigzag)
//   boot_time, uptime_s, ram_mb, mem_load_pct, swap_load_pct,
//   disk_total_b, disk_free_b, smart_power_on_hours, smart_power_cycles,
//   net_sent_b, net_recv_b, session_logon
//                                   delta vs the same machine's previous
//                                   row (zigzag); the machine column is
//                                   decoded first to rebuild the state
//   cpu_idle_s                      centiseconds (LMTR1's transform), then
//                                   per-machine delta
//   has_session                     raw 0/1 tokens
//   user_id                         raw, kNoUser -> 0, else id + 1
// ---------------------------------------------------------------------------

class Lmsg2Codec final : public SpillCodec {
 public:
  [[nodiscard]] SpillCodecId id() const noexcept override {
    return SpillCodecId::kLmsg2;
  }
  [[nodiscard]] std::string_view magic() const noexcept override {
    return kLmsg2Magic;
  }

  void EncodeBlock(const BlockView& block, std::string& out,
                   SpillColumnBytes* columns) const override;
  [[nodiscard]] util::Result<bool> DecodeBlock(
      std::string_view payload, std::size_t machine_count,
      TraceBlock& out) const override;
};

void Lmsg2Codec::EncodeBlock(const BlockView& block, std::string& out,
                             SpillColumnBytes* columns) const {
  const TraceStore::Columns& c = block.cols;
  const std::size_t n = block.size();
  out.clear();
  out.reserve(n + 256);

  util::PutVarint(out, n);
  util::PutVarint(out, block.iterations.size());
  util::PutVarint(out, block.users.size());
  for (const std::string& user : block.users) {
    util::PutVarint(out, user.size());
    out.append(user);
  }

  CodecScratch& s = Scratch();
  const MachineRange machines = RangeOf(c.machine);
  if (s.section.size() < RleEncodeBound(n)) s.section.resize(RleEncodeBound(n));

  std::size_t col = 0;
  const auto emit = [&](std::size_t elem_size, auto&& fill) {
    s.tokens.clear();
    s.tokens.reserve(n);
    fill();
    const std::size_t len = static_cast<std::size_t>(
        RleEncode(s.tokens, s.section.data()) - s.section.data());
    util::PutVarint(out, len);
    out.append(s.section.data(), len);
    if (columns != nullptr) {
      columns->raw[col] += n * elem_size;
      columns->encoded[col] += len + VarintLen(len);
    }
    ++col;
  };

  const auto stream_delta = [&](const auto& v) {
    emit(sizeof(v[0]), [&] {
      std::uint64_t prev = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t cur = static_cast<std::uint64_t>(v[i]);
        s.tokens.push_back(
            util::ZigzagEncode(static_cast<std::int64_t>(cur - prev)));
        prev = cur;
      }
    });
  };
  const auto machine_delta_of = [&](std::size_t elem_size, auto&& value_of) {
    emit(elem_size, [&] {
      s.prev.assign(machines.span, 0);
      for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t& prev = s.prev[c.machine[i] - machines.base];
        const std::uint64_t cur = value_of(i);
        s.tokens.push_back(
            util::ZigzagEncode(static_cast<std::int64_t>(cur - prev)));
        prev = cur;
      }
    });
  };
  const auto machine_delta = [&](const auto& v) {
    machine_delta_of(sizeof(v[0]), [&](std::size_t i) {
      return static_cast<std::uint64_t>(v[i]);
    });
  };

  // Order must match TraceStore::ForEachColumn (see the static_assert).
  stream_delta(c.machine);
  stream_delta(c.iteration);
  stream_delta(c.t);
  machine_delta(c.boot_time);
  machine_delta(c.uptime_s);
  machine_delta_of(sizeof(double), [&](std::size_t i) {
    return static_cast<std::uint64_t>(IdleCentiseconds(c.cpu_idle_s[i]));
  });
  machine_delta(c.ram_mb);
  machine_delta(c.mem_load_pct);
  machine_delta(c.swap_load_pct);
  machine_delta(c.disk_total_b);
  machine_delta(c.disk_free_b);
  machine_delta(c.smart_power_on_hours);
  machine_delta(c.smart_power_cycles);
  machine_delta(c.net_sent_b);
  machine_delta(c.net_recv_b);
  emit(sizeof(c.has_session[0]), [&] {
    for (std::size_t i = 0; i < n; ++i) {
      s.tokens.push_back(c.has_session[i]);
    }
  });
  machine_delta(c.session_logon);
  emit(sizeof(c.user_id[0]), [&] {
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t id = c.user_id[i];
      s.tokens.push_back(id == TraceStore::kNoUser
                             ? 0
                             : static_cast<std::uint64_t>(id) + 1);
    }
  });

  // Iteration rows, delta-coded against the previous row like LMTR1, in
  // u64 wraparound like the columns.
  std::uint64_t prev_start = 0;
  std::uint64_t prev_end = 0;
  for (const IterationInfo& it : block.iterations) {
    const auto start = static_cast<std::uint64_t>(it.start_t);
    const auto end = static_cast<std::uint64_t>(it.end_t);
    util::PutSignedVarint(out, static_cast<std::int64_t>(start - prev_start));
    util::PutSignedVarint(out, static_cast<std::int64_t>(end - prev_end));
    util::PutVarint(out, it.attempts);
    util::PutVarint(out, it.successes);
    prev_start = start;
    prev_end = end;
  }
}

util::Result<bool> Lmsg2Codec::DecodeBlock(std::string_view payload,
                                           std::size_t machine_count,
                                           TraceBlock& out) const {
  using R = util::Result<bool>;
  out.Clear();
  util::VarintReader r(payload);

  const auto sample_count = r.Read();
  const auto iteration_count = r.Read();
  const auto user_count = r.Read();
  if (!sample_count || !iteration_count || !user_count) {
    return R::Err("truncated LMSG2 block header");
  }
  if (*sample_count > kMaxSamples || *user_count > kMaxUsers ||
      *iteration_count > kMaxIterations) {
    return R::Err("implausible LMSG2 header counts");
  }
  const std::size_t n = static_cast<std::size_t>(*sample_count);

  // Reserves are bounded by the bytes left, not the header alone: a user
  // costs at least its 1-byte length, an iteration row at least 4 bytes.
  out.users.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(*user_count, r.remaining())));
  for (std::uint64_t i = 0; i < *user_count; ++i) {
    const auto len = r.Read();
    if (!len || *len > kMaxUserLen) return R::Err("garbled LMSG2 user table");
    auto name = r.ReadBytes(static_cast<std::size_t>(*len));
    if (!name) return R::Err("truncated LMSG2 user table");
    out.users.push_back(std::move(*name));
  }

  CodecScratch& s = Scratch();
  std::size_t col = 0;
  std::string err;
  const auto* const bytes =
      reinterpret_cast<const std::uint8_t*>(payload.data());

  // Decodes the next column's section into `dst` (see DecodeColumn).
  const auto column = [&](auto& dst, auto&& convert) -> bool {
    const auto len = r.Read();
    if (!len) {
      err = "truncated section length";
      return false;
    }
    if (*len > r.remaining()) {
      err = "section overruns payload";
      return false;
    }
    const std::uint8_t* const begin = bytes + r.position();
    (void)r.Skip(static_cast<std::size_t>(*len));
    if (!DecodeColumn(begin, begin + *len, n, dst, err, convert)) {
      return false;
    }
    ++col;
    return true;
  };
  const auto column_error = [&]() {
    return R::Err(std::string("LMSG2 column '") + kColumnNames[col] + "': " +
                  err);
  };
  const auto out_of_range = [&err]() {
    err = "value out of column range";
    return false;
  };

  TraceStore::Columns& cols = out.cols;
  const std::uint64_t machine_bound =
      machine_count > 0 ? machine_count : kMaxMachines;

  // machine — decoded first: every per-machine delta column keys on it.
  std::uint32_t machine_lo = ~std::uint32_t{0};
  std::uint32_t machine_hi = 0;
  {
    std::uint64_t prev = 0;
    if (!column(cols.machine, [&](std::size_t, std::uint64_t tok,
                                  std::uint32_t& m) {
          prev += static_cast<std::uint64_t>(util::ZigzagDecode(tok));
          if (prev >= machine_bound) {
            err = "machine id out of range";
            return false;
          }
          m = static_cast<std::uint32_t>(prev);
          machine_lo = std::min(machine_lo, m);
          machine_hi = std::max(machine_hi, m);
          return true;
        })) {
      return column_error();
    }
  }
  const MachineRange machines =
      n == 0 ? MachineRange{}
             : MachineRange{machine_lo,
                            std::size_t{machine_hi} - machine_lo + 1};
  const std::uint32_t* const machine_of = cols.machine.data();

  // Stream-delta column with an upper value bound (kNoLimit = any u64).
  constexpr std::uint64_t kNoLimit = ~std::uint64_t{0};
  const auto stream_delta = [&](auto& dst, std::uint64_t max_value) {
    std::uint64_t prev = 0;
    return column(dst, [&](std::size_t, std::uint64_t tok, auto& value) {
      prev += static_cast<std::uint64_t>(util::ZigzagDecode(tok));
      if (prev > max_value) return out_of_range();
      value = static_cast<std::decay_t<decltype(value)>>(prev);
      return true;
    });
  };
  // Per-machine-delta column; `value_of` converts the recovered u64 to the
  // column's value type.
  const auto machine_delta_as = [&](auto& dst, std::uint64_t max_value,
                                    auto&& value_of) {
    s.prev.assign(machines.span, 0);
    std::uint64_t* const prev = s.prev.data();
    return column(dst, [&](std::size_t i, std::uint64_t tok, auto& value) {
      std::uint64_t& v = prev[machine_of[i] - machines.base];
      v += static_cast<std::uint64_t>(util::ZigzagDecode(tok));
      if (v > max_value) return out_of_range();
      value = value_of(v);
      return true;
    });
  };
  const auto machine_delta = [&](auto& dst, std::uint64_t max_value) {
    using T = typename std::decay_t<decltype(dst)>::value_type;
    return machine_delta_as(dst, max_value,
                            [](std::uint64_t v) { return static_cast<T>(v); });
  };

  if (!stream_delta(cols.iteration, 0xffffffffull)) return column_error();
  if (!stream_delta(cols.t, kNoLimit)) return column_error();
  if (!machine_delta(cols.boot_time, kNoLimit)) return column_error();
  if (!machine_delta(cols.uptime_s, kNoLimit)) return column_error();
  // cpu_idle_s: centiseconds back to seconds (bit-identical to LMTR1)
  if (!machine_delta_as(cols.cpu_idle_s, kNoLimit, [](std::uint64_t v) {
        return static_cast<double>(static_cast<std::int64_t>(v)) / 100.0;
      })) {
    return column_error();
  }
  if (!machine_delta(cols.ram_mb, 0xffffull)) return column_error();
  if (!machine_delta(cols.mem_load_pct, 0xffull)) return column_error();
  if (!machine_delta(cols.swap_load_pct, 0xffull)) return column_error();
  if (!machine_delta(cols.disk_total_b, kNoLimit)) return column_error();
  if (!machine_delta(cols.disk_free_b, kNoLimit)) return column_error();
  if (!machine_delta(cols.smart_power_on_hours, kNoLimit)) {
    return column_error();
  }
  if (!machine_delta(cols.smart_power_cycles, kNoLimit)) {
    return column_error();
  }
  if (!machine_delta(cols.net_sent_b, kNoLimit)) return column_error();
  if (!machine_delta(cols.net_recv_b, kNoLimit)) return column_error();
  // has_session: raw 0/1 tokens
  if (!column(cols.has_session,
              [&](std::size_t, std::uint64_t tok, std::uint8_t& flag) {
                if (tok > 1) {
                  err = "session flag out of range";
                  return false;
                }
                flag = static_cast<std::uint8_t>(tok);
                return true;
              })) {
    return column_error();
  }
  if (!machine_delta(cols.session_logon, kNoLimit)) return column_error();
  // user_id: 0 = no session, else table index + 1
  const std::uint64_t user_table_size = out.users.size();
  if (!column(cols.user_id,
              [&](std::size_t, std::uint64_t tok, std::uint32_t& id) {
                if (tok > user_table_size) {
                  err = "dangling user reference";
                  return false;
                }
                id = tok == 0 ? TraceStore::kNoUser
                              : static_cast<std::uint32_t>(tok - 1);
                return true;
              })) {
    return column_error();
  }

  // Iteration rows (numbered from zero; the segment reader renumbers).
  std::uint64_t prev_start = 0;
  std::uint64_t prev_end = 0;
  out.iterations.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(*iteration_count, r.remaining() / 4)));
  for (std::uint64_t i = 0; i < *iteration_count; ++i) {
    const auto ds = r.ReadSigned();
    const auto de = r.ReadSigned();
    const auto attempts = r.Read();
    const auto successes = r.Read();
    if (!ds || !de || !attempts || !successes) {
      return R::Err("truncated LMSG2 iteration metadata");
    }
    if (*attempts > 0xffffffffull || *successes > 0xffffffffull) {
      return R::Err("implausible LMSG2 iteration counts");
    }
    prev_start += static_cast<std::uint64_t>(*ds);
    prev_end += static_cast<std::uint64_t>(*de);
    IterationInfo info;
    info.iteration = i;
    info.start_t = static_cast<std::int64_t>(prev_start);
    info.end_t = static_cast<std::int64_t>(prev_end);
    info.attempts = static_cast<std::uint32_t>(*attempts);
    info.successes = static_cast<std::uint32_t>(*successes);
    out.iterations.push_back(info);
  }

  if (!r.AtEnd()) return R::Err("trailing bytes after LMSG2 block");
  return true;
}

}  // namespace

const char* SpillCodecName(SpillCodecId id) noexcept {
  switch (id) {
    case SpillCodecId::kLmsg1:
      return "lmsg1";
    case SpillCodecId::kLmsg2:
      return "lmsg2";
  }
  return "unknown";
}

const char* SpillColumnName(std::size_t column) noexcept {
  return column < kSpillColumnCount ? kColumnNames[column] : "unknown";
}

std::optional<SpillCodecId> ParseSpillCodecName(std::string_view name) noexcept {
  if (name == "lmsg1") return SpillCodecId::kLmsg1;
  if (name == "lmsg2") return SpillCodecId::kLmsg2;
  return std::nullopt;
}

std::uint64_t RawColumnBytes(const BlockView& block) noexcept {
  std::uint64_t bytes = 0;
  TraceStore::ForEachColumn([&](auto member) {
    const auto& column = block.cols.*member;
    bytes += column.size() * sizeof(column[0]);
  });
  for (const std::string& user : block.users) bytes += user.size();
  bytes += block.iterations.size() * sizeof(IterationInfo);
  return bytes;
}

const SpillCodec& GetSpillCodec(SpillCodecId id) noexcept {
  static const Lmsg1Codec lmsg1;
  static const Lmsg2Codec lmsg2;
  return id == SpillCodecId::kLmsg1 ? static_cast<const SpillCodec&>(lmsg1)
                                    : static_cast<const SpillCodec&>(lmsg2);
}

const SpillCodec* FindSpillCodecByMagic(std::string_view magic) noexcept {
  if (magic == kLmsg1Magic) return &GetSpillCodec(SpillCodecId::kLmsg1);
  if (magic == kLmsg2Magic) return &GetSpillCodec(SpillCodecId::kLmsg2);
  return nullptr;
}

}  // namespace labmon::trace
