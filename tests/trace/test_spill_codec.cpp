// SpillCodec unit + fuzz suite: LMSG2 round-trip fidelity over arbitrary
// column mixes and block sizes, cross-codec equivalence on probe-like
// data, and loud failure on every class of payload corruption the segment
// checksum could in principle miss (the codec must stand alone).
#include "labmon/trace/spill_codec.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <random>
#include <string>
#include <vector>

#include "labmon/trace/block.hpp"
#include "labmon/util/varint.hpp"

namespace labmon::trace {
namespace {

constexpr std::size_t kMachines = 16;

const SpillCodec& Lmsg2() { return GetSpillCodec(SpillCodecId::kLmsg2); }
const SpillCodec& Lmsg1() { return GetSpillCodec(SpillCodecId::kLmsg1); }

/// Builds a block store with every column driven by the RNG across its
/// full domain. cpu_idle_s stays in the probe's two-decimal domain (the
/// codec contract is "bit-identical to LMTR1", and LMTR1's centisecond
/// transform is exact only there); everything else is unconstrained.
TraceStore RandomBlock(std::mt19937_64& rng, std::size_t samples) {
  TraceStore store(kMachines);
  std::uniform_int_distribution<std::uint64_t> u64;
  std::uniform_int_distribution<std::uint32_t> machine(0, kMachines - 1);
  std::uniform_int_distribution<int> pct(0, 100);
  std::uniform_int_distribution<int> user_pick(0, 4);
  std::uniform_int_distribution<std::int64_t> idle_cs(0, 400'000'000);
  for (std::size_t i = 0; i < samples; ++i) {
    SampleRecord r;
    r.machine = machine(rng);
    r.iteration = static_cast<std::uint32_t>(u64(rng));
    r.t = static_cast<std::int64_t>(u64(rng));
    r.boot_time = static_cast<std::int64_t>(u64(rng));
    r.uptime_s = static_cast<std::int64_t>(u64(rng));
    r.cpu_idle_s = static_cast<double>(idle_cs(rng)) / 100.0;
    r.ram_mb = static_cast<std::uint16_t>(u64(rng));
    r.mem_load_pct = static_cast<std::uint8_t>(pct(rng));
    r.swap_load_pct = static_cast<std::uint8_t>(pct(rng));
    r.disk_total_b = u64(rng);
    r.disk_free_b = u64(rng);
    r.smart_power_on_hours = u64(rng);
    r.smart_power_cycles = u64(rng);
    r.net_sent_b = u64(rng);
    r.net_recv_b = u64(rng);
    const int pick = user_pick(rng);
    if (pick > 0) {
      r.has_session = true;
      r.session_logon = static_cast<std::int64_t>(u64(rng));
      r.user = "user" + std::to_string(pick);
    }
    store.Append(std::move(r));
  }
  std::uniform_int_distribution<std::size_t> iters(0, 3);
  const std::size_t iteration_rows = iters(rng);
  for (std::size_t i = 0; i < iteration_rows; ++i) {
    store.AppendIteration({i, static_cast<std::int64_t>(u64(rng)),
                           static_cast<std::int64_t>(u64(rng)),
                           static_cast<std::uint32_t>(u64(rng)),
                           static_cast<std::uint32_t>(u64(rng))});
  }
  return store;
}

void ExpectBlockEqualsStore(const TraceBlock& block, const TraceStore& store) {
  ASSERT_EQ(block.size(), store.size());
  const TraceStore::Columns& got = block.cols;
  const TraceStore::Columns& want = store.columns();
  TraceStore::ForEachColumn([&](auto member) {
    const auto& g = got.*member;
    const auto& w = want.*member;
    ASSERT_EQ(g.size(), w.size());
    for (std::size_t i = 0; i < g.size(); ++i) {
      ASSERT_EQ(g[i], w[i]) << "row " << i;
    }
  });
  for (std::size_t i = 0; i < block.size(); ++i) {
    ASSERT_EQ(block.UserOf(i), store.UserOf(i)) << "row " << i;
  }
  ASSERT_EQ(block.iterations.size(), store.iterations().size());
  for (std::size_t i = 0; i < block.iterations.size(); ++i) {
    const IterationInfo& g = block.iterations[i];
    const IterationInfo& w = store.iterations()[i];
    EXPECT_EQ(g.start_t, w.start_t);
    EXPECT_EQ(g.end_t, w.end_t);
    EXPECT_EQ(g.attempts, w.attempts);
    EXPECT_EQ(g.successes, w.successes);
  }
}

TEST(SpillCodecTest, NamesAndParsingRoundTrip) {
  EXPECT_STREQ(SpillCodecName(SpillCodecId::kLmsg1), "lmsg1");
  EXPECT_STREQ(SpillCodecName(SpillCodecId::kLmsg2), "lmsg2");
  EXPECT_EQ(ParseSpillCodecName("lmsg1"), SpillCodecId::kLmsg1);
  EXPECT_EQ(ParseSpillCodecName("lmsg2"), SpillCodecId::kLmsg2);
  EXPECT_EQ(ParseSpillCodecName("zstd"), std::nullopt);
  EXPECT_EQ(ParseSpillCodecName(""), std::nullopt);
  EXPECT_EQ(GetSpillCodec(SpillCodecId::kLmsg1).magic(), "LMSG1");
  EXPECT_EQ(GetSpillCodec(SpillCodecId::kLmsg2).magic(), "LMSG2");
  EXPECT_EQ(FindSpillCodecByMagic("LMSG2"), &Lmsg2());
  EXPECT_EQ(FindSpillCodecByMagic("LMSG0"), nullptr);
}

// The fuzz harness: any column mix, any block size including 1 and 0.
TEST(SpillCodecTest, RandomBlockRoundTripFuzz) {
  std::mt19937_64 rng(20050201);
  const std::size_t sizes[] = {0, 1, 2, 3, 7, 64, 257, 1024};
  std::string payload;
  TraceBlock decoded;
  for (int round = 0; round < 8; ++round) {
    for (const std::size_t n : sizes) {
      const TraceStore store = RandomBlock(rng, n);
      Lmsg2().EncodeBlock(store, payload);
      auto ok = Lmsg2().DecodeBlock(payload, kMachines, decoded);
      ASSERT_TRUE(ok.ok()) << ok.error() << " (n=" << n << ")";
      ExpectBlockEqualsStore(decoded, store);
    }
  }
}

// Cross-codec fidelity: both codecs must decode the exact same sample
// values (including the centisecond-quantised cpu_idle_s), so the stream
// hash — which is what the engines pin — is codec-independent.
TEST(SpillCodecTest, Lmsg1AndLmsg2DecodeIdenticalStreams) {
  std::mt19937_64 rng(42);
  std::string p1;
  std::string p2;
  TraceBlock b1;
  TraceBlock b2;
  for (const std::size_t n : {1u, 33u, 500u}) {
    const TraceStore store = RandomBlock(rng, n);
    Lmsg1().EncodeBlock(store, p1);
    Lmsg2().EncodeBlock(store, p2);
    ASSERT_TRUE(Lmsg1().DecodeBlock(p1, kMachines, b1).ok());
    ASSERT_TRUE(Lmsg2().DecodeBlock(p2, kMachines, b2).ok());
    const std::uint64_t h1 = HashBlockSamples(kSampleStreamHashSeed, b1);
    const std::uint64_t h2 = HashBlockSamples(kSampleStreamHashSeed, b2);
    EXPECT_EQ(h1, h2) << "n=" << n;
  }
}

TEST(SpillCodecTest, CompressesRedundantFleetLikeBlocks) {
  // A fleet-like block: per-machine near-constant levels, shared users,
  // monotone counters — the shape the simulator produces.
  TraceStore store(kMachines);
  for (std::uint32_t it = 0; it < 64; ++it) {
    for (std::uint32_t m = 0; m < kMachines; ++m) {
      SampleRecord r;
      r.machine = m;
      r.iteration = it;
      r.t = 900 * it + m;
      r.boot_time = 1000 + m;
      r.uptime_s = 900 * it;
      r.cpu_idle_s = static_cast<double>(890 * it) / 100.0;  // n/100 domain
      r.ram_mb = 512;
      r.mem_load_pct = 40;
      r.swap_load_pct = 5;
      r.disk_total_b = 80'000'000'000ULL;
      r.disk_free_b = 60'000'000'000ULL - it * 1000;
      r.smart_power_on_hours = 1000 + it / 4;
      r.smart_power_cycles = 120;
      r.net_sent_b = 100'000ULL * it;
      r.net_recv_b = 300'000ULL * it;
      if (m % 3 == 0) {
        r.has_session = true;
        r.session_logon = 900;
        r.user = "student" + std::to_string(m % 2);
      }
      store.Append(std::move(r));
    }
  }
  std::string p1;
  std::string p2;
  Lmsg1().EncodeBlock(store, p1);
  Lmsg2().EncodeBlock(store, p2);
  EXPECT_LT(p2.size() * 3, p1.size())
      << "lmsg1=" << p1.size() << " lmsg2=" << p2.size();
  TraceBlock decoded;
  ASSERT_TRUE(Lmsg2().DecodeBlock(p2, kMachines, decoded).ok());
  ExpectBlockEqualsStore(decoded, store);
}

TEST(SpillCodecTest, RawColumnBytesCountsColumnsUsersIterations) {
  std::mt19937_64 rng(7);
  const TraceStore store = RandomBlock(rng, 10);
  const std::uint64_t raw = RawColumnBytes(store);
  EXPECT_GT(raw, 10 * 50u);  // 18 columns, >= ~90 bytes/row
  TraceBlock block;
  block.AssignFrom(store);
  EXPECT_EQ(RawColumnBytes(block), raw);
}

// --- corruption / decoded-length validation -----------------------------

std::string EncodeOne(const TraceStore& store) {
  std::string payload;
  Lmsg2().EncodeBlock(store, payload);
  return payload;
}

TEST(SpillCodecTest, TruncatedPayloadFailsAtEveryLength) {
  std::mt19937_64 rng(3);
  const TraceStore store = RandomBlock(rng, 40);
  const std::string payload = EncodeOne(store);
  TraceBlock decoded;
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    auto result = Lmsg2().DecodeBlock(
        std::string_view(payload).substr(0, cut), kMachines, decoded);
    EXPECT_FALSE(result.ok()) << "cut=" << cut;
  }
}

TEST(SpillCodecTest, TrailingGarbageIsRejected) {
  std::mt19937_64 rng(4);
  const TraceStore store = RandomBlock(rng, 8);
  std::string payload = EncodeOne(store);
  payload.push_back('\x7f');
  TraceBlock decoded;
  auto result = Lmsg2().DecodeBlock(payload, kMachines, decoded);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().find("trailing"), std::string::npos)
      << result.error();
}

TEST(SpillCodecTest, BitFlipsFailOrPreserveStructure) {
  // Without the segment checksum a flipped bit may still decode (varint
  // payloads are dense), but it must never crash, hang, or produce a
  // structurally broken block (wrong row counts, dangling user ids).
  std::mt19937_64 rng(5);
  const TraceStore store = RandomBlock(rng, 30);
  const std::string payload = EncodeOne(store);
  TraceBlock decoded;
  for (std::size_t bit = 0; bit < payload.size() * 8; bit += 7) {
    std::string mutated = payload;
    mutated[bit / 8] ^= static_cast<char>(1u << (bit % 8));
    auto result = Lmsg2().DecodeBlock(mutated, kMachines, decoded);
    if (!result.ok()) continue;
    TraceStore::ForEachColumn([&](auto member) {
      EXPECT_EQ((decoded.cols.*member).size(), decoded.size());
    });
    for (std::size_t i = 0; i < decoded.size(); ++i) {
      const std::uint32_t id = decoded.cols.user_id[i];
      if (id != TraceStore::kNoUser) {
        EXPECT_LT(id, decoded.users.size());
      }
      EXPECT_LT(decoded.cols.machine[i], kMachines);
    }
  }
}

TEST(SpillCodecTest, MachineIdBeyondFleetBoundIsRejected) {
  TraceStore store(4);
  SampleRecord r;
  r.machine = 3;
  r.t = 100;
  store.Append(std::move(r));
  const std::string payload = EncodeOne(store);
  TraceBlock decoded;
  EXPECT_TRUE(Lmsg2().DecodeBlock(payload, 4, decoded).ok());
  auto tight = Lmsg2().DecodeBlock(payload, 3, decoded);
  ASSERT_FALSE(tight.ok());
  EXPECT_NE(tight.error().find("machine"), std::string::npos) << tight.error();
}

TEST(SpillCodecTest, HostileHeaderCountsFailFast) {
  // Hand-built payloads with implausible counts must fail on the header
  // check, not attempt a huge reserve.
  std::string payload;
  util::PutVarint(payload, std::uint64_t{1} << 40);  // sample_count
  util::PutVarint(payload, 0);
  util::PutVarint(payload, 0);
  TraceBlock decoded;
  EXPECT_FALSE(Lmsg2().DecodeBlock(payload, kMachines, decoded).ok());

  payload.clear();
  util::PutVarint(payload, 1);
  util::PutVarint(payload, 0);
  util::PutVarint(payload, std::uint64_t{1} << 33);  // user_count
  EXPECT_FALSE(Lmsg2().DecodeBlock(payload, kMachines, decoded).ok());

  // A count within the header bound whose machine section holds one row:
  // the decode fails there without sizing a column for the other 2^32 - 1.
  payload.clear();
  util::PutVarint(payload, std::uint64_t{1} << 32);  // sample_count
  util::PutVarint(payload, 0);
  util::PutVarint(payload, 0);
  util::PutVarint(payload, 2);
  payload += std::string("\x02\x00", 2);  // one literal group: row 0
  auto result = Lmsg2().DecodeBlock(payload, kMachines, decoded);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error(),
            "LMSG2 column 'machine': truncated token group header");
  EXPECT_LT(decoded.cols.machine.capacity(), std::size_t{1} << 20);

  // Counts at the header bound in short payloads: the user table and the
  // iteration rows fail where their bytes run out, and neither is reserved
  // by the header count alone.
  payload.clear();
  util::PutVarint(payload, 0);
  util::PutVarint(payload, 0);
  util::PutVarint(payload, std::uint64_t{1} << 28);  // user_count
  TraceBlock users_decoded;
  result = Lmsg2().DecodeBlock(payload, kMachines, users_decoded);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error(), "garbled LMSG2 user table");
  EXPECT_LT(users_decoded.users.capacity(), std::size_t{1} << 20);

  payload.clear();
  util::PutVarint(payload, 0);
  util::PutVarint(payload, std::uint64_t{1} << 28);  // iteration_count
  util::PutVarint(payload, 0);
  payload += std::string(kSpillColumnCount, '\0');  // empty sections
  payload += std::string("\x02\x02\x01", 3);        // 3/4 of one row
  TraceBlock rows_decoded;
  result = Lmsg2().DecodeBlock(payload, kMachines, rows_decoded);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error(), "truncated LMSG2 iteration metadata");
  EXPECT_LT(rows_decoded.iterations.capacity(), std::size_t{1} << 20);
}

// --- byte goldens ---------------------------------------------------------

constexpr std::size_t kFleetMachines = 1352;  // the x8 campus

std::uint64_t Fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// A lab window the way the pipelined engine seals it: machines
/// [first, first + count) of a fleet-sized id space, one row per
/// responding machine per iteration, monotone counters, a reboot, a few
/// sessions and some missed probes. Values come from mt19937_64's raw
/// output (fixed by the standard), never from a distribution.
TraceStore WindowBlock(std::uint32_t first, std::uint32_t count,
                       std::uint32_t iterations) {
  std::mt19937_64 rng(first * 131 + count);
  TraceStore store(kFleetMachines);
  constexpr std::uint32_t kFirstIteration = 2000;
  constexpr std::int64_t kPeriod = 900;
  const std::int64_t t0 = std::int64_t{kFirstIteration} * kPeriod;
  for (std::uint32_t it = 0; it < iterations; ++it) {
    std::uint32_t successes = 0;
    for (std::uint32_t k = 0; k < count; ++k) {
      if ((it * 7 + k * 3) % 11 == 5) continue;  // missed probe
      const std::uint32_t m = first + k;
      const bool rebooted = k == 2 && it >= 9;
      SampleRecord r;
      r.machine = m;
      r.iteration = kFirstIteration + it;
      r.t = t0 + kPeriod * it + 2 * k;
      r.boot_time = rebooted ? t0 + kPeriod * 9 - 120 : t0 - 86'400 - 37 * k;
      r.uptime_s = r.t - r.boot_time;
      r.cpu_idle_s =
          static_cast<double>(static_cast<std::int64_t>(r.uptime_s) * 97 +
                              static_cast<std::int64_t>(rng() % 5000)) /
          100.0;
      r.ram_mb = k % 4 == 0 ? 1024 : 512;
      r.mem_load_pct = static_cast<std::uint8_t>(30 + rng() % 40);
      r.swap_load_pct = static_cast<std::uint8_t>(k % 3 == 0 ? 7 : 4);
      r.disk_total_b = 74'500'000'000ULL + k * 1'000'000ULL;
      r.disk_free_b = 41'000'000'000ULL - it * 4096ULL * (k + 1);
      r.smart_power_on_hours = 9'000 + k * 11 + it / 4;
      r.smart_power_cycles = 700 + k + (rebooted ? 1 : 0);
      r.net_sent_b = 1'000'000ULL * k + it * (rng() % 65'536);
      r.net_recv_b = 3'000'000ULL * k + it * (rng() % 262'144);
      if (k % 4 == 1 && it >= 3 && it < 13) {
        r.has_session = true;
        r.session_logon = t0 + kPeriod * 3 - 60 * k;
        constexpr const char* kUsers[] = {"s100", "s101", "s102"};
        r.user = kUsers[(k * 5) % 3];
      }
      store.Append(r);
      ++successes;
    }
    store.AppendIteration({kFirstIteration + it, t0 + kPeriod * it,
                           t0 + kPeriod * it + 45 + it % 3, count,
                           successes});
  }
  return store;
}

// The LMSG2 bytes themselves, pinned: EncodeIsDeterministic compares two
// runs of one binary, so a change to the transforms or the RLE layer could
// alter the on-disk format without it noticing. The window block uses
// machine ids near the top of a 1,352-machine fleet, where per-machine
// delta state is keyed far from 0.
TEST(SpillCodecTest, Lmsg2BytesArePinned) {
  struct Golden {
    const char* name;
    TraceStore store;
    std::uint64_t fnv1a;
  };
  const Golden goldens[] = {
      {"window", WindowBlock(1337, 15, 17), 0x20e3479d0b06ae4dull},
      {"one_machine", WindowBlock(1351, 1, 17), 0x635ea58a56056f9eull},
      {"sample_free", WindowBlock(1337, 0, 16), 0xd01bf225cee476f9ull},
      {"empty", TraceStore(kFleetMachines), 0x98b2b1418e80a50full},
  };
  std::string payload;
  TraceBlock decoded;
  for (const Golden& g : goldens) {
    Lmsg2().EncodeBlock(g.store, payload);
    EXPECT_EQ(Fnv1a(payload), g.fnv1a)
        << g.name << ": 0x" << std::hex << Fnv1a(payload) << std::dec
        << " (" << payload.size() << " bytes)";
    auto ok = Lmsg2().DecodeBlock(payload, kFleetMachines, decoded);
    ASSERT_TRUE(ok.ok()) << g.name << ": " << ok.error();
    ExpectBlockEqualsStore(decoded, g.store);
  }
}

// --- decode goldens -------------------------------------------------------

/// FNV-1a over every decoded column's values (fixed-width bytes, doubles
/// by bit pattern), the user table and the iteration rows: the decoded
/// block itself, pinned independently of the store it was encoded from.
std::uint64_t DecodedFnv(std::uint64_t h, const TraceBlock& block) {
  const auto mix = [&h](const void* data, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ull;
    }
  };
  const std::uint64_t rows = block.size();
  mix(&rows, sizeof(rows));
  TraceStore::ForEachColumn([&](auto member) {
    for (const auto v : block.cols.*member) mix(&v, sizeof(v));
  });
  for (const std::string& user : block.users) {
    mix(user.data(), user.size());
    mix("", 1);
  }
  for (const IterationInfo& it : block.iterations) {
    mix(&it.start_t, sizeof(it.start_t));
    mix(&it.end_t, sizeof(it.end_t));
    mix(&it.attempts, sizeof(it.attempts));
    mix(&it.successes, sizeof(it.successes));
  }
  return h;
}

// Lab × 16-iteration window blocks the way a spilled x8 campaign seals
// them, decoded one after another into one reused block (as the segment
// reader does). Constant per-machine columns (ram_mb, disk_total_b, ...)
// code as one RLE run of zero deltas that spans every machine of the
// window, so a run crosses per-machine delta state on every row.
TEST(SpillCodecTest, DecodedWindowBlocksArePinned) {
  struct Lab {
    std::uint32_t first;
    std::uint32_t count;
  };
  const Lab labs[] = {{0, 40}, {40, 41}, {81, 1}, {1300, 37}, {1337, 15}};
  std::string payload;
  TraceBlock decoded;
  std::uint64_t h = 0xcbf29ce484222325ull;
  std::size_t rows = 0;
  for (const Lab& lab : labs) {
    const TraceStore store = WindowBlock(lab.first, lab.count, 16);
    Lmsg2().EncodeBlock(store, payload);
    auto ok = Lmsg2().DecodeBlock(payload, kFleetMachines, decoded);
    ASSERT_TRUE(ok.ok()) << lab.first << ": " << ok.error();
    ExpectBlockEqualsStore(decoded, store);
    h = DecodedFnv(h, decoded);
    rows += decoded.size();
  }
  EXPECT_EQ(rows, 1951u);
  EXPECT_EQ(h, 0x838c37095905ea83ull) << "0x" << std::hex << h;
}

// Hand-built LMSG2 payloads, one per decode error branch. Each has one
// sample (so every column is one token) unless the case says otherwise;
// Section() codes its tokens as one literal group.
std::string Section(std::initializer_list<std::uint64_t> tokens) {
  std::string s;
  util::PutVarint(s, std::uint64_t{tokens.size()} << 1);
  for (const std::uint64_t t : tokens) util::PutVarint(s, t);
  return s;
}

struct CraftedPayload {
  std::uint64_t samples = 1;
  std::vector<std::string> users;
  /// Section bytes per column; defaults to one zero token each.
  std::vector<std::string> sections =
      std::vector<std::string>(kSpillColumnCount, Section({0}));
  /// Column whose section-length varint is replaced by `raw_length`.
  std::size_t raw_length_column = kSpillColumnCount;
  std::string raw_length;
  /// Stop writing just before this column's section length.
  std::size_t cut_before = kSpillColumnCount;

  [[nodiscard]] std::string Build() const {
    std::string out;
    util::PutVarint(out, samples);
    util::PutVarint(out, 0);  // iteration rows
    util::PutVarint(out, users.size());
    for (const std::string& user : users) {
      util::PutVarint(out, user.size());
      out += user;
    }
    for (std::size_t col = 0; col < kSpillColumnCount; ++col) {
      if (col == cut_before) return out;
      if (col == raw_length_column) {
        out += raw_length;
        return out;
      }
      util::PutVarint(out, sections[col].size());
      out += sections[col];
    }
    return out;
  }
};

std::size_t ColumnIndex(std::string_view name) {
  for (std::size_t col = 0; col < kSpillColumnCount; ++col) {
    if (name == SpillColumnName(col)) return col;
  }
  ADD_FAILURE() << "no column " << name;
  return 0;
}

TEST(SpillCodecTest, EveryColumnDecodeErrorNamesItsColumn) {
  struct Case {
    const char* what;
    const char* column;
    CraftedPayload payload;
    std::size_t machine_count = kMachines;
    const char* error;
  };
  std::vector<Case> cases;
  const auto add = [&](const char* what, const char* column,
                       const char* error, auto&& edit,
                       std::size_t machine_count = kMachines) {
    Case c{what, column, {}, machine_count, error};
    edit(c.payload, ColumnIndex(column));
    cases.push_back(std::move(c));
  };

  add("truncated section length", "uptime_s", "truncated section length",
      [](CraftedPayload& p, std::size_t col) { p.cut_before = col; });
  add("half a section length varint", "net_recv_b",
      "truncated section length", [](CraftedPayload& p, std::size_t col) {
        p.raw_length_column = col;
        p.raw_length = "\x80";
      });
  add("section overruns payload", "disk_free_b", "section overruns payload",
      [](CraftedPayload& p, std::size_t col) {
        p.raw_length_column = col;
        util::PutVarint(p.raw_length, 3);
        p.raw_length += std::string(2, '\0');  // 2 of the 3 promised bytes
      });
  add("empty section", "t", "truncated token group header",
      [](CraftedPayload& p, std::size_t col) { p.sections[col].clear(); });
  add("half a group header", "cpu_idle_s", "truncated token group header",
      [](CraftedPayload& p, std::size_t col) { p.sections[col] = "\x80"; });
  add("zero-count group", "session_logon", "token group overruns column",
      [](CraftedPayload& p, std::size_t col) {
        p.sections[col].clear();
        util::PutVarint(p.sections[col], 0);
        p.sections[col] += Section({0});
      });
  add("zero-count run", "boot_time", "token group overruns column",
      [](CraftedPayload& p, std::size_t col) {
        p.sections[col].clear();
        util::PutVarint(p.sections[col], 1);  // run of 0 copies
        util::PutVarint(p.sections[col], 0);
      });
  add("literal group overruns column", "iteration",
      "token group overruns column", [](CraftedPayload& p, std::size_t col) {
        p.sections[col] = Section({0, 0});
      });
  add("run overruns column", "user_id", "token group overruns column",
      [](CraftedPayload& p, std::size_t col) {
        p.sections[col].clear();
        util::PutVarint(p.sections[col], (2 << 1) | 1);
        util::PutVarint(p.sections[col], 0);
      });
  add("truncated run value", "ram_mb", "truncated run value",
      [](CraftedPayload& p, std::size_t col) {
        p.sections[col].clear();
        util::PutVarint(p.sections[col], (1 << 1) | 1);
      });
  add("half a run value", "smart_power_cycles", "truncated run value",
      [](CraftedPayload& p, std::size_t col) {
        p.sections[col].clear();
        util::PutVarint(p.sections[col], (1 << 1) | 1);
        p.sections[col] += "\xff";
      });
  add("truncated literal", "net_sent_b", "truncated literal token",
      [](CraftedPayload& p, std::size_t col) {
        p.sections[col].clear();
        util::PutVarint(p.sections[col], 1 << 1);
      });
  add("truncated literal of a later row", "disk_total_b",
      "truncated literal token", [](CraftedPayload& p, std::size_t col) {
        p.samples = 3;
        for (std::string& s : p.sections) s = Section({0, 0, 0});
        p.sections[col].clear();
        util::PutVarint(p.sections[col], 3 << 1);
        util::PutVarint(p.sections[col], 0);
        util::PutVarint(p.sections[col], 2);
      });
  add("trailing section bytes", "smart_power_on_hours",
      "trailing bytes in column section",
      [](CraftedPayload& p, std::size_t col) { p.sections[col] += '\x00'; });
  add("trailing bytes after a machine run", "machine",
      "trailing bytes in column section",
      [](CraftedPayload& p, std::size_t col) {
        p.samples = 4;
        for (std::string& s : p.sections) s = Section({0, 0, 0, 0});
        p.sections[col].clear();
        util::PutVarint(p.sections[col], (4 << 1) | 1);
        util::PutVarint(p.sections[col], 0);
        util::PutVarint(p.sections[col], 0);
      });
  add("machine id at the bound", "machine", "machine id out of range",
      [](CraftedPayload& p, std::size_t col) {
        p.sections[col] = Section({util::ZigzagEncode(4)});
      },
      4);
  add("machine id climbs past the bound", "machine",
      "machine id out of range", [](CraftedPayload& p, std::size_t col) {
        p.samples = 3;
        for (std::string& s : p.sections) s = Section({0, 0, 0});
        p.sections[col] = Section({util::ZigzagEncode(2),
                                   util::ZigzagEncode(1),
                                   util::ZigzagEncode(1)});
      },
      4);
  add("iteration beyond u32", "iteration", "value out of column range",
      [](CraftedPayload& p, std::size_t col) {
        p.sections[col] = Section({util::ZigzagEncode(std::int64_t{1} << 32)});
      });
  add("ram_mb beyond u16", "ram_mb", "value out of column range",
      [](CraftedPayload& p, std::size_t col) {
        p.sections[col] = Section({util::ZigzagEncode(0x10000)});
      });
  add("mem_load_pct beyond u8", "mem_load_pct", "value out of column range",
      [](CraftedPayload& p, std::size_t col) {
        p.sections[col] = Section({util::ZigzagEncode(0x100)});
      });
  add("swap_load_pct below zero", "swap_load_pct",
      "value out of column range", [](CraftedPayload& p, std::size_t col) {
        p.sections[col] = Section({util::ZigzagEncode(-1)});
      });
  add("per-machine delta climbs past u8", "mem_load_pct",
      "value out of column range", [](CraftedPayload& p, std::size_t col) {
        // Rows 0 and 2 are machine 1 (0xf0, then +0x10): only the
        // per-machine sum, not the token, leaves the range.
        p.samples = 3;
        for (std::string& s : p.sections) s = Section({0, 0, 0});
        p.sections[ColumnIndex("machine")] =
            Section({util::ZigzagEncode(1), util::ZigzagEncode(1),
                     util::ZigzagEncode(-1)});
        p.sections[col] =
            Section({util::ZigzagEncode(0xf0), util::ZigzagEncode(5),
                     util::ZigzagEncode(0x10)});
      });
  add("session flag 2", "has_session", "session flag out of range",
      [](CraftedPayload& p, std::size_t col) {
        p.sections[col] = Section({2});
      });
  add("dangling user id", "user_id", "dangling user reference",
      [](CraftedPayload& p, std::size_t col) {
        p.users = {"alice"};
        p.sections[col] = Section({2});
      });
  add("user id with an empty table", "user_id", "dangling user reference",
      [](CraftedPayload& p, std::size_t col) {
        p.sections[col] = Section({1});
      });

  TraceBlock decoded;
  for (const Case& c : cases) {
    const std::string payload = c.payload.Build();
    auto result = Lmsg2().DecodeBlock(payload, c.machine_count, decoded);
    ASSERT_FALSE(result.ok()) << c.what;
    EXPECT_EQ(result.error(),
              std::string("LMSG2 column '") + c.column + "': " + c.error)
        << c.what;
  }

  // The unedited payload (and a three-row one) decodes: every case above
  // fails for the one fault it plants.
  CraftedPayload clean;
  ASSERT_TRUE(Lmsg2().DecodeBlock(clean.Build(), kMachines, decoded).ok());
  EXPECT_EQ(decoded.size(), 1u);
  clean.samples = 3;
  clean.users = {"alice"};
  for (std::string& s : clean.sections) s = Section({0, 0, 0});
  clean.sections[ColumnIndex("has_session")] = Section({0, 1, 0});
  clean.sections[ColumnIndex("user_id")] = Section({0, 1, 0});
  ASSERT_TRUE(Lmsg2().DecodeBlock(clean.Build(), kMachines, decoded).ok());
  EXPECT_EQ(decoded.UserOf(1), "alice");
}

TEST(SpillCodecTest, EncodeIsDeterministic) {
  std::mt19937_64 rng(11);
  const TraceStore store = RandomBlock(rng, 100);
  std::string a;
  std::string b;
  Lmsg2().EncodeBlock(store, a);
  Lmsg2().EncodeBlock(store, b);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
}

}  // namespace
}  // namespace labmon::trace
