#include "labmon/trace/block.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

namespace labmon::trace {
namespace {

SampleRecord MakeRecord(std::uint32_t machine, std::uint32_t iteration,
                        std::int64_t t, bool session = false) {
  SampleRecord r;
  r.machine = machine;
  r.iteration = iteration;
  r.t = t;
  r.boot_time = t - 900;
  r.uptime_s = 900;
  r.cpu_idle_s = 640.25;
  r.mem_load_pct = 37;
  r.swap_load_pct = 12;
  r.disk_total_b = 74'500'000'000ULL;
  r.disk_free_b = 51'000'000'000ULL;
  r.smart_power_on_hours = 4100;
  r.smart_power_cycles = 512;
  r.net_sent_b = 1000 + t;
  r.net_recv_b = 2000 + t;
  if (session) {
    r.has_session = true;
    r.session_logon = t - 120;
    r.user = "a" + std::to_string(machine % 3);
  }
  return r;
}

TraceStore MakeStore(std::size_t samples) {
  TraceStore store(4);
  for (std::size_t i = 0; i < samples; ++i) {
    store.Append(MakeRecord(static_cast<std::uint32_t>(i % 4),
                            static_cast<std::uint32_t>(i / 4),
                            900 * static_cast<std::int64_t>(i / 4 + 1),
                            i % 2 == 0));
  }
  return store;
}

TEST(StoreReaderTest, CoversEveryRowAcrossBlockBoundaries) {
  const TraceStore store = MakeStore(25);
  StoreReader reader(store, 7);  // 25 rows -> blocks of 7,7,7,4
  std::size_t rows = 0;
  std::size_t blocks = 0;
  while (const TraceBlock* block = reader.Next()) {
    EXPECT_LE(block->size(), 7u);
    rows += block->size();
    ++blocks;
  }
  EXPECT_EQ(rows, 25u);
  EXPECT_EQ(blocks, 4u);
  reader.Reset();
  EXPECT_NE(reader.Next(), nullptr);
}

TEST(StoreReaderTest, BlockUserTableIsSelfContained) {
  const TraceStore store = MakeStore(10);
  StoreReader reader(store, 3);
  std::size_t pos = 0;
  while (const TraceBlock* block = reader.Next()) {
    for (std::size_t i = 0; i < block->size(); ++i, ++pos) {
      EXPECT_EQ(block->UserOf(i), store.samples()[pos].user);
    }
  }
  EXPECT_EQ(pos, store.size());
}

TEST(HashSampleStreamTest, IndependentOfBlockBoundaries) {
  const TraceStore store = MakeStore(40);
  StoreReader whole(store, kDefaultBlockSamples);
  StoreReader tiny(store, 1);
  StoreReader odd(store, 11);
  const std::uint64_t h = HashSampleStream(whole);
  EXPECT_EQ(HashSampleStream(tiny), h);
  EXPECT_EQ(HashSampleStream(odd), h);
}

TEST(HashSampleStreamTest, SensitiveToAnyColumn) {
  TraceStore a = MakeStore(8);
  TraceStore b = MakeStore(8);
  StoreReader ra(a), rb(b);
  EXPECT_EQ(HashSampleStream(ra), HashSampleStream(rb));

  TraceStore c = MakeStore(7);
  c.Append([] {
    SampleRecord r = MakeRecord(3, 1, 1800, false);
    r.mem_load_pct = 38;  // one column, one unit off
    return r;
  }());
  StoreReader rc(c);
  ra.Reset();
  EXPECT_NE(HashSampleStream(rc), HashSampleStream(ra));
}

TEST(HashSampleStreamTest, IndependentOfUserInterning) {
  // Same sample sequence, different interning order: hash must agree
  // because session rows hash the user string, not the table id.
  TraceStore a(2);
  TraceStore b(2);
  SampleRecord r0 = MakeRecord(0, 0, 900, true);
  r0.user = "zz9";
  SampleRecord r1 = MakeRecord(1, 0, 900, true);
  r1.user = "aa1";
  a.Append(r0);
  a.Append(r1);
  EXPECT_EQ(b.InternUserId("aa1"), 0u);  // pre-intern in reverse order
  EXPECT_EQ(b.InternUserId("zz9"), 1u);
  b.Append(r0);
  b.Append(r1);
  StoreReader ra(a), rb(b);
  EXPECT_EQ(HashSampleStream(ra), HashSampleStream(rb));
}

/// The stream hash spelled out byte by byte: FNV-1a over each column's
/// value widened to 64 bits (doubles by their bits, signed columns
/// sign-extended) in little-endian order, user_id skipped, and on session
/// rows the user string's length (8 bytes) then its bytes.
std::uint64_t BytewiseStreamHash(std::uint64_t h, const TraceBlock& block) {
  using Columns = TraceStore::Columns;
  const auto byte = [&h](unsigned char b) {
    h ^= b;
    h *= 0x100000001b3ull;
  };
  const auto u64 = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  };
  for (std::size_t i = 0; i < block.size(); ++i) {
    TraceStore::ForEachColumn([&](auto member) {
      using T = typename std::remove_cvref_t<
          decltype(block.cols.*member)>::value_type;
      if constexpr (std::is_same_v<decltype(member),
                                   std::vector<std::uint32_t> Columns::*>) {
        if (member == &Columns::user_id) return;
      }
      const T v = (block.cols.*member)[i];
      if constexpr (std::is_same_v<T, double>) {
        u64(std::bit_cast<std::uint64_t>(v));
      } else if constexpr (std::is_signed_v<T>) {
        u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
      } else {
        u64(static_cast<std::uint64_t>(v));
      }
    });
    if (block.cols.has_session[i] != 0) {
      const std::string_view user = block.UserOf(i);
      u64(user.size());
      for (const char c : user) byte(static_cast<unsigned char>(c));
    }
  }
  return h;
}

/// Rows whose columns hold the values a byte-skipping hash could get
/// wrong: zero, a lone high byte, all ones, negative integers, -0.0, NaN,
/// and long user strings.
TraceBlock EdgeValueBlock() {
  constexpr std::uint64_t kU64[] = {
      0,           1,          0xffu,      0x100u,
      1ull << 56,  1ull << 63, 0x8000'0000u, ~0ull,
      0x00ff'0000'0000'0000ull, 0x0102'0304'0506'0708ull};
  constexpr std::int64_t kI64[] = {0,  -1, std::numeric_limits<std::int64_t>::min(),
                                   std::numeric_limits<std::int64_t>::max(),
                                   -(1ll << 40), 1ll << 56, 1'104'537'600,
                                   -256, 255, 42};
  const double kF64[] = {0.0,
                         -0.0,
                         std::numeric_limits<double>::quiet_NaN(),
                         -std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::denorm_min(),
                         1.0,
                         640.25,
                         -1e300,
                         std::bit_cast<double>(1ull << 56)};
  TraceBlock block;
  block.users = {std::string(300, 'x'), "", "a0099",
                 std::string(70000, '\xff'), std::string("\0z\0", 3)};
  auto& c = block.cols;
  for (std::size_t r = 0; r < 40; ++r) {
    const std::size_t a = r % 10;
    const std::size_t b = (r * 3 + 1) % 10;
    c.machine.push_back(static_cast<std::uint32_t>(kU64[b]));
    c.iteration.push_back(static_cast<std::uint32_t>(kU64[a] >> 32));
    c.t.push_back(kI64[a]);
    c.boot_time.push_back(kI64[b]);
    c.uptime_s.push_back(kI64[(a + 5) % 10]);
    c.cpu_idle_s.push_back(kF64[a]);
    c.ram_mb.push_back(static_cast<std::uint16_t>(kU64[(b + 2) % 10]));
    c.mem_load_pct.push_back(static_cast<std::uint8_t>(kU64[a]));
    c.swap_load_pct.push_back(static_cast<std::uint8_t>(kU64[b] >> 8));
    c.disk_total_b.push_back(kU64[a]);
    c.disk_free_b.push_back(kU64[b]);
    c.smart_power_on_hours.push_back(kU64[(a + 3) % 10]);
    c.smart_power_cycles.push_back(kU64[(b + 7) % 10]);
    c.net_sent_b.push_back(kU64[(a + 1) % 10] ^ (r << 20));
    c.net_recv_b.push_back(std::bit_cast<std::uint64_t>(kF64[b]));
    const bool session = r % 3 != 0;
    c.has_session.push_back(session ? 1 : 0);
    c.session_logon.push_back(session ? kI64[(b + 4) % 10] : 0);
    c.user_id.push_back(session ? static_cast<std::uint32_t>(r % 5)
                                : TraceStore::kNoUser);
  }
  return block;
}

TEST(HashSampleStreamTest, MatchesBytewiseFnvOnEdgeValues) {
  const TraceBlock block = EdgeValueBlock();
  const std::uint64_t want = BytewiseStreamHash(kSampleStreamHashSeed, block);
  EXPECT_EQ(HashBlockSamples(kSampleStreamHashSeed, block), want);
  // Pinned: the bytewise definition is the stream hash's contract.
  EXPECT_EQ(want, 0xa84d6064184d0dbbull);
  // Chained blocks fold as one stream.
  const TraceBlock store_block = [] {
    TraceBlock b;
    b.AssignFrom(MakeStore(25));
    return b;
  }();
  EXPECT_EQ(HashBlockSamples(HashBlockSamples(kSampleStreamHashSeed, block),
                             store_block),
            BytewiseStreamHash(want, store_block));
}

TEST(TraceBlockTest, AssignFromCopiesSamplesUsersIterations) {
  TraceStore store = MakeStore(6);
  store.AppendIteration({0, 900, 960, 4, 4});
  store.AppendIteration({1, 1800, 1860, 4, 4});
  TraceBlock block;
  block.AssignFrom(store);
  EXPECT_EQ(block.size(), 6u);
  EXPECT_EQ(block.iterations.size(), 2u);
  for (std::size_t i = 0; i < block.size(); ++i) {
    EXPECT_EQ(block.UserOf(i), store.samples()[i].user);
    EXPECT_EQ(block.cols.t[i], store.samples()[i].t);
  }
  block.Clear();
  EXPECT_TRUE(block.empty());
  EXPECT_TRUE(block.iterations.empty());
}

TEST(BlockVectorReaderTest, StreamsSealedBlocksInOrder) {
  std::vector<TraceBlock> blocks(2);
  blocks[0].AssignFrom(MakeStore(3));
  blocks[1].AssignFrom(MakeStore(5));
  BlockVectorReader reader(blocks);
  const TraceBlock* b = reader.Next();
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->size(), 3u);
  b = reader.Next();
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->size(), 5u);
  EXPECT_EQ(reader.Next(), nullptr);
}

}  // namespace
}  // namespace labmon::trace
