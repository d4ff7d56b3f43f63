// MergeFrontier tests — the push-model incremental merge must emit a
// sample stream bit-identical to the pull-model StreamMergeBlocks over
// the same part streams, regardless of the order parts' blocks arrive,
// the order parts finish, whether blocks are owned or borrowed views,
// and how many fronts are ready at once. These invariances are what make
// the pipelined engine's output independent of thread scheduling. Fronts
// that break the linear-time ordering's check (front_order.hpp) must get
// the comparison sort's order and be counted.
#include "labmon/trace/merge_frontier.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <memory>
#include <type_traits>
#include <vector>

#include "labmon/core/experiment.hpp"
#include "labmon/trace/block.hpp"
#include "labmon/trace/merge.hpp"
#include "labmon/trace/stream_merge.hpp"

namespace labmon::trace {
namespace {

constexpr std::size_t kMachineCount = 8;  // 4 parts x 2 machines
constexpr std::size_t kParts = 4;         // part 3 stays empty
constexpr std::uint32_t kIterations = 12;
// Per machine per iteration: a full backlog of ready fronts holds
// thousands of keys.
constexpr std::size_t kSamplesPerMachine = 60;
constexpr std::size_t kBlockSamples = 97;  // odd: forces partial seals

SampleRecord MakeRecord(std::uint32_t machine, std::uint32_t iteration,
                        std::size_t ordinal) {
  SampleRecord r;
  r.machine = machine;
  r.iteration = iteration;
  // Interleave timestamps across machines so the merge genuinely reorders.
  r.t = 900 * (iteration + 1) +
        static_cast<std::int64_t>((ordinal * kMachineCount) + machine);
  r.boot_time = r.t - 500;
  r.uptime_s = 500;
  r.cpu_idle_s = 471.125;
  r.mem_load_pct = static_cast<int>((machine * 7 + ordinal) % 100);
  r.swap_load_pct = 9;
  r.disk_total_b = 74'500'000'000ULL;
  r.disk_free_b = 58'000'000'321ULL - ordinal;
  r.smart_power_on_hours = 777;
  r.smart_power_cycles = 66;
  r.net_sent_b = 5000 + static_cast<std::uint64_t>(r.t);
  r.net_recv_b = 9000 + static_cast<std::uint64_t>(r.t);
  if (ordinal % 3 == 1) {
    r.has_session = true;
    r.session_logon = r.t - 200;
    r.user = "u" + std::to_string(machine);
  }
  return r;
}

/// One part block covering iterations [it_begin, it_end): iteration-major
/// rows for the part's two machines plus per-iteration metadata.
TraceStore MakePartStore(std::size_t part, std::uint32_t it_begin,
                         std::uint32_t it_end) {
  TraceStore store(kMachineCount);
  for (std::uint32_t it = it_begin; it < it_end; ++it) {
    for (std::size_t i = 0; i < kSamplesPerMachine; ++i) {
      for (std::uint32_t m = 0; m < 2; ++m) {
        store.Append(
            MakeRecord(static_cast<std::uint32_t>(2 * part + m), it, i));
      }
    }
    store.AppendIteration(
        {it, 900 * (it + 1), 900 * (it + 1) + 60 + static_cast<int>(part),
         static_cast<std::uint32_t>(2 * kSamplesPerMachine + part),
         static_cast<std::uint32_t>(2 * kSamplesPerMachine)});
  }
  return store;
}

TraceBlock MakePartBlock(std::size_t part, std::uint32_t it_begin,
                         std::uint32_t it_end) {
  TraceBlock block;
  block.AssignFrom(MakePartStore(part, it_begin, it_end));
  return block;
}

/// Part streams with deliberately mismatched block boundaries: part 0
/// seals per iteration, part 1 ships one giant block, part 2 seals every
/// five iterations, part 3 produces nothing at all.
std::vector<std::vector<TraceBlock>> MakePartStreams() {
  std::vector<std::vector<TraceBlock>> parts(kParts);
  for (std::uint32_t it = 0; it < kIterations; ++it) {
    parts[0].push_back(MakePartBlock(0, it, it + 1));
  }
  parts[1].push_back(MakePartBlock(1, 0, kIterations));
  for (std::uint32_t it = 0; it < kIterations; it += 5) {
    parts[2].push_back(
        MakePartBlock(2, it, std::min(it + 5, kIterations)));
  }
  return parts;
}

struct MergedDigest {
  std::uint64_t hash = kSampleStreamHashSeed;
  std::uint64_t samples = 0;
  std::uint64_t blocks = 0;
  std::vector<IterationInfo> iterations;

  void Fold(const TraceBlock& block) {
    hash = HashBlockSamples(hash, block);
    samples += block.size();
    ++blocks;
  }
};

MergedDigest PullReference(const std::vector<std::vector<TraceBlock>>& parts,
                           std::size_t block_samples = kBlockSamples) {
  std::vector<BlockVectorReader> readers;
  readers.reserve(parts.size());
  for (const auto& blocks : parts) readers.emplace_back(blocks);
  std::vector<TraceReader*> ptrs;
  for (auto& r : readers) ptrs.push_back(&r);
  MergedDigest digest;
  auto sink = [&](const TraceBlock& block) { digest.Fold(block); };
  const StreamMergeResult result = StreamMergeBlocks(
      ptrs, kMachineCount, block_samples,
      util::FunctionRef<void(const TraceBlock&)>(sink));
  digest.iterations = result.iterations;
  EXPECT_EQ(digest.samples, result.samples);
  EXPECT_EQ(digest.blocks, result.blocks);
  return digest;
}

void ExpectDigestsEqual(const MergedDigest& got, const MergedDigest& want) {
  EXPECT_EQ(got.hash, want.hash);
  EXPECT_EQ(got.samples, want.samples);
  EXPECT_EQ(got.blocks, want.blocks);
  ASSERT_EQ(got.iterations.size(), want.iterations.size());
  for (std::size_t i = 0; i < want.iterations.size(); ++i) {
    EXPECT_EQ(got.iterations[i].iteration, want.iterations[i].iteration);
    EXPECT_EQ(got.iterations[i].start_t, want.iterations[i].start_t);
    EXPECT_EQ(got.iterations[i].end_t, want.iterations[i].end_t);
    EXPECT_EQ(got.iterations[i].attempts, want.iterations[i].attempts);
    EXPECT_EQ(got.iterations[i].successes, want.iterations[i].successes);
  }
}

TEST(MergeFrontierTest, IncrementalPushMatchesPullMerge) {
  const auto parts = MakePartStreams();
  const MergedDigest want = PullReference(parts);
  ASSERT_GT(want.samples, 0u);
  ASSERT_EQ(want.iterations.size(), kIterations);

  MergeFrontier frontier(kParts, kMachineCount, kBlockSamples);
  MergedDigest got;
  std::size_t recycled = 0;
  std::size_t appended = 0;
  auto emit = [&](TraceBlock& block) { got.Fold(block); };
  auto recycle = [&](std::size_t, std::unique_ptr<TraceBlock> block) {
    ASSERT_NE(block, nullptr);
    ++recycled;
  };
  const MergeFrontier::EmitFn emit_fn(emit);
  const MergeFrontier::RecycleFn recycle_fn(recycle);

  // Feed parts in reverse order, one block per Advance, so the frontier
  // repeatedly stalls on the slowest part and resumes. The empty part
  // finishes first; merged output must still be the pull result.
  frontier.FinishPart(3);
  const std::size_t max_blocks = parts[0].size();
  for (std::size_t b = 0; b < max_blocks; ++b) {
    for (std::size_t p = kParts; p-- > 0;) {
      if (b >= parts[p].size()) continue;
      frontier.Append(p, std::make_unique<TraceBlock>(parts[p][b]));
      ++appended;
      frontier.Advance(emit_fn, recycle_fn);
      if (b + 1 == parts[p].size()) frontier.FinishPart(p);
    }
  }
  frontier.Advance(emit_fn, recycle_fn);
  ASSERT_TRUE(frontier.finished());
  got.iterations = frontier.TakeIterations();

  ExpectDigestsEqual(got, want);
  EXPECT_EQ(got.samples, frontier.samples());
  EXPECT_EQ(got.blocks, frontier.blocks());
  EXPECT_EQ(recycled, appended);  // every owned block came back
  EXPECT_EQ(frontier.buffered_blocks(), 0u);
}

TEST(MergeFrontierTest, FullBacklogInOneAdvanceMatchesPullMerge) {
  const auto parts = MakePartStreams();
  const MergedDigest want = PullReference(parts);

  // Everything buffered up front + out-of-order FinishPart, then a single
  // Advance over the full front backlog (its ignored sort_workers > 1).
  MergeFrontier frontier(kParts, kMachineCount, kBlockSamples);
  for (std::size_t p : {2u, 0u, 3u, 1u}) {
    for (const TraceBlock& block : parts[p]) {
      frontier.Append(p, std::make_unique<TraceBlock>(block));
    }
    frontier.FinishPart(p);
  }
  MergedDigest got;
  auto emit = [&](TraceBlock& block) { got.Fold(block); };
  auto recycle = [&](std::size_t, std::unique_ptr<TraceBlock>) {};
  while (!frontier.finished()) {
    const std::size_t merged =
        frontier.Advance(MergeFrontier::EmitFn(emit),
                         MergeFrontier::RecycleFn(recycle), /*sort_workers=*/4);
    ASSERT_GT(merged, 0u) << "frontier stalled with all parts finished";
  }
  got.iterations = frontier.TakeIterations();
  ExpectDigestsEqual(got, want);
}

TEST(MergeFrontierTest, BorrowedViewsMatchOwnedBlocks) {
  const auto parts = MakePartStreams();
  const MergedDigest want = PullReference(parts);

  MergeFrontier frontier(kParts, kMachineCount, kBlockSamples);
  for (std::size_t p = 0; p < kParts; ++p) {
    for (const TraceBlock& block : parts[p]) frontier.AppendView(p, &block);
    frontier.FinishPart(p);
  }
  MergedDigest got;
  bool recycle_called = false;
  auto emit = [&](TraceBlock& block) { got.Fold(block); };
  auto recycle = [&](std::size_t, std::unique_ptr<TraceBlock>) {
    recycle_called = true;
  };
  while (!frontier.finished()) {
    ASSERT_GT(frontier.Advance(MergeFrontier::EmitFn(emit),
                               MergeFrontier::RecycleFn(recycle)),
              0u);
  }
  got.iterations = frontier.TakeIterations();
  ExpectDigestsEqual(got, want);
  EXPECT_FALSE(recycle_called);  // views are never handed to the recycler
}

/// Streams copies of `blocks` through one scratch block, as segment
/// readers do: every block of the stream has the same address.
class ScratchReader final : public TraceReader {
 public:
  explicit ScratchReader(const std::vector<TraceBlock>& blocks)
      : blocks_(&blocks) {}
  const TraceBlock* Next() override {
    if (index_ >= blocks_->size()) return nullptr;
    scratch_ = (*blocks_)[index_++];
    return &scratch_;
  }
  void Reset() override { index_ = 0; }

 private:
  const std::vector<TraceBlock>* blocks_;
  std::size_t index_ = 0;
  TraceBlock scratch_;
};

TEST(MergeFrontierTest, ReusedBlockAddressGetsItsOwnUserTable) {
  // Reverse every other block's user table (ids translated to match), so
  // a user-id remap carried over from the previous block at the same
  // address would name the wrong users.
  auto parts = MakePartStreams();
  std::size_t n = 0;
  for (auto& blocks : parts) {
    for (TraceBlock& block : blocks) {
      if (n++ % 2 == 0 || block.users.size() < 2) continue;
      std::reverse(block.users.begin(), block.users.end());
      const auto last = static_cast<std::uint32_t>(block.users.size() - 1);
      for (std::uint32_t& id : block.cols.user_id) {
        if (id != TraceStore::kNoUser) id = last - id;
      }
    }
  }
  // The reference is MergeTraces over whole part stores, which shares no
  // code with the frontier.
  std::vector<TraceStore> stores;
  for (std::size_t p = 0; p < kParts; ++p) {
    stores.push_back(p == 3 ? TraceStore(kMachineCount)
                            : MakePartStore(p, 0, kIterations));
  }
  const TraceStore merged = MergeTraces(stores);
  StoreReader merged_reader(merged);

  std::vector<ScratchReader> readers;
  readers.reserve(parts.size());
  for (const auto& blocks : parts) readers.emplace_back(blocks);
  std::vector<TraceReader*> ptrs;
  for (auto& r : readers) ptrs.push_back(&r);
  MergedDigest got;
  auto sink = [&](const TraceBlock& block) { got.Fold(block); };
  // One merged block for the whole stream, so a stale remap would survive
  // into the next source block.
  const StreamMergeResult result = StreamMergeBlocks(
      ptrs, kMachineCount, kDefaultBlockSamples,
      util::FunctionRef<void(const TraceBlock&)>(sink));
  EXPECT_EQ(result.blocks, 1u);
  EXPECT_EQ(result.samples, merged.size());
  EXPECT_EQ(got.hash, HashSampleStream(merged_reader));
}

TEST(MergeFrontierTest, StalledPartPointsAtTheBlockingStream) {
  const auto parts = MakePartStreams();
  MergeFrontier frontier(kParts, kMachineCount, kBlockSamples);
  // Only part 1's stream is available: the first front cannot complete
  // and the frontier must name a part that has not delivered content.
  frontier.Append(1, std::make_unique<TraceBlock>(parts[1][0]));
  frontier.FinishPart(1);
  frontier.FinishPart(3);
  MergedDigest got;
  auto emit = [&](TraceBlock& block) { got.Fold(block); };
  auto recycle = [&](std::size_t, std::unique_ptr<TraceBlock>) {};
  EXPECT_EQ(frontier.Advance(MergeFrontier::EmitFn(emit),
                             MergeFrontier::RecycleFn(recycle)),
            0u);
  EXPECT_FALSE(frontier.finished());
  EXPECT_EQ(got.samples, 0u);
  const std::size_t stalled = frontier.stalled_part();
  EXPECT_TRUE(stalled == 0 || stalled == 2) << "stalled on " << stalled;
}

TEST(MergeFrontierTest, AllPartsEmptyFinishesImmediately) {
  MergeFrontier frontier(kParts, kMachineCount, kBlockSamples);
  for (std::size_t p = 0; p < kParts; ++p) frontier.FinishPart(p);
  MergedDigest got;
  auto emit = [&](TraceBlock& block) { got.Fold(block); };
  auto recycle = [&](std::size_t, std::unique_ptr<TraceBlock>) {};
  frontier.Advance(MergeFrontier::EmitFn(emit),
                   MergeFrontier::RecycleFn(recycle));
  EXPECT_TRUE(frontier.finished());
  EXPECT_EQ(got.samples, 0u);
  EXPECT_EQ(got.blocks, 0u);
  EXPECT_TRUE(frontier.TakeIterations().empty());
}

/// One sample row of a hand-built iteration front: the part that collects
/// it and its merge key. Rows are otherwise told apart by their position in
/// the case, so a reordering of duplicate keys shows in the stream hash.
struct FrontRow {
  std::size_t part;
  std::uint32_t iteration;
  std::int64_t t;
  std::uint32_t machine;
};

/// One store per part holding its `rows` in the order listed (which must
/// be iteration-major per part), with one IterationInfo per iteration the
/// part has rows in, spanning those rows' `t`.
std::vector<TraceStore> MakeFrontStores(std::size_t part_count,
                                        const std::vector<FrontRow>& rows) {
  std::vector<TraceStore> stores(part_count, TraceStore(kMachineCount));
  std::vector<IterationInfo> open(part_count);
  std::vector<char> has_open(part_count, 0);
  const auto close = [&](std::size_t p) {
    if (has_open[p] != 0) stores[p].AppendIteration(open[p]);
    has_open[p] = 0;
  };
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const FrontRow& row = rows[i];
    SampleRecord r;
    r.machine = row.machine;
    r.iteration = row.iteration;
    r.t = row.t;
    r.mem_load_pct = static_cast<std::uint8_t>(i);
    r.disk_free_b = 1000 + i;
    if (i % 3 == 1) {
      r.has_session = true;
      r.user = "u" + std::to_string(i % 5);
    }
    stores[row.part].Append(r);
    IterationInfo& info = open[row.part];
    if (has_open[row.part] != 0 && info.iteration != row.iteration) {
      close(row.part);
    }
    if (has_open[row.part] == 0) {
      info = {row.iteration, row.t, row.t, 0, 0};
      has_open[row.part] = 1;
    }
    info.start_t = std::min(info.start_t, row.t);
    info.end_t = std::max(info.end_t, row.t);
    ++info.attempts;
    ++info.successes;
  }
  for (std::size_t p = 0; p < part_count; ++p) close(p);
  return stores;
}

/// Merges `stores` three ways — MergeTraces, the pull-model
/// StreamMergeBlocks and owned blocks pushed into a MergeFrontier — and
/// expects one sample stream, one iteration list and the pinned `hash`.
/// Returns the frontier's fallback sorts.
std::uint64_t ExpectMergesAgree(const std::vector<TraceStore>& stores,
                                std::uint64_t hash) {
  const TraceStore merged = MergeTraces(stores);
  StoreReader merged_reader(merged);
  MergedDigest want;
  want.hash = HashSampleStream(merged_reader);
  want.samples = merged.size();
  want.iterations.assign(merged.iterations().begin(),
                         merged.iterations().end());
  EXPECT_EQ(want.hash, hash) << std::hex << want.hash;

  std::vector<std::vector<TraceBlock>> parts(stores.size());
  for (std::size_t p = 0; p < stores.size(); ++p) {
    if (stores[p].size() == 0) continue;
    parts[p].emplace_back();
    parts[p].back().AssignFrom(stores[p]);
  }
  constexpr std::size_t kSmallBlock = 5;  // seals fall mid-front
  MergedDigest pull = PullReference(parts, kSmallBlock);
  EXPECT_EQ(pull.hash, want.hash);
  EXPECT_EQ(pull.samples, want.samples);
  pull.blocks = 0;
  pull.samples = 0;

  MergeFrontier frontier(parts.size(), kMachineCount, kSmallBlock);
  MergedDigest got;
  auto emit = [&](TraceBlock& block) { got.Fold(block); };
  auto recycle = [](std::size_t, std::unique_ptr<TraceBlock>) {};
  for (std::size_t p = parts.size(); p-- > 0;) {
    for (const TraceBlock& block : parts[p]) {
      frontier.Append(p, std::make_unique<TraceBlock>(block));
    }
    frontier.FinishPart(p);
    frontier.Advance(MergeFrontier::EmitFn(emit),
                     MergeFrontier::RecycleFn(recycle));
  }
  EXPECT_TRUE(frontier.finished());
  got.iterations = frontier.TakeIterations();
  got.blocks = 0;
  got.samples = 0;
  ExpectDigestsEqual(got, pull);
  ExpectDigestsEqual(got, MergedDigest{want.hash, 0, 0, want.iterations});
  return frontier.fallback_sorts();
}

/// True when every iteration's merged rows strictly increase in
/// (t, machine).
bool StrictlyOrdered(const TraceStore& merged) {
  const TraceStore::Columns& c = merged.columns();
  for (std::size_t i = 1; i < merged.size(); ++i) {
    if (c.iteration[i] != c.iteration[i - 1]) continue;
    if (c.t[i] < c.t[i - 1] ||
        (c.t[i] == c.t[i - 1] && c.machine[i] <= c.machine[i - 1])) {
      return false;
    }
  }
  return true;
}

TEST(MergeFrontierTest, PartRowsInReverseTimeOrderAreOrdered) {
  // Each part lists its rows of a front newest first; across parts, equal
  // t values fall on ascending machines, as at a period boundary.
  std::vector<FrontRow> rows;
  for (std::uint32_t it = 0; it < 3; ++it) {
    const std::int64_t t0 = 900 * (it + 1);
    for (std::size_t p = 0; p < kParts; ++p) {
      const auto m = static_cast<std::uint32_t>(2 * p);
      rows.push_back({p, it, t0 + 40 - static_cast<std::int64_t>(p), m + 1});
      rows.push_back({p, it, t0 + 7 * static_cast<std::int64_t>(p % 2), m});
      rows.push_back({p, it, t0, m + 1});
    }
  }
  // Machine m+1 repeats within a front only at distinct t.
  const auto stores = MakeFrontStores(kParts, rows);
  EXPECT_TRUE(StrictlyOrdered(MergeTraces(stores)));
  EXPECT_EQ(ExpectMergesAgree(stores, 0xfdb5bab042d1189eull), 0u);
}

TEST(MergeFrontierTest, EqualTimesOnDescendingPartMachinesAreOrdered) {
  // Part p holds the machines of part kParts-1-p: at equal t, part order
  // is descending machine order, the reverse of the merged order.
  std::vector<FrontRow> rows;
  for (std::uint32_t it = 0; it < 2; ++it) {
    for (std::size_t p = 0; p < kParts; ++p) {
      const auto m = static_cast<std::uint32_t>(2 * (kParts - 1 - p));
      const std::int64_t t = 900 * (it + 1);
      rows.push_back({p, it, t, m});
      rows.push_back({p, it, t, m + 1});
    }
  }
  const auto stores = MakeFrontStores(kParts, rows);
  EXPECT_TRUE(StrictlyOrdered(MergeTraces(stores)));
  EXPECT_GE(ExpectMergesAgree(stores, 0x9f6fe9e68ae126efull), 1u);
}

TEST(MergeFrontierTest, ExtremeTimesInOneFrontAreOrdered) {
  // A front spanning the whole int64 range: t - min_t overflows int64.
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const std::vector<FrontRow> rows = {
      {0, 0, kMax, 0},     {0, 0, 0, 1},        {1, 0, kMin, 2},
      {1, 0, kMax, 3},     {2, 0, kMin + 1, 4}, {2, 0, kMax - 1, 5},
      {0, 1, 1800, 0},     {1, 1, 1800, 2},     {2, 1, 1801, 4},
  };
  const auto stores = MakeFrontStores(kParts, rows);
  EXPECT_TRUE(StrictlyOrdered(MergeTraces(stores)));
  EXPECT_GE(ExpectMergesAgree(stores, 0xae8a0205cd5ab005ull), 1u);
}

TEST(MergeFrontierTest, DuplicateKeysKeepThePinnedOrder) {
  // Corrupt input: (t, machine) repeats within a front, inside one part
  // and across parts. More than 16 rows, so the order of the repeats is
  // the comparison sort's, pinned by hash.
  std::vector<FrontRow> rows;
  for (std::size_t p = 0; p < 3; ++p) {
    for (std::uint32_t k = 0; k < 8; ++k) {
      rows.push_back({p, 0, 900 + static_cast<std::int64_t>((k * 5) % 3),
                      static_cast<std::uint32_t>(k % 2)});
    }
  }
  rows.push_back({0, 1, 1800, 1});
  rows.push_back({0, 1, 1800, 1});
  const auto stores = MakeFrontStores(kParts, rows);
  EXPECT_GE(ExpectMergesAgree(stores, 0x4e7e0cb637284280ull), 1u);
}

/// FNV-1a over everything a merged block carries: its size (the block
/// boundaries), every column of every row (user_id as the raw block-local
/// id), and the user table in id order.
struct MergedBytes {
  std::uint64_t hash = 1469598103934665603ULL;
  std::uint64_t blocks = 0;

  void Mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (8 * i)) & 0xFFu;
      hash *= 1099511628211ULL;
    }
  }
  void Fold(const TraceBlock& block) {
    ++blocks;
    Mix(block.size());
    TraceStore::ForEachColumn([&](auto member) {
      for (const auto v : block.cols.*member) {
        if constexpr (std::is_same_v<std::remove_cv_t<decltype(v)>, double>) {
          Mix(std::bit_cast<std::uint64_t>(v));
        } else {
          Mix(static_cast<std::uint64_t>(v));
        }
      }
    });
    Mix(block.users.size());
    for (const std::string& user : block.users) {
      Mix(user.size());
      for (const char c : user) Mix(static_cast<unsigned char>(c));
    }
    Mix(block.iterations.size());
  }
};

/// The 2-day paper trace cut back into per-lab streams of window blocks,
/// as the collection path seals them: lab `l`'s blocks cover iterations
/// [w, w + window) (the first window of odd labs is `stagger` iterations
/// short, so part boundaries do not line up), carrying the lab's rows in
/// merged order and one IterationInfo per iteration.
std::vector<std::vector<TraceBlock>> PaperLabWindows(
    const core::ExperimentResult& run, std::uint32_t window,
    std::uint32_t stagger) {
  const TraceStore& trace = run.trace;
  const TraceStore::Columns& c = trace.columns();
  std::vector<std::vector<TraceBlock>> parts;
  std::uint32_t first = 0;
  for (std::size_t l = 0; l < run.labs.size(); ++l) {
    const auto end = first + static_cast<std::uint32_t>(run.labs[l].machine_count);
    std::vector<TraceBlock> blocks;
    std::uint32_t begin_it = 0;
    std::uint32_t end_it = l % 2 == 1 ? window - stagger : window;
    std::size_t row = 0;
    const auto iterations = static_cast<std::uint32_t>(trace.iterations().size());
    while (begin_it < iterations) {
      end_it = std::min(end_it, iterations);
      TraceBlock block;
      for (std::uint32_t it = begin_it; it < end_it; ++it) {
        std::uint32_t successes = 0;
        while (row < trace.size() && c.iteration[row] == it) {
          if (c.machine[row] >= first && c.machine[row] < end) {
            AppendRow(block.cols, c, row);
            std::uint32_t& uid = block.cols.user_id.back();
            if (uid != TraceStore::kNoUser) {
              const std::string& user = trace.users()[uid];
              const auto found =
                  std::find(block.users.begin(), block.users.end(), user);
              uid = static_cast<std::uint32_t>(found - block.users.begin());
              if (found == block.users.end()) block.users.push_back(user);
            }
            ++successes;
          }
          ++row;
        }
        const IterationInfo& info = trace.iterations()[it];
        block.iterations.push_back(
            {it, info.start_t + static_cast<std::int64_t>(l),
             info.end_t - static_cast<std::int64_t>(l),
             static_cast<std::uint32_t>(end - first), successes});
      }
      blocks.push_back(std::move(block));
      begin_it = end_it;
      end_it = begin_it + window;
    }
    parts.push_back(std::move(blocks));
    first = end;
  }
  return parts;
}

const core::ExperimentResult& PaperTwoDays() {
  static const core::ExperimentResult run = [] {
    core::ExperimentConfig config;
    config.campus.days = 2;
    return core::Experiment::Run(config);
  }();
  return run;
}

/// Merges `parts` through owned blocks, appended part-major, with the
/// given merged block size and (ignored) sort workers; returns the merged
/// bytes and expects no front to fall back to the comparison sort.
MergedBytes MergeOwned(const std::vector<std::vector<TraceBlock>>& parts,
                       std::size_t machine_count, std::size_t block_samples,
                       std::size_t sort_workers,
                       std::vector<IterationInfo>* iterations) {
  MergeFrontier frontier(parts.size(), machine_count, block_samples);
  MergedBytes bytes;
  auto emit = [&](TraceBlock& block) { bytes.Fold(block); };
  auto recycle = [](std::size_t, std::unique_ptr<TraceBlock>) {};
  const MergeFrontier::EmitFn emit_fn(emit);
  const MergeFrontier::RecycleFn recycle_fn(recycle);
  for (std::size_t p = 0; p < parts.size(); ++p) {
    for (const TraceBlock& block : parts[p]) {
      frontier.Append(p, std::make_unique<TraceBlock>(block));
      frontier.Advance(emit_fn, recycle_fn, sort_workers);
    }
    frontier.FinishPart(p);
  }
  frontier.Advance(emit_fn, recycle_fn, sort_workers);
  EXPECT_TRUE(frontier.finished());
  EXPECT_EQ(bytes.blocks, frontier.blocks());
  EXPECT_EQ(frontier.fallback_sorts(), 0u);
  *iterations = frontier.TakeIterations();
  return bytes;
}

std::uint64_t IterationsHash(const std::vector<IterationInfo>& iterations) {
  MergedBytes h;
  for (const IterationInfo& info : iterations) {
    h.Mix(info.iteration);
    h.Mix(static_cast<std::uint64_t>(info.start_t));
    h.Mix(static_cast<std::uint64_t>(info.end_t));
    h.Mix(info.attempts);
    h.Mix(info.successes);
  }
  return h.hash;
}

TEST(MergeFrontierTest, PaperTraceMergedBlocksArePinned) {
  // Recorded while merged blocks were still built through a TraceStore:
  // the merged columns, user tables (order and ids), block boundaries and
  // iteration metadata must not move.
  const core::ExperimentResult& run = PaperTwoDays();
  const std::size_t machines = run.trace.machine_count();
  struct Case {
    std::uint32_t stagger;
    std::size_t block_samples;
    std::size_t sort_workers;
    std::uint64_t bytes;
    std::uint64_t blocks;
  };
  // Block sizes: odd (seals fall mid-front), and exactly the samples of
  // the first three windows (the labs are closed, so the first two hold
  // none), so the first seal lands on a window boundary that every
  // unstaggered part shares.
  const auto window_rows = static_cast<std::size_t>(std::count_if(
      run.trace.columns().iteration.begin(),
      run.trace.columns().iteration.end(),
      [](std::uint32_t it) { return it < 48; }));
  ASSERT_GT(window_rows, 0u);
  const Case cases[] = {
      {0, 997, 1, 0x750a0bebe47661dull, 17},
      {0, window_rows, 1, 0xfdfed4bf0fa200d7ull, 14},
      {8, window_rows, 4, 0xfdfed4bf0fa200d7ull, 14},
      {5, kDefaultBlockSamples, 1, 0xe645b39660ce523cull, 1},
  };
  for (const Case& c : cases) {
    const auto parts = PaperLabWindows(run, 16, c.stagger);
    std::vector<IterationInfo> iterations;
    const MergedBytes got =
        MergeOwned(parts, machines, c.block_samples, c.sort_workers,
                   &iterations);
    SCOPED_TRACE(testing::Message() << "stagger " << c.stagger << ", block "
                                    << c.block_samples);
    EXPECT_EQ(got.hash, c.bytes);
    EXPECT_EQ(got.blocks, c.blocks);
    EXPECT_EQ(IterationsHash(iterations), 0xe1977e8888ced7afull);
  }
}

}  // namespace
}  // namespace labmon::trace
