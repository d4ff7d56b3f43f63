// TraceBlock / TraceReader — the streaming view of a trace.
//
// A TraceBlock is a fixed-capacity columnar slice of samples (same SoA
// layout as TraceStore::Columns) plus a self-contained user table: the
// user_id column of a block refers to the block's own `users` list, never
// to some external store, so a block can be spilled to disk and
// re-streamed in isolation. Blocks produced by the collection path are
// additionally iteration-aligned and carry the IterationInfo rows they
// cover; blocks cut from a materialised store (StoreReader) split at
// arbitrary sample boundaries and leave `iterations` empty.
//
// TraceReader is the cursor abstraction every streaming consumer folds
// over: `Next()` yields sealed blocks until nullptr. The analysis fold,
// the streaming merge, the segment spill and the stream hash all consume
// this one interface, so "materialised store", "in-memory block list" and
// "on-disk segment" are interchangeable sources.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "labmon/trace/trace_store.hpp"

namespace labmon::trace {

/// Default sealed-block capacity (~64k samples ≈ a few MB of columns).
inline constexpr std::size_t kDefaultBlockSamples = 65536;

struct TraceBlock {
  TraceStore::Columns cols;
  /// Block-local user table; cols.user_id indexes it (kNoUser = none).
  std::vector<std::string> users;
  /// Iteration metadata covered by this block (collection blocks only).
  std::vector<IterationInfo> iterations;

  [[nodiscard]] std::size_t size() const noexcept { return cols.t.size(); }
  [[nodiscard]] bool empty() const noexcept { return cols.t.empty(); }

  void Clear() {
    TraceStore::ForEachColumn([&](auto member) { (cols.*member).clear(); });
    users.clear();
    iterations.clear();
  }

  /// User string of row i ("" when the row has no session).
  [[nodiscard]] std::string_view UserOf(std::size_t i) const noexcept {
    const std::uint32_t id = cols.user_id[i];
    return id == TraceStore::kNoUser ? std::string_view{}
                                     : std::string_view(users[id]);
  }

  /// Copies a whole store (samples + users + iterations) into this block.
  void AssignFrom(const TraceStore& store);
};

/// Read-only view of one block's contents (columns, block-local user table
/// and iteration rows) over either a TraceStore or a TraceBlock, so each
/// spill codec has one encoder body for both. `machine_count` is the fleet
/// size an LMTR1 payload header records: a store's own, or the one its
/// caller gives for a block (0 when it records none). The constructors are
/// implicit, so a store or a block passes wherever a view is taken.
struct BlockView {
  const TraceStore::Columns& cols;
  std::span<const std::string> users;
  std::span<const IterationInfo> iterations;
  std::size_t machine_count = 0;

  BlockView(const TraceStore& store) noexcept  // NOLINT
      : cols(store.columns()),
        users(store.users()),
        iterations(store.iterations()),
        machine_count(store.machine_count()) {}
  BlockView(const TraceBlock& block,  // NOLINT
            std::size_t machines = 0) noexcept
      : cols(block.cols),
        users(block.users),
        iterations(block.iterations),
        machine_count(machines) {}

  [[nodiscard]] std::size_t size() const noexcept { return cols.t.size(); }
};

/// Appends row `i` of `src` onto `dst`, column-generically (the user_id
/// value is copied verbatim — translate before or after if tables differ).
inline void AppendRow(TraceStore::Columns& dst, const TraceStore::Columns& src,
                      std::size_t i) {
  TraceStore::ForEachColumn(
      [&](auto member) { (dst.*member).push_back((src.*member)[i]); });
}

class TraceReader {
 public:
  virtual ~TraceReader() = default;
  /// The next sealed block, or nullptr at end of stream. The returned
  /// pointer stays valid until the next call on the same reader.
  virtual const TraceBlock* Next() = 0;
  /// Rewinds to the first block.
  virtual void Reset() = 0;
};

/// Streams a materialised TraceStore as fixed-size blocks — the adapter
/// that lets every streaming consumer also run on an in-memory trace.
class StoreReader final : public TraceReader {
 public:
  explicit StoreReader(const TraceStore& store,
                       std::size_t block_samples = kDefaultBlockSamples);

  const TraceBlock* Next() override;
  void Reset() override { pos_ = 0; }

 private:
  const TraceStore* store_;
  std::size_t block_samples_;
  std::size_t pos_ = 0;
  TraceBlock scratch_;
};

/// Streams an already-sealed in-memory block list (the no-spill segment).
class BlockVectorReader final : public TraceReader {
 public:
  explicit BlockVectorReader(const std::vector<TraceBlock>& blocks)
      : blocks_(&blocks) {}

  const TraceBlock* Next() override {
    return index_ < blocks_->size() ? &(*blocks_)[index_++] : nullptr;
  }
  void Reset() override { index_ = 0; }

 private:
  const std::vector<TraceBlock>* blocks_;
  std::size_t index_ = 0;
};

/// Order-sensitive FNV-1a over the sample stream. Every column except
/// user_id is hashed as fixed-width bytes; session rows hash the user
/// *string* instead of its table id, so the hash is independent of the
/// interning scheme (block-local vs merged ids) and of block boundaries —
/// a streamed-and-merged run and a materialised store hash identically iff
/// their sample sequences match exactly. Iteration metadata is excluded.
[[nodiscard]] std::uint64_t HashSampleStream(TraceReader& reader);

/// Incremental form of HashSampleStream for folds that already walk the
/// blocks: seed with kSampleStreamHashSeed, fold each block in order.
inline constexpr std::uint64_t kSampleStreamHashSeed = 0xcbf29ce484222325ull;
[[nodiscard]] std::uint64_t HashBlockSamples(std::uint64_t h,
                                             const TraceBlock& block);

}  // namespace labmon::trace
