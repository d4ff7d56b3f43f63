// MergeFrontier — the incremental, push-model core of the streaming merge.
//
// StreamMergeBlocks (stream_merge.hpp) pulls blocks from readers; the
// pipelined engine instead *pushes* blocks as labs seal them, out of lab
// order, and wants merged output as soon as an iteration front is ready —
// an iteration front is complete when every live part has either buffered
// content covering that iteration or finished its stream. MergeFrontier
// is that state machine: Append()/FinishPart() feed it, Advance() merges
// every ready front one at a time (replaying MergeTraces' exact order: per
// global iteration, gather all parts' samples in part order, order them by
// (t, machine), append) and emits sealed merged blocks. Both
// StreamMergeBlocks and the pipelined driver are built on it, so the
// merged sample sequence is bit-identical across all three engines by
// construction.
//
// Fronts are ordered by FrontOrder (front_order.hpp), the helper
// MergeTraces shares: a counting pass on t, checked on every front, with a
// counted fallback to the comparison sort (fallback_sorts()).
//
// Buffered blocks are either owned (heap TraceBlocks, handed back through
// the recycle callback once fully consumed — the pipelined engine returns
// them to per-shard pools) or borrowed views (the pull model's reader
// scratch, valid until the caller invalidates it after Advance returns).
//
// Merged blocks are built in place, column by column per front, straight
// from the ordered keys into the TraceBlock that is emitted (no TraceStore
// builder, no per-machine index, no copy at seal). User ids go through a
// per-source remap that interns each (source block, user) pair once per
// merged block, in merged order, so the block's user table and ids are
// exactly those a per-row re-intern would give.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "labmon/trace/block.hpp"
#include "labmon/trace/front_order.hpp"
#include "labmon/util/function_ref.hpp"

namespace labmon::trace {

class MergeFrontier {
 public:
  /// Sealed merged block consumer. The block reference stays owned by the
  /// frontier but the callee may swap its contents away (e.g. with a
  /// cleared pooled block) — the frontier clears and reuses it afterwards.
  using EmitFn = util::FunctionRef<void(TraceBlock&)>;
  /// Receives fully-consumed owned blocks for recycling (never views).
  using RecycleFn =
      util::FunctionRef<void(std::size_t part, std::unique_ptr<TraceBlock>)>;

  /// `machine_count` is the merged fleet's size; merged blocks carry no
  /// per-machine state, so only part_count and block_samples shape the
  /// merge.
  MergeFrontier(std::size_t part_count, std::size_t machine_count,
                std::size_t block_samples);

  /// Buffers the next owned block of `part`. Blocks of one part must
  /// arrive in that part's stream order; parts interleave arbitrarily.
  void Append(std::size_t part, std::unique_ptr<TraceBlock> block);
  /// Buffers a borrowed block. The pointer must stay valid until after
  /// the Advance() call that consumes the block's last row returns.
  void AppendView(std::size_t part, const TraceBlock* block);
  /// Marks `part`'s stream complete (no further Append for it).
  void FinishPart(std::size_t part);

  /// Merges every iteration front the buffered streams can complete,
  /// sealing merged blocks into `emit` and handing consumed owned blocks
  /// to `recycle`. Returns the number of fronts merged. After the last
  /// part finishes, the trailing partial block is flushed and finished()
  /// turns true. `sort_workers` is ignored (fronts are ordered in linear
  /// time on the calling thread); it stays for existing callers.
  std::size_t Advance(EmitFn emit, RecycleFn recycle,
                      std::size_t sort_workers = 1);

  /// True once every part finished and the merged stream is fully emitted.
  [[nodiscard]] bool finished() const noexcept { return finished_; }
  /// The part the last Advance() stalled on (meaningful when Advance
  /// returned without finishing): its next block unblocks the merge.
  [[nodiscard]] std::size_t stalled_part() const noexcept {
    return stalled_part_;
  }
  /// Input blocks currently buffered (the merge lag behind collection).
  [[nodiscard]] std::size_t buffered_blocks() const noexcept {
    return buffered_blocks_;
  }
  /// Merged iteration metadata accumulated so far.
  [[nodiscard]] const std::vector<IterationInfo>& iterations() const noexcept {
    return iterations_;
  }
  /// Moves the accumulated iteration metadata out (call once, after
  /// finished()).
  [[nodiscard]] std::vector<IterationInfo> TakeIterations() noexcept {
    return std::move(iterations_);
  }
  [[nodiscard]] std::uint64_t samples() const noexcept { return samples_; }
  [[nodiscard]] std::uint64_t blocks() const noexcept { return blocks_; }
  /// Fronts whose counting pass failed its check (or was skipped) and
  /// fell back to the comparison sort: 0 on well-formed collection output.
  [[nodiscard]] std::uint64_t fallback_sorts() const noexcept {
    return order_.fallback_sorts();
  }

 private:
  static constexpr std::uint32_t kNoSource = 0xffffffffu;
  struct Slot {
    std::unique_ptr<TraceBlock> owned;  ///< null for borrowed views
    const TraceBlock* view = nullptr;   ///< always valid while buffered
  };
  struct Part {
    std::deque<Slot> slots;
    std::size_t idx = 0;     ///< sample cursor within the head block
    std::size_t it_idx = 0;  ///< iteration cursor within the head block
    std::uint32_t source = kNoSource;  ///< sources_ entry of the head block
    bool done = false;
  };
  /// A buffered block that has contributed keys, with its block-local →
  /// merged user-id remap. The remap is valid for merged block number
  /// `remap_block` only (each merged block has its own user table).
  struct Source {
    const TraceBlock* block = nullptr;
    std::vector<std::uint32_t> remap;
    std::uint64_t remap_block = ~std::uint64_t{0};
  };
  /// A staged sample row: sort key + source location (`block` is
  /// sources_[source].block, kept here to save the gather an indirection).
  /// Both stay valid for the whole front: consumed slots and their sources
  /// are retired only after the front's append.
  struct Key {
    std::int64_t t;
    std::uint32_t machine;
    std::uint32_t idx;
    const TraceBlock* block;
    std::uint32_t source;
  };
  enum class Scan : std::uint8_t { kReady, kStalled, kExhausted };

  /// Pops fully-consumed head blocks of `part` onto the retired list.
  void RetireExhausted(std::size_t part);
  /// Checks whether the next front is decidable with the buffered state.
  Scan CheckReady();
  /// Gathers the next front's keys into front_keys_ (consuming cursors)
  /// and records the front's IterationInfo (if any).
  void GatherFront();
  /// Appends the ordered front_keys_ onto sealed_, column by column.
  void AppendFront();
  /// Merged id of `source`'s block-local user `uid`, interning on first use.
  std::uint32_t MergedUserId(std::uint32_t source, std::uint32_t uid);
  void Seal(EmitFn emit);

  std::vector<Part> parts_;
  const std::size_t block_samples_;
  /// The merged block under construction, emitted as is at seal.
  TraceBlock sealed_;
  std::unordered_map<std::string, std::uint32_t> user_ids_;  ///< of sealed_
  std::vector<Source> sources_;
  std::vector<std::uint32_t> free_sources_;
  /// Sources whose block retired this front, freed after its append.
  std::vector<std::uint32_t> retired_sources_;

  std::uint64_t next_front_ = 0;
  // Readiness scan state, persisted across stalls: parts below scan_pos_
  // are verified ready for front next_front_ (Append never revokes
  // readiness, so a stalled scan resumes where it left off).
  std::size_t scan_pos_ = 0;
  bool scan_content_ = false;
  std::size_t stalled_part_ = 0;
  bool finished_ = false;

  std::vector<Key> front_keys_;
  FrontOrder<Key> order_;
  std::vector<std::pair<std::size_t, std::unique_ptr<TraceBlock>>> retired_;

  std::vector<IterationInfo> iterations_;
  std::uint64_t samples_ = 0;
  std::uint64_t blocks_ = 0;
  std::size_t buffered_blocks_ = 0;
};

}  // namespace labmon::trace
