// On-disk trace segments — the spill files of the streaming pipeline.
//
// A segment is a header plus a sequence of length-prefixed, checksummed
// block payloads; what the payload bytes are is the codec's business
// (spill_codec.hpp): LMSG1 payloads are complete LMTR1 traces, LMSG2
// payloads are per-column compressed encodings of the same block. Either
// way a block carries its samples, its *block-local* user table and the
// iteration metadata it covers, so blocks are fully self-contained: codec
// state never crosses a block boundary, a partially-written segment is
// readable up to its last complete block, and a resumed campaign can
// re-stream spilled labs without any sidecar decoder state.
//
// Layout (framing is identical for every codec):
//   magic: the codec's 5 bytes ("LMSG1" or "LMSG2")
//   varint version (1), varint machine_count
//   per block: varint payload_len, payload bytes,
//              8-byte LE FNV-1a checksum of the (encoded) payload
//
// The reader dispatches on the magic it finds, so one spill directory may
// mix segments written under different codecs (e.g. across a resumed
// campaign that changed codec). Truncation anywhere inside a block, a
// checksum mismatch, or a payload decode failure surfaces as a read error
// — never as silently-short data.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>

#include "labmon/trace/block.hpp"
#include "labmon/trace/spill_codec.hpp"
#include "labmon/util/expected.hpp"

namespace labmon::trace {

/// Spill I/O accounting that one SegmentWriter or SegmentReader has not yet
/// published to obs::DefaultRegistry(). Blocks add to it with no registry
/// lookup (each lookup takes the registry's global mutex, which the shard
/// workers would contend for); Publish() adds the pending totals to the
/// labmon_spill_* counters in one batch. Moving hands the pending totals
/// over, so a moved-from tally publishes nothing, and destruction
/// publishes whatever is still pending: each block is counted once.
class SpillIoTally {
 public:
  SpillIoTally() = default;
  /// `direction` ("write" or "read") must be a string literal.
  SpillIoTally(SpillCodecId codec, const char* direction) noexcept
      : codec_(codec), direction_(direction) {}
  SpillIoTally(SpillIoTally&& other) noexcept;
  SpillIoTally& operator=(SpillIoTally&& other);
  ~SpillIoTally();

  void Add(const SpillCodecStats& block) noexcept { pending_ += block; }
  /// Where the encoder adds each written block's per-column bytes.
  [[nodiscard]] SpillColumnBytes* columns() noexcept { return &columns_; }
  /// Publishes and clears the pending totals; a no-op when nothing is
  /// pending. Also sets labmon_spill_column_ratio from the cumulative
  /// per-column counters.
  void Publish();

 private:
  SpillCodecId codec_ = kDefaultSpillCodec;
  const char* direction_ = "write";
  SpillCodecStats pending_;
  SpillColumnBytes columns_;
};

class SegmentWriter {
 public:
  /// Opens (truncates) `path` and writes the segment header for `codec`.
  [[nodiscard]] static util::Result<SegmentWriter> Open(
      const std::string& path, std::size_t machine_count,
      SpillCodecId codec = kDefaultSpillCodec);

  SegmentWriter(SegmentWriter&&) = default;
  SegmentWriter& operator=(SegmentWriter&&) = default;

  /// Appends one sealed block: `block_store` must hold the block's samples,
  /// its own (block-local) user table and its iteration rows. Encoding runs
  /// on the calling thread: the pipelined engine appends from its merge
  /// thread, which is otherwise idle for most of a run, so the shard
  /// workers only collect. A block costs what its samples cost: no
  /// registry lookup, and codec scratch sized by the block's own rows and
  /// machine-id range, never by the fleet.
  [[nodiscard]] util::Result<bool> Append(const TraceStore& block_store);
  /// Appends a sealed TraceBlock through the same encoder; the bytes equal
  /// those of appending a store of the writer's machine count holding the
  /// same samples, users and iteration rows.
  [[nodiscard]] util::Result<bool> Append(const TraceBlock& block);

  /// Flushes and closes; returns an error if any write failed. Publishes
  /// the writer's spill metrics (as a failed Append or the destructor
  /// would, if Finish is never reached).
  [[nodiscard]] util::Result<bool> Finish();

  [[nodiscard]] std::uint64_t blocks() const noexcept { return blocks_; }
  [[nodiscard]] std::uint64_t bytes_written() const noexcept {
    return bytes_written_;
  }
  [[nodiscard]] SpillCodecId codec() const noexcept { return codec_->id(); }
  /// Encode-side accounting (raw vs payload bytes, encode time) summed
  /// over every Append on this writer.
  [[nodiscard]] const SpillCodecStats& codec_stats() const noexcept {
    return stats_;
  }

 private:
  SegmentWriter() = default;
  util::Result<bool> Write(const BlockView& block);

  std::ofstream out_;
  std::string path_;
  const SpillCodec* codec_ = nullptr;
  std::size_t machine_count_ = 0;
  std::string payload_;  ///< reused encode buffer
  SpillCodecStats stats_;
  SpillIoTally tally_;
  std::uint64_t blocks_ = 0;
  std::uint64_t bytes_written_ = 0;
};

/// Streams the blocks of a segment file back. A failed read (truncation,
/// checksum mismatch, payload decode error) ends the stream with
/// `failed()` true and a diagnostic in `error()` — callers must check
/// after Next() returns nullptr. The reader publishes its spill metrics
/// when the stream ends or fails, or when it is destroyed first.
class SegmentReader final : public TraceReader {
 public:
  [[nodiscard]] static util::Result<SegmentReader> Open(
      const std::string& path);

  SegmentReader(SegmentReader&&) = default;
  SegmentReader& operator=(SegmentReader&&) = default;

  const TraceBlock* Next() override;
  /// Decodes the next block straight into `out` (e.g. a pooled block the
  /// caller hands on) instead of the reader's scratch block. Returns false
  /// at end of stream or on a read error — check failed() then.
  [[nodiscard]] bool Next(TraceBlock& out);
  void Reset() override;

  [[nodiscard]] bool failed() const noexcept { return !error_.empty(); }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }
  [[nodiscard]] std::size_t machine_count() const noexcept {
    return machine_count_;
  }
  /// Stream-global number of the first iteration the next block covers:
  /// a segment's blocks cover its lab's iterations contiguously from zero.
  [[nodiscard]] std::uint64_t next_iteration() const noexcept {
    return next_iteration_;
  }
  /// The codec this segment was written under (from its magic).
  [[nodiscard]] SpillCodecId codec() const noexcept { return codec_->id(); }
  /// Decode-side accounting summed over every Next on this reader
  /// (cumulative across Reset).
  [[nodiscard]] const SpillCodecStats& codec_stats() const noexcept {
    return stats_;
  }

 private:
  SegmentReader() = default;
  bool ReadBlock(TraceBlock& out);

  std::ifstream in_;
  std::string path_;
  const SpillCodec* codec_ = nullptr;
  std::size_t machine_count_ = 0;
  std::uint64_t next_iteration_ = 0;
  std::streampos first_block_pos_;
  std::string error_;
  std::string payload_;
  SpillCodecStats stats_;
  SpillIoTally tally_;
  TraceBlock scratch_;
};

}  // namespace labmon::trace
