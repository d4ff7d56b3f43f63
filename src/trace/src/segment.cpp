#include "labmon/trace/segment.hpp"

#include <chrono>
#include <exception>
#include <utility>

#include "labmon/obs/registry.hpp"
#include "labmon/util/log.hpp"
#include "labmon/util/varint.hpp"

namespace labmon::trace {

namespace {

constexpr std::size_t kMagicLen = 5;
constexpr std::uint64_t kVersion = 1;
/// Hard sanity bound on one block payload (a 64k-sample block is a few MB
/// encoded; anything near this is a corrupt length prefix).
constexpr std::uint64_t kMaxPayloadBytes = 1ull << 31;

std::uint64_t Fnv1a(const std::string& bytes) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t NowNs() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Reads one LEB128 varint byte-at-a-time from the stream. Returns false
/// on EOF before the first byte (clean end) with *clean_eof = true, or on
/// truncation/overlong input with *clean_eof = false. Like
/// util::VarintReader::Read, a 10th byte above 1 (bits past 64) is
/// overlong, not silently truncated.
bool ReadVarint(std::istream& in, std::uint64_t& value, bool& clean_eof) {
  value = 0;
  clean_eof = false;
  int shift = 0;
  for (int i = 0; i < 10; ++i) {
    const int c = in.get();
    if (c == EOF) {
      clean_eof = i == 0;
      return false;
    }
    if (i == 9 && c > 1) return false;  // overlong
    value |= static_cast<std::uint64_t>(c & 0x7f) << shift;
    if ((c & 0x80) == 0) return true;
    shift += 7;
  }
  return false;
}

}  // namespace

SpillIoTally::SpillIoTally(SpillIoTally&& other) noexcept
    : codec_(other.codec_),
      direction_(other.direction_),
      pending_(std::exchange(other.pending_, {})),
      columns_(std::exchange(other.columns_, {})) {}

SpillIoTally& SpillIoTally::operator=(SpillIoTally&& other) {
  if (this != &other) {
    Publish();
    codec_ = other.codec_;
    direction_ = other.direction_;
    pending_ = std::exchange(other.pending_, {});
    columns_ = std::exchange(other.columns_, {});
  }
  return *this;
}

SpillIoTally::~SpillIoTally() {
  // Registry lookups allocate. If one fails here, the metrics are lost but
  // the spill is not, and nothing may escape a destructor.
  try {
    Publish();
  } catch (const std::exception&) {
    util::log::Warn("spill metrics could not be published");
  }
}

void SpillIoTally::Publish() {
  if (pending_.blocks == 0) return;
  obs::Registry& registry = obs::DefaultRegistry();
  const obs::Labels labels = {{"codec", SpillCodecName(codec_)},
                              {"direction", direction_}};
  registry
      .GetCounter("labmon_spill_raw_bytes_total",
                  "In-memory columnar bytes moved through the spill codecs",
                  labels)
      .Increment(pending_.raw_bytes);
  registry
      .GetCounter("labmon_spill_payload_bytes_total",
                  "Encoded payload bytes moved through the spill codecs",
                  labels)
      .Increment(pending_.payload_bytes);
  registry
      .GetCounter("labmon_spill_codec_ns_total",
                  "Wall nanoseconds spent in spill encode/decode", labels)
      .Increment(pending_.ns);
  registry
      .GetCounter("labmon_spill_codec_samples_total",
                  "Samples moved through the spill codecs", labels)
      .Increment(pending_.samples);
  // Only a column-section codec fills the columns, and its every section
  // has a length prefix, so a written column has encoded bytes.
  for (std::size_t i = 0; i < kSpillColumnCount; ++i) {
    if (columns_.encoded[i] == 0) continue;
    const char* column = SpillColumnName(i);
    obs::Counter& raw = registry.GetCounter(
        "labmon_spill_column_bytes_total",
        "Per-column bytes through the LMSG2 spill encoder",
        {{"column", column}, {"kind", "raw"}});
    obs::Counter& encoded = registry.GetCounter(
        "labmon_spill_column_bytes_total",
        "Per-column bytes through the LMSG2 spill encoder",
        {{"column", column}, {"kind", "encoded"}});
    raw.Increment(columns_.raw[i]);
    encoded.Increment(columns_.encoded[i]);
    registry
        .GetGauge("labmon_spill_column_ratio",
                  "Cumulative raw/encoded ratio per LMSG2 column",
                  {{"column", column}})
        .Set(static_cast<double>(raw.value()) /
             static_cast<double>(encoded.value()));
  }
  pending_ = {};
  columns_ = {};
}

util::Result<SegmentWriter> SegmentWriter::Open(const std::string& path,
                                                std::size_t machine_count,
                                                SpillCodecId codec) {
  using R = util::Result<SegmentWriter>;
  SegmentWriter writer;
  writer.path_ = path;
  writer.codec_ = &GetSpillCodec(codec);
  writer.machine_count_ = machine_count;
  writer.tally_ = SpillIoTally(codec, "write");
  writer.out_.open(path, std::ios::binary | std::ios::trunc);
  if (!writer.out_) return R::Err("cannot open segment for write: " + path);
  std::string header(writer.codec_->magic());
  util::PutVarint(header, kVersion);
  util::PutVarint(header, machine_count);
  writer.out_.write(header.data(),
                    static_cast<std::streamsize>(header.size()));
  writer.bytes_written_ += header.size();
  if (!writer.out_) return R::Err("segment header write failed: " + path);
  return writer;
}

util::Result<bool> SegmentWriter::Append(const TraceStore& block_store) {
  return Write(block_store);
}

util::Result<bool> SegmentWriter::Append(const TraceBlock& block) {
  return Write(BlockView(block, machine_count_));
}

util::Result<bool> SegmentWriter::Write(const BlockView& block) {
  using R = util::Result<bool>;
  if (!out_) return R::Err("segment writer not open: " + path_);
  const std::uint64_t t0 = NowNs();
  codec_->EncodeBlock(block, payload_, tally_.columns());
  SpillCodecStats delta;
  delta.blocks = 1;
  delta.samples = block.size();
  delta.raw_bytes = RawColumnBytes(block);
  delta.payload_bytes = payload_.size();
  delta.ns = NowNs() - t0;
  stats_ += delta;
  tally_.Add(delta);
  std::string frame;
  util::PutVarint(frame, payload_.size());
  const std::uint64_t checksum = Fnv1a(payload_);
  out_.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  out_.write(payload_.data(), static_cast<std::streamsize>(payload_.size()));
  char sum[8];
  for (int i = 0; i < 8; ++i) {
    sum[i] = static_cast<char>((checksum >> (8 * i)) & 0xff);
  }
  out_.write(sum, 8);
  if (!out_) {
    tally_.Publish();
    return R::Err("segment block write failed: " + path_);
  }
  bytes_written_ += frame.size() + payload_.size() + 8;
  ++blocks_;
  return true;
}

util::Result<bool> SegmentWriter::Finish() {
  using R = util::Result<bool>;
  tally_.Publish();
  out_.flush();
  if (!out_) return R::Err("segment flush failed: " + path_);
  out_.close();
  if (out_.fail()) return R::Err("segment close failed: " + path_);
  return true;
}

util::Result<SegmentReader> SegmentReader::Open(const std::string& path) {
  using R = util::Result<SegmentReader>;
  SegmentReader reader;
  reader.path_ = path;
  reader.in_.open(path, std::ios::binary);
  if (!reader.in_) return R::Err("cannot open segment for read: " + path);
  char magic[kMagicLen];
  reader.in_.read(magic, kMagicLen);
  if (reader.in_.gcount() != static_cast<std::streamsize>(kMagicLen)) {
    return R::Err("bad segment magic: " + path);
  }
  reader.codec_ = FindSpillCodecByMagic(std::string_view(magic, kMagicLen));
  if (reader.codec_ == nullptr) {
    return R::Err("bad segment magic: " + path);
  }
  reader.tally_ = SpillIoTally(reader.codec_->id(), "read");
  std::uint64_t version = 0;
  std::uint64_t machines = 0;
  bool clean = false;
  if (!ReadVarint(reader.in_, version, clean) || version != kVersion) {
    return R::Err("unsupported segment version: " + path);
  }
  if (!ReadVarint(reader.in_, machines, clean)) {
    return R::Err("truncated or overlong segment header: " + path);
  }
  reader.machine_count_ = static_cast<std::size_t>(machines);
  reader.first_block_pos_ = reader.in_.tellg();
  return reader;
}

void SegmentReader::Reset() {
  error_.clear();
  in_.clear();
  in_.seekg(first_block_pos_);
  next_iteration_ = 0;
}

const TraceBlock* SegmentReader::Next() {
  return Next(scratch_) ? &scratch_ : nullptr;
}

bool SegmentReader::Next(TraceBlock& out) {
  if (ReadBlock(out)) return true;
  tally_.Publish();  // end of stream or read error
  return false;
}

bool SegmentReader::ReadBlock(TraceBlock& out) {
  if (!error_.empty()) return false;
  std::uint64_t payload_len = 0;
  bool clean_eof = false;
  if (!ReadVarint(in_, payload_len, clean_eof)) {
    if (!clean_eof) {
      error_ = "truncated or overlong block length prefix: " + path_;
    }
    return false;
  }
  if (payload_len > kMaxPayloadBytes) {
    error_ = "implausible block length (corrupt prefix): " + path_;
    return false;
  }
  payload_.resize(static_cast<std::size_t>(payload_len));
  in_.read(payload_.data(), static_cast<std::streamsize>(payload_len));
  if (in_.gcount() != static_cast<std::streamsize>(payload_len)) {
    error_ = "truncated block payload: " + path_;
    return false;
  }
  char sum[8];
  in_.read(sum, 8);
  if (in_.gcount() != 8) {
    error_ = "truncated block checksum: " + path_;
    return false;
  }
  std::uint64_t stored = 0;
  for (int i = 0; i < 8; ++i) {
    stored |= static_cast<std::uint64_t>(static_cast<unsigned char>(sum[i]))
              << (8 * i);
  }
  if (stored != Fnv1a(payload_)) {
    error_ = "block checksum mismatch: " + path_;
    return false;
  }
  const std::uint64_t t0 = NowNs();
  auto decoded = codec_->DecodeBlock(payload_, machine_count_, out);
  if (!decoded.ok()) {
    error_ = "block payload decode failed (" + decoded.error() + "): " + path_;
    return false;
  }
  SpillCodecStats delta;
  delta.blocks = 1;
  delta.samples = out.size();
  delta.raw_bytes = RawColumnBytes(out);
  delta.payload_bytes = payload_.size();
  delta.ns = NowNs() - t0;
  stats_ += delta;
  tally_.Add(delta);
  // Payloads number iteration rows from zero; a segment's blocks cover the
  // lab's iterations contiguously in order, so restore the stream-global
  // numbering the merge keys on.
  for (IterationInfo& info : out.iterations) {
    info.iteration = next_iteration_++;
  }
  return true;
}

}  // namespace labmon::trace
