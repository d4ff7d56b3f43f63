#include "labmon/util/varint.hpp"

namespace labmon::util {

namespace {

constexpr std::size_t kMaxVarintBytes = 10;

// Encodes into a stack buffer and appends once; a single append lets the
// string grow (or not) with one capacity check instead of one per byte.
inline void AppendVarint(std::string& out, std::uint64_t value) {
  char buf[kMaxVarintBytes];
  std::size_t n = 0;
  while (value >= 0x80) {
    buf[n++] = static_cast<char>((value & 0x7f) | 0x80);
    value >>= 7;
  }
  buf[n++] = static_cast<char>(value);
  out.append(buf, n);
}

}  // namespace

void PutVarint(std::string& out, std::uint64_t value) {
  AppendVarint(out, value);
}

void PutSignedVarint(std::string& out, std::int64_t value) {
  AppendVarint(out, ZigzagEncode(value));
}

std::optional<std::uint64_t> VarintReader::Read() noexcept {
  std::uint64_t value = 0;
  int shift = 0;
  while (pos_ < data_.size()) {
    const std::uint8_t byte = data_[pos_++];
    if (shift >= 63 && byte > 1) return std::nullopt;  // overlong
    value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return value;
    shift += 7;
    if (shift > 63) return std::nullopt;
  }
  return std::nullopt;  // truncated
}

std::optional<std::int64_t> VarintReader::ReadSigned() noexcept {
  const auto raw = Read();
  if (!raw) return std::nullopt;
  return ZigzagDecode(*raw);
}

std::optional<std::string> VarintReader::ReadBytes(std::size_t n) {
  if (remaining() < n) return std::nullopt;
  std::string out(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return out;
}

}  // namespace labmon::util
