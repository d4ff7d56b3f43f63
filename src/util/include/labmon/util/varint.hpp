// LEB128-style varint and zigzag coding — the primitives of the binary
// trace format (trace/binary_io). Kept in util so tests can hammer them
// independently.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

namespace labmon::util {

/// Appends an unsigned LEB128 varint (1–10 bytes).
void PutVarint(std::string& out, std::uint64_t value);

/// Zigzag-maps a signed value and appends it as a varint.
void PutSignedVarint(std::string& out, std::int64_t value);

/// Zigzag encode/decode.
[[nodiscard]] constexpr std::uint64_t ZigzagEncode(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
[[nodiscard]] constexpr std::int64_t ZigzagDecode(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

/// Cursor-based reader over an encoded buffer.
class VarintReader {
 public:
  explicit VarintReader(std::span<const std::uint8_t> data) noexcept
      : data_(data) {}
  explicit VarintReader(const std::string& data) noexcept
      : data_(reinterpret_cast<const std::uint8_t*>(data.data()),
              data.size()) {}
  explicit VarintReader(std::string_view data) noexcept
      : data_(reinterpret_cast<const std::uint8_t*>(data.data()),
              data.size()) {}

  /// Reads one unsigned varint; nullopt on truncation/overlong input.
  [[nodiscard]] std::optional<std::uint64_t> Read() noexcept;
  /// Reads one zigzag-coded signed varint.
  [[nodiscard]] std::optional<std::int64_t> ReadSigned() noexcept;
  /// Reads `n` raw bytes as a string.
  [[nodiscard]] std::optional<std::string> ReadBytes(std::size_t n);
  /// Advances the cursor `n` bytes; false (cursor unchanged) if fewer
  /// remain.
  [[nodiscard]] bool Skip(std::size_t n) noexcept {
    if (remaining() < n) return false;
    pos_ += n;
    return true;
  }

  [[nodiscard]] std::size_t position() const noexcept { return pos_; }
  [[nodiscard]] bool AtEnd() const noexcept { return pos_ >= data_.size(); }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace labmon::util
