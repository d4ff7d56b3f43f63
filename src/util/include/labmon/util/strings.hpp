// Small string helpers shared across the project (libstdc++ 12 has no
// std::format, so number formatting is snprintf-backed here).
#pragma once

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace labmon::util {

/// Splits on a single character; keeps empty fields ("a,,b" -> 3 fields).
[[nodiscard]] std::vector<std::string> Split(std::string_view text, char sep);

/// Trims ASCII whitespace from both ends.
[[nodiscard]] std::string_view Trim(std::string_view text) noexcept;

/// Lower-cases ASCII letters.
[[nodiscard]] std::string ToLower(std::string_view text);

/// Strict integer parse of the whole (trimmed) string.
[[nodiscard]] std::optional<std::int64_t> ParseInt64(std::string_view text) noexcept;

/// Strict floating-point parse of the whole (trimmed) string.
[[nodiscard]] std::optional<double> ParseDouble(std::string_view text) noexcept;

/// Fixed-point rendering, e.g. FormatFixed(3.14159, 2) == "3.14".
[[nodiscard]] std::string FormatFixed(double value, int precision);

/// Thousands-separated integer rendering, e.g. 583653 -> "583,653".
[[nodiscard]] std::string FormatWithThousands(std::int64_t value);

/// Human-readable byte count ("13.6 GB", "512 MB").
[[nodiscard]] std::string FormatBytes(double bytes);

/// Streams all arguments into one string; the project's std::format stand-in.
template <typename... Args>
[[nodiscard]] std::string Cat(Args&&... args) {
  std::ostringstream oss;
  if constexpr (sizeof...(Args) > 0) {
    (oss << ... << std::forward<Args>(args));
  }
  return oss.str();
}

}  // namespace labmon::util
