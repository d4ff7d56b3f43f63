// Strict numeric command-line arguments for the example programs: a
// malformed or out-of-range value ends the program with a message naming
// the argument, instead of being read as 0 the way atoi/atof would.
#pragma once

#include <cstdint>
#include <string>

namespace labmon::util {

/// Strict integer argument in [lo, hi]; exits 1 naming `what` otherwise.
[[nodiscard]] std::int64_t IntArg(const char* what, const std::string& text,
                                  std::int64_t lo, std::int64_t hi);

/// Strict floating-point argument in [lo, hi] (NaN rejected); exits 1
/// naming `what` otherwise.
[[nodiscard]] double DoubleArg(const char* what, const std::string& text,
                               double lo, double hi);

}  // namespace labmon::util
