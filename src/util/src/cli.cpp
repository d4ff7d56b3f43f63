#include "labmon/util/cli.hpp"

#include <cstdlib>
#include <iostream>

#include "labmon/util/strings.hpp"

namespace labmon::util {

std::int64_t IntArg(const char* what, const std::string& text,
                    std::int64_t lo, std::int64_t hi) {
  const auto parsed = ParseInt64(text);
  if (!parsed || *parsed < lo || *parsed > hi) {
    std::cerr << what << " wants an integer in [" << lo << ", " << hi
              << "], got \"" << text << "\"\n";
    std::exit(1);
  }
  return *parsed;
}

double DoubleArg(const char* what, const std::string& text, double lo,
                 double hi) {
  const auto parsed = ParseDouble(text);
  if (!parsed || !(*parsed >= lo && *parsed <= hi)) {
    std::cerr << what << " wants a number in [" << lo << ", " << hi
              << "], got \"" << text << "\"\n";
    std::exit(1);
  }
  return *parsed;
}

}  // namespace labmon::util
