// Strict command-line parsing shared by the examples.  A malformed
// argument — junk or trailing characters in a number, an out-of-range
// value, an unknown flag or regime — prints what was wrong and the
// program's usage line, then exits 2 before anything is built: a typo
// must not silently run seed 0 or the wrong scenario.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <optional>
#include <string>

#include "censor/regime.h"

namespace ct::examples {

/// The program name and its argument synopsis, for usage errors.
struct Usage {
  const char* argv0;
  const char* synopsis;

  [[noreturn]] void fail(const std::string& message) const {
    std::cerr << message << "\nusage: " << argv0 << " " << synopsis << "\n";
    std::exit(2);
  }
};

/// Parses `text` whole as a base-10 integer in [lo, hi].  Junk, trailing
/// characters, overflow and out-of-range values are usage errors that
/// name `flag`.
template <typename Int>
Int parse_flag(const Usage& usage, const std::string& flag, const char* text, Int lo, Int hi) {
  Int value{};
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc{} || ptr != end || value < lo || value > hi) {
    usage.fail(flag + " needs an integer in [" + std::to_string(lo) + ", " +
               std::to_string(hi) + "], got \"" + text + "\"");
  }
  return value;
}

/// A scenario seed: any unsigned 64-bit integer.
inline std::uint64_t parse_seed(const Usage& usage, const char* text) {
  return parse_flag<std::uint64_t>(usage, "seed", text, 0,
                                   std::numeric_limits<std::uint64_t>::max());
}

/// A --regime value: exactly one of the names censor::to_string gives.
inline censor::ScenarioRegime parse_regime_flag(const Usage& usage, const char* text) {
  const std::optional<censor::ScenarioRegime> regime = censor::parse_regime(text);
  if (!regime.has_value()) {
    std::string names;
    for (const censor::ScenarioRegime r : censor::all_regimes()) {
      names += (names.empty() ? "" : ", ") + censor::to_string(r);
    }
    usage.fail("--regime needs one of " + names + ", got \"" + text + "\"");
  }
  return *regime;
}

/// The value after the flag at argv[i], advancing i past it.
inline const char* flag_value(const Usage& usage, int argc, char** argv, int& i) {
  if (i + 1 >= argc) usage.fail(std::string(argv[i]) + " needs a value");
  return argv[++i];
}

}  // namespace ct::examples
