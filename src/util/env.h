// Fail-fast environment-variable parsing.
//
// The execution-mode knobs (CT_SAT_BACKEND, CT_SAT_PORTFOLIO, ...) select
// between configurations that are *supposed* to produce identical
// results — which is exactly why a typo'd value must not fall back to a
// default: the run would silently test the wrong configuration while
// passing.  env_parse() throws EnvParseError naming the variable and
// the offending value instead; an unset variable still yields the
// caller's default.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace ct::util {

/// Thrown when a set environment variable holds an unrecognized value.
class EnvParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Value of `name`, or nullopt when unset.  An empty value counts as
/// set (and will fail any parser that rejects "").
std::optional<std::string> env_string(const char* name);

/// Strict boolean: "0"/"false"/"off" and "1"/"true"/"on".
std::optional<bool> parse_bool(std::string_view value);

/// Parses `name` with `parse` (a callable string_view -> optional<T>).
/// Unset -> `fallback`; set and recognized -> the parsed value; set and
/// unrecognized -> EnvParseError naming the variable, the value, and —
/// when the caller provides `accepted` — the values the flag takes, so
/// the fix is in the message (not a grep through the README).
template <typename T, typename Parser>
T env_parse(const char* name, T fallback, Parser&& parse, std::string_view accepted = {}) {
  const std::optional<std::string> raw = env_string(name);
  if (!raw.has_value()) return fallback;
  if (std::optional<T> parsed = parse(std::string_view(*raw)); parsed.has_value()) {
    return *std::move(parsed);
  }
  std::string message = std::string("unrecognized ") + name + " value: \"" + *raw + '"';
  if (!accepted.empty()) {
    message += " (accepted: ";
    message += accepted;
    message += ')';
  }
  throw EnvParseError(message);
}

/// env_parse for on/off knobs, on parse_bool (accepted values listed
/// in the error automatically).
bool env_parse_bool(const char* name, bool fallback);

}  // namespace ct::util
