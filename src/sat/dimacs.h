// DIMACS CNF reading and writing, so churntomo CNFs can be exported to /
// imported from external SAT tooling (the paper used an off-the-shelf
// solver; this keeps that workflow available).
#pragma once

#include <iosfwd>
#include <string>

#include "sat/types.h"

namespace ct::sat {

/// Writes `cnf` in DIMACS format.  `comments` lines are emitted as
/// "c <line>" before the problem line.
void write_dimacs(std::ostream& out, const Cnf& cnf,
                  const std::vector<std::string>& comments = {});

/// Parses a DIMACS CNF.  Throws std::runtime_error on malformed input
/// (missing or repeated problem line, more than kMaxVars variables,
/// literal out of range, unterminated clause).
Cnf read_dimacs(std::istream& in);

/// Convenience round-trip helpers on strings.
std::string to_dimacs_string(const Cnf& cnf,
                             const std::vector<std::string>& comments = {});
Cnf from_dimacs_string(const std::string& text);

}  // namespace ct::sat
