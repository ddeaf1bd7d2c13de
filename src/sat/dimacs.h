// DIMACS CNF writing, so churntomo CNFs can be exported to external SAT
// tooling (the paper used an off-the-shelf solver; this keeps that
// workflow available).
#pragma once

#include <iosfwd>
#include <string>

#include "sat/types.h"

namespace ct::sat {

/// Writes `cnf` in DIMACS format.  `comments` lines are emitted as
/// "c <line>" before the problem line.
void write_dimacs(std::ostream& out, const Cnf& cnf,
                  const std::vector<std::string>& comments = {});

/// write_dimacs into a string.
std::string to_dimacs_string(const Cnf& cnf,
                             const std::vector<std::string>& comments = {});

}  // namespace ct::sat
