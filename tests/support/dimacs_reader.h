// DIMACS CNF reading, for the suites that round-trip tomo::write_dimacs.
// No shipped program reads DIMACS (export_dimacs only writes it), so
// the parser lives with the tests.
#pragma once

#include <cstdint>
#include <istream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sat/types.h"

namespace ct::test {

/// Parses a DIMACS CNF.  Throws std::runtime_error on malformed input
/// (missing or repeated problem line, more than sat::kMaxVars
/// variables, literal out of range, unterminated clause).
inline sat::Cnf read_dimacs(std::istream& in) {
  sat::Cnf cnf;
  bool have_header = false;
  std::int64_t declared_clauses = 0;
  std::string line;
  std::vector<sat::Lit> current;

  while (std::getline(in, line)) {
    if (line.empty() || line[0] == 'c') continue;
    if (line[0] == 'p') {
      // One problem line only: a second one could shrink num_vars below
      // literals already parsed.
      if (have_header) throw std::runtime_error("read_dimacs: second problem line: " + line);
      std::istringstream hs(line);
      std::string p, fmt;
      hs >> p >> fmt >> cnf.num_vars >> declared_clauses;
      if (!hs || fmt != "cnf" || cnf.num_vars < 0 || declared_clauses < 0) {
        throw std::runtime_error("read_dimacs: malformed problem line: " + line);
      }
      if (cnf.num_vars > sat::kMaxVars) {
        throw std::runtime_error("read_dimacs: more variables than a literal can encode: " +
                                 line);
      }
      have_header = true;
      continue;
    }
    if (!have_header) {
      throw std::runtime_error("read_dimacs: clause before problem line");
    }
    std::istringstream ls(line);
    std::int64_t d = 0;
    while (ls >> d) {
      if (d == 0) {
        cnf.clauses.push_back(current);
        current.clear();
        continue;
      }
      const std::int64_t v = d > 0 ? d : -d;
      if (v > cnf.num_vars) {
        throw std::runtime_error("read_dimacs: literal out of range: " + std::to_string(d));
      }
      current.push_back(sat::Lit::from_dimacs(static_cast<std::int32_t>(d)));
    }
  }
  if (!have_header) throw std::runtime_error("read_dimacs: missing problem line");
  if (!current.empty()) throw std::runtime_error("read_dimacs: unterminated clause");
  return cnf;
}

inline sat::Cnf from_dimacs_string(const std::string& text) {
  std::istringstream in(text);
  return read_dimacs(in);
}

}  // namespace ct::test
