// CNF types: variables, literals, clauses.
//
// Follows the MiniSat conventions: a variable is a dense non-negative
// integer, a literal is 2*var (+1 when negated).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace ct::sat {

using Var = std::int32_t;
/// Most variables a Lit can encode: the code 2*v + 1 of variable
/// kMaxVars - 1 is the largest int32.
inline constexpr std::int32_t kMaxVars = std::int32_t{1} << 30;

/// A literal: variable + polarity, encoded as 2*var + (negated ? 1 : 0).
class Lit {
 public:
  constexpr Lit() = default;
  constexpr Lit(Var v, bool negated) : code_(2 * v + (negated ? 1 : 0)) {}

  /// DIMACS convention: +v / -v with v >= 1.
  static constexpr Lit from_dimacs(std::int32_t d) {
    return Lit(d > 0 ? d - 1 : -d - 1, d < 0);
  }

  constexpr Var var() const { return code_ >> 1; }
  constexpr bool negated() const { return (code_ & 1) != 0; }
  constexpr std::int32_t to_dimacs() const {
    return negated() ? -(var() + 1) : (var() + 1);
  }

  constexpr bool operator==(const Lit& o) const = default;

 private:
  std::int32_t code_ = -2;
};

/// A CNF formula as plain data.
struct Cnf {
  std::int32_t num_vars = 0;
  std::vector<std::vector<Lit>> clauses;

  void add_clause(std::vector<Lit> lits) { clauses.push_back(std::move(lits)); }
};

}  // namespace ct::sat
