// Core SAT types: variables, literals, ternary truth values, clauses.
//
// Follows the MiniSat conventions: a variable is a dense non-negative
// integer, a literal is 2*var (+1 when negated), which makes literals
// directly usable as indices into watch lists.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ct::sat {

using Var = std::int32_t;
inline constexpr Var kUndefVar = -1;
/// Most variables a Lit can encode: the code 2*v + 1 of variable
/// kMaxVars - 1 is the largest int32.
inline constexpr std::int32_t kMaxVars = std::int32_t{1} << 30;

/// A literal: variable + polarity, encoded as 2*var + (negated ? 1 : 0).
class Lit {
 public:
  constexpr Lit() = default;
  constexpr Lit(Var v, bool negated) : code_(2 * v + (negated ? 1 : 0)) {}

  static constexpr Lit from_code(std::int32_t code) {
    Lit l;
    l.code_ = code;
    return l;
  }
  /// DIMACS convention: +v / -v with v >= 1.
  static constexpr Lit from_dimacs(std::int32_t d) {
    return Lit(d > 0 ? d - 1 : -d - 1, d < 0);
  }

  constexpr Var var() const { return code_ >> 1; }
  constexpr bool negated() const { return (code_ & 1) != 0; }
  constexpr std::int32_t code() const { return code_; }
  constexpr std::int32_t to_dimacs() const {
    return negated() ? -(var() + 1) : (var() + 1);
  }

  constexpr Lit operator~() const { return from_code(code_ ^ 1); }
  constexpr bool operator==(const Lit& o) const = default;
  constexpr bool operator<(const Lit& o) const { return code_ < o.code_; }

  constexpr bool is_undef() const { return code_ < 0; }

 private:
  std::int32_t code_ = -2;
};

inline constexpr Lit kUndefLit = Lit::from_code(-2);

/// Ternary truth value.
enum class LBool : std::uint8_t { kFalse = 0, kTrue = 1, kUndef = 2 };

constexpr LBool lbool_from(bool b) { return b ? LBool::kTrue : LBool::kFalse; }
constexpr LBool operator!(LBool v) {
  if (v == LBool::kUndef) return LBool::kUndef;
  return v == LBool::kTrue ? LBool::kFalse : LBool::kTrue;
}

/// A CNF formula as plain data (pre-solver representation).
struct Cnf {
  std::int32_t num_vars = 0;
  std::vector<std::vector<Lit>> clauses;

  void add_clause(std::vector<Lit> lits) { clauses.push_back(std::move(lits)); }
};

/// A model: assignment to all solver variables.
using Model = std::vector<LBool>;

inline std::string to_string(Lit l) {
  return (l.negated() ? "~x" : "x") + std::to_string(l.var());
}

}  // namespace ct::sat
