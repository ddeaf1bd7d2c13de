// Shared plumbing for the verdict suites that hold tomo::CnfAnalyzer to
// known answers, to the brute-force referee (brute_force_reference.h)
// and to its own invariants: laying a bare CNF out as a TomoCnf, reading
// a verdict back as an assignment, and checking that assignment.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sat/types.h"
#include "tomo/engine.h"

namespace ct::tomo::test {

/// The AS id of CNF variable v in as_tomo_cnf's CNFs: offset from v so
/// a verdict that confused the two would show.
constexpr topo::AsId kFirstAs = 100;

inline sat::Lit pos(sat::Var v) { return sat::Lit(v, false); }
inline sat::Lit neg(sat::Var v) { return sat::Lit(v, true); }

/// The AS ids of variables 0 .. num_vars - 1: kFirstAs + v.
inline std::vector<topo::AsId> as_ids(std::int32_t num_vars) {
  std::vector<topo::AsId> ases;
  for (sat::Var v = 0; v < num_vars; ++v) ases.push_back(kFirstAs + v);
  return ases;
}

/// `cnf` in TomoCnf's flat layout, variable v being AS kFirstAs + v:
/// each negative unit sets a clean flag, and each other clause becomes a
/// positive clause and a censored path of its variables' ASes.  Throws
/// std::invalid_argument for a clause that is neither a negative unit
/// nor all-positive, which the layout cannot state.
inline TomoCnf from_cnf(const sat::Cnf& cnf) {
  TomoCnf tc;
  tc.vars = as_ids(cnf.num_vars);
  tc.clean.assign(tc.vars.size(), 0);
  for (const std::vector<sat::Lit>& clause : cnf.clauses) {
    if (clause.size() == 1 && clause[0].negated()) {
      tc.clean.at(static_cast<std::size_t>(clause[0].var())) = 1;
      continue;
    }
    if (std::any_of(clause.begin(), clause.end(), [](sat::Lit l) { return l.negated(); })) {
      throw std::invalid_argument(
          "from_cnf: a clause is neither a negative unit nor all-positive");
    }
    for (const sat::Lit l : clause) {
      tc.clause_vars.push_back(l.var());
      tc.path_ases.push_back(kFirstAs + l.var());
    }
    tc.clause_ends.push_back(static_cast<std::uint32_t>(tc.clause_vars.size()));
    tc.path_ends.push_back(static_cast<std::uint32_t>(tc.path_ases.size()));
  }
  tc.num_negative_units =
      static_cast<std::int32_t>(std::count(tc.clean.begin(), tc.clean.end(), 1));
  tc.num_positive_clauses = static_cast<std::int32_t>(tc.clause_ends.size());
  return tc;
}

/// `tc` with its last literal pointing one past the last variable: a
/// layout the analyzer refuses only after reading everything before it.
/// `tc` must have a literal.
inline TomoCnf with_stray_last_literal(TomoCnf tc) {
  tc.clause_vars.back() = static_cast<sat::Var>(tc.vars.size());
  return tc;
}

/// CNF variables of the ASes in `ases`, ascending.
inline std::vector<sat::Var> vars_of(const std::vector<topo::AsId>& ases) {
  std::vector<sat::Var> vars;
  for (const topo::AsId as : ases) vars.push_back(as - kFirstAs);
  std::sort(vars.begin(), vars.end());
  return vars;
}

/// The assignment a satisfiable verdict names: its censors (class 1) or
/// its potential censors (class 2) true, every other variable false.
inline std::vector<bool> verdict_model(const CnfVerdict& v, std::int32_t num_vars) {
  std::vector<bool> model(static_cast<std::size_t>(num_vars), false);
  for (const sat::Var x : vars_of(v.solution_class == 1 ? v.censors : v.potential_censors)) {
    model[static_cast<std::size_t>(x)] = true;
  }
  return model;
}

inline bool clause_satisfied(const std::vector<sat::Lit>& clause, const std::vector<bool>& model) {
  return std::any_of(clause.begin(), clause.end(), [&model](sat::Lit l) {
    return model[static_cast<std::size_t>(l.var())] != l.negated();
  });
}

inline bool satisfies(const sat::Cnf& cnf, const std::vector<bool>& model) {
  return std::all_of(cnf.clauses.begin(), cnf.clauses.end(),
                     [&model](const std::vector<sat::Lit>& c) {
                       return clause_satisfied(c, model);
                     });
}

/// Options that make capped_count the exact model count of a CNF of
/// `num_vars` variables (at most 62).
inline AnalysisOptions exact_count_options(std::int32_t num_vars) {
  AnalysisOptions options;
  options.count_cap = (std::uint64_t{1} << num_vars) + 1;
  return options;
}

}  // namespace ct::tomo::test
