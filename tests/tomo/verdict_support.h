// Shared plumbing for the verdict suites that hold tomo::CnfAnalyzer to
// known answers, to the brute-force referee (brute_force_reference.h)
// and to its own invariants: wrapping a bare CNF as a TomoCnf, reading
// a verdict back as an assignment, and checking that assignment.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sat/types.h"
#include "tomo/engine.h"

namespace ct::tomo::test {

/// The AS id of CNF variable v in as_tomo_cnf's CNFs: offset from v so
/// a verdict that confused the two would show.
constexpr topo::AsId kFirstAs = 100;

inline sat::Lit pos(sat::Var v) { return sat::Lit(v, false); }
inline sat::Lit neg(sat::Var v) { return sat::Lit(v, true); }

/// `cnf` as a TomoCnf whose variable v is AS kFirstAs + v.
inline TomoCnf as_tomo_cnf(sat::Cnf cnf) {
  TomoCnf tc;
  for (sat::Var v = 0; v < cnf.num_vars; ++v) tc.vars.push_back(kFirstAs + v);
  tc.cnf = std::move(cnf);
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
