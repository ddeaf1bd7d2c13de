// The brute-force referee for tomo::analyze_cnf: the verdict of a small
// CNF of any shape, by sweeping all 2^n assignments of its sat::Cnf
// (tomo::to_cnf of a TomoCnf).  It shares no code with the engine's
// closed form (tomo/engine.cpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sat/types.h"
#include "tomo/cnf_builder.h"
#include "tomo/engine.h"

namespace ct::tomo::test {

namespace detail {

/// Fills the class-dependent fields of `v` from a solution class,
/// per-variable flags and the model count (already capped).
inline void fill_verdict(CnfVerdict& v, const CnfKey& key, const std::vector<topo::AsId>& vars,
                         int solution_class, const std::vector<std::uint8_t>& true_in_some_model,
                         std::uint64_t count, const AnalysisOptions& options) {
  v.key = key;
  v.num_vars = vars.size();
  v.solution_class = solution_class;
  const bool resolves = options.resolve_counts && solution_class == 2 && options.count_cap > 2;
  v.capped_count = resolves ? std::min(count, options.count_cap)
                            : std::min<std::uint64_t>(
                                  static_cast<std::uint64_t>(solution_class), options.count_cap);
  if (solution_class == 0) return;
  for (std::size_t var = 0; var < vars.size(); ++var) {
    const topo::AsId as = vars[var];
    if (solution_class == 1) {
      if (true_in_some_model[var]) v.censors.push_back(as);
    } else {
      (true_in_some_model[var] ? v.potential_censors : v.definite_noncensors).push_back(as);
    }
  }
  std::sort(v.censors.begin(), v.censors.end());
  std::sort(v.potential_censors.begin(), v.potential_censors.end());
  std::sort(v.definite_noncensors.begin(), v.definite_noncensors.end());
  if (solution_class == 2 && !vars.empty()) {
    v.reduction_fraction = static_cast<double>(v.definite_noncensors.size()) /
                           static_cast<double>(vars.size());
  }
}

}  // namespace detail

/// The verdict of `cnf`, whose variable v is AS vars[v], under `key`, by
/// sweeping all 2^n assignments (n <= 20).
inline CnfVerdict brute_force_verdict(const sat::Cnf& cnf, const std::vector<topo::AsId>& vars,
                                      const AnalysisOptions& options = {},
                                      const CnfKey& key = {}) {
  const auto n = static_cast<std::uint32_t>(cnf.num_vars);
  if (n > 20) throw std::invalid_argument("brute_force_verdict: too many variables");
  std::uint64_t count = 0;
  std::uint32_t ever_true = 0;
  std::uint32_t last_model = 0;
  for (std::uint32_t a = 0; a < (1u << n); ++a) {
    const bool satisfied = std::all_of(
        cnf.clauses.begin(), cnf.clauses.end(), [a](const std::vector<sat::Lit>& c) {
          return std::any_of(c.begin(), c.end(), [a](sat::Lit l) {
            return (((a >> l.var()) & 1u) != 0) != l.negated();
          });
        });
    if (satisfied) {
      ++count;
      ever_true |= a;
      last_model = a;
    }
  }
  const int solution_class = static_cast<int>(std::min<std::uint64_t>(count, 2));
  const std::uint32_t trues = solution_class == 1 ? last_model : ever_true;
  std::vector<std::uint8_t> true_in_some_model(n);
  for (std::uint32_t x = 0; x < n; ++x) true_in_some_model[x] = (trues >> x) & 1u;
  CnfVerdict v;
  detail::fill_verdict(v, key, vars, solution_class, true_in_some_model, count, options);
  return v;
}

/// The verdict of `tc`: the sweep of to_cnf(tc).
inline CnfVerdict brute_force_verdict(const TomoCnf& tc, const AnalysisOptions& options = {}) {
  return brute_force_verdict(to_cnf(tc), tc.vars, options, tc.key);
}

}  // namespace ct::tomo::test
