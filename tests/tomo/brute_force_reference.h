// The brute-force referee for tomo::analyze_cnf: the verdict of a small
// CNF of any shape, by sweeping all 2^n assignments.  It shares no code
// with the engine's closed form (tomo/engine.cpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "tomo/engine.h"

namespace ct::tomo::test {

namespace detail {

/// Fills the class-dependent fields of `v` from a solution class,
/// per-variable flags and the model count (already capped).
inline void fill_verdict(CnfVerdict& v, const TomoCnf& tc, int solution_class,
                         const std::vector<std::uint8_t>& true_in_some_model,
                         std::uint64_t count, const AnalysisOptions& options) {
  v.key = tc.key;
  v.num_vars = tc.vars.size();
  v.solution_class = solution_class;
  const bool resolves = options.resolve_counts && solution_class == 2 && options.count_cap > 2;
  v.capped_count = resolves ? std::min(count, options.count_cap)
                            : std::min<std::uint64_t>(
                                  static_cast<std::uint64_t>(solution_class), options.count_cap);
  if (solution_class == 0) return;
  for (std::size_t var = 0; var < tc.vars.size(); ++var) {
    const topo::AsId as = tc.vars[var];
    if (solution_class == 1) {
      if (true_in_some_model[var]) v.censors.push_back(as);
    } else {
      (true_in_some_model[var] ? v.potential_censors : v.definite_noncensors).push_back(as);
    }
  }
  std::sort(v.censors.begin(), v.censors.end());
  std::sort(v.potential_censors.begin(), v.potential_censors.end());
  std::sort(v.definite_noncensors.begin(), v.definite_noncensors.end());
  if (solution_class == 2 && !tc.vars.empty()) {
    v.reduction_fraction = static_cast<double>(v.definite_noncensors.size()) /
                           static_cast<double>(tc.vars.size());
  }
}

}  // namespace detail

/// The verdict of `tc` by sweeping all 2^n assignments (n <= 20).
inline CnfVerdict brute_force_verdict(const TomoCnf& tc, const AnalysisOptions& options = {}) {
  const auto n = static_cast<std::uint32_t>(tc.cnf.num_vars);
  if (n > 20) throw std::invalid_argument("brute_force_verdict: too many variables");
  std::uint64_t count = 0;
  std::uint32_t ever_true = 0;
  std::uint32_t last_model = 0;
  for (std::uint32_t a = 0; a < (1u << n); ++a) {
    const bool satisfied = std::all_of(
        tc.cnf.clauses.begin(), tc.cnf.clauses.end(), [a](const std::vector<sat::Lit>& c) {
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
  detail::fill_verdict(v, tc, solution_class, true_in_some_model, count, options);
  return v;
}

}  // namespace ct::tomo::test
