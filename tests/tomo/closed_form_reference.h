// Closed-form verdicts of the tomography CNFs (paper §3.2): the referee
// that analyze_cnf is held to, computed without a SAT solver.
//
// StreamingCnfBuilder::build_group emits two kinds of clause only: a
// negative unit for each AS seen on a clean path, and an all-positive
// clause for each censored path.  Let C be the ASes with a negative
// unit, P_i each censored path's clause, and R_i = P_i \ C.
//
//   * The CNF is UNSAT iff some R_i is empty.  Otherwise setting every
//     AS outside C true is a model, so every AS outside C is a potential
//     censor and every AS in C is a definite non-censor.
//   * An AS that is the only member of some R_i is forced true.  The
//     model is unique iff every AS outside C is forced; the identified
//     censors are then exactly the ASes outside C.  (An unforced AS u
//     outside C can be set false in the all-true model: every R_i that
//     holds u has another member.)
//   * The model count is the number of hitting sets of the R_i that the
//     forced ASes do not already hit, over the unforced ASes outside C,
//     capped at count_cap.
//
// This is exact for the encoding build_group implements; it
// approximates nothing.  A CNF with any other clause shape is refused.
//
// brute_force_verdict below is the referee for the closed form itself:
// it sweeps all 2^n assignments of a small CNF of any shape.
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

/// Subsets of the unassigned variables (value 0) that hit every set in
/// `sets`, given that variables of value 1 are true and of value -1
/// false; counting stops at `cap` (>= 1).  Branches on the first unhit
/// set by which of its open members is the first true one, so the
/// branches partition the hitting sets.  A branch with an unhittable set
/// is cut at once, so every branch taken holds a model and at most
/// `cap` leaves are reached.
inline std::uint64_t count_hitting_sets(const std::vector<std::vector<sat::Var>>& sets,
                                        std::vector<std::int8_t>& value,
                                        std::int64_t unassigned, std::uint64_t cap) {
  const std::vector<sat::Var>* branch = nullptr;
  for (const std::vector<sat::Var>& set : sets) {
    bool hit = false;
    bool open = false;
    for (const sat::Var v : set) {
      hit = hit || value[static_cast<std::size_t>(v)] == 1;
      open = open || value[static_cast<std::size_t>(v)] == 0;
    }
    if (hit) continue;
    if (!open) return 0;
    if (branch == nullptr) branch = &set;
  }
  if (branch == nullptr) {
    return unassigned >= 62 ? cap : std::min(std::uint64_t{1} << unassigned, cap);
  }
  std::uint64_t total = 0;
  std::vector<sat::Var> set_false;
  for (const sat::Var v : *branch) {
    std::int8_t& x = value[static_cast<std::size_t>(v)];
    if (x != 0) continue;  // fixed, or a repeat of a member already tried
    x = 1;
    total += count_hitting_sets(sets, value,
                                unassigned - 1 - static_cast<std::int64_t>(set_false.size()),
                                cap - total);
    x = -1;
    set_false.push_back(v);
    if (total >= cap) break;
  }
  for (const sat::Var v : set_false) value[static_cast<std::size_t>(v)] = 0;
  return std::min(total, cap);
}

}  // namespace detail

/// The verdict analyze_cnf must return for `tc`, in closed form.
/// Throws std::invalid_argument unless every clause is a negative unit
/// or all-positive.
inline CnfVerdict closed_form_verdict(const TomoCnf& tc, const AnalysisOptions& options = {}) {
  const auto n = static_cast<std::size_t>(tc.cnf.num_vars);
  std::vector<std::uint8_t> clean(n, 0);  // C: a negative unit
  std::vector<const std::vector<sat::Lit>*> positives;
  for (const std::vector<sat::Lit>& clause : tc.cnf.clauses) {
    if (clause.size() == 1 && clause[0].negated()) {
      clean[static_cast<std::size_t>(clause[0].var())] = 1;
    } else if (std::none_of(clause.begin(), clause.end(),
                            [](sat::Lit l) { return l.negated(); })) {
      positives.push_back(&clause);
    } else {
      throw std::invalid_argument("closed_form_verdict: not a tomography CNF");
    }
  }

  // R_i, and the sole-member rule: an R_i of one AS forces it true.
  std::vector<std::vector<sat::Var>> residues;
  std::vector<std::uint8_t> forced(n, 0);
  CnfVerdict v;
  for (const std::vector<sat::Lit>* clause : positives) {
    std::vector<sat::Var>& r = residues.emplace_back();
    for (const sat::Lit l : *clause) {
      if (!clean[static_cast<std::size_t>(l.var())]) r.push_back(l.var());
    }
    if (r.empty()) {
      detail::fill_verdict(v, tc, 0, {}, 0, options);
      return v;
    }
    if (std::all_of(r.begin(), r.end(), [&r](sat::Var x) { return x == r.front(); })) {
      forced[static_cast<std::size_t>(r.front())] = 1;
    }
  }

  std::vector<std::uint8_t> outside_c(n);
  std::vector<std::int8_t> value(n);  // 1 forced, -1 in C, 0 free
  std::int64_t unforced = 0;
  for (std::size_t x = 0; x < n; ++x) {
    outside_c[x] = clean[x] ? 0 : 1;
    value[x] = clean[x] ? -1 : forced[x] ? 1 : 0;
    unforced += value[x] == 0 ? 1 : 0;
  }
  if (unforced == 0) {
    detail::fill_verdict(v, tc, 1, outside_c, 1, options);
    return v;
  }

  // Only the R_i that no forced AS hits constrain the unforced ASes.
  std::vector<std::vector<sat::Var>> open_sets;
  for (std::vector<sat::Var>& r : residues) {
    if (std::none_of(r.begin(), r.end(),
                     [&forced](sat::Var x) { return forced[static_cast<std::size_t>(x)]; })) {
      open_sets.push_back(std::move(r));
    }
  }
  const std::uint64_t cap = std::max<std::uint64_t>(options.count_cap, 1);
  const std::uint64_t count = detail::count_hitting_sets(open_sets, value, unforced, cap);
  detail::fill_verdict(v, tc, 2, outside_c, count, options);
  return v;
}

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
