#include "sat/session.h"

#include <algorithm>
#include <array>
#include <limits>

namespace ct::sat {

namespace {

std::size_t idx(BackendKind kind) { return static_cast<std::size_t>(kind); }

/// The route rule.  Unit propagation is tried first when at least half
/// of the clauses are units (tomography CNFs are dominated by negative
/// units, which is what makes propagation decisive), or when the CNF
/// has at most 16 variables (a failed presolve on a tiny CNF costs next
/// to nothing).  Every other CNF goes straight to CDCL.
BackendKind route_of(const Cnf& cnf) {
  std::size_t units = 0;
  for (const auto& clause : cnf.clauses) units += clause.size() == 1 ? 1 : 0;
  const bool unit_rich = !cnf.clauses.empty() && 2 * units >= cnf.clauses.size();
  const bool tiny = cnf.num_vars <= 16;
  return unit_rich || tiny ? BackendKind::kUnitProp : BackendKind::kCdcl;
}

/// Splits variables [0, num_vars) into out.potential_true (where
/// `is_true`) and out.always_false, allocating each list once.
template <class IsTrue>
void split_vars(std::int32_t num_vars, IsTrue is_true, PotentialTrueResult& out) {
  std::size_t trues = 0;
  for (Var v = 0; v < num_vars; ++v) trues += is_true(v) ? 1 : 0;
  out.potential_true.reserve(trues);
  out.always_false.reserve(static_cast<std::size_t>(num_vars) - trues);
  for (Var v = 0; v < num_vars; ++v) {
    (is_true(v) ? out.potential_true : out.always_false).push_back(v);
  }
}

}  // namespace

void SolverSession::load(const Cnf& cnf) {
  cnf_vars_ = cnf.num_vars;
  activation_ = kUndefVar;
  model_lits_.clear();
  num_models_ = 0;
  exhausted_ = false;
  ++stats_.cnf_loads;
  stats_.fresh_clauses += cnf.clauses.size();
  const BackendKind route = route_of(cnf);
  ++stats_.backends[idx(route)].selected;
  presolve_ = route == BackendKind::kUnitProp ? unitprop_.presolve(cnf) : nullptr;
  if (presolve_ != nullptr) {
    ++stats_.backends[idx(BackendKind::kUnitProp)].served;
    return;
  }
  // Propagation could not decide the CNF (escalate), or it was routed
  // straight to CDCL.
  if (route == BackendKind::kUnitProp) ++stats_.backends[idx(route)].escalated;
  solver_.reset();
  solver_.add_cnf(cnf);  // a false return leaves the solver inconsistent,
                         // which every query handles via kUnsat
  ++stats_.backends[idx(BackendKind::kCdcl)].served;
}

SolveResult SolverSession::solve(std::span<const Lit> assumptions) {
  ++stats_.solve_calls;
  return solver_.solve(assumptions);
}

void SolverSession::read_model() {
  for (Var v = 0; v < cnf_vars_; ++v) {
    model_lits_.emplace_back(v, solver_.model_value(v) != LBool::kTrue);
  }
  ++num_models_;
  ++stats_.models_found;
}

void SolverSession::ensure_models(std::uint64_t want) {
  while (!exhausted_ && num_models_ < want) {
    if (activation_ == kUndefVar) activation_ = solver_.new_var();
    const Lit guard(activation_, /*negated=*/false);
    const std::array<Lit, 1> guard_assumption{guard};
    if (solve(guard_assumption) != SolveResult::kSat) {
      exhausted_ = true;
      break;
    }
    read_model();
    block_.clear();
    block_.push_back(~guard);
    for (const Lit l : model(num_models_ - 1)) block_.push_back(~l);
    if (!solver_.add_clause(block_)) {
      exhausted_ = true;  // blocking clause revealed level-0 UNSAT
      break;
    }
  }
}

std::uint64_t SolverSession::count_models_capped(std::uint64_t cap) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const std::uint64_t want = cap == 0 ? kMax : cap;  // 0 = no cap
  if (presolve_) {
    const Presolve& p = *presolve_;
    const std::uint64_t total = p.solution_class == 0 ? 0
                                : p.free_vars >= 62   ? kCountCap
                                                      : 1ULL << p.free_vars;
    return std::min(total, want);
  }
  ensure_models(want);
  return std::min<std::uint64_t>(num_models_, want);
}

SolutionClassification SolverSession::classify() {
  SolutionClassification out;
  if (presolve_) {
    // A decided presolve has one model iff no variable is free: the
    // forced values are that model.
    out.solution_class = presolve_->solution_class;
    if (out.solution_class == 1) {
      if (num_models_ == 0) {
        for (Var v = 0; v < cnf_vars_; ++v) {
          model_lits_.emplace_back(
              v, presolve_->values[static_cast<std::size_t>(v)] != LBool::kTrue);
        }
        ++num_models_;
        ++stats_.models_found;
      }
      out.unique_model.emplace(model(0).begin(), model(0).end());
    }
    return out;
  }
  ensure_models(2);
  out.solution_class = static_cast<int>(std::min<std::size_t>(num_models_, 2));
  if (out.solution_class == 1) out.unique_model.emplace(model(0).begin(), model(0).end());
  return out;
}

PotentialTrueResult SolverSession::potential_true_vars() {
  PotentialTrueResult out;

  if (presolve_) {
    const Presolve& p = *presolve_;
    if (p.solution_class == 0) return out;
    out.satisfiable = true;
    // A variable is True in some model iff it is forced True or free.
    split_vars(
        cnf_vars_,
        [&](Var v) { return p.values[static_cast<std::size_t>(v)] != LBool::kFalse; }, out);
    return out;
  }

  if (exhausted_ && num_models_ == 0) return out;

  std::vector<std::uint8_t>& known_true = known_true_;
  known_true.assign(static_cast<std::size_t>(cnf_vars_), 0);
  const auto harvest = [&] {
    for (Var v = 0; v < cnf_vars_; ++v) {
      if (solver_.model_value(v) == LBool::kTrue) {
        known_true[static_cast<std::size_t>(v)] = 1;
      }
    }
  };

  if (num_models_ != 0) {
    // Cached models are genuine models of the CNF; seed from them and
    // skip the base solve (the common path after classify() on
    // class-2 CNFs).
    for (const Lit l : model_lits_) {
      if (!l.negated()) known_true[static_cast<std::size_t>(l.var())] = 1;
    }
  } else {
    // The base solve doubles as the seed model.  Blocking clauses do
    // not constrain it: their guard is free to be False, so any model
    // of the original CNF (restricted to CNF variables) remains
    // reachable.
    if (solve({}) != SolveResult::kSat) {
      exhausted_ = true;
      return out;
    }
    harvest();
  }
  out.satisfiable = true;

  for (Var v = 0; v < cnf_vars_; ++v) {
    if (known_true[static_cast<std::size_t>(v)]) continue;
    const Lit assume(v, /*negated=*/false);
    const std::array<Lit, 1> assumption{assume};
    if (solve(assumption) == SolveResult::kSat) harvest();
  }

  split_vars(
      cnf_vars_, [&](Var v) { return known_true[static_cast<std::size_t>(v)] != 0; }, out);
  return out;
}

}  // namespace ct::sat
