#include "sat/session.h"

#include <algorithm>
#include <array>
#include <limits>

namespace ct::sat {

namespace {

std::size_t idx(BackendKind kind) { return static_cast<std::size_t>(kind); }

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

void SolverSession::load(const Cnf& cnf) { load(cnf, BackendPlan{}); }

void SolverSession::load(const Cnf& cnf, const BackendPlan& plan) {
  cnf_vars_ = cnf.num_vars;
  activation_ = kUndefVar;
  model_lits_.clear();
  num_models_ = 0;
  exhausted_ = false;
  ++stats_.cnf_loads;
  stats_.fresh_clauses += cnf.clauses.size();
  ++stats_.backends[idx(plan.primary)].selected;
  backend_ = fetch_backend(plan.primary);
  if (plan.primary == BackendKind::kPortfolio) {
    // Width before load: changing it rebuilds the member set.
    static_cast<PortfolioBackend*>(backend_)->set_width(plan.portfolio_width);
  }
  backend_->load(cnf);
  presolve_ = backend_->presolve();
  if (!presolve_ && !backend_->supports_search()) {
    // The primary could not decide the CNF and cannot search: escalate
    // to the plan's fallback (guarded against presolve-only fallbacks).
    ++stats_.backends[idx(plan.primary)].escalated;
    BackendKind fallback = plan.fallback;
    if (!fetch_backend(fallback)->supports_search()) fallback = BackendKind::kCdcl;
    backend_ = fetch_backend(fallback);
    backend_->load(cnf);
    ++stats_.backends[idx(fallback)].served;
  } else {
    ++stats_.backends[idx(plan.primary)].served;
  }
}

SolverBackend* SolverSession::fetch_backend(BackendKind kind) {
  auto& slot = backends_[idx(kind)];
  if (!slot) slot = make_backend(kind);
  return slot.get();
}

SolveResult SolverSession::solve(std::span<const Lit> assumptions) {
  ++stats_.solve_calls;
  const SolveResult result = backend_->solve(assumptions);
  if (backend_->kind() == BackendKind::kPortfolio) {
    // The backend's counters are cumulative across this session's
    // loads, so a snapshot (not a sum) keeps stats_ exact.
    stats_.portfolio = static_cast<PortfolioBackend*>(backend_)->portfolio_stats();
  }
  return result;
}

void SolverSession::read_model() {
  for (Var v = 0; v < cnf_vars_; ++v) {
    model_lits_.emplace_back(v, backend_->model_value(v) != LBool::kTrue);
  }
  ++num_models_;
  ++stats_.models_found;
}

void SolverSession::ensure_models(std::uint64_t want) {
  while (!exhausted_ && num_models_ < want) {
    if (activation_ == kUndefVar) activation_ = backend_->new_var();
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
    if (!backend_->add_clause(block_)) {
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
  if (!exhausted_ && num_models_ < want) {
    // A counting backend answers without enumerating.
    if (const auto exact = backend_->exact_count()) {
      if (*exact == 0) exhausted_ = true;
      return std::min(*exact, want);
    }
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
  if (num_models_ == 0 && !exhausted_) {
    if (const auto exact = backend_->exact_count()) {
      out.solution_class = static_cast<int>(std::min<std::uint64_t>(*exact, 2));
      if (*exact == 0) {
        exhausted_ = true;
      } else if (*exact == 1) {
        // One solve extracts the unique model; the count proves there
        // is nothing to block, so the enumeration is already complete.
        if (solve({}) == SolveResult::kSat) {
          read_model();
          exhausted_ = true;
          out.unique_model.emplace(model(0).begin(), model(0).end());
        }
      }
      return out;
    }
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
      if (backend_->model_value(v) == LBool::kTrue) {
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
