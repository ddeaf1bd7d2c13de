#include "sat/session.h"

#include <algorithm>
#include <array>
#include <limits>

namespace ct::sat {

namespace {

std::vector<Var> all_vars(std::int32_t n) {
  std::vector<Var> vars(static_cast<std::size_t>(n));
  for (std::int32_t v = 0; v < n; ++v) vars[static_cast<std::size_t>(v)] = v;
  return vars;
}

std::size_t idx(BackendKind kind) { return static_cast<std::size_t>(kind); }

}  // namespace

void SolverSession::load(const Cnf& cnf) { load(cnf, BackendPlan{}); }

void SolverSession::load(const Cnf& cnf, const BackendPlan& plan) {
  cnf_vars_ = cnf.num_vars;
  projection_.clear();
  full_projection_ = true;
  activation_ = kUndefVar;
  models_.clear();
  exhausted_ = false;
  base_sat_ = -1;
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
  if (presolve_) base_sat_ = presolve_->solution_class > 0 ? 1 : 0;
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

bool SolverSession::satisfiable() {
  if (base_sat_ < 0) {
    if (!models_.empty()) {
      base_sat_ = 1;
    } else if (exhausted_) {
      base_sat_ = 0;
    } else {
      base_sat_ = solve({}) == SolveResult::kSat ? 1 : 0;
    }
  }
  return base_sat_ == 1;
}

void SolverSession::set_projection(const std::vector<Var>& projection) {
  const std::vector<Var> wanted =
      projection.empty() ? all_vars(cnf_vars_) : projection;
  // Cached models stay valid while their blocking clauses are active
  // (activation_), the enumeration finished (exhausted_), or they came
  // from a presolve outcome (which nothing can invalidate).
  if (wanted == projection_ &&
      (presolve_ || activation_ != kUndefVar || exhausted_ || models_.empty())) {
    return;  // enumeration state already matches
  }
  retract_enumeration();
  projection_ = wanted;
  full_projection_ = projection.empty();
}

std::uint64_t SolverSession::presolve_projected_count() const {
  const Presolve& p = *presolve_;
  if (p.solution_class == 0) return 0;
  std::uint64_t free_in_projection = 0;
  for (const Var v : projection_) {
    free_in_projection += p.values[static_cast<std::size_t>(v)] == LBool::kUndef ? 1 : 0;
  }
  return free_in_projection >= 62 ? kCountCap : (1ULL << free_in_projection);
}

void SolverSession::materialize_models(std::uint64_t want) {
  const Presolve& p = *presolve_;
  if (p.solution_class == 0) {
    exhausted_ = true;
    base_sat_ = 0;
    return;
  }
  base_sat_ = 1;
  // Free variables within the projection, in projection order; model i
  // assigns them the bits of i (distinct by construction, so this is a
  // complete deterministic enumeration with no solver involved).
  std::vector<std::size_t> free_positions;
  for (std::size_t i = 0; i < projection_.size(); ++i) {
    if (p.values[static_cast<std::size_t>(projection_[i])] == LBool::kUndef) {
      free_positions.push_back(i);
    }
  }
  const std::uint64_t total =
      free_positions.size() >= 62 ? kCountCap : (1ULL << free_positions.size());
  while (models_.size() < want && models_.size() < total) {
    const std::uint64_t index = models_.size();
    std::vector<Lit> model;
    model.reserve(projection_.size());
    std::size_t next_free = 0;
    for (const Var v : projection_) {
      const LBool forced = p.values[static_cast<std::size_t>(v)];
      bool value;
      if (forced == LBool::kUndef) {
        // index < total <= 2^62, so free positions beyond bit 61 are
        // always 0 — and shifting by them would be UB.
        value = next_free < 62 && ((index >> next_free) & 1ULL) != 0;
        ++next_free;
      } else {
        value = forced == LBool::kTrue;
      }
      model.emplace_back(v, !value);
    }
    models_.push_back(std::move(model));
    ++stats_.models_found;
  }
  if (models_.size() >= total) exhausted_ = true;
}

void SolverSession::ensure_models(std::uint64_t want) {
  if (presolve_) {
    materialize_models(want);
    return;
  }
  while (!exhausted_ && models_.size() < want) {
    if (activation_ == kUndefVar) activation_ = backend_->new_var();
    const Lit guard(activation_, /*negated=*/false);
    const std::array<Lit, 1> guard_assumption{guard};
    if (solve(guard_assumption) != SolveResult::kSat) {
      exhausted_ = true;
      break;
    }
    base_sat_ = 1;
    std::vector<Lit> model;
    model.reserve(projection_.size());
    std::vector<Lit> block;
    block.reserve(projection_.size() + 1);
    block.push_back(~guard);
    for (const Var v : projection_) {
      const Lit l(v, backend_->model_value(v) != LBool::kTrue);
      model.push_back(l);
      block.push_back(~l);
    }
    models_.push_back(std::move(model));
    ++stats_.models_found;
    ++stats_.blocking_clauses;
    if (!backend_->add_clause(block)) {
      exhausted_ = true;  // blocking clause revealed level-0 UNSAT
      break;
    }
  }
  if (exhausted_ && base_sat_ < 0) base_sat_ = models_.empty() ? 0 : 1;
}

EnumerateResult SolverSession::enumerate(const EnumerateOptions& options) {
  set_projection(options.projection);
  EnumerateResult result;
  if (options.max_models == 0) {
    ensure_models(std::numeric_limits<std::uint64_t>::max());
    result.models = models_;
    result.truncated = false;
    return result;
  }
  // Probe one model past the cap so `truncated` is honest; the probe
  // model stays cached for later, larger queries.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  ensure_models(options.max_models == kMax ? kMax : options.max_models + 1);
  const std::size_t take =
      std::min<std::size_t>(models_.size(), options.max_models);
  result.models.assign(models_.begin(),
                       models_.begin() + static_cast<std::ptrdiff_t>(take));
  result.truncated = models_.size() > take;
  return result;
}

std::uint64_t SolverSession::count_models_capped(std::uint64_t cap,
                                                const std::vector<Var>& projection) {
  set_projection(projection);
  if (presolve_) {
    const std::uint64_t total = presolve_projected_count();
    return cap == 0 ? total : std::min<std::uint64_t>(total, cap);
  }
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const std::uint64_t want = cap == 0 ? kMax : cap;
  if (full_projection_ && !exhausted_ && models_.size() < want) {
    // A counting backend answers without enumerating (and without
    // disturbing any blocking-clause state a prior enumerate() left).
    if (const auto exact = backend_->exact_count()) {
      base_sat_ = *exact > 0 ? 1 : 0;
      return cap == 0 ? *exact : std::min<std::uint64_t>(*exact, cap);
    }
  }
  if (cap == 0) {  // 0 = no cap, as in EnumerateOptions::max_models
    ensure_models(kMax);
    return models_.size();
  }
  ensure_models(cap);
  return std::min<std::uint64_t>(models_.size(), cap);
}

SolutionClassification SolverSession::classify(const std::vector<Var>& projection) {
  set_projection(projection);
  SolutionClassification out;
  if (presolve_) {
    const std::uint64_t total = presolve_projected_count();
    out.solution_class = static_cast<int>(std::min<std::uint64_t>(total, 2));
    if (out.solution_class == 1) {
      ensure_models(1);
      out.unique_model = models_.front();
    }
    return out;
  }
  if (full_projection_ && models_.empty() && !exhausted_) {
    if (const auto exact = backend_->exact_count()) {
      out.solution_class = static_cast<int>(std::min<std::uint64_t>(*exact, 2));
      base_sat_ = *exact > 0 ? 1 : 0;
      if (*exact == 0) {
        exhausted_ = true;
      } else if (*exact == 1) {
        // One solve extracts the unique model; the count proves there
        // is nothing to block, so the enumeration is already complete.
        if (solve({}) == SolveResult::kSat) {
          std::vector<Lit> model;
          model.reserve(projection_.size());
          for (const Var v : projection_) {
            model.emplace_back(v, backend_->model_value(v) != LBool::kTrue);
          }
          models_.push_back(std::move(model));
          ++stats_.models_found;
          exhausted_ = true;
          out.unique_model = models_.front();
        }
      }
      return out;
    }
  }
  ensure_models(2);
  out.solution_class = static_cast<int>(std::min<std::size_t>(models_.size(), 2));
  if (out.solution_class == 1) out.unique_model = models_.front();
  return out;
}

PotentialTrueResult SolverSession::potential_true_vars(const std::vector<Var>& vars) {
  PotentialTrueResult out;
  const std::vector<Var> targets = vars.empty() ? all_vars(cnf_vars_) : vars;

  if (presolve_) {
    const Presolve& p = *presolve_;
    if (p.solution_class == 0) {
      base_sat_ = 0;
      return out;
    }
    out.satisfiable = true;
    // A variable is True in some model iff it is forced True or free.
    for (const Var v : targets) {
      if (p.values[static_cast<std::size_t>(v)] == LBool::kFalse) {
        out.always_false.push_back(v);
      } else {
        out.potential_true.push_back(v);
      }
    }
    return out;
  }

  if (base_sat_ == 0 || (exhausted_ && models_.empty())) {
    base_sat_ = 0;
    return out;
  }

  std::vector<std::uint8_t> known_true(static_cast<std::size_t>(cnf_vars_), 0);
  const auto harvest = [&] {
    for (std::int32_t v = 0; v < cnf_vars_; ++v) {
      if (backend_->model_value(v) == LBool::kTrue) {
        known_true[static_cast<std::size_t>(v)] = 1;
      }
    }
  };

  if (full_projection_ && !models_.empty()) {
    // Models cached by enumeration over the full variable set are
    // genuine models of the CNF; seed from them and skip the base
    // solve (the common path after classify() on class-2 CNFs).
    for (const auto& model : models_) {
      for (const Lit l : model) {
        if (!l.negated()) known_true[static_cast<std::size_t>(l.var())] = 1;
      }
    }
  } else {
    // The base solve doubles as the seed model.  Blocking clauses do
    // not constrain it: their guard is free to be False, so any model
    // of the original CNF (restricted to CNF variables) remains
    // reachable.
    if (solve({}) != SolveResult::kSat) {
      base_sat_ = 0;
      return out;
    }
    harvest();
  }
  base_sat_ = 1;
  out.satisfiable = true;

  for (const Var v : targets) {
    if (known_true[static_cast<std::size_t>(v)]) continue;
    const Lit assume(v, /*negated=*/false);
    const std::array<Lit, 1> assumption{assume};
    if (solve(assumption) == SolveResult::kSat) harvest();
  }

  for (const Var v : targets) {
    if (known_true[static_cast<std::size_t>(v)]) {
      out.potential_true.push_back(v);
    } else {
      out.always_false.push_back(v);
    }
  }
  return out;
}

void SolverSession::retract_enumeration() {
  if (activation_ != kUndefVar) {
    backend_->retract_activation(activation_);
    activation_ = kUndefVar;
    ++stats_.retractions;
  }
  models_.clear();
  exhausted_ = false;
}

}  // namespace ct::sat
