#include "sat/backend.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "sat/ipasir_shim.h"
#include "sat/portfolio.h"

namespace ct::sat {

const char* to_string(BackendKind kind) {
  switch (kind) {
    case BackendKind::kCdcl:
      return "cdcl";
    case BackendKind::kCount:
      return "count";
    case BackendKind::kUnitProp:
      return "unitprop";
    case BackendKind::kIpasir:
      return "ipasir";
    case BackendKind::kPortfolio:
      return "portfolio";
  }
  return "?";
}

namespace {

// Auto selection's shape thresholds.
//
// Unit propagation is tried first when at least this fraction of
// clauses are units (tomography CNFs are dominated by negative units,
// which is what makes propagation decisive)...
constexpr double kUnitPropMinUnitFraction = 0.5;
// ...or when the formula is this small (a failed presolve on a tiny CNF
// costs next to nothing).
constexpr std::int32_t kUnitPropMaxVars = 16;
// The counting backend pays only when the requested count bound exceeds
// this (or is 0 = unbounded): one exact DPLL count always pays the full
// model count, while incremental enumeration stops at the cap — so
// shallow caps (Figure 4's 6) enumerate and deep/unbounded counts go to
// the counter...
constexpr std::uint64_t kCountMinCap = 16;
// ...and only below this clause density — DPLL counting explodes on
// dense formulas where enumeration-to-cap stays cheap.
constexpr double kCountMaxDensity = 2.0;
// The portfolio hardness gate: CNFs the CDCL route would get anyway,
// big enough and in the clause/var density band where search time
// explodes (random 3-SAT threshold ~4.3), and not unit-dominated
// (unit-rich tomography windows are decided nearly instantly).  A
// conflict-budget probe inside PortfolioBackend catches the easy
// survivors of this shape test before any race starts.
constexpr std::int32_t kPortfolioMinVars = 40;
constexpr double kPortfolioMinDensity = 3.0;
constexpr double kPortfolioMaxDensity = 5.5;
constexpr double kPortfolioMaxUnitFraction = 0.25;

[[noreturn]] void no_search(const char* op) {
  throw std::logic_error(std::string("SolverBackend: ") + op +
                         " called on a backend without search support");
}

}  // namespace

SolveResult SolverBackend::solve(std::span<const Lit>) { no_search("solve"); }
Var SolverBackend::new_var() { no_search("new_var"); }
LBool SolverBackend::model_value(Var) const { no_search("model_value"); }
bool SolverBackend::add_clause(std::span<const Lit>) { no_search("add_clause"); }

const SolverStats& SolverBackend::solver_stats() const {
  static const SolverStats kEmpty{};
  return kEmpty;
}

// --- CdclBackend -----------------------------------------------------

void CdclBackend::load(const Cnf& cnf) {
  solver_.reset(config_);
  solver_.set_stop_flag(stop_);
  solver_.set_conflict_budget(conflict_budget_);
  solver_.add_cnf(cnf);  // a false return leaves the solver inconsistent,
                         // which every query handles via kUnsat
}

SolveResult CdclBackend::solve(std::span<const Lit> assumptions) {
  return solver_.solve(assumptions);
}

Var CdclBackend::new_var() { return solver_.new_var(); }

LBool CdclBackend::model_value(Var v) const { return solver_.model_value(v); }

bool CdclBackend::add_clause(std::span<const Lit> lits) { return solver_.add_clause(lits); }

const SolverStats& CdclBackend::solver_stats() const { return solver_.stats(); }

void CdclBackend::set_stop_flag(const std::atomic<bool>* stop) {
  stop_ = stop;
  solver_.set_stop_flag(stop);
}

void CdclBackend::set_conflict_budget(std::uint64_t max_conflicts) {
  conflict_budget_ = max_conflicts;
  solver_.set_conflict_budget(max_conflicts);
}

// --- CountingBackend -------------------------------------------------

void CountingBackend::load(const Cnf& cnf) {
  CdclBackend::load(cnf);
  cnf_ = cnf;
  count_.reset();
}

std::optional<std::uint64_t> CountingBackend::exact_count() {
  if (!count_) count_ = counter_.count(cnf_).count;
  return count_;
}

// --- UnitPropBackend -------------------------------------------------

void UnitPropBackend::load(const Cnf& cnf) {
  decided_ = false;
  std::vector<LBool>& values = outcome_.values;
  values.assign(static_cast<std::size_t>(cnf.num_vars), LBool::kUndef);
  satisfied_.assign(cnf.clauses.size(), 0);
  std::size_t open = cnf.clauses.size();
  bool conflict = false;

  // Fixpoint sweep: satisfy clauses with a true literal, force the
  // last literal of unit clauses, conflict on all-false clauses.  The
  // formulas this backend targets are tiny, so the quadratic worst
  // case of re-sweeping never bites.
  bool changed = true;
  while (changed && !conflict) {
    changed = false;
    for (std::size_t i = 0; i < cnf.clauses.size() && !conflict; ++i) {
      if (satisfied_[i]) continue;
      std::int32_t undef = 0;
      Lit last = kUndefLit;
      bool sat = false;
      for (const Lit l : cnf.clauses[i]) {
        const LBool v = values[static_cast<std::size_t>(l.var())];
        if (v == LBool::kUndef) {
          ++undef;
          last = l;
        } else if ((v == LBool::kTrue) != l.negated()) {
          sat = true;
          break;
        }
      }
      if (sat) {
        satisfied_[i] = 1;
        --open;
        changed = true;
      } else if (undef == 0) {
        conflict = true;
      } else if (undef == 1) {
        values[static_cast<std::size_t>(last.var())] =
            last.negated() ? LBool::kFalse : LBool::kTrue;
        satisfied_[i] = 1;  // satisfied by the forced assignment
        --open;
        changed = true;
      }
    }
  }

  if (conflict) {
    outcome_.solution_class = 0;  // class 0, no values
    outcome_.values.clear();
    outcome_.free_vars = 0;
    decided_ = true;
    return;
  }
  if (open == 0) {
    outcome_.free_vars = 0;
    for (const LBool v : values) outcome_.free_vars += v == LBool::kUndef ? 1 : 0;
    outcome_.solution_class = outcome_.free_vars > 0 ? 2 : 1;
    decided_ = true;
  }
  // else: undecided — presolve() returns nullptr and the session
  // escalates.
}

std::unique_ptr<SolverBackend> make_backend(BackendKind kind) {
  switch (kind) {
    case BackendKind::kCdcl:
      return std::make_unique<CdclBackend>();
    case BackendKind::kCount:
      return std::make_unique<CountingBackend>();
    case BackendKind::kUnitProp:
      return std::make_unique<UnitPropBackend>();
    case BackendKind::kIpasir:
      return std::make_unique<IpasirBackend>();
    case BackendKind::kPortfolio:
      return std::make_unique<PortfolioBackend>();
  }
  throw std::invalid_argument("make_backend: unknown BackendKind");
}

// --- selection -------------------------------------------------------

FormulaShape shape_of(const Cnf& cnf) {
  FormulaShape shape;
  shape.num_vars = cnf.num_vars;
  shape.num_clauses = static_cast<std::int64_t>(cnf.clauses.size());
  for (const auto& clause : cnf.clauses) {
    shape.num_units += clause.size() == 1 ? 1 : 0;
  }
  return shape;
}

unsigned BackendSelector::racing_width() const {
  if (mode == Mode::kPortfolio) {
    return std::max(kDefaultPortfolioWidth,
                    std::min(portfolio_width, kMaxPortfolioWidth));
  }
  if (mode == Mode::kAuto && portfolio_width >= 2) {
    return std::min(portfolio_width, kMaxPortfolioWidth);
  }
  return 1;
}

BackendPlan BackendSelector::plan(const FormulaShape& shape,
                                  const BackendWorkload& workload) const {
  BackendPlan p;
  switch (mode) {
    case Mode::kCdcl:
      return p;  // {cdcl, cdcl}
    case Mode::kCount:
      p.primary = p.fallback = BackendKind::kCount;
      return p;
    case Mode::kUnitProp:
      p.primary = BackendKind::kUnitProp;  // fallback stays cdcl
      return p;
    case Mode::kIpasir:
      p.primary = p.fallback = BackendKind::kIpasir;
      return p;
    case Mode::kPortfolio:
      p.primary = BackendKind::kPortfolio;  // fallback stays cdcl
      p.portfolio_width = racing_width();
      return p;
    case Mode::kAuto:
      break;
  }
  // Auto: counting pays only when the requested count is deep or
  // unbounded (a shallow cap is cheaper to enumerate incrementally)
  // and DPLL decomposition stays tractable; unit propagation is tried
  // first whenever the shape suggests it decides the formula.
  const bool deep_count =
      workload.resolve_counts &&
      (workload.count_cap == 0 || workload.count_cap > kCountMinCap);
  p.fallback = deep_count && shape.density() <= kCountMaxDensity
                   ? BackendKind::kCount
                   : BackendKind::kCdcl;
  const bool unit_rich = shape.unit_fraction() >= kUnitPropMinUnitFraction;
  const bool tiny = shape.num_vars <= kUnitPropMaxVars;
  p.primary = (unit_rich || tiny) ? BackendKind::kUnitProp : p.fallback;
  // Portfolio hardness gate: only CNFs the plain CDCL route would get
  // anyway, of racing-worthy size, in the density band where CDCL time
  // explodes, and not unit-dominated.  Easy survivors of this shape
  // test are caught by the conflict-budget probe inside the portfolio
  // itself — so a misjudged gate costs one cheap probe, never a race.
  if (p.primary == BackendKind::kCdcl && racing_width() >= 2 &&
      shape.num_vars >= kPortfolioMinVars &&
      shape.density() >= kPortfolioMinDensity &&
      shape.density() <= kPortfolioMaxDensity &&
      shape.unit_fraction() <= kPortfolioMaxUnitFraction) {
    p.primary = BackendKind::kPortfolio;
    p.portfolio_width = racing_width();
  }
  return p;
}

std::optional<BackendSelector::Mode> BackendSelector::parse(std::string_view name) {
  if (name == "auto") return Mode::kAuto;
  if (name == "cdcl") return Mode::kCdcl;
  if (name == "count") return Mode::kCount;
  if (name == "unitprop") return Mode::kUnitProp;
  if (name == "ipasir") return Mode::kIpasir;
  if (name == "portfolio") return Mode::kPortfolio;
  return std::nullopt;
}

const char* BackendSelector::to_string(Mode mode) {
  switch (mode) {
    case Mode::kAuto:
      return "auto";
    case Mode::kCdcl:
      return "cdcl";
    case Mode::kCount:
      return "count";
    case Mode::kUnitProp:
      return "unitprop";
    case Mode::kIpasir:
      return "ipasir";
    case Mode::kPortfolio:
      return "portfolio";
  }
  return "?";
}

}  // namespace ct::sat
