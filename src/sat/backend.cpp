#include "sat/backend.h"

#include <stdexcept>
#include <string>

namespace ct::sat {

const char* to_string(BackendKind kind) {
  switch (kind) {
    case BackendKind::kCdcl:
      return "cdcl";
    case BackendKind::kUnitProp:
      return "unitprop";
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
  solver_.reset();
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
    case BackendKind::kUnitProp:
      return std::make_unique<UnitPropBackend>();
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

BackendKind BackendSelector::pick(const FormulaShape& shape) const {
  switch (mode) {
    case Mode::kCdcl:
      return BackendKind::kCdcl;
    case Mode::kUnitProp:
      return BackendKind::kUnitProp;
    case Mode::kAuto:
      break;
  }
  // Auto: unit propagation is tried first whenever the shape suggests
  // it decides the formula.
  const bool unit_rich = shape.unit_fraction() >= kUnitPropMinUnitFraction;
  const bool tiny = shape.num_vars <= kUnitPropMaxVars;
  return (unit_rich || tiny) ? BackendKind::kUnitProp : BackendKind::kCdcl;
}

std::optional<BackendSelector::Mode> BackendSelector::parse(std::string_view name) {
  if (name == "auto") return Mode::kAuto;
  if (name == "cdcl") return Mode::kCdcl;
  if (name == "unitprop") return Mode::kUnitProp;
  return std::nullopt;
}

const char* BackendSelector::to_string(Mode mode) {
  switch (mode) {
    case Mode::kAuto:
      return "auto";
    case Mode::kCdcl:
      return "cdcl";
    case Mode::kUnitProp:
      return "unitprop";
  }
  return "?";
}

}  // namespace ct::sat
