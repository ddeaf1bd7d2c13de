#include "sat/backend.h"

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

const Presolve* UnitPropPresolver::presolve(const Cnf& cnf) {
  std::vector<LBool>& values = outcome_.values;
  values.assign(static_cast<std::size_t>(cnf.num_vars), LBool::kUndef);
  satisfied_.assign(cnf.clauses.size(), 0);
  std::size_t open = cnf.clauses.size();
  bool conflict = false;

  // Fixpoint sweep: satisfy clauses with a true literal, force the
  // last literal of unit clauses, conflict on all-false clauses.  The
  // formulas routed here are tiny or unit-rich, so the quadratic worst
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
    return &outcome_;
  }
  if (open != 0) return nullptr;  // undecided: the CNF needs search
  outcome_.free_vars = 0;
  for (const LBool v : values) outcome_.free_vars += v == LBool::kUndef ? 1 : 0;
  outcome_.solution_class = outcome_.free_vars > 0 ? 2 : 1;
  return &outcome_;
}

}  // namespace ct::sat
