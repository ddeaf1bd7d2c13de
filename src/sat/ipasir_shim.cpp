#include "sat/ipasir_shim.h"

#include <vector>

namespace {

using ct::sat::CdclBackend;
using ct::sat::Cnf;
using ct::sat::LBool;
using ct::sat::Lit;
using ct::sat::SolveResult;
using ct::sat::Var;

/// One ct_sat_* solver instance: the CDCL backend plus the streaming
/// state the flat ABI needs (clause under construction, pending
/// assumptions, variables materialized so far).
struct ShimSolver {
  ShimSolver() { backend.load(Cnf{}); }  // empty formula; vars appear on use

  /// Materializes variables up to DIMACS var `dimacs_var` (1-based).
  Lit lit_of(int dimacs_lit) {
    const int v = dimacs_lit < 0 ? -dimacs_lit : dimacs_lit;
    while (num_vars < v) {
      backend.new_var();
      ++num_vars;
    }
    return Lit(static_cast<Var>(v - 1), /*negated=*/dimacs_lit < 0);
  }

  CdclBackend backend;
  int num_vars = 0;
  std::vector<Lit> clause;       // accumulating until the 0 terminator
  std::vector<Lit> assumptions;  // pending for the next solve only
};

ShimSolver* shim(void* solver) { return static_cast<ShimSolver*>(solver); }

}  // namespace

extern "C" {

const char* ct_sat_signature(void) { return "ct-cdcl (in-tree, via ct_sat shim)"; }

void* ct_sat_init(void) { return new ShimSolver(); }

void ct_sat_release(void* solver) { delete shim(solver); }

void ct_sat_add(void* solver, int lit_or_zero) {
  ShimSolver* s = shim(solver);
  if (lit_or_zero != 0) {
    s->clause.push_back(s->lit_of(lit_or_zero));
    return;
  }
  // Terminator: commit.  A false return means level-0 UNSAT — the
  // solver is permanently inconsistent and every solve returns 20,
  // which is exactly the IPASIR contract; nothing to report here.
  s->backend.add_clause(s->clause);
  s->clause.clear();
}

void ct_sat_assume(void* solver, int lit) {
  ShimSolver* s = shim(solver);
  s->assumptions.push_back(s->lit_of(lit));
}

int ct_sat_solve(void* solver) {
  ShimSolver* s = shim(solver);
  const SolveResult result = s->backend.solve(s->assumptions);
  s->assumptions.clear();  // assumptions hold for one solve only
  switch (result) {
    case SolveResult::kSat:
      return 10;
    case SolveResult::kUnsat:
      return 20;
    case SolveResult::kUnknown:
      break;
  }
  return 0;
}

int ct_sat_val(void* solver, int lit) {
  ShimSolver* s = shim(solver);
  const int v = lit < 0 ? -lit : lit;
  if (v == 0 || v > s->num_vars) return 0;
  const LBool value = s->backend.model_value(static_cast<Var>(v - 1));
  if (value == LBool::kUndef) return 0;
  const bool lit_true = (value == LBool::kTrue) != (lit < 0);
  return lit_true ? lit : -lit;
}

}  // extern "C"

namespace ct::sat {

IpasirBackend::~IpasirBackend() { ct_sat_release(solver_); }

void IpasirBackend::load(const Cnf& cnf) {
  ct_sat_release(solver_);
  solver_ = ct_sat_init();
  num_vars_ = 0;
  // Materialize every CNF variable up front (the session addresses
  // models by Var even when a variable occurs in no clause).
  while (num_vars_ < cnf.num_vars) new_var();
  for (const auto& clause : cnf.clauses) {
    for (const Lit l : clause) ct_sat_add(solver_, to_dimacs(l));
    ct_sat_add(solver_, 0);
  }
}

SolveResult IpasirBackend::solve(std::span<const Lit> assumptions) {
  for (const Lit l : assumptions) ct_sat_assume(solver_, to_dimacs(l));
  switch (ct_sat_solve(solver_)) {
    case 10:
      return SolveResult::kSat;
    case 20:
      return SolveResult::kUnsat;
    default:
      return SolveResult::kUnknown;
  }
}

Var IpasirBackend::new_var() {
  // IPASIR variables exist on first use — reserving a number is all a
  // caller needs; the solver materializes it when a clause or
  // assumption first mentions it.
  return static_cast<Var>(num_vars_++);
}

LBool IpasirBackend::model_value(Var v) const {
  const int value = ct_sat_val(solver_, static_cast<int>(v) + 1);
  if (value == 0) return LBool::kUndef;
  return value > 0 ? LBool::kTrue : LBool::kFalse;
}

bool IpasirBackend::add_clause(std::span<const Lit> lits) {
  for (const Lit l : lits) ct_sat_add(solver_, to_dimacs(l));
  ct_sat_add(solver_, 0);
  // The flat ABI reports level-0 UNSAT through solve() (20), not here;
  // the session treats a down answer identically either way.
  return true;
}

bool IpasirBackend::retract_activation(Var a) {
  ct_sat_add(solver_, -(static_cast<int>(a) + 1));
  ct_sat_add(solver_, 0);
  return true;
}

}  // namespace ct::sat
