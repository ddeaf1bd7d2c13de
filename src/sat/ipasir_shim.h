// IPASIR-style flat-C incremental-solver surface (README "Portfolio
// racing", external-solver seam).
//
// The backend seam (sat/backend.h) promises that an external solver of
// the CaDiCaL / CryptoMiniSat class can slot in behind SolverBackend.
// This header makes that promise concrete: ct_sat_* is the standard
// IPASIR calling convention (init / add clauses as 0-terminated DIMACS
// literal streams / assume / solve returning 10-SAT 20-UNSAT 0-unknown
// / val / release) — the C ABI every IPASIR-compatible solver exports.
//
// The implementation behind it wraps the in-tree CdclBackend, so the
// whole pipeline can run through the flat-C boundary
// (BackendSelector::Mode::kIpasir) and prove the seam loses nothing —
// the equivalence suites hold ipasir-routed verdicts byte-identical to
// direct CDCL.
//
// IpasirBackend is the SolverBackend adapter consuming *only* this C
// surface — no reach-around into Solver internals, so an external
// solver exporting the same calls could serve it unchanged.
// Retraction is emulated the IPASIR way (a permanent unit clause on the
// activation literal), and every load() is a fresh ct_sat_init.
#pragma once

#include <cstdint>
#include <span>

#include "sat/backend.h"

extern "C" {

/// Human-readable name/version of the solver behind the shim.
const char* ct_sat_signature(void);

/// Creates a solver instance; release with ct_sat_release.
void* ct_sat_init(void);

/// Destroys a solver instance (nullptr is a no-op).
void ct_sat_release(void* solver);

/// Streams a clause in DIMACS convention: nonzero literals (positive /
/// negative, 1-based variables) accumulate, 0 terminates and commits
/// the clause.  Variables appear on first use.
void ct_sat_add(void* solver, int lit_or_zero);

/// Registers a DIMACS assumption literal for the *next* ct_sat_solve
/// call only (cleared afterwards, per IPASIR).
void ct_sat_assume(void* solver, int lit);

/// Solves under the pending assumptions: 10 = SAT, 20 = UNSAT,
/// 0 = unknown (budget/cancellation).
int ct_sat_solve(void* solver);

/// Truth value of `lit` in the model of the last SAT answer: `lit` if
/// satisfied, `-lit` if falsified, 0 if unassigned/free.
int ct_sat_val(void* solver, int lit);

}  // extern "C"

namespace ct::sat {

/// CdclBackend routed through the ct_sat_* flat-C surface — the
/// in-tree proof that an IPASIR solver can serve the session.  Every
/// operation crosses the C boundary; nothing reaches into Solver.
class IpasirBackend final : public SolverBackend {
 public:
  IpasirBackend() = default;
  ~IpasirBackend() override;

  IpasirBackend(const IpasirBackend&) = delete;
  IpasirBackend& operator=(const IpasirBackend&) = delete;

  BackendKind kind() const override { return BackendKind::kIpasir; }
  void load(const Cnf& cnf) override;
  SolveResult solve(std::span<const Lit> assumptions) override;
  Var new_var() override;
  LBool model_value(Var v) const override;
  bool add_clause(std::span<const Lit> lits) override;
  /// IPASIR retraction: a permanent unit clause ~a disables every
  /// clause guarded by activation literal `a`.
  bool retract_activation(Var a) override;

 private:
  /// DIMACS literal (1-based, sign = polarity) for an internal Lit.
  static int to_dimacs(Lit l) {
    const int v = static_cast<int>(l.var()) + 1;
    return l.negated() ? -v : v;
  }

  void* solver_ = nullptr;
  std::int32_t num_vars_ = 0;  // variables handed out so far
};

}  // namespace ct::sat
