// The two routes a CNF can take through sat::SolverSession, and the
// counters that record them.
//
// Most per-URL CNFs are tiny and decided by unit propagation alone; the
// rest need search.  The session picks the route per CNF from its shape
// (sat/session.cpp):
//
//   * unit propagation (BackendKind::kUnitProp) — UnitPropPresolver
//     below: if propagation alone decides the CNF (conflict, or every
//     clause satisfied), every query is answered from the propagation
//     outcome with no search at all; otherwise the CNF escalates to
//     CDCL.
//   * CDCL (BackendKind::kCdcl) — the in-tree incremental Solver, with
//     guarded blocking-clause enumeration and assumption probes.
//
// Both routes are exact, so verdicts do not depend on the route; the
// ClosedFormOracle suite holds every verdict to the closed form of the
// tomography CNFs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sat/types.h"

namespace ct::sat {

/// Saturation value for model counts (2^62).
inline constexpr std::uint64_t kCountCap = 1ULL << 62;

/// The route that served a CNF, as an index into the counter arrays.
enum class BackendKind : std::uint8_t {
  kCdcl = 0,
  kUnitProp = 2,
};
/// Slots of the per-route counter arrays.  Indices 1, 3 and 4 belonged
/// to retired backends and always read 0: kept only because perfbench
/// reads five slots (sat.served.{count,ipasir,portfolio}); a
/// `[benchmark]` PR drops both.
inline constexpr std::size_t kNumBackendKinds = 5;

const char* to_string(BackendKind kind);

/// Outcome of a search-free presolve that fully decided the CNF.
/// When solution_class > 0, `values` assigns every CNF variable either
/// a forced value or kUndef (free): the model set is exactly "forced
/// values fixed, free variables arbitrary", so classification, counts
/// (2^free_vars), the unique model, and potential-true splits all follow
/// without touching a solver.  When solution_class == 0 the CNF is
/// UNSAT and `values` is empty.
struct Presolve {
  int solution_class = 0;  // 0 / 1 / 2 (2 = two or more)
  std::vector<LBool> values;
  std::int32_t free_vars = 0;
};

/// Unit propagation to fixpoint.  presolve(cnf) returns the decided
/// outcome when propagation conflicts (UNSAT) or satisfies every clause
/// (model set = forced values x free variables), else nullptr: the CNF
/// needs search.  The outcome is owned by the presolver and valid until
/// the next presolve() call.
class UnitPropPresolver {
 public:
  const Presolve* presolve(const Cnf& cnf);

 private:
  // Reused across calls: outcome_.values doubles as the propagation's
  // assignment, so a call allocates nothing once the buffers have grown.
  Presolve outcome_;
  std::vector<std::uint8_t> satisfied_;
};

/// Per-route session counters (indexed by BackendKind).
struct BackendCounters {
  std::uint64_t selected = 0;   // the route picked at load()
  std::uint64_t served = 0;     // CNFs whose queries this route answered
  std::uint64_t escalated = 0;  // presolve gave up; CDCL took over

  bool operator==(const BackendCounters&) const = default;
};

}  // namespace ct::sat
