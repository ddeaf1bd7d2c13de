// Pluggable SAT backends.
//
// sat::SolverSession is the single choke point for every tomography
// query.  Most per-URL CNFs are tiny and decided by unit propagation
// alone; the rest need search.  SolverBackend is the seam that lets the
// session pick a solving strategy per CNF:
//
//   * CdclBackend — the in-tree incremental CDCL Solver, the default
//     and the only backend implementing the full search contract
//     (solve under assumptions, model access, guarded blocking
//     clauses).
//   * UnitPropBackend — a presolve-only fast path: if unit propagation
//     alone decides the CNF (conflict, or every clause satisfied), the
//     session serves every query from the propagation outcome with no
//     search at all; otherwise presolve() reports "escalate" and the
//     session falls back to CDCL.
//
// BackendSelector is the per-CNF policy: given the formula's shape
// (vars, clauses, unit density) it picks the backend a CNF is loaded
// on.  Both backends are *semantically exact*, so verdicts are
// byte-identical whichever backend serves them; the forced-backend
// equivalence suite holds the pipeline to that.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "sat/solver.h"
#include "sat/types.h"

namespace ct::sat {

/// Saturation value for model counts (2^62).
inline constexpr std::uint64_t kCountCap = 1ULL << 62;

enum class BackendKind : std::uint8_t {
  kCdcl = 0,
  kUnitProp = 2,
};
/// Slots of the per-backend counter arrays.  Indices 1, 3 and 4 belonged
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

/// One loaded CNF behind one solving strategy.  The search contract
/// (solve / model access / guarded clauses / stats) mirrors what
/// SolverSession needs from the CDCL solver; presolve() is an optional
/// fast path a backend may implement instead of search.
class SolverBackend {
 public:
  virtual ~SolverBackend() = default;

  virtual BackendKind kind() const = 0;
  const char* name() const { return to_string(kind()); }

  /// (Re)loads a CNF, dropping all state of the previous one.
  virtual void load(const Cnf& cnf) = 0;

  /// False for presolve-only backends: the session must escalate when
  /// presolve() cannot decide the CNF instead of calling search ops.
  virtual bool supports_search() const { return true; }

  /// Attempts to decide the loaded CNF without search; nullptr means
  /// the backend needs search (or, if !supports_search(), escalation).
  /// The outcome is owned by the backend and valid until its next
  /// load().
  virtual const Presolve* presolve() const { return nullptr; }

  // --- search contract; defaults throw std::logic_error -------------
  virtual SolveResult solve(std::span<const Lit> assumptions);
  virtual Var new_var();
  virtual LBool model_value(Var v) const;
  virtual bool add_clause(std::span<const Lit> lits);
  virtual const SolverStats& solver_stats() const;
};

/// The incremental CDCL Solver behind the backend contract (the
/// default; exactly the pre-backend SolverSession behavior).
class CdclBackend final : public SolverBackend {
 public:
  BackendKind kind() const override { return BackendKind::kCdcl; }
  void load(const Cnf& cnf) override;
  SolveResult solve(std::span<const Lit> assumptions) override;
  Var new_var() override;
  LBool model_value(Var v) const override;
  bool add_clause(std::span<const Lit> lits) override;
  const SolverStats& solver_stats() const override;

 private:
  // One solver for every load: load() resets it in place (logically
  // fresh, every buffer's capacity kept).
  Solver solver_;
};

/// Presolve-only unit-propagation fast path.  load() propagates units
/// to fixpoint; if that conflicts (UNSAT) or satisfies every clause
/// (model set = forced values x free variables), presolve() returns
/// the decided outcome, else nullptr — the session escalates to CDCL.  Search ops are never called (the base
/// class throws).
class UnitPropBackend final : public SolverBackend {
 public:
  BackendKind kind() const override { return BackendKind::kUnitProp; }
  bool supports_search() const override { return false; }
  void load(const Cnf& cnf) override;
  const Presolve* presolve() const override { return decided_ ? &outcome_ : nullptr; }

 private:
  // Reused across loads: outcome_.values doubles as the propagation's
  // assignment, so a load allocates nothing once the buffers have grown.
  Presolve outcome_;
  bool decided_ = false;
  std::vector<std::uint8_t> satisfied_;
};

/// A new backend of `kind`; throws std::invalid_argument for a slot no
/// backend serves.
std::unique_ptr<SolverBackend> make_backend(BackendKind kind);

/// Size/shape features the selector keys on (one cheap pass).
struct FormulaShape {
  std::int32_t num_vars = 0;
  std::int64_t num_clauses = 0;
  std::int64_t num_units = 0;  // single-literal clauses

  double unit_fraction() const {
    return num_clauses == 0 ? 0.0
                            : static_cast<double>(num_units) / static_cast<double>(num_clauses);
  }
};

FormulaShape shape_of(const Cnf& cnf);

/// Per-CNF backend selection policy.  Mode kAuto picks by formula
/// shape (thresholds in backend.cpp); the forced modes pin every CNF to
/// one backend (verdicts are byte-identical either way — forcing is for
/// tests and benchmarks).
struct BackendSelector {
  enum class Mode : std::uint8_t { kAuto = 0, kCdcl, kUnitProp };

  Mode mode = Mode::kAuto;

  /// The backend a CNF of this shape is loaded on.  When its presolve
  /// cannot decide the CNF (only UnitPropBackend's can fail), the
  /// session escalates to CDCL.
  BackendKind pick(const FormulaShape& shape) const;

  static std::optional<Mode> parse(std::string_view name);
  static const char* to_string(Mode mode);
};

/// Per-backend session counters (indexed by BackendKind).
struct BackendCounters {
  std::uint64_t selected = 0;   // chosen as the primary at load()
  std::uint64_t served = 0;     // CNFs whose queries this backend answered
  std::uint64_t escalated = 0;  // presolve gave up; CDCL took over

  bool operator==(const BackendCounters&) const = default;
};

}  // namespace ct::sat
