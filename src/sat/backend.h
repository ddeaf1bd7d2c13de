// Pluggable SAT backends (ROADMAP "Multi-backend solver interface").
//
// sat::SolverSession is the single choke point for every tomography
// query, but the workload behind it is wildly heterogeneous: most
// per-URL CNFs are tiny and decided by unit propagation alone, while
// Figure-4 count resolution is exactly what the DPLL ModelCounter does
// better than blocking-clause enumeration.  SolverBackend is the seam
// that lets the session pick a solving strategy per CNF:
//
//   * CdclBackend — the in-tree incremental CDCL Solver, the default
//     and the only backend implementing the full search contract
//     (solve under assumptions, model access, guarded blocking
//     clauses, retraction).
//   * CountingBackend — CdclBackend plus an exact_count() fast path
//     through ModelCounter, so capped counting and 0/1/2+
//     classification never enumerate blocking clauses.
//   * UnitPropBackend — a presolve-only fast path: if unit propagation
//     alone decides the CNF (conflict, or every clause satisfied), the
//     session serves every query from the propagation outcome with no
//     search at all; otherwise presolve() reports "escalate" and the
//     session falls back to the plan's fallback backend.
//
// BackendSelector is the per-CNF policy: given the formula's shape
// (vars, clauses, unit density) and the query workload (count_cap,
// resolve_counts) it returns a BackendPlan — primary backend plus the
// escalation target.  Every backend is *semantically exact*, so
// verdicts are byte-identical whichever backend serves them; the
// forced-backend equivalence suite holds the pipeline to that.
//
// External solvers (CaDiCaL / CryptoMiniSat class) slot in behind the
// same interface: implement the search contract, register a kind.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "sat/counter.h"
#include "sat/solver.h"
#include "sat/types.h"

namespace ct::sat {

enum class BackendKind : std::uint8_t {
  kCdcl = 0,
  kCount = 1,
  kUnitProp = 2,
  /// CdclBackend routed through the IPASIR-style flat-C shim
  /// (sat/ipasir_shim.h) — in-tree proof of the external-solver seam.
  kIpasir = 3,
  /// Races diversified CDCL configurations on hard CNFs; first
  /// completed answer wins (sat/portfolio.h).
  kPortfolio = 4,
};
inline constexpr std::size_t kNumBackendKinds = 5;

/// Largest portfolio width a plan may request (racer slots are
/// statically sized to this).
inline constexpr unsigned kMaxPortfolioWidth = 4;
/// Width used when racing is enabled without an explicit width.
inline constexpr unsigned kDefaultPortfolioWidth = 2;

const char* to_string(BackendKind kind);

/// Outcome of a search-free presolve that fully decided the CNF.
/// When solution_class > 0, `values` assigns every CNF variable either
/// a forced value or kUndef (free): the model set is exactly "forced
/// values fixed, free variables arbitrary", so classification, counts
/// (2^free_vars), enumeration, and potential-true splits all follow
/// without touching a solver.  When solution_class == 0 the CNF is
/// UNSAT and `values` is empty.
struct Presolve {
  int solution_class = 0;  // 0 / 1 / 2 (2 = two or more)
  std::vector<LBool> values;
  std::int32_t free_vars = 0;
};

/// One loaded CNF behind one solving strategy.  The search contract
/// (solve / model access / guarded clauses / retract / stats) mirrors
/// what SolverSession needs from the CDCL solver; presolve() and
/// exact_count() are optional fast paths a backend may implement
/// instead of (or in addition to) search.
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

  /// Attempts to decide the loaded CNF without search; nullopt means
  /// the backend needs search (or, if !supports_search(), escalation).
  virtual std::optional<Presolve> presolve() { return std::nullopt; }

  /// Exact model count over all CNF variables (saturated at
  /// kCountCap), when the backend can produce one without enumerating
  /// blocking clauses.  nullopt on backends without a counting path.
  virtual std::optional<std::uint64_t> exact_count() { return std::nullopt; }

  // --- search contract; defaults throw std::logic_error -------------
  virtual SolveResult solve(std::span<const Lit> assumptions);
  virtual Var new_var();
  virtual LBool model_value(Var v) const;
  virtual bool add_clause(std::span<const Lit> lits);
  virtual bool retract_activation(Var a);
  virtual const SolverStats& solver_stats() const;
};

/// The incremental CDCL Solver behind the backend contract (the
/// default; exactly the pre-backend SolverSession behavior).
class CdclBackend : public SolverBackend {
 public:
  CdclBackend() = default;
  /// Diversified instance: every Solver this backend builds uses
  /// `config` (restart/polarity/decay seeds — the portfolio members).
  explicit CdclBackend(const SolverConfig& config) : config_(config) {}

  BackendKind kind() const override { return BackendKind::kCdcl; }
  void load(const Cnf& cnf) override;
  SolveResult solve(std::span<const Lit> assumptions) override;
  Var new_var() override;
  LBool model_value(Var v) const override;
  bool add_clause(std::span<const Lit> lits) override;
  bool retract_activation(Var a) override;
  const SolverStats& solver_stats() const override;

  /// Cooperative cancellation (Solver::set_stop_flag), surviving
  /// load(): the portfolio arbiter points every racing member at its
  /// own flag once and raises it when another member wins.
  void set_stop_flag(const std::atomic<bool>* stop);
  /// Per-solve conflict budget (Solver::set_conflict_budget), surviving
  /// load(); 0 disables.  The portfolio's hardness probe runs member 0
  /// under a small budget before deciding to race.
  void set_conflict_budget(std::uint64_t max_conflicts);

 private:
  SolverConfig config_;
  const std::atomic<bool>* stop_ = nullptr;
  std::uint64_t conflict_budget_ = 0;
  std::unique_ptr<Solver> solver_;  // rebuilt per load; Solver is not movable
};

/// CDCL for model queries + ModelCounter for exact counts: capped
/// counting and classification skip blocking-clause enumeration
/// entirely (the Figure-4 workload).  The count is computed lazily on
/// the first exact_count() call and cached until the next load().
class CountingBackend final : public CdclBackend {
 public:
  BackendKind kind() const override { return BackendKind::kCount; }
  void load(const Cnf& cnf) override;
  std::optional<std::uint64_t> exact_count() override;

 private:
  Cnf cnf_;  // retained for the counter
  ModelCounter counter_;
  std::optional<std::uint64_t> count_;
};

/// Presolve-only unit-propagation fast path.  load() propagates units
/// to fixpoint; if that conflicts (UNSAT) or satisfies every clause
/// (model set = forced values x free variables), presolve() returns
/// the decided outcome, else nullopt — the session escalates to the
/// plan's fallback backend.  Search ops are never called (the base
/// class throws).
class UnitPropBackend final : public SolverBackend {
 public:
  BackendKind kind() const override { return BackendKind::kUnitProp; }
  bool supports_search() const override { return false; }
  void load(const Cnf& cnf) override;
  std::optional<Presolve> presolve() override { return outcome_; }

 private:
  std::optional<Presolve> outcome_;
};

std::unique_ptr<SolverBackend> make_backend(BackendKind kind);

/// Size/shape features the selector keys on (one cheap pass).
struct FormulaShape {
  std::int32_t num_vars = 0;
  std::int64_t num_clauses = 0;
  std::int64_t num_units = 0;  // single-literal clauses

  double density() const {  // clauses per variable
    return num_vars == 0 ? 0.0
                         : static_cast<double>(num_clauses) / static_cast<double>(num_vars);
  }
  double unit_fraction() const {
    return num_clauses == 0 ? 0.0
                            : static_cast<double>(num_units) / static_cast<double>(num_clauses);
  }
};

FormulaShape shape_of(const Cnf& cnf);

/// What the caller is about to ask of the session (the knobs of
/// tomo::AnalysisOptions that change which backend pays off).
struct BackendWorkload {
  std::uint64_t count_cap = 2;  // 0 = unbounded exact count
  bool resolve_counts = false;
};

/// Primary backend plus the escalation target used when the primary's
/// presolve cannot decide the CNF (only UnitPropBackend escalates).
struct BackendPlan {
  BackendKind primary = BackendKind::kCdcl;
  BackendKind fallback = BackendKind::kCdcl;
  /// Racing members when primary == kPortfolio (README "Portfolio
  /// racing"); 0 otherwise.
  unsigned portfolio_width = 0;
};

/// Per-CNF backend selection policy.  Mode kAuto picks by formula
/// shape and workload (thresholds in backend.cpp); the forced modes pin
/// every CNF to one backend (verdicts are byte-identical either way —
/// forcing is for tests and benchmarks).
struct BackendSelector {
  enum class Mode : std::uint8_t { kAuto = 0, kCdcl, kCount, kUnitProp, kIpasir, kPortfolio };

  Mode mode = Mode::kAuto;
  /// Portfolio racing (README "Portfolio racing").  0/1 disables the
  /// gate; >= 2 lets auto mode route *hard* CDCL-bound CNFs to the
  /// portfolio, and forced kPortfolio mode race every CNF.  Verdicts
  /// are byte-identical either way — racing only changes which
  /// diversified search finds the (semantically unique) answer first.
  unsigned portfolio_width = 0;

  /// Members a race would run: >= 2 when racing can engage (auto mode
  /// with portfolio_width set, or forced kPortfolio mode), else 1.
  /// Thread-budget rule: engines divide their worker count by this so
  /// workers x width never oversubscribes the pool budget.
  unsigned racing_width() const;

  BackendPlan plan(const FormulaShape& shape, const BackendWorkload& workload) const;

  static std::optional<Mode> parse(std::string_view name);
  static const char* to_string(Mode mode);
};

/// Per-backend session counters (indexed by BackendKind).
struct BackendCounters {
  std::uint64_t selected = 0;   // chosen as a plan's primary at load()
  std::uint64_t served = 0;     // CNFs whose queries this backend answered
  std::uint64_t escalated = 0;  // presolve gave up; the fallback took over

  bool operator==(const BackendCounters&) const = default;
};

}  // namespace ct::sat
