// SolverSession: every tomography query against one CNF, on one
// pluggable solver backend.
//
// The tomography engine asks three kinds of questions about the same
// formula — 0/1/2+ classification, model enumeration up to a cap, and
// backbone-style "can this variable ever be True" probes.  Loading the
// CNF into a fresh Solver per question throws away the CDCL solver's
// learnt clauses, VSIDS activities, and saved phases exactly when they
// are most useful.  A SolverSession loads the CNF once and serves all
// queries from the same backend:
//
//   * enumerate() adds blocking clauses guarded by an activation
//     literal `a` — each is (~a v ~model) and is enforced only while
//     enumeration solves under assumption a.  Because `a` never occurs
//     positively, the guard also rides along on every learnt clause
//     derived from a blocking clause, so later assumption-based queries
//     (and fresh enumerations after retract_enumeration()) see the
//     original formula, not an enumeration-poisoned one.
//   * Found models accumulate monotonically: classify() is
//     enumerate(2), count_models_capped(k) extends the same enumeration
//     from wherever it stopped, so raising a cap never re-derives
//     earlier models.
//   * potential_true_vars() runs one assumption solve per undecided
//     variable, harvesting every returned model; blocking clauses do
//     not constrain these solves since `a` is free to be False.
//
// Backends (sat/backend.h): load(cnf) pins the session to the default
// CdclBackend — bit-for-bit the historical behavior.  load(cnf, plan)
// lets a BackendSelector route the CNF instead: a decided unit-prop
// presolve serves every query straight from the propagation outcome
// (models materialized over the free variables, no search), an
// exact_count() backend answers classification and capped counts
// without blocking clauses, and a presolve that cannot decide the CNF
// escalates to the plan's fallback backend.  Whatever the route, every
// query returns exactly what the CDCL path would have — the
// cross-backend suites enforce it.
//
// Every CNF gets exactly one fresh load(): no solver state carries over
// from one CNF to the next, matching the paper's per-(URL, anomaly,
// window) solve.  A session is single-threaded; for batch parallelism,
// give each worker its own session and reuse it across CNFs via load()
// (the "session arena" pattern in tomo::analyze_cnfs).
// stats().cnf_loads counts load() calls across the arena's lifetime,
// which is how tests assert the one-load-per-verdict property.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "sat/backend.h"
#include "sat/enumerate.h"
#include "sat/portfolio.h"
#include "sat/solver.h"
#include "sat/types.h"

namespace ct::sat {

/// Cumulative session counters (survive load(), i.e. per-arena).
struct SessionStats {
  /// One per load(), so it equals the number of CNFs the session
  /// analyzed.
  std::uint64_t cnf_loads = 0;
  std::uint64_t solve_calls = 0;
  std::uint64_t models_found = 0;
  std::uint64_t blocking_clauses = 0;
  std::uint64_t retractions = 0;
  /// Problem clauses asserted by load(): the sum of |cnf.clauses| over
  /// the analyzed CNFs, for any batch, stream or worker count.
  std::uint64_t fresh_clauses = 0;
  /// Per-backend selection/serving counters, indexed by BackendKind.
  std::array<BackendCounters, kNumBackendKinds> backends{};
  /// Racing counters (README "Portfolio racing"), mirrored from the
  /// session's PortfolioBackend after every solve it serves; all zero
  /// when racing never engaged.
  PortfolioStats portfolio;
};

class SolverSession {
 public:
  SolverSession() = default;
  explicit SolverSession(const Cnf& cnf) { load(cnf); }
  SolverSession(const Cnf& cnf, const BackendPlan& plan) { load(cnf, plan); }

  SolverSession(const SolverSession&) = delete;
  SolverSession& operator=(const SolverSession&) = delete;

  /// (Re)loads a CNF on the default CDCL backend, dropping all state of
  /// the previous one.  Counts one cnf_load; other counters keep
  /// accumulating.
  void load(const Cnf& cnf);
  /// As above, but routes the CNF per `plan`: the primary backend's
  /// presolve may decide it outright, or escalate to the fallback.
  void load(const Cnf& cnf, const BackendPlan& plan);
  bool loaded() const { return backend_ != nullptr; }

  /// The backend actually answering queries for the loaded CNF (the
  /// fallback, after an escalation).
  BackendKind active_backend() const { return backend_->kind(); }
  /// True when a presolve decided the CNF and no search will run.
  bool presolved() const { return presolve_.has_value(); }

  /// Satisfiability of the loaded CNF (cached after the first call).
  bool satisfiable();

  /// Models of the CNF, projected onto `projection` (all variables when
  /// empty), with the same semantics as sat::enumerate_models.
  /// Successive calls extend one incremental enumeration while the
  /// projection is unchanged; changing the projection retracts and
  /// restarts it.
  EnumerateResult enumerate(const EnumerateOptions& options = {});

  /// Exact (projected) model count up to `cap`; returns cap if there
  /// are at least `cap` models.  cap = 0 means no cap (exact total
  /// count — beware exponential blowup).  Extends the same enumeration
  /// as enumerate()/classify(), unless the backend's presolve or
  /// exact-count fast path answers without enumerating.
  std::uint64_t count_models_capped(std::uint64_t cap,
                                    const std::vector<Var>& projection = {});

  /// Cheap 0 / 1 / 2+ classification (at most two models enumerated).
  SolutionClassification classify(const std::vector<Var>& projection = {});

  /// For each variable in `vars` (all CNF variables if empty), whether
  /// any model assigns it True.  Unaffected by enumeration state.
  PotentialTrueResult potential_true_vars(const std::vector<Var>& vars = {});

  /// Drops all blocking clauses (via the backend's retract_activation)
  /// and forgets cached models; the next enumerate() starts from
  /// scratch.
  void retract_enumeration();

  const SessionStats& stats() const { return stats_; }
  const SolverStats& solver_stats() const {
    static const SolverStats kUnloaded{};
    return backend_ ? backend_->solver_stats() : kUnloaded;
  }

 private:
  SolveResult solve(std::span<const Lit> assumptions);
  /// Returns the cached backend instance for `kind`, creating it once.
  SolverBackend* fetch_backend(BackendKind kind);
  /// Grows the model cache to >= want models or exhaustion.
  void ensure_models(std::uint64_t want);
  /// ensure_models for a presolve-decided CNF: materializes projected
  /// models from the propagation outcome, in free-variable counting
  /// order, with no search.
  void materialize_models(std::uint64_t want);
  /// Number of distinct projected models of a presolve-decided CNF
  /// (2^|free vars in projection|, saturated at kCountCap).
  std::uint64_t presolve_projected_count() const;
  /// Points the enumeration state at `projection`, retracting if it
  /// changed.
  void set_projection(const std::vector<Var>& projection);

  // One lazily created instance per backend kind, reused across load()
  // calls (each backend's load() rebuilds its own solver state).
  std::array<std::unique_ptr<SolverBackend>, kNumBackendKinds> backends_;
  SolverBackend* backend_ = nullptr;     // active backend, points into backends_
  std::optional<Presolve> presolve_;     // engaged: queries bypass search
  std::int32_t cnf_vars_ = 0;
  std::vector<Var> projection_;          // active enumeration projection
  bool full_projection_ = true;          // projection_ covers every CNF variable
  Var activation_ = kUndefVar;           // guard for the blocking clauses
  std::vector<std::vector<Lit>> models_;  // discovery order, projected
  bool exhausted_ = false;                // no models beyond models_
  std::int8_t base_sat_ = -1;             // -1 unknown, else 0/1
  SessionStats stats_;
};

}  // namespace ct::sat
