// SolverSession: every tomography query against one CNF, on one
// pluggable solver backend.
//
// The tomography engine asks three questions about each CNF, always
// over all of its variables: the 0/1/2+ classification (with the unique
// model), the model count up to a cap (Figure 4), and backbone-style
// "can this variable ever be True" probes.  Loading the CNF into a
// fresh Solver per question throws away the CDCL solver's learnt
// clauses, VSIDS activities, and saved phases exactly when they are
// most useful.  A SolverSession loads the CNF once and serves all three
// queries from the same backend:
//
//   * classify() and count_models_capped() enumerate models with
//     blocking clauses guarded by an activation literal `a` — each is
//     (~a v ~model) and is enforced only while enumeration solves under
//     assumption a.  Found models accumulate monotonically:
//     count_models_capped(k) extends classify()'s enumeration from
//     wherever it stopped, so raising a cap never re-derives earlier
//     models.
//   * potential_true_vars() runs one assumption solve per undecided
//     variable, harvesting every returned model.  Because `a` never
//     occurs positively, the guard also rides along on every learnt
//     clause derived from a blocking clause, so these solves (where `a`
//     is free to be False) see the original formula, not an
//     enumeration-poisoned one.
//
// Backends (sat/backend.h): load(cnf) pins the session to the default
// CdclBackend.  load(cnf, primary) lets a BackendSelector route the CNF
// instead: a decided unit-prop presolve serves every query straight
// from the propagation outcome (2^free_vars models, no search), and a
// presolve that cannot decide the CNF escalates to CDCL.  Whatever the
// route, every query returns exactly what the CDCL path would have —
// the cross-backend suites enforce it.
//
// Every CNF gets exactly one load(), and a loaded backend is logically
// fresh: no solver state (clauses, activities, phases, stats) carries
// over from one CNF to the next, matching the paper's per-(URL,
// anomaly, window) solve.  What does carry over is capacity: each
// backend resets its one solver in place, and the session keeps its
// model, blocking-clause and harvest buffers, so a worker that reuses
// its session across CNFs via load() (the "session arena" pattern in
// tomo::analyze_cnfs) stops allocating once it has seen its largest
// CNF.  A session is single-threaded; for batch parallelism, give each
// worker its own session.
// stats().cnf_loads counts load() calls across the arena's lifetime,
// which is how tests assert the one-load-per-verdict property.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "sat/backend.h"
#include "sat/solver.h"
#include "sat/types.h"

namespace ct::sat {

struct SolutionClassification {
  /// 0, 1, or 2 (2 means "two or more").
  int solution_class = 0;
  /// The unique model when solution_class == 1: one literal per CNF
  /// variable, in variable order, in its satisfying polarity.
  std::optional<std::vector<Lit>> unique_model;
};

struct PotentialTrueResult {
  /// Variables that are True in at least one model.
  std::vector<Var> potential_true;
  /// Variables that are False in every model ("definite non-censors").
  std::vector<Var> always_false;
  /// Whether the formula was satisfiable at all.
  bool satisfiable = false;
};

/// Cumulative session counters (survive load(), i.e. per-arena).
struct SessionStats {
  /// One per load(), so it equals the number of CNFs the session
  /// analyzed.
  std::uint64_t cnf_loads = 0;
  std::uint64_t solve_calls = 0;
  std::uint64_t models_found = 0;
  /// Problem clauses asserted by load(): the sum of |cnf.clauses| over
  /// the analyzed CNFs, for any batch, stream or worker count.
  std::uint64_t fresh_clauses = 0;
  /// Per-backend selection/serving counters, indexed by BackendKind.
  std::array<BackendCounters, kNumBackendKinds> backends{};
};

class SolverSession {
 public:
  SolverSession() = default;
  explicit SolverSession(const Cnf& cnf, BackendKind primary = BackendKind::kCdcl) {
    load(cnf, primary);
  }

  SolverSession(const SolverSession&) = delete;
  SolverSession& operator=(const SolverSession&) = delete;

  /// (Re)loads a CNF on the `primary` backend, dropping all state of the
  /// previous one: its presolve may decide the CNF outright, or escalate
  /// to CDCL.  Counts one cnf_load; other counters keep accumulating.
  void load(const Cnf& cnf, BackendKind primary = BackendKind::kCdcl);

  /// The backend actually answering queries for the loaded CNF (CDCL,
  /// after an escalation).
  BackendKind active_backend() const { return backend_->kind(); }
  /// True when a presolve decided the CNF and no search will run.
  bool presolved() const { return presolve_ != nullptr; }

  /// Cheap 0 / 1 / 2+ classification (at most two models enumerated).
  SolutionClassification classify();

  /// Exact model count up to `cap`; returns cap if there are at least
  /// `cap` models.  cap = 0 means no cap (exact total count — beware
  /// exponential blowup).  Extends classify()'s enumeration, unless the
  /// backend's presolve answers without enumerating.
  std::uint64_t count_models_capped(std::uint64_t cap);

  /// For each CNF variable, whether any model assigns it True.
  /// Unaffected by the blocking clauses of classify() and
  /// count_models_capped().
  PotentialTrueResult potential_true_vars();

  const SessionStats& stats() const { return stats_; }

 private:
  SolveResult solve(std::span<const Lit> assumptions);
  /// Returns the cached backend instance for `kind`, creating it once.
  SolverBackend* fetch_backend(BackendKind kind);
  /// Grows the model cache to >= want models or exhaustion (search
  /// backends only).
  void ensure_models(std::uint64_t want);
  /// Appends the backend's current model over every CNF variable to
  /// the model cache.
  void read_model();
  /// Model `i` of the cache, one literal per CNF variable.
  std::span<const Lit> model(std::size_t i) const {
    const auto width = static_cast<std::size_t>(cnf_vars_);
    return std::span<const Lit>(model_lits_).subspan(i * width, width);
  }

  // One lazily created instance per backend kind, reused across load()
  // calls (each backend's load() resets its own solver state).
  std::array<std::unique_ptr<SolverBackend>, kNumBackendKinds> backends_;
  SolverBackend* backend_ = nullptr;     // active backend, points into backends_
  const Presolve* presolve_ = nullptr;   // owned by backend_; set: queries bypass search
  std::int32_t cnf_vars_ = 0;
  Var activation_ = kUndefVar;           // guard for the blocking clauses
  // The model cache, in discovery order: model i is
  // model_lits_[i * cnf_vars_, (i + 1) * cnf_vars_).
  std::vector<Lit> model_lits_;
  std::size_t num_models_ = 0;
  bool exhausted_ = false;                // no models beyond the cache
  // Per-load scratch, kept across loads for its capacity.
  std::vector<Lit> block_;                // ensure_models' blocking clause
  std::vector<std::uint8_t> known_true_;  // potential_true_vars' harvest
  SessionStats stats_;
};

}  // namespace ct::sat
