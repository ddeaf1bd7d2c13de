// A CDCL (conflict-driven clause learning) SAT solver.
//
// Architecture follows MiniSat 2.2: two-literal watching for unit
// propagation, first-UIP conflict analysis with clause minimization,
// VSIDS variable activities with phase saving, Luby restarts, and
// activity/LBD-based learnt-clause database reduction.  The solver is
// incremental: clauses may be added between solve() calls, and solve()
// accepts assumption literals (used by the tomography layer to compute
// potential-censor sets without full model enumeration).
//
// This is the paper's "off-the-shelf SAT solver" substrate, built from
// scratch so the repository is self-contained.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "sat/types.h"

namespace ct::sat {

/// Result of a solve() call.
enum class SolveResult : std::uint8_t { kSat, kUnsat, kUnknown };

/// Search-strategy knobs.  Every configuration is semantically exact —
/// it changes the path the search takes, never the answer — which is
/// what makes portfolio racing sound: diversified configs disagree
/// wildly on *time-to-answer* for hard formulas while agreeing on the
/// answer itself.
struct SolverConfig {
  /// Luby restart sequence base (restart i allows luby(base, i) * scale
  /// conflicts).
  double restart_base = 2.0;
  double restart_scale = 100.0;
  /// Initial saved phase for fresh variables (phase saving overwrites
  /// it as soon as a variable is assigned).
  bool init_polarity = false;
  double var_decay = 0.95;
  double clause_decay = 0.999;
};

/// Solver statistics, cumulative across solve() calls.
struct SolverStats {
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t restarts = 0;
  std::uint64_t learnt_clauses = 0;
  std::uint64_t removed_clauses = 0;
  std::uint64_t retracted_clauses = 0;
};

class Solver {
 public:
  Solver();
  explicit Solver(const SolverConfig& config);

  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  /// Creates a fresh variable and returns it.
  Var new_var();
  /// Ensures variables [0, n) exist.
  void ensure_vars(std::int32_t n);
  std::int32_t num_vars() const { return static_cast<std::int32_t>(assigns_.size()); }

  /// Adds a clause over existing variables.  Returns false if the solver
  /// became trivially UNSAT (empty clause / conflicting units at level 0).
  bool add_clause(std::span<const Lit> lits);
  bool add_clause(std::initializer_list<Lit> lits) {
    return add_clause(std::span<const Lit>(lits.begin(), lits.size()));
  }
  /// Convenience: adds every clause of a CNF (creating variables).
  bool add_cnf(const Cnf& cnf);

  /// Solves under the given assumptions.  kUnknown only if a conflict
  /// budget was set and exhausted.
  SolveResult solve(std::span<const Lit> assumptions = {});
  SolveResult solve(std::initializer_list<Lit> assumptions) {
    return solve(std::span<const Lit>(assumptions.begin(), assumptions.size()));
  }

  /// Model of the last successful solve (values for all variables).
  const Model& model() const { return model_; }
  /// Value of v in the last model.
  LBool model_value(Var v) const { return model_[static_cast<std::size_t>(v)]; }

  /// Subset of the assumptions responsible for UNSAT in the last
  /// assumption-based solve (the "final conflict clause", negated).
  const std::vector<Lit>& conflict_assumptions() const { return conflict_; }

  /// True once the clause database itself is unsatisfiable (no
  /// assumptions needed).
  bool is_inconsistent() const { return !ok_; }

  /// Retires an activation variable: permanently asserts ~a at level 0
  /// and physically removes every clause containing ~a (now satisfied
  /// forever).  Used by SolverSession to retract guarded clause groups —
  /// e.g. enumeration blocking clauses of the form (~a v ~model) — so
  /// they stop consuming watch effort once the group is done.  Sound
  /// because `a` must never occur positively in any clause: then every
  /// clause derived (learnt) from a guarded clause also contains ~a and
  /// is removed with the group.  Returns false if asserting ~a made the
  /// database UNSAT (impossible for a true activation variable).
  bool retract_activation(Var a);

  /// Optional conflict budget per solve() call; 0 disables the limit.
  void set_conflict_budget(std::uint64_t max_conflicts) { conflict_budget_ = max_conflicts; }

  /// Cooperative cancellation: while `stop` is non-null and reads true,
  /// solve() abandons the search at the next poll point (once per
  /// search-loop iteration and once per restart) and returns kUnknown.
  /// Cancellation backtracks to level 0 and keeps every learnt clause —
  /// the solver state stays exactly as consistent as after a
  /// conflict-budget timeout, so the same solver can be re-solved (with
  /// the flag lowered) and still return the correct answer.  nullptr
  /// detaches the flag.  The flag is only ever *read* by the solver;
  /// raising it from another thread is the point.
  void set_stop_flag(const std::atomic<bool>* stop) { stop_ = stop; }

  const SolverStats& stats() const { return stats_; }

  /// Value of v in the current (partial) assignment; exposed for tests.
  LBool value(Var v) const { return assigns_[static_cast<std::size_t>(v)]; }
  LBool value(Lit l) const {
    const LBool v = assigns_[static_cast<std::size_t>(l.var())];
    return l.negated() ? !v : v;
  }

 private:
  using ClauseRef = std::int32_t;
  static constexpr ClauseRef kNoReason = -1;

  struct Clause {
    std::vector<Lit> lits;
    double activity = 0.0;
    std::int32_t lbd = 0;
    bool learnt = false;
    bool deleted = false;
  };

  struct Watcher {
    ClauseRef cref;
    Lit blocker;
  };

  struct VarInfo {
    ClauseRef reason = kNoReason;
    std::int32_t level = 0;
  };

  // --- search core ---
  bool enqueue(Lit l, ClauseRef reason);
  ClauseRef propagate();
  void analyze(ClauseRef conflict, std::vector<Lit>& out_learnt, std::int32_t& out_btlevel,
               std::int32_t& out_lbd);
  void analyze_final(Lit p, std::vector<Lit>& out_conflict);
  bool lit_redundant(Lit l, std::uint32_t abstract_levels);
  void cancel_until(std::int32_t level);
  Lit pick_branch_lit();
  SolveResult search(std::int64_t conflicts_allowed);

  // --- clause management ---
  ClauseRef alloc_clause(std::vector<Lit> lits, bool learnt);
  void attach_clause(ClauseRef cref);
  void detach_clause(ClauseRef cref);
  void remove_clause(ClauseRef cref);
  void reduce_db();
  std::int32_t compute_lbd(const std::vector<Lit>& lits);

  // --- VSIDS / heap ---
  void var_bump_activity(Var v);
  void var_decay_activity();
  void clause_bump_activity(Clause& c);
  void clause_decay_activity();
  void heap_insert(Var v);
  void heap_update(Var v);
  Var heap_pop();
  bool heap_empty() const { return heap_.empty(); }
  void heap_sift_up(std::size_t i);
  void heap_sift_down(std::size_t i);
  bool heap_less(Var a, Var b) const {
    return activity_[static_cast<std::size_t>(a)] > activity_[static_cast<std::size_t>(b)];
  }

  std::int32_t decision_level() const { return static_cast<std::int32_t>(trail_lim_.size()); }

  bool stop_requested() const {
    return stop_ != nullptr && stop_->load(std::memory_order_relaxed);
  }

  static double luby(double y, std::uint64_t i);

  // clause arena
  std::vector<Clause> clauses_;
  std::vector<ClauseRef> problem_clauses_;
  std::vector<ClauseRef> learnt_clauses_;

  // assignment state
  std::vector<LBool> assigns_;
  std::vector<VarInfo> var_info_;
  std::vector<std::uint8_t> polarity_;  // saved phases (1 = last assigned true)
  std::vector<Lit> trail_;
  std::vector<std::int32_t> trail_lim_;
  std::size_t qhead_ = 0;

  // watches, indexed by literal code
  std::vector<std::vector<Watcher>> watches_;

  // VSIDS
  std::vector<double> activity_;
  std::vector<std::int32_t> heap_pos_;  // -1 if absent
  std::vector<Var> heap_;
  double var_inc_ = 1.0;
  double clause_inc_ = 1.0;

  // conflict analysis scratch
  std::vector<std::uint8_t> seen_;
  std::vector<Lit> analyze_stack_;
  std::vector<Lit> to_clear_;

  // assumptions / results
  std::vector<Lit> assumptions_;
  std::vector<Lit> conflict_;
  Model model_;
  bool ok_ = true;

  // learnt DB control
  double max_learnts_ = 0.0;
  double learnt_growth_ = 1.1;

  std::uint64_t conflict_budget_ = 0;
  const std::atomic<bool>* stop_ = nullptr;  // cooperative cancellation
  SolverConfig config_;
  SolverStats stats_;
};

}  // namespace ct::sat
