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

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <tuple>
#include <vector>

#include "sat/types.h"

namespace ct::sat {

/// Result of a solve() call: every solve runs to an answer.
enum class SolveResult : std::uint8_t { kSat, kUnsat };

/// Solver statistics, cumulative across solve() calls.
struct SolverStats {
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t restarts = 0;
  std::uint64_t learnt_clauses = 0;
  std::uint64_t removed_clauses = 0;
};

class Solver {
 public:
  Solver() = default;

  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  /// Returns the solver to the exact logical state of a newly built
  /// Solver: no variables, no clauses, zero stats.  Every buffer keeps
  /// its capacity, so a lane that reloads one solver per CNF stops
  /// allocating once it has seen its largest CNF.
  void reset();

  /// Creates a fresh variable and returns it.
  Var new_var();
  /// Ensures variables [0, n) exist.
  void ensure_vars(std::int32_t n);
  std::int32_t num_vars() const { return static_cast<std::int32_t>(buf_.assigns.size()); }

  /// Adds a clause over existing variables.  Returns false if the solver
  /// became trivially UNSAT (empty clause / conflicting units at level 0).
  bool add_clause(std::span<const Lit> lits);
  bool add_clause(std::initializer_list<Lit> lits) {
    return add_clause(std::span<const Lit>(lits.begin(), lits.size()));
  }
  /// Convenience: adds every clause of a CNF (creating variables).
  bool add_cnf(const Cnf& cnf);

  /// Solves under the given assumptions.
  SolveResult solve(std::span<const Lit> assumptions = {});
  SolveResult solve(std::initializer_list<Lit> assumptions) {
    return solve(std::span<const Lit>(assumptions.begin(), assumptions.size()));
  }

  /// Model of the last successful solve (values for all variables).
  const Model& model() const { return buf_.model; }
  /// Value of v in the last model.
  LBool model_value(Var v) const { return buf_.model[static_cast<std::size_t>(v)]; }

  /// Subset of the assumptions responsible for UNSAT in the last
  /// assumption-based solve (the "final conflict clause", negated).
  const std::vector<Lit>& conflict_assumptions() const { return buf_.conflict; }

  /// True once the clause database itself is unsatisfiable (no
  /// assumptions needed).
  bool is_inconsistent() const { return !st_.ok; }

  const SolverStats& stats() const { return st_.stats; }

  /// Value of v in the current (partial) assignment; exposed for tests.
  LBool value(Var v) const { return buf_.assigns[static_cast<std::size_t>(v)]; }
  LBool value(Lit l) const {
    const LBool v = buf_.assigns[static_cast<std::size_t>(l.var())];
    return l.negated() ? !v : v;
  }

 private:
  using ClauseRef = std::int32_t;
  static constexpr ClauseRef kNoReason = -1;
  static constexpr double kLearntGrowth = 1.1;
  // Search strategy: Luby restarts (restart i allows luby(kRestartBase,
  // i) * kRestartScale conflicts), VSIDS and clause-activity decay.
  // Fresh variables start with the saved phase False.
  static constexpr double kRestartBase = 2.0;
  static constexpr double kRestartScale = 100.0;
  static constexpr double kVarDecay = 0.95;
  static constexpr double kClauseDecay = 0.999;

  /// A clause's literals are Buffers::lits[begin, begin + size).
  struct Clause {
    std::uint32_t begin = 0;
    std::uint32_t size = 0;
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

  /// Every scalar of the solver.  reset() re-assigns the whole struct,
  /// so a field added here needs no reset code of its own.
  struct State {
    std::size_t qhead = 0;
    double var_inc = 1.0;
    double clause_inc = 1.0;
    bool ok = true;
    double max_learnts = 0.0;  // learnt DB size that triggers reduce_db
    SolverStats stats;
  };

  /// Every buffer of the solver except the watch lists.  reset()
  /// empties each one that all() names and keeps its capacity;
  /// solver.cpp static_asserts that all() names every member.
  struct Buffers {
    // clause arena
    std::vector<Clause> clauses;
    std::vector<Lit> lits;
    std::vector<ClauseRef> problem_clauses;
    std::vector<ClauseRef> learnt_clauses;

    // assignment state
    std::vector<LBool> assigns;
    std::vector<VarInfo> var_info;
    std::vector<std::uint8_t> polarity;  // saved phases (1 = last assigned true)
    std::vector<Lit> trail;
    std::vector<std::int32_t> trail_lim;

    // VSIDS
    std::vector<double> activity;
    std::vector<std::int32_t> heap_pos;  // -1 if absent
    std::vector<Var> heap;

    // add_clause, conflict analysis and search scratch
    std::vector<Lit> add_scratch;
    std::vector<Lit> learnt;
    std::vector<std::int32_t> levels;
    std::vector<std::uint8_t> seen;
    std::vector<Lit> analyze_stack;
    std::vector<Lit> to_clear;

    // assumptions / results
    std::vector<Lit> assumptions;
    std::vector<Lit> conflict;
    Model model;

    auto all() {
      return std::tie(clauses, lits, problem_clauses, learnt_clauses, assigns, var_info,
                      polarity, trail, trail_lim, activity, heap_pos, heap, add_scratch,
                      learnt, levels, seen, analyze_stack, to_clear, assumptions, conflict,
                      model);
    }
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
  /// Searches until an answer or `conflicts_allowed` conflicts; nullopt
  /// asks solve() for a restart.
  std::optional<SolveResult> search(std::int64_t conflicts_allowed);

  // --- clause management ---
  ClauseRef alloc_clause(std::span<const Lit> lits, bool learnt);
  Lit* lits_of(const Clause& c) { return buf_.lits.data() + c.begin; }
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
  bool heap_empty() const { return buf_.heap.empty(); }
  void heap_sift_up(std::size_t i);
  void heap_sift_down(std::size_t i);
  bool heap_less(Var a, Var b) const {
    return buf_.activity[static_cast<std::size_t>(a)] >
           buf_.activity[static_cast<std::size_t>(b)];
  }

  std::int32_t decision_level() const {
    return static_cast<std::int32_t>(buf_.trail_lim.size());
  }

  static double luby(double y, std::uint64_t i);

  State st_;
  Buffers buf_;
  // Watches, indexed by literal code.  Not in Buffers: reset() keeps
  // every list, and new_var() empties the two lists of a variable whose
  // slots an earlier CNF left behind, so the inner vectors keep their
  // capacity too.
  std::vector<std::vector<Watcher>> watches_;
};

}  // namespace ct::sat
