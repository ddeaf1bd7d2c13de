// Portfolio racing backend (README "Portfolio racing").
//
// The tomography workload spends almost all of its SAT time on a small
// tail of hard window CNFs — exactly the regime where no single solver
// configuration wins consistently.  PortfolioBackend races `width`
// diversified CDCL configurations (different restart schedules, initial
// polarities, and VSIDS decay — the CryptoMiniSat ThreadControl model)
// on the same formula; the first member to complete an answer wins and
// the losers are cancelled through the solver core's cooperative stop
// flag (Solver::set_stop_flag), which they honor within one search-loop
// iteration — far inside one restart period.
//
// Why first-wins stays byte-identical: the determinism contract proves
// every CnfVerdict field is a semantic property of (CNF, options) —
// model counts, censor sets, and potential/definite splits do not
// depend on the search path that derived them.  Any member's kSat model
// is a model; kUnsat is kUnsat; enumeration counts are counts of the
// same model set whatever order models are discovered in.  So racing
// changes *when* the answer arrives, never *what* it is — the
// equivalence suites cross racing off/on (and fuzz forced winners via
// injected delays) to hold it to that.
//
// State mirroring: every mutation (load, new_var, add_clause) is
// broadcast to all members, so each holds the identical logical
// formula and any member can serve any solve.  The member that
// produced the last answer serves model_value().
//
// Hardness probe: before racing, member 0 solves under a small conflict
// budget.  Most queries against a gated CNF are cheap (learnt clauses
// from earlier queries answer them in a few conflicts), so only
// genuinely hard solves pay the race — the probe's learnt clauses are
// kept, so its work is never wasted.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sat/backend.h"

namespace ct::sat {

/// Cumulative racing counters (per PortfolioBackend; summed across
/// sessions/arenas into SessionStats/EngineStats).
struct PortfolioStats {
  std::uint64_t races = 0;          // solves that actually raced
  std::uint64_t probe_decided = 0;  // probe answered within budget; no race
  /// Races won per member slot (slot = diversification config index).
  std::array<std::uint64_t, kMaxPortfolioWidth> won{};
  /// Conflicts spent by race winners vs. by cancelled/outpaced losers;
  /// wasted / (winner + wasted) is the wasted-work ratio.
  std::uint64_t winner_conflicts = 0;
  std::uint64_t wasted_conflicts = 0;
  /// Loser teardown: members cancelled by a winner's claim, and how
  /// long they took to stop after it (wall ns; max proves losers stop
  /// within one restart period).
  std::uint64_t cancels = 0;
  std::uint64_t cancel_ns_total = 0;
  std::uint64_t cancel_ns_max = 0;

  std::uint64_t races_won_total() const {
    std::uint64_t total = 0;
    for (const std::uint64_t w : won) total += w;
    return total;
  }
  double wasted_ratio() const {
    const std::uint64_t all = winner_conflicts + wasted_conflicts;
    return all == 0 ? 0.0 : static_cast<double>(wasted_conflicts) / static_cast<double>(all);
  }

  bool operator==(const PortfolioStats&) const = default;
};

/// Field-wise merge (cancel_ns_max by max), for arena aggregation.
PortfolioStats& operator+=(PortfolioStats& a, const PortfolioStats& b);

/// Per-race first-writer-wins arbitration: the first member to claim()
/// becomes the winner and every other member's stop flag is raised, so
/// losers abandon their search at the next cancellation poll.  reset()
/// rearms the arbiter between races (single-threaded at that point).
class RaceArbiter {
 public:
  RaceArbiter() { reset(0); }

  void reset(unsigned width);

  /// The flag member `m` polls; raised when another member wins.
  const std::atomic<bool>* stop_flag(unsigned m) const { return &stops_[m]; }

  /// First caller wins: installs `m` as the winner and cancels every
  /// other member.  Returns whether `m` won.
  bool claim(unsigned m);

  /// Winning member of the current race, or -1 while undecided.
  int winner() const { return winner_.load(std::memory_order_acquire); }

 private:
  unsigned width_ = 0;
  std::atomic<int> winner_{-1};
  std::array<std::atomic<bool>, kMaxPortfolioWidth> stops_{};
};

/// Test-only: process-wide per-member delays injected before each
/// racing member starts its solve, so determinism tests can force any
/// member to win (the delay sleeps in short slices and keeps honoring
/// cancellation).  Empty (the default) injects nothing.  Not for
/// production use.
void set_portfolio_test_delays(std::vector<std::chrono::nanoseconds> delays);
std::vector<std::chrono::nanoseconds> portfolio_test_delays();

class PortfolioBackend final : public SolverBackend {
 public:
  explicit PortfolioBackend(unsigned width = kDefaultPortfolioWidth);

  BackendKind kind() const override { return BackendKind::kPortfolio; }

  /// Reconfigures the racing width (clamped to [1, kMaxPortfolioWidth]);
  /// rebuilds the member set when it changes, so call before load().
  void set_width(unsigned width);
  unsigned width() const { return static_cast<unsigned>(members_.size()); }

  /// Conflicts the hardness probe may spend before a race starts; 0
  /// races immediately.
  void set_probe_budget(std::uint64_t conflicts) { probe_budget_ = conflicts; }

  void load(const Cnf& cnf) override;
  SolveResult solve(std::span<const Lit> assumptions) override;
  Var new_var() override;
  LBool model_value(Var v) const override;
  bool add_clause(std::span<const Lit> lits) override;
  /// Summed over all members (total search work, winners and losers).
  const SolverStats& solver_stats() const override;

  const PortfolioStats& portfolio_stats() const { return stats_; }

  /// The diversified configuration racing in slot `m` (exposed so the
  /// benchmarks can run each config solo for the best-single baseline).
  static SolverConfig member_config(unsigned m);

 private:
  SolveResult race(std::span<const Lit> assumptions);

  std::uint64_t probe_budget_;
  std::vector<std::unique_ptr<CdclBackend>> members_;
  RaceArbiter arbiter_;
  /// Member whose last answer (and model) queries read.
  unsigned answer_member_ = 0;
  mutable SolverStats stats_buf_;
  PortfolioStats stats_;
};

}  // namespace ct::sat
