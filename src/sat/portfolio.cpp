#include "sat/portfolio.h"

#include <algorithm>
#include <mutex>
#include <thread>

namespace ct::sat {

namespace {

/// Conflicts the hardness probe may spend before a race starts.  Most
/// queries on a gated CNF are decided well under this (the member-0
/// learnt clauses from earlier queries answer them almost instantly);
/// the hard tail blows straight through it and races.
constexpr std::uint64_t kDefaultProbeBudget = 2000;

std::mutex g_test_delays_mutex;
std::vector<std::chrono::nanoseconds> g_test_delays;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void set_portfolio_test_delays(std::vector<std::chrono::nanoseconds> delays) {
  const std::lock_guard<std::mutex> lock(g_test_delays_mutex);
  g_test_delays = std::move(delays);
}

std::vector<std::chrono::nanoseconds> portfolio_test_delays() {
  const std::lock_guard<std::mutex> lock(g_test_delays_mutex);
  return g_test_delays;
}

PortfolioStats& operator+=(PortfolioStats& a, const PortfolioStats& b) {
  a.races += b.races;
  a.probe_decided += b.probe_decided;
  for (std::size_t m = 0; m < a.won.size(); ++m) a.won[m] += b.won[m];
  a.winner_conflicts += b.winner_conflicts;
  a.wasted_conflicts += b.wasted_conflicts;
  a.cancels += b.cancels;
  a.cancel_ns_total += b.cancel_ns_total;
  a.cancel_ns_max = std::max(a.cancel_ns_max, b.cancel_ns_max);
  return a;
}

// --- RaceArbiter -----------------------------------------------------

void RaceArbiter::reset(unsigned width) {
  width_ = width;
  winner_.store(-1, std::memory_order_relaxed);
  for (auto& stop : stops_) stop.store(false, std::memory_order_relaxed);
}

bool RaceArbiter::claim(unsigned m) {
  int expected = -1;
  if (!winner_.compare_exchange_strong(expected, static_cast<int>(m),
                                       std::memory_order_acq_rel)) {
    return false;
  }
  for (unsigned other = 0; other < width_; ++other) {
    if (other != m) stops_[other].store(true, std::memory_order_release);
  }
  return true;
}

// --- PortfolioBackend ------------------------------------------------

SolverConfig PortfolioBackend::member_config(unsigned m) {
  SolverConfig config;
  switch (m % kMaxPortfolioWidth) {
    case 0:
      break;  // slot 0: the reference MiniSat-style defaults
    case 1:
      // Aggressive: positive initial phases, fast restarts, short VSIDS
      // memory — darts around the search space, great on SAT instances
      // whose models are phase-skewed.
      config.init_polarity = true;
      config.restart_scale = 60.0;
      config.var_decay = 0.85;
      break;
    case 2:
      // Steady: slow flat restarts, long VSIDS memory — digs into one
      // region, great on UNSAT instances needing deep refutations.
      config.restart_base = 1.5;
      config.restart_scale = 150.0;
      config.var_decay = 0.99;
      break;
    case 3:
      // Heavy: positive phases with very long restart periods.
      config.init_polarity = true;
      config.restart_base = 3.0;
      config.restart_scale = 300.0;
      break;
  }
  return config;
}

PortfolioBackend::PortfolioBackend(unsigned width) : probe_budget_(kDefaultProbeBudget) {
  set_width(width);
}

void PortfolioBackend::set_width(unsigned width) {
  const unsigned w = std::clamp(width, 1u, kMaxPortfolioWidth);
  if (w == members_.size()) return;
  members_.clear();
  arbiter_.reset(w);
  for (unsigned m = 0; m < w; ++m) {
    auto member = std::make_unique<CdclBackend>(member_config(m));
    // Attached once and for all loads: the flag is only raised inside a
    // race, so probes and solo solves see it permanently lowered.
    member->set_stop_flag(arbiter_.stop_flag(m));
    members_.push_back(std::move(member));
  }
  answer_member_ = 0;
}

void PortfolioBackend::load(const Cnf& cnf) {
  for (auto& member : members_) member->load(cnf);
  answer_member_ = 0;
}

Var PortfolioBackend::new_var() {
  // Members hold identical formulas, so every one returns the same var.
  Var v = kUndefVar;
  for (auto& member : members_) v = member->new_var();
  return v;
}

LBool PortfolioBackend::model_value(Var v) const {
  return members_[answer_member_]->model_value(v);
}

bool PortfolioBackend::add_clause(std::span<const Lit> lits) {
  // Broadcast so every member keeps the identical formula.  A member
  // may detect level-0 UNSAT earlier than its peers (its propagation
  // history differs) — that detection is sound for the shared formula,
  // so report it as soon as any member sees it.
  bool ok = true;
  for (auto& member : members_) ok = member->add_clause(lits) && ok;
  return ok;
}

const SolverStats& PortfolioBackend::solver_stats() const {
  stats_buf_ = SolverStats{};
  for (const auto& member : members_) {
    const SolverStats& s = member->solver_stats();
    stats_buf_.decisions += s.decisions;
    stats_buf_.propagations += s.propagations;
    stats_buf_.conflicts += s.conflicts;
    stats_buf_.restarts += s.restarts;
    stats_buf_.learnt_clauses += s.learnt_clauses;
    stats_buf_.removed_clauses += s.removed_clauses;
  }
  return stats_buf_;
}

SolveResult PortfolioBackend::solve(std::span<const Lit> assumptions) {
  if (width() < 2) {
    answer_member_ = 0;
    return members_[0]->solve(assumptions);
  }
  if (probe_budget_ > 0) {
    members_[0]->set_conflict_budget(probe_budget_);
    const SolveResult probed = members_[0]->solve(assumptions);
    members_[0]->set_conflict_budget(0);
    if (probed != SolveResult::kUnknown) {
      ++stats_.probe_decided;
      answer_member_ = 0;
      return probed;
    }
    // Budget exhausted: genuinely hard.  The probe's learnt clauses
    // stay with member 0, so its race leg resumes where the probe
    // stopped — probe work is never wasted.
  }
  return race(assumptions);
}

SolveResult PortfolioBackend::race(std::span<const Lit> assumptions) {
  const unsigned w = width();
  ++stats_.races;
  arbiter_.reset(w);
  const std::vector<Lit> assume(assumptions.begin(), assumptions.end());
  const std::vector<std::chrono::nanoseconds> delays = portfolio_test_delays();

  struct Slot {
    SolveResult result = SolveResult::kUnknown;
    std::uint64_t conflicts_before = 0;
    std::int64_t finished_ns = 0;
    std::exception_ptr error;
  };
  std::array<Slot, kMaxPortfolioWidth> slots;
  // Steady-clock ns of the first completed answer (the winning claim);
  // loser teardown latency is measured against it.
  std::atomic<std::int64_t> claim_ns{-1};

  auto run_member = [&](unsigned m) noexcept {
    Slot& slot = slots[m];
    slot.conflicts_before = members_[m]->solver_stats().conflicts;
    try {
      bool cancelled_in_delay = false;
      if (m < delays.size() && delays[m].count() > 0) {
        // Injected test delay: sleep in short slices, still honoring
        // cancellation so a forced loser stops promptly.
        auto remaining = delays[m];
        constexpr auto kSlice = std::chrono::nanoseconds(std::chrono::microseconds(200));
        while (remaining.count() > 0) {
          if (arbiter_.stop_flag(m)->load(std::memory_order_relaxed)) {
            cancelled_in_delay = true;
            break;
          }
          const auto nap = remaining < kSlice ? remaining : kSlice;
          std::this_thread::sleep_for(nap);
          remaining -= nap;
        }
      }
      if (!cancelled_in_delay) {
        const SolveResult r = members_[m]->solve(assume);
        slot.result = r;
        if (r != SolveResult::kUnknown) {
          std::int64_t expected = -1;
          claim_ns.compare_exchange_strong(expected, now_ns(), std::memory_order_acq_rel);
          arbiter_.claim(m);
        }
      }
    } catch (...) {
      slot.error = std::current_exception();
    }
    slot.finished_ns = now_ns();
  };

  std::vector<std::thread> racers;
  racers.reserve(w - 1);
  for (unsigned m = 1; m < w; ++m) {
    racers.emplace_back([&run_member, m] { run_member(m); });
  }
  run_member(0);  // member 0 races on the calling thread
  for (std::thread& racer : racers) racer.join();

  for (unsigned m = 0; m < w; ++m) {
    if (slots[m].error) {
      arbiter_.reset(w);
      std::rethrow_exception(slots[m].error);
    }
  }

  const int winner = arbiter_.winner();
  const std::int64_t claimed = claim_ns.load(std::memory_order_acquire);
  for (unsigned m = 0; m < w; ++m) {
    const std::uint64_t spent =
        members_[m]->solver_stats().conflicts - slots[m].conflicts_before;
    if (static_cast<int>(m) == winner) {
      stats_.winner_conflicts += spent;
      continue;
    }
    stats_.wasted_conflicts += spent;
    if (slots[m].result == SolveResult::kUnknown) {
      ++stats_.cancels;
      const std::uint64_t latency =
          claimed >= 0 && slots[m].finished_ns > claimed
              ? static_cast<std::uint64_t>(slots[m].finished_ns - claimed)
              : 0;
      stats_.cancel_ns_total += latency;
      stats_.cancel_ns_max = std::max(stats_.cancel_ns_max, latency);
    }
  }
  arbiter_.reset(w);  // lower the flags for the next probe/solo solve

  if (winner < 0) {
    // Unreachable in a well-formed race (a member can only return
    // kUnknown after a claim); serve the answer directly as a failsafe.
    answer_member_ = 0;
    return members_[0]->solve(assume);
  }
  ++stats_.won[static_cast<std::size_t>(winner)];
  answer_member_ = static_cast<unsigned>(winner);
  return slots[static_cast<std::size_t>(winner)].result;
}

}  // namespace ct::sat
