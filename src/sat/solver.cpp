#include "sat/solver.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace ct::sat {

Solver::Solver() = default;

Solver::Solver(const SolverConfig& config) : config_(config) {}

Var Solver::new_var() {
  const Var v = static_cast<Var>(assigns_.size());
  assigns_.push_back(LBool::kUndef);
  var_info_.push_back(VarInfo{});
  polarity_.push_back(config_.init_polarity ? 1 : 0);
  activity_.push_back(0.0);
  heap_pos_.push_back(-1);
  seen_.push_back(0);
  watches_.emplace_back();  // positive literal
  watches_.emplace_back();  // negative literal
  heap_insert(v);
  return v;
}

void Solver::ensure_vars(std::int32_t n) {
  while (num_vars() < n) new_var();
}

bool Solver::add_cnf(const Cnf& cnf) {
  ensure_vars(cnf.num_vars);
  for (const auto& clause : cnf.clauses) {
    if (!add_clause(clause)) return false;
  }
  return ok_;
}

bool Solver::add_clause(std::span<const Lit> lits) {
  if (!ok_) return false;
  cancel_until(0);

  std::vector<Lit> cl(lits.begin(), lits.end());
  std::sort(cl.begin(), cl.end());
  // Dedupe; detect tautology; drop level-0 false literals; detect
  // level-0 satisfied clauses.
  std::vector<Lit> out;
  out.reserve(cl.size());
  Lit prev = kUndefLit;
  for (const Lit l : cl) {
    assert(l.var() >= 0 && l.var() < num_vars());
    if (l == prev) continue;
    if (!prev.is_undef() && l == ~prev) return true;  // tautology: x ∨ ~x
    if (value(l) == LBool::kTrue) return true;        // satisfied at level 0
    if (value(l) == LBool::kFalse) {
      prev = l;
      continue;  // falsified at level 0: drop literal
    }
    out.push_back(l);
    prev = l;
  }

  if (out.empty()) {
    ok_ = false;
    return false;
  }
  if (out.size() == 1) {
    if (!enqueue(out[0], kNoReason)) {
      ok_ = false;
      return false;
    }
    if (propagate() != kNoReason) {
      ok_ = false;
      return false;
    }
    return true;
  }
  const ClauseRef cref = alloc_clause(std::move(out), /*learnt=*/false);
  problem_clauses_.push_back(cref);
  attach_clause(cref);
  return true;
}

Solver::ClauseRef Solver::alloc_clause(std::vector<Lit> lits, bool learnt) {
  Clause c;
  c.lits = std::move(lits);
  c.learnt = learnt;
  clauses_.push_back(std::move(c));
  return static_cast<ClauseRef>(clauses_.size()) - 1;
}

void Solver::attach_clause(ClauseRef cref) {
  const auto& c = clauses_[static_cast<std::size_t>(cref)];
  assert(c.lits.size() >= 2);
  watches_[static_cast<std::size_t>(c.lits[0].code())].push_back({cref, c.lits[1]});
  watches_[static_cast<std::size_t>(c.lits[1].code())].push_back({cref, c.lits[0]});
}

void Solver::detach_clause(ClauseRef cref) {
  const auto& c = clauses_[static_cast<std::size_t>(cref)];
  for (int i = 0; i < 2; ++i) {
    auto& ws = watches_[static_cast<std::size_t>(c.lits[static_cast<std::size_t>(i)].code())];
    for (std::size_t j = 0; j < ws.size(); ++j) {
      if (ws[j].cref == cref) {
        ws[j] = ws.back();
        ws.pop_back();
        break;
      }
    }
  }
}

void Solver::remove_clause(ClauseRef cref) {
  detach_clause(cref);
  clauses_[static_cast<std::size_t>(cref)].deleted = true;
  ++stats_.removed_clauses;
}

bool Solver::enqueue(Lit l, ClauseRef reason) {
  const auto v = static_cast<std::size_t>(l.var());
  if (assigns_[v] != LBool::kUndef) return value(l) == LBool::kTrue;
  assigns_[v] = lbool_from(!l.negated());
  var_info_[v] = VarInfo{reason, decision_level()};
  polarity_[v] = l.negated() ? 0 : 1;
  trail_.push_back(l);
  return true;
}

Solver::ClauseRef Solver::propagate() {
  ClauseRef confl = kNoReason;
  while (qhead_ < trail_.size()) {
    const Lit p = trail_[qhead_++];  // p became true; check clauses watching ~p
    ++stats_.propagations;
    auto& ws = watches_[static_cast<std::size_t>((~p).code())];
    std::size_t i = 0, j = 0;
    const Lit false_lit = ~p;
    while (i < ws.size()) {
      const Watcher w = ws[i];
      if (value(w.blocker) == LBool::kTrue) {
        ws[j++] = ws[i++];
        continue;
      }
      auto& c = clauses_[static_cast<std::size_t>(w.cref)];
      auto& lits = c.lits;
      // Put the false literal at position 1.
      if (lits[0] == false_lit) std::swap(lits[0], lits[1]);
      assert(lits[1] == false_lit);
      ++i;

      const Lit first = lits[0];
      if (value(first) == LBool::kTrue) {
        ws[j++] = Watcher{w.cref, first};
        continue;
      }
      // Look for a new literal to watch.
      bool found = false;
      for (std::size_t k = 2; k < lits.size(); ++k) {
        if (value(lits[k]) != LBool::kFalse) {
          std::swap(lits[1], lits[k]);
          watches_[static_cast<std::size_t>(lits[1].code())].push_back({w.cref, first});
          found = true;
          break;
        }
      }
      if (found) continue;  // watcher moved; do not keep here

      // Clause is unit or conflicting.
      ws[j++] = Watcher{w.cref, first};
      if (value(first) == LBool::kFalse) {
        confl = w.cref;
        qhead_ = trail_.size();
        while (i < ws.size()) ws[j++] = ws[i++];
        break;
      }
      enqueue(first, w.cref);
    }
    ws.resize(j);
    if (confl != kNoReason) break;
  }
  return confl;
}

std::int32_t Solver::compute_lbd(const std::vector<Lit>& lits) {
  // Count distinct decision levels.  Levels are small; a sorted scratch
  // vector is adequate at our clause sizes.
  std::vector<std::int32_t> levels;
  levels.reserve(lits.size());
  for (const Lit l : lits) {
    levels.push_back(var_info_[static_cast<std::size_t>(l.var())].level);
  }
  std::sort(levels.begin(), levels.end());
  levels.erase(std::unique(levels.begin(), levels.end()), levels.end());
  return static_cast<std::int32_t>(levels.size());
}

void Solver::analyze(ClauseRef conflict, std::vector<Lit>& out_learnt,
                     std::int32_t& out_btlevel, std::int32_t& out_lbd) {
  std::int32_t path_count = 0;
  Lit p = kUndefLit;
  out_learnt.clear();
  out_learnt.push_back(kUndefLit);  // placeholder for the asserting literal
  std::size_t index = trail_.size();

  to_clear_.clear();
  ClauseRef confl = conflict;
  do {
    assert(confl != kNoReason);
    Clause& c = clauses_[static_cast<std::size_t>(confl)];
    if (c.learnt) clause_bump_activity(c);

    for (std::size_t k = p.is_undef() ? 0 : 1; k < c.lits.size(); ++k) {
      const Lit q = c.lits[k];
      const auto qv = static_cast<std::size_t>(q.var());
      if (seen_[qv] || var_info_[qv].level == 0) continue;
      var_bump_activity(q.var());
      seen_[qv] = 1;
      to_clear_.push_back(q);
      if (var_info_[qv].level >= decision_level()) {
        ++path_count;
      } else {
        out_learnt.push_back(q);
      }
    }

    // Select next literal to look at.
    while (!seen_[static_cast<std::size_t>(trail_[index - 1].var())]) --index;
    --index;
    p = trail_[index];
    confl = var_info_[static_cast<std::size_t>(p.var())].reason;
    seen_[static_cast<std::size_t>(p.var())] = 0;
    --path_count;
  } while (path_count > 0);
  out_learnt[0] = ~p;

  // Conflict-clause minimization (recursive, MiniSat ccmin mode 2).
  std::uint32_t abstract_levels = 0;
  for (std::size_t k = 1; k < out_learnt.size(); ++k) {
    const auto lv = var_info_[static_cast<std::size_t>(out_learnt[k].var())].level;
    abstract_levels |= 1u << (static_cast<std::uint32_t>(lv) & 31u);
  }
  std::size_t kept = 1;
  for (std::size_t k = 1; k < out_learnt.size(); ++k) {
    const auto v = static_cast<std::size_t>(out_learnt[k].var());
    if (var_info_[v].reason == kNoReason || !lit_redundant(out_learnt[k], abstract_levels)) {
      out_learnt[kept++] = out_learnt[k];
    }
  }
  out_learnt.resize(kept);

  // Find backtrack level: max level among out_learnt[1..].
  if (out_learnt.size() == 1) {
    out_btlevel = 0;
  } else {
    std::size_t max_i = 1;
    for (std::size_t k = 2; k < out_learnt.size(); ++k) {
      if (var_info_[static_cast<std::size_t>(out_learnt[k].var())].level >
          var_info_[static_cast<std::size_t>(out_learnt[max_i].var())].level) {
        max_i = k;
      }
    }
    std::swap(out_learnt[1], out_learnt[max_i]);
    out_btlevel = var_info_[static_cast<std::size_t>(out_learnt[1].var())].level;
  }
  out_lbd = compute_lbd(out_learnt);

  for (const Lit l : to_clear_) seen_[static_cast<std::size_t>(l.var())] = 0;
  to_clear_.clear();
}

bool Solver::lit_redundant(Lit l, std::uint32_t abstract_levels) {
  analyze_stack_.clear();
  analyze_stack_.push_back(l);
  const std::size_t top = to_clear_.size();
  while (!analyze_stack_.empty()) {
    const Lit cur = analyze_stack_.back();
    analyze_stack_.pop_back();
    const auto v = static_cast<std::size_t>(cur.var());
    assert(var_info_[v].reason != kNoReason);
    const Clause& c = clauses_[static_cast<std::size_t>(var_info_[v].reason)];
    for (std::size_t k = 1; k < c.lits.size(); ++k) {
      const Lit q = c.lits[k];
      const auto qv = static_cast<std::size_t>(q.var());
      if (seen_[qv] || var_info_[qv].level == 0) continue;
      const std::uint32_t abs_lv =
          1u << (static_cast<std::uint32_t>(var_info_[qv].level) & 31u);
      if (var_info_[qv].reason != kNoReason && (abs_lv & abstract_levels) != 0) {
        seen_[qv] = 1;
        analyze_stack_.push_back(q);
        to_clear_.push_back(q);
      } else {
        for (std::size_t j = top; j < to_clear_.size(); ++j) {
          seen_[static_cast<std::size_t>(to_clear_[j].var())] = 0;
        }
        to_clear_.resize(top);
        return false;
      }
    }
  }
  return true;
}

void Solver::analyze_final(Lit p, std::vector<Lit>& out_conflict) {
  out_conflict.clear();
  out_conflict.push_back(p);
  if (decision_level() == 0) return;

  seen_[static_cast<std::size_t>(p.var())] = 1;
  for (std::size_t i = trail_.size(); i-- > static_cast<std::size_t>(trail_lim_[0]);) {
    const auto v = static_cast<std::size_t>(trail_[i].var());
    if (!seen_[v]) continue;
    if (var_info_[v].reason == kNoReason) {
      assert(var_info_[v].level > 0);
      out_conflict.push_back(~trail_[i]);
    } else {
      const Clause& c = clauses_[static_cast<std::size_t>(var_info_[v].reason)];
      for (std::size_t k = 1; k < c.lits.size(); ++k) {
        if (var_info_[static_cast<std::size_t>(c.lits[k].var())].level > 0) {
          seen_[static_cast<std::size_t>(c.lits[k].var())] = 1;
        }
      }
    }
    seen_[v] = 0;
  }
  seen_[static_cast<std::size_t>(p.var())] = 0;
}

void Solver::cancel_until(std::int32_t level) {
  if (decision_level() <= level) return;
  for (std::size_t c = trail_.size(); c-- > static_cast<std::size_t>(trail_lim_[static_cast<std::size_t>(level)]);) {
    const Var v = trail_[c].var();
    assigns_[static_cast<std::size_t>(v)] = LBool::kUndef;
    if (heap_pos_[static_cast<std::size_t>(v)] < 0) heap_insert(v);
  }
  qhead_ = static_cast<std::size_t>(trail_lim_[static_cast<std::size_t>(level)]);
  trail_.resize(qhead_);
  trail_lim_.resize(static_cast<std::size_t>(level));
}

Lit Solver::pick_branch_lit() {
  while (!heap_empty()) {
    const Var v = heap_pop();
    if (assigns_[static_cast<std::size_t>(v)] == LBool::kUndef) {
      return Lit(v, polarity_[static_cast<std::size_t>(v)] == 0);
    }
  }
  return kUndefLit;
}

SolveResult Solver::search(std::int64_t conflicts_allowed) {
  std::int64_t conflict_count = 0;
  std::vector<Lit> learnt;

  for (;;) {
    // Cooperative cancellation poll: one relaxed load per
    // propagate-or-decide iteration, so a raised flag is honored well
    // within one restart period.  Backtracking to level 0 leaves the
    // solver exactly as consistent as a restart would.
    if (stop_requested()) {
      cancel_until(0);
      return SolveResult::kUnknown;
    }
    const ClauseRef confl = propagate();
    if (confl != kNoReason) {
      ++stats_.conflicts;
      ++conflict_count;
      if (decision_level() == 0) {
        ok_ = false;
        return SolveResult::kUnsat;
      }
      std::int32_t btlevel = 0;
      std::int32_t lbd = 0;
      analyze(confl, learnt, btlevel, lbd);
      cancel_until(btlevel);
      if (learnt.size() == 1) {
        enqueue(learnt[0], kNoReason);
      } else {
        const ClauseRef cref = alloc_clause(learnt, /*learnt=*/true);
        clauses_[static_cast<std::size_t>(cref)].lbd = lbd;
        learnt_clauses_.push_back(cref);
        ++stats_.learnt_clauses;
        attach_clause(cref);
        clause_bump_activity(clauses_[static_cast<std::size_t>(cref)]);
        enqueue(learnt[0], cref);
      }
      var_decay_activity();
      clause_decay_activity();
      continue;
    }

    // No conflict.
    if (conflicts_allowed >= 0 && conflict_count >= conflicts_allowed) {
      ++stats_.restarts;
      cancel_until(0);
      return SolveResult::kUnknown;
    }
    if (static_cast<double>(learnt_clauses_.size()) -
            static_cast<double>(trail_.size()) >=
        max_learnts_) {
      reduce_db();
    }

    Lit next = kUndefLit;
    while (decision_level() < static_cast<std::int32_t>(assumptions_.size())) {
      const Lit p = assumptions_[static_cast<std::size_t>(decision_level())];
      if (value(p) == LBool::kTrue) {
        trail_lim_.push_back(static_cast<std::int32_t>(trail_.size()));
      } else if (value(p) == LBool::kFalse) {
        analyze_final(~p, conflict_);
        return SolveResult::kUnsat;
      } else {
        next = p;
        break;
      }
    }

    if (next.is_undef()) {
      ++stats_.decisions;
      next = pick_branch_lit();
      if (next.is_undef()) return SolveResult::kSat;  // all variables assigned
    }
    trail_lim_.push_back(static_cast<std::int32_t>(trail_.size()));
    enqueue(next, kNoReason);
  }
}

SolveResult Solver::solve(std::span<const Lit> assumptions) {
  model_.clear();
  conflict_.clear();
  if (!ok_) return SolveResult::kUnsat;

  assumptions_.assign(assumptions.begin(), assumptions.end());
  max_learnts_ = std::max(static_cast<double>(problem_clauses_.size()) * 0.3, 2000.0);

  const std::uint64_t start_conflicts = stats_.conflicts;
  SolveResult status = SolveResult::kUnknown;
  for (std::uint64_t curr_restarts = 0; status == SolveResult::kUnknown; ++curr_restarts) {
    if (stop_requested()) break;
    if (conflict_budget_ != 0 &&
        stats_.conflicts - start_conflicts >= conflict_budget_) {
      break;
    }
    const double rest_base = luby(config_.restart_base, curr_restarts);
    status = search(static_cast<std::int64_t>(rest_base * config_.restart_scale));
  }

  if (status == SolveResult::kSat) {
    model_.assign(assigns_.begin(), assigns_.end());
  }
  cancel_until(0);
  assumptions_.clear();
  return status;
}

void Solver::reduce_db() {
  // Order learnt clauses worst-first: high LBD, then low activity.
  std::sort(learnt_clauses_.begin(), learnt_clauses_.end(),
            [this](ClauseRef a, ClauseRef b) {
              const auto& ca = clauses_[static_cast<std::size_t>(a)];
              const auto& cb = clauses_[static_cast<std::size_t>(b)];
              if (ca.lbd != cb.lbd) return ca.lbd > cb.lbd;
              return ca.activity < cb.activity;
            });
  auto locked = [this](ClauseRef cref) {
    const auto& c = clauses_[static_cast<std::size_t>(cref)];
    const Lit first = c.lits[0];
    return value(first) == LBool::kTrue &&
           var_info_[static_cast<std::size_t>(first.var())].reason == cref;
  };
  const std::size_t target = learnt_clauses_.size() / 2;
  std::vector<ClauseRef> kept;
  kept.reserve(learnt_clauses_.size() - target);
  std::size_t removed = 0;
  for (std::size_t i = 0; i < learnt_clauses_.size(); ++i) {
    const ClauseRef cref = learnt_clauses_[i];
    const auto& c = clauses_[static_cast<std::size_t>(cref)];
    if (removed < target && c.lits.size() > 2 && c.lbd > 2 && !locked(cref)) {
      remove_clause(cref);
      ++removed;
    } else {
      kept.push_back(cref);
    }
  }
  learnt_clauses_ = std::move(kept);
  max_learnts_ *= learnt_growth_;
}

void Solver::var_bump_activity(Var v) {
  auto& act = activity_[static_cast<std::size_t>(v)];
  act += var_inc_;
  if (act > 1e100) {
    for (auto& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
  }
  if (heap_pos_[static_cast<std::size_t>(v)] >= 0) heap_update(v);
}

void Solver::var_decay_activity() { var_inc_ /= config_.var_decay; }

void Solver::clause_bump_activity(Clause& c) {
  c.activity += clause_inc_;
  if (c.activity > 1e20) {
    for (auto& cl : clauses_) cl.activity *= 1e-20;
    clause_inc_ *= 1e-20;
  }
}

void Solver::clause_decay_activity() { clause_inc_ /= config_.clause_decay; }

void Solver::heap_insert(Var v) {
  heap_pos_[static_cast<std::size_t>(v)] = static_cast<std::int32_t>(heap_.size());
  heap_.push_back(v);
  heap_sift_up(heap_.size() - 1);
}

void Solver::heap_update(Var v) {
  const auto pos = static_cast<std::size_t>(heap_pos_[static_cast<std::size_t>(v)]);
  heap_sift_up(pos);
  heap_sift_down(static_cast<std::size_t>(heap_pos_[static_cast<std::size_t>(v)]));
}

Var Solver::heap_pop() {
  const Var top = heap_[0];
  heap_pos_[static_cast<std::size_t>(top)] = -1;
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_pos_[static_cast<std::size_t>(heap_[0])] = 0;
    heap_sift_down(0);
  }
  return top;
}

void Solver::heap_sift_up(std::size_t i) {
  const Var v = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!heap_less(v, heap_[parent])) break;
    heap_[i] = heap_[parent];
    heap_pos_[static_cast<std::size_t>(heap_[i])] = static_cast<std::int32_t>(i);
    i = parent;
  }
  heap_[i] = v;
  heap_pos_[static_cast<std::size_t>(v)] = static_cast<std::int32_t>(i);
}

void Solver::heap_sift_down(std::size_t i) {
  const Var v = heap_[i];
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= heap_.size()) break;
    if (child + 1 < heap_.size() && heap_less(heap_[child + 1], heap_[child])) ++child;
    if (!heap_less(heap_[child], v)) break;
    heap_[i] = heap_[child];
    heap_pos_[static_cast<std::size_t>(heap_[i])] = static_cast<std::int32_t>(i);
    i = child;
  }
  heap_[i] = v;
  heap_pos_[static_cast<std::size_t>(v)] = static_cast<std::int32_t>(i);
}

double Solver::luby(double y, std::uint64_t i) {
  // Find the finite subsequence that contains index i, and the size of
  // that subsequence.
  std::uint64_t size = 1;
  std::uint64_t seq = 0;
  while (size < i + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != i) {
    size = (size - 1) >> 1;
    --seq;
    i = i % size;
  }
  return std::pow(y, static_cast<double>(seq));
}

}  // namespace ct::sat
