#include "sat/solver.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace ct::sat {

void Solver::reset(const SolverConfig& config) {
  // reset() clears exactly the buffers all() names: a vector added to
  // Buffers but not to all() would survive a reset, and fails here.
  static_assert(sizeof(Buffers) ==
                std::tuple_size_v<decltype(std::declval<Buffers&>().all())> *
                    sizeof(std::vector<char>));
  st_ = State{};
  st_.config = config;
  std::apply([](auto&... buffer) { (buffer.clear(), ...); }, buf_.all());
}

Var Solver::new_var() {
  const Var v = static_cast<Var>(buf_.assigns.size());
  buf_.assigns.push_back(LBool::kUndef);
  buf_.var_info.push_back(VarInfo{});
  buf_.polarity.push_back(st_.config.init_polarity ? 1 : 0);
  buf_.activity.push_back(0.0);
  buf_.heap_pos.push_back(-1);
  buf_.seen.push_back(0);
  const auto code = static_cast<std::size_t>(Lit(v, false).code());
  if (watches_.size() > code) {
    // Slots an earlier CNF left behind (see reset()): reuse them.
    watches_[code].clear();
    watches_[code + 1].clear();
  } else {
    watches_.emplace_back();  // positive literal
    watches_.emplace_back();  // negative literal
  }
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
  return st_.ok;
}

bool Solver::add_clause(std::span<const Lit> lits) {
  if (!st_.ok) return false;
  cancel_until(0);

  auto& cl = buf_.add_scratch;
  cl.assign(lits.begin(), lits.end());
  std::sort(cl.begin(), cl.end());
  // Dedupe; detect tautology; drop level-0 false literals; detect
  // level-0 satisfied clauses.  Kept literals are compacted to the
  // front of `cl` (the write index never passes the read index).
  std::size_t kept = 0;
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
    cl[kept++] = l;
    prev = l;
  }

  if (kept == 0) {
    st_.ok = false;
    return false;
  }
  if (kept == 1) {
    if (!enqueue(cl[0], kNoReason)) {
      st_.ok = false;
      return false;
    }
    if (propagate() != kNoReason) {
      st_.ok = false;
      return false;
    }
    return true;
  }
  const ClauseRef cref = alloc_clause(std::span<const Lit>(cl.data(), kept), /*learnt=*/false);
  buf_.problem_clauses.push_back(cref);
  attach_clause(cref);
  return true;
}

Solver::ClauseRef Solver::alloc_clause(std::span<const Lit> lits, bool learnt) {
  Clause c;
  c.begin = static_cast<std::uint32_t>(buf_.lits.size());
  c.size = static_cast<std::uint32_t>(lits.size());
  c.learnt = learnt;
  buf_.lits.insert(buf_.lits.end(), lits.begin(), lits.end());
  buf_.clauses.push_back(c);
  return static_cast<ClauseRef>(buf_.clauses.size()) - 1;
}

void Solver::attach_clause(ClauseRef cref) {
  const auto& c = buf_.clauses[static_cast<std::size_t>(cref)];
  assert(c.size >= 2);
  const Lit* lits = lits_of(c);
  watches_[static_cast<std::size_t>(lits[0].code())].push_back({cref, lits[1]});
  watches_[static_cast<std::size_t>(lits[1].code())].push_back({cref, lits[0]});
}

void Solver::detach_clause(ClauseRef cref) {
  const Lit* lits = lits_of(buf_.clauses[static_cast<std::size_t>(cref)]);
  for (int i = 0; i < 2; ++i) {
    auto& ws = watches_[static_cast<std::size_t>(lits[i].code())];
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
  buf_.clauses[static_cast<std::size_t>(cref)].deleted = true;
  ++st_.stats.removed_clauses;
}

bool Solver::enqueue(Lit l, ClauseRef reason) {
  const auto v = static_cast<std::size_t>(l.var());
  if (buf_.assigns[v] != LBool::kUndef) return value(l) == LBool::kTrue;
  buf_.assigns[v] = lbool_from(!l.negated());
  buf_.var_info[v] = VarInfo{reason, decision_level()};
  buf_.polarity[v] = l.negated() ? 0 : 1;
  buf_.trail.push_back(l);
  return true;
}

Solver::ClauseRef Solver::propagate() {
  ClauseRef confl = kNoReason;
  while (st_.qhead < buf_.trail.size()) {
    const Lit p = buf_.trail[st_.qhead++];  // p became true; check clauses watching ~p
    ++st_.stats.propagations;
    auto& ws = watches_[static_cast<std::size_t>((~p).code())];
    std::size_t i = 0, j = 0;
    const Lit false_lit = ~p;
    while (i < ws.size()) {
      const Watcher w = ws[i];
      if (value(w.blocker) == LBool::kTrue) {
        ws[j++] = ws[i++];
        continue;
      }
      const Clause& c = buf_.clauses[static_cast<std::size_t>(w.cref)];
      Lit* lits = lits_of(c);
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
      for (std::uint32_t k = 2; k < c.size; ++k) {
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
        st_.qhead = buf_.trail.size();
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
  auto& levels = buf_.levels;
  levels.clear();
  for (const Lit l : lits) {
    levels.push_back(buf_.var_info[static_cast<std::size_t>(l.var())].level);
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
  std::size_t index = buf_.trail.size();

  buf_.to_clear.clear();
  ClauseRef confl = conflict;
  do {
    assert(confl != kNoReason);
    Clause& c = buf_.clauses[static_cast<std::size_t>(confl)];
    if (c.learnt) clause_bump_activity(c);

    const Lit* lits = lits_of(c);
    for (std::uint32_t k = p.is_undef() ? 0 : 1; k < c.size; ++k) {
      const Lit q = lits[k];
      const auto qv = static_cast<std::size_t>(q.var());
      if (buf_.seen[qv] || buf_.var_info[qv].level == 0) continue;
      var_bump_activity(q.var());
      buf_.seen[qv] = 1;
      buf_.to_clear.push_back(q);
      if (buf_.var_info[qv].level >= decision_level()) {
        ++path_count;
      } else {
        out_learnt.push_back(q);
      }
    }

    // Select next literal to look at.
    while (!buf_.seen[static_cast<std::size_t>(buf_.trail[index - 1].var())]) --index;
    --index;
    p = buf_.trail[index];
    confl = buf_.var_info[static_cast<std::size_t>(p.var())].reason;
    buf_.seen[static_cast<std::size_t>(p.var())] = 0;
    --path_count;
  } while (path_count > 0);
  out_learnt[0] = ~p;

  // Conflict-clause minimization (recursive, MiniSat ccmin mode 2).
  std::uint32_t abstract_levels = 0;
  for (std::size_t k = 1; k < out_learnt.size(); ++k) {
    const auto lv = buf_.var_info[static_cast<std::size_t>(out_learnt[k].var())].level;
    abstract_levels |= 1u << (static_cast<std::uint32_t>(lv) & 31u);
  }
  std::size_t kept = 1;
  for (std::size_t k = 1; k < out_learnt.size(); ++k) {
    const auto v = static_cast<std::size_t>(out_learnt[k].var());
    if (buf_.var_info[v].reason == kNoReason || !lit_redundant(out_learnt[k], abstract_levels)) {
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
      if (buf_.var_info[static_cast<std::size_t>(out_learnt[k].var())].level >
          buf_.var_info[static_cast<std::size_t>(out_learnt[max_i].var())].level) {
        max_i = k;
      }
    }
    std::swap(out_learnt[1], out_learnt[max_i]);
    out_btlevel = buf_.var_info[static_cast<std::size_t>(out_learnt[1].var())].level;
  }
  out_lbd = compute_lbd(out_learnt);

  for (const Lit l : buf_.to_clear) buf_.seen[static_cast<std::size_t>(l.var())] = 0;
  buf_.to_clear.clear();
}

bool Solver::lit_redundant(Lit l, std::uint32_t abstract_levels) {
  buf_.analyze_stack.clear();
  buf_.analyze_stack.push_back(l);
  const std::size_t top = buf_.to_clear.size();
  while (!buf_.analyze_stack.empty()) {
    const Lit cur = buf_.analyze_stack.back();
    buf_.analyze_stack.pop_back();
    const auto v = static_cast<std::size_t>(cur.var());
    assert(buf_.var_info[v].reason != kNoReason);
    const Clause& c = buf_.clauses[static_cast<std::size_t>(buf_.var_info[v].reason)];
    const Lit* lits = lits_of(c);
    for (std::uint32_t k = 1; k < c.size; ++k) {
      const Lit q = lits[k];
      const auto qv = static_cast<std::size_t>(q.var());
      if (buf_.seen[qv] || buf_.var_info[qv].level == 0) continue;
      const std::uint32_t abs_lv =
          1u << (static_cast<std::uint32_t>(buf_.var_info[qv].level) & 31u);
      if (buf_.var_info[qv].reason != kNoReason && (abs_lv & abstract_levels) != 0) {
        buf_.seen[qv] = 1;
        buf_.analyze_stack.push_back(q);
        buf_.to_clear.push_back(q);
      } else {
        for (std::size_t j = top; j < buf_.to_clear.size(); ++j) {
          buf_.seen[static_cast<std::size_t>(buf_.to_clear[j].var())] = 0;
        }
        buf_.to_clear.resize(top);
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

  buf_.seen[static_cast<std::size_t>(p.var())] = 1;
  for (std::size_t i = buf_.trail.size(); i-- > static_cast<std::size_t>(buf_.trail_lim[0]);) {
    const auto v = static_cast<std::size_t>(buf_.trail[i].var());
    if (!buf_.seen[v]) continue;
    if (buf_.var_info[v].reason == kNoReason) {
      assert(buf_.var_info[v].level > 0);
      out_conflict.push_back(~buf_.trail[i]);
    } else {
      const Clause& c = buf_.clauses[static_cast<std::size_t>(buf_.var_info[v].reason)];
      const Lit* lits = lits_of(c);
      for (std::uint32_t k = 1; k < c.size; ++k) {
        if (buf_.var_info[static_cast<std::size_t>(lits[k].var())].level > 0) {
          buf_.seen[static_cast<std::size_t>(lits[k].var())] = 1;
        }
      }
    }
    buf_.seen[v] = 0;
  }
  buf_.seen[static_cast<std::size_t>(p.var())] = 0;
}

void Solver::cancel_until(std::int32_t level) {
  if (decision_level() <= level) return;
  for (std::size_t c = buf_.trail.size(); c-- > static_cast<std::size_t>(buf_.trail_lim[static_cast<std::size_t>(level)]);) {
    const Var v = buf_.trail[c].var();
    buf_.assigns[static_cast<std::size_t>(v)] = LBool::kUndef;
    if (buf_.heap_pos[static_cast<std::size_t>(v)] < 0) heap_insert(v);
  }
  st_.qhead = static_cast<std::size_t>(buf_.trail_lim[static_cast<std::size_t>(level)]);
  buf_.trail.resize(st_.qhead);
  buf_.trail_lim.resize(static_cast<std::size_t>(level));
}

Lit Solver::pick_branch_lit() {
  while (!heap_empty()) {
    const Var v = heap_pop();
    if (buf_.assigns[static_cast<std::size_t>(v)] == LBool::kUndef) {
      return Lit(v, buf_.polarity[static_cast<std::size_t>(v)] == 0);
    }
  }
  return kUndefLit;
}

SolveResult Solver::search(std::int64_t conflicts_allowed) {
  std::int64_t conflict_count = 0;
  auto& learnt = buf_.learnt;

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
      ++st_.stats.conflicts;
      ++conflict_count;
      if (decision_level() == 0) {
        st_.ok = false;
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
        buf_.clauses[static_cast<std::size_t>(cref)].lbd = lbd;
        buf_.learnt_clauses.push_back(cref);
        ++st_.stats.learnt_clauses;
        attach_clause(cref);
        clause_bump_activity(buf_.clauses[static_cast<std::size_t>(cref)]);
        enqueue(learnt[0], cref);
      }
      var_decay_activity();
      clause_decay_activity();
      continue;
    }

    // No conflict.
    if (conflicts_allowed >= 0 && conflict_count >= conflicts_allowed) {
      ++st_.stats.restarts;
      cancel_until(0);
      return SolveResult::kUnknown;
    }
    if (static_cast<double>(buf_.learnt_clauses.size()) -
            static_cast<double>(buf_.trail.size()) >=
        st_.max_learnts) {
      reduce_db();
    }

    Lit next = kUndefLit;
    while (decision_level() < static_cast<std::int32_t>(buf_.assumptions.size())) {
      const Lit p = buf_.assumptions[static_cast<std::size_t>(decision_level())];
      if (value(p) == LBool::kTrue) {
        buf_.trail_lim.push_back(static_cast<std::int32_t>(buf_.trail.size()));
      } else if (value(p) == LBool::kFalse) {
        analyze_final(~p, buf_.conflict);
        return SolveResult::kUnsat;
      } else {
        next = p;
        break;
      }
    }

    if (next.is_undef()) {
      ++st_.stats.decisions;
      next = pick_branch_lit();
      if (next.is_undef()) return SolveResult::kSat;  // all variables assigned
    }
    buf_.trail_lim.push_back(static_cast<std::int32_t>(buf_.trail.size()));
    enqueue(next, kNoReason);
  }
}

SolveResult Solver::solve(std::span<const Lit> assumptions) {
  buf_.model.clear();
  buf_.conflict.clear();
  if (!st_.ok) return SolveResult::kUnsat;

  buf_.assumptions.assign(assumptions.begin(), assumptions.end());
  st_.max_learnts = std::max(static_cast<double>(buf_.problem_clauses.size()) * 0.3, 2000.0);

  const std::uint64_t start_conflicts = st_.stats.conflicts;
  SolveResult status = SolveResult::kUnknown;
  for (std::uint64_t curr_restarts = 0; status == SolveResult::kUnknown; ++curr_restarts) {
    if (stop_requested()) break;
    if (st_.conflict_budget != 0 &&
        st_.stats.conflicts - start_conflicts >= st_.conflict_budget) {
      break;
    }
    const double rest_base = luby(st_.config.restart_base, curr_restarts);
    status = search(static_cast<std::int64_t>(rest_base * st_.config.restart_scale));
  }

  if (status == SolveResult::kSat) {
    buf_.model.assign(buf_.assigns.begin(), buf_.assigns.end());
  }
  cancel_until(0);
  buf_.assumptions.clear();
  return status;
}

void Solver::reduce_db() {
  // Order learnt clauses worst-first: high LBD, then low activity.
  std::sort(buf_.learnt_clauses.begin(), buf_.learnt_clauses.end(),
            [this](ClauseRef a, ClauseRef b) {
              const auto& ca = buf_.clauses[static_cast<std::size_t>(a)];
              const auto& cb = buf_.clauses[static_cast<std::size_t>(b)];
              if (ca.lbd != cb.lbd) return ca.lbd > cb.lbd;
              return ca.activity < cb.activity;
            });
  auto locked = [this](ClauseRef cref) {
    const auto& c = buf_.clauses[static_cast<std::size_t>(cref)];
    const Lit first = lits_of(c)[0];
    return value(first) == LBool::kTrue &&
           buf_.var_info[static_cast<std::size_t>(first.var())].reason == cref;
  };
  auto& learnts = buf_.learnt_clauses;
  const std::size_t target = learnts.size() / 2;
  std::size_t removed = 0;
  std::size_t kept = 0;  // survivors compact to the front, in order
  for (std::size_t i = 0; i < learnts.size(); ++i) {
    const ClauseRef cref = learnts[i];
    const auto& c = buf_.clauses[static_cast<std::size_t>(cref)];
    if (removed < target && c.size > 2 && c.lbd > 2 && !locked(cref)) {
      remove_clause(cref);
      ++removed;
    } else {
      learnts[kept++] = cref;
    }
  }
  learnts.resize(kept);
  st_.max_learnts *= kLearntGrowth;
}

void Solver::var_bump_activity(Var v) {
  auto& act = buf_.activity[static_cast<std::size_t>(v)];
  act += st_.var_inc;
  if (act > 1e100) {
    for (auto& a : buf_.activity) a *= 1e-100;
    st_.var_inc *= 1e-100;
  }
  if (buf_.heap_pos[static_cast<std::size_t>(v)] >= 0) heap_update(v);
}

void Solver::var_decay_activity() { st_.var_inc /= st_.config.var_decay; }

void Solver::clause_bump_activity(Clause& c) {
  c.activity += st_.clause_inc;
  if (c.activity > 1e20) {
    for (auto& cl : buf_.clauses) cl.activity *= 1e-20;
    st_.clause_inc *= 1e-20;
  }
}

void Solver::clause_decay_activity() { st_.clause_inc /= st_.config.clause_decay; }

void Solver::heap_insert(Var v) {
  buf_.heap_pos[static_cast<std::size_t>(v)] = static_cast<std::int32_t>(buf_.heap.size());
  buf_.heap.push_back(v);
  heap_sift_up(buf_.heap.size() - 1);
}

void Solver::heap_update(Var v) {
  const auto pos = static_cast<std::size_t>(buf_.heap_pos[static_cast<std::size_t>(v)]);
  heap_sift_up(pos);
  heap_sift_down(static_cast<std::size_t>(buf_.heap_pos[static_cast<std::size_t>(v)]));
}

Var Solver::heap_pop() {
  const Var top = buf_.heap[0];
  buf_.heap_pos[static_cast<std::size_t>(top)] = -1;
  buf_.heap[0] = buf_.heap.back();
  buf_.heap.pop_back();
  if (!buf_.heap.empty()) {
    buf_.heap_pos[static_cast<std::size_t>(buf_.heap[0])] = 0;
    heap_sift_down(0);
  }
  return top;
}

void Solver::heap_sift_up(std::size_t i) {
  const Var v = buf_.heap[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!heap_less(v, buf_.heap[parent])) break;
    buf_.heap[i] = buf_.heap[parent];
    buf_.heap_pos[static_cast<std::size_t>(buf_.heap[i])] = static_cast<std::int32_t>(i);
    i = parent;
  }
  buf_.heap[i] = v;
  buf_.heap_pos[static_cast<std::size_t>(v)] = static_cast<std::int32_t>(i);
}

void Solver::heap_sift_down(std::size_t i) {
  const Var v = buf_.heap[i];
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= buf_.heap.size()) break;
    if (child + 1 < buf_.heap.size() && heap_less(buf_.heap[child + 1], buf_.heap[child])) ++child;
    if (!heap_less(buf_.heap[child], v)) break;
    buf_.heap[i] = buf_.heap[child];
    buf_.heap_pos[static_cast<std::size_t>(buf_.heap[i])] = static_cast<std::int32_t>(i);
    i = child;
  }
  buf_.heap[i] = v;
  buf_.heap_pos[static_cast<std::size_t>(v)] = static_cast<std::int32_t>(i);
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
