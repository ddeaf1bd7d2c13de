// SolverReuse: a solver or session reloaded in place must be
// indistinguishable from a newly built one.  Solver::reset keeps every
// buffer's capacity (clause arena, watch lists, heap, scratch vectors),
// so state an earlier CNF left behind is the bug these suites hunt.
// Each replays one random stream of CNFs through one reused object and
// through a fresh object per CNF, and compares every observable after
// every step: results, models, conflict_assumptions() and stats().
//
// The stream mixes variable counts that go up and down, CNFs that are
// UNSAT at level 0, CNFs hard enough to run reduce_db, assumption
// solves, and guarded blocking clauses (the session's enumeration
// pattern).  Coverage checks at the end of each suite fail if the
// generator stops producing one of them.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "../support/fuzz_seed.h"
#include "sat/backend.h"
#include "sat/session.h"
#include "sat/solver.h"
#include "util/rng.h"

namespace ct::sat {
namespace {

enum class Shape { kRandom, kLevelZeroUnsat, kHard, kTomo };

struct Query {
  enum class Op { kSolve, kBlock, kAddClause };
  Op op = Op::kSolve;
  std::vector<Lit> lits;  // assumptions (kSolve) or the clause (kAddClause)
};

struct Case {
  Cnf cnf;
  std::vector<Query> queries;
};

/// Duplicate literals and tautologies are allowed on purpose:
/// add_clause's scratch buffer must handle both.
std::vector<Lit> random_clause(util::Rng& rng, std::int32_t num_vars, std::size_t width) {
  std::vector<Lit> clause;
  for (std::size_t k = 0; k < width; ++k) {
    clause.emplace_back(static_cast<Var>(rng.index(static_cast<std::size_t>(num_vars))),
                        rng.bernoulli(0.5));
  }
  return clause;
}

/// Random 3-SAT without repeated variables in a clause.
void add_3sat(util::Rng& rng, Cnf& cnf, std::int32_t num_clauses) {
  for (std::int32_t c = 0; c < num_clauses; ++c) {
    std::vector<Lit> clause;
    while (clause.size() < 3) {
      const auto v = static_cast<Var>(rng.index(static_cast<std::size_t>(cnf.num_vars)));
      bool dup = false;
      for (const Lit l : clause) dup = dup || l.var() == v;
      if (!dup) clause.emplace_back(v, rng.bernoulli(0.5));
    }
    cnf.add_clause(std::move(clause));
  }
}

Case make_case(util::Rng& rng, Shape shape) {
  Case c;
  Cnf& cnf = c.cnf;
  switch (shape) {
    case Shape::kRandom: {
      cnf.num_vars = static_cast<std::int32_t>(rng.uniform_int(1, 80));
      const auto clauses = cnf.num_vars * rng.uniform_int(1, 4);
      for (std::int64_t k = 0; k < clauses; ++k) {
        cnf.add_clause(random_clause(rng, cnf.num_vars, rng.index(4) + 1));
      }
      break;
    }
    case Shape::kLevelZeroUnsat: {
      // Random clauses around a unit chain x_a, (~x_a v x_b), ~x_b that
      // propagates to a conflict while the CNF loads.
      cnf.num_vars = static_cast<std::int32_t>(rng.uniform_int(2, 40));
      const auto a = static_cast<Var>(rng.index(static_cast<std::size_t>(cnf.num_vars)));
      const auto b = static_cast<Var>((a + 1) % cnf.num_vars);
      for (int k = 0; k < 10; ++k) cnf.add_clause(random_clause(rng, cnf.num_vars, 3));
      cnf.add_clause({Lit(a, false)});
      for (int k = 0; k < 5; ++k) cnf.add_clause(random_clause(rng, cnf.num_vars, 2));
      cnf.add_clause({Lit(a, true), Lit(b, false)});
      cnf.add_clause({Lit(b, true)});
      for (int k = 0; k < 5; ++k) cnf.add_clause(random_clause(rng, cnf.num_vars, 3));
      break;
    }
    case Shape::kHard:
      // Random 3-SAT at the threshold: most instances take thousands
      // of conflicts, enough learnt clauses to trip reduce_db.
      cnf.num_vars = 175;
      add_3sat(rng, cnf, 745);
      break;
    case Shape::kTomo: {
      // Tomography-shaped: negative units on about half the variables
      // plus positive "some AS on this path censors" clauses.
      cnf.num_vars = static_cast<std::int32_t>(rng.uniform_int(3, 60));
      for (Var v = 0; v < cnf.num_vars; ++v) {
        if (rng.bernoulli(0.5)) cnf.add_clause({Lit(v, true)});
      }
      const auto positives = rng.uniform_int(1, cnf.num_vars);
      for (std::int64_t k = 0; k < positives; ++k) {
        std::vector<Lit> clause = random_clause(rng, cnf.num_vars, rng.index(5) + 1);
        for (Lit& l : clause) l = Lit(l.var(), false);
        cnf.add_clause(std::move(clause));
      }
      break;
    }
  }
  // A plain solve first, then a random mix.
  c.queries.emplace_back();
  const auto num_queries = rng.uniform_int(1, 7);
  for (std::int64_t q = 0; q < num_queries; ++q) {
    Query query;
    switch (rng.index(3)) {
      case 0:
        query.op = Query::Op::kSolve;
        query.lits = random_clause(rng, cnf.num_vars, rng.index(7));
        break;
      case 1:
        query.op = Query::Op::kBlock;
        break;
      default:
        query.op = Query::Op::kAddClause;
        query.lits = random_clause(rng, cnf.num_vars, rng.index(3) + 1);
        break;
    }
    c.queries.push_back(std::move(query));
  }
  return c;
}

/// The stream: every shape, in random order, with variable counts that
/// rise and fall from one CNF to the next.
std::vector<Case> make_stream(std::uint64_t seed, int length, int hard) {
  constexpr Shape kEasy[] = {Shape::kRandom, Shape::kRandom, Shape::kTomo, Shape::kTomo,
                             Shape::kLevelZeroUnsat};
  util::Rng rng(seed);
  std::vector<Shape> shapes(static_cast<std::size_t>(hard), Shape::kHard);
  for (int k = hard; k < length; ++k) shapes.push_back(kEasy[rng.index(std::size(kEasy))]);
  rng.shuffle(shapes);
  std::vector<Case> stream;
  for (const Shape shape : shapes) stream.push_back(make_case(rng, shape));
  return stream;
}

/// What the generator exercised, so a suite cannot pass vacuously.
struct Coverage {
  int level_zero_unsat = 0;
  int reduce_db = 0;
  int assumption_conflicts = 0;
  int blocking_clauses = 0;
  int vars_up = 0;
  int vars_down = 0;
};

void append_stats(std::vector<std::int64_t>& trace, const SolverStats& s) {
  for (const std::uint64_t x : {s.decisions, s.propagations, s.conflicts, s.restarts,
                                s.learnt_clauses, s.removed_clauses}) {
    trace.push_back(static_cast<std::int64_t>(x));
  }
}

/// Runs `c` on a just-reset or just-built solver and flattens every
/// observable into one trace.
std::vector<std::int64_t> drive(Solver& solver, const Case& c, Coverage* coverage) {
  std::vector<std::int64_t> trace;
  const auto record_solve = [&](SolveResult r, std::int32_t num_vars) {
    trace.push_back(static_cast<std::int64_t>(r));
    if (r == SolveResult::kSat) {
      for (Var v = 0; v < num_vars; ++v) {
        trace.push_back(static_cast<std::int64_t>(solver.model_value(v)));
      }
    }
    trace.push_back(-1);  // separator
    for (const Lit l : solver.conflict_assumptions()) trace.push_back(l.code());
    append_stats(trace, solver.stats());
  };

  const bool ok = solver.add_cnf(c.cnf);
  trace.push_back(ok);
  trace.push_back(solver.is_inconsistent());
  trace.push_back(solver.num_vars());
  if (!ok && coverage != nullptr) ++coverage->level_zero_unsat;
  append_stats(trace, solver.stats());

  std::int32_t num_vars = c.cnf.num_vars;
  Var guard = kUndefVar;
  for (const Query& q : c.queries) {
    switch (q.op) {
      case Query::Op::kSolve: {
        const SolveResult r = solver.solve(q.lits);
        record_solve(r, num_vars);
        if (coverage != nullptr && r == SolveResult::kUnsat &&
            !solver.conflict_assumptions().empty()) {
          ++coverage->assumption_conflicts;
        }
        break;
      }
      case Query::Op::kBlock: {
        // SolverSession's enumeration step: solve under the guard, then
        // block the model with (~guard v ~model).
        if (guard == kUndefVar) {
          guard = solver.new_var();
          num_vars = guard + 1;
          trace.push_back(guard);
        }
        const std::vector<Lit> assume{Lit(guard, false)};
        const SolveResult r = solver.solve(assume);
        record_solve(r, num_vars);
        if (r == SolveResult::kSat) {
          std::vector<Lit> block{Lit(guard, true)};
          for (Var v = 0; v < c.cnf.num_vars; ++v) {
            block.emplace_back(v, solver.model_value(v) == LBool::kTrue);
          }
          trace.push_back(solver.add_clause(block));
          if (coverage != nullptr) ++coverage->blocking_clauses;
        }
        break;
      }
      case Query::Op::kAddClause:
        trace.push_back(solver.add_clause(q.lits));
        append_stats(trace, solver.stats());
        break;
    }
  }
  return trace;
}

void count_var_moves(const std::vector<Case>& stream, Coverage& coverage) {
  for (std::size_t i = 1; i < stream.size(); ++i) {
    const std::int32_t before = stream[i - 1].cnf.num_vars;
    const std::int32_t after = stream[i].cnf.num_vars;
    coverage.vars_up += after > before ? 1 : 0;
    coverage.vars_down += after < before ? 1 : 0;
  }
}

void expect_covered(const Coverage& coverage) {
  EXPECT_GT(coverage.level_zero_unsat, 0) << "no CNF was UNSAT at level 0";
  EXPECT_GT(coverage.reduce_db, 0) << "no CNF ran reduce_db";
  EXPECT_GT(coverage.assumption_conflicts, 0) << "no assumption solve failed";
  EXPECT_GT(coverage.blocking_clauses, 0) << "no blocking clause was added";
  EXPECT_GT(coverage.vars_up, 0);
  EXPECT_GT(coverage.vars_down, 0);
}

TEST(SolverReuse, ResetSolverMatchesAFreshSolver) {
  const std::uint64_t seed = ct::test::fuzz_seed(20261019);
  SCOPED_TRACE(ct::test::fuzz_trace(seed));
  const std::vector<Case> stream = make_stream(seed, 60, 4);
  Coverage coverage;
  count_var_moves(stream, coverage);

  Solver reused;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    SCOPED_TRACE("CNF " + std::to_string(i) + " of the stream");
    reused.reset();
    Solver fresh;
    const std::vector<std::int64_t> want = drive(fresh, stream[i], &coverage);
    EXPECT_EQ(drive(reused, stream[i], nullptr), want);
    coverage.reduce_db += fresh.stats().removed_clauses > 0 ? 1 : 0;
  }
  expect_covered(coverage);
}

TEST(SolverReuse, SessionArenaMatchesFreshSessions) {
  // The session's own buffers (model cache, blocking clause, harvest),
  // its solver and its presolver, reused across loads on every route
  // these shapes take: unit propagation decided or escalated, and CDCL
  // picked outright (random CNFs wider than 16 variables).
  const std::uint64_t seed = ct::test::fuzz_seed(20261022);
  SCOPED_TRACE(ct::test::fuzz_trace(seed));
  util::Rng rng(seed);
  std::vector<Case> stream;
  for (int k = 0; k < 80; ++k) {
    const Shape shape = k % 5 == 0 ? Shape::kLevelZeroUnsat : k % 2 == 0 ? Shape::kTomo
                                                                         : Shape::kRandom;
    stream.push_back(make_case(rng, shape));
  }

  SolverSession reused;
  int enumerated = 0;
  int presolved = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    SCOPED_TRACE("CNF " + std::to_string(i) + " of the stream");
    const Cnf& cnf = stream[i].cnf;
    SolverSession fresh(cnf);
    const SessionStats before = reused.stats();
    reused.load(cnf);
    EXPECT_EQ(reused.presolved(), fresh.presolved());

    const SolutionClassification want_class = fresh.classify();
    const SolutionClassification got_class = reused.classify();
    EXPECT_EQ(got_class.solution_class, want_class.solution_class);
    EXPECT_EQ(got_class.unique_model, want_class.unique_model);
    EXPECT_EQ(reused.count_models_capped(6), fresh.count_models_capped(6));
    const PotentialTrueResult want_split = fresh.potential_true_vars();
    const PotentialTrueResult got_split = reused.potential_true_vars();
    EXPECT_EQ(got_split.satisfiable, want_split.satisfiable);
    EXPECT_EQ(got_split.potential_true, want_split.potential_true);
    EXPECT_EQ(got_split.always_false, want_split.always_false);

    EXPECT_EQ(reused.stats().solve_calls - before.solve_calls, fresh.stats().solve_calls);
    EXPECT_EQ(reused.stats().models_found - before.models_found, fresh.stats().models_found);
    enumerated += !fresh.presolved() && fresh.stats().models_found > 1 ? 1 : 0;
    presolved += fresh.presolved() ? 1 : 0;
  }
  EXPECT_EQ(reused.stats().cnf_loads, stream.size());
  EXPECT_GT(enumerated, 0) << "no CNF enumerated models through blocking clauses";
  EXPECT_GT(presolved, 0) << "no CNF was decided by unit propagation";
  const auto& routes = reused.stats().backends;
  EXPECT_GT(routes[static_cast<std::size_t>(BackendKind::kUnitProp)].escalated, 0u)
      << "no CNF escalated from unit propagation";
  EXPECT_GT(routes[static_cast<std::size_t>(BackendKind::kCdcl)].selected, 0u)
      << "no CNF was routed straight to CDCL";
}

}  // namespace
}  // namespace ct::sat
