// SolverSession equivalence tests: every session query must agree with
// a brute-force truth-table oracle on randomized CNFs, no matter how
// queries interleave on one incremental solver — the property that makes
// the tomography engine's one-load-per-verdict design sound.
#include "sat/session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace ct::sat {
namespace {

Lit pos(Var v) { return Lit(v, false); }
Lit neg(Var v) { return Lit(v, true); }

bool clause_satisfied(const std::vector<Lit>& clause, std::uint32_t assignment) {
  for (const Lit l : clause) {
    const bool value = (assignment >> l.var()) & 1u;
    if (value != l.negated()) return true;
  }
  return false;
}

/// Ground truth computed by exhausting all 2^num_vars assignments.
struct Oracle {
  std::vector<std::uint32_t> models;  // satisfying assignments, ascending
  std::vector<Var> potential_true;
  std::vector<Var> always_false;

  explicit Oracle(const Cnf& cnf) {
    std::uint32_t ever_true = 0;
    for (std::uint32_t a = 0; a < (1u << cnf.num_vars); ++a) {
      bool sat = true;
      for (const auto& clause : cnf.clauses) {
        if (!clause_satisfied(clause, a)) {
          sat = false;
          break;
        }
      }
      if (sat) {
        models.push_back(a);
        ever_true |= a;
      }
    }
    if (!models.empty()) {
      for (Var v = 0; v < cnf.num_vars; ++v) {
        if ((ever_true >> v) & 1u) {
          potential_true.push_back(v);
        } else {
          always_false.push_back(v);
        }
      }
    }
  }
};

/// Converts a model (one literal per variable) to a bitmask.
std::uint32_t model_bits(const std::vector<Lit>& model) {
  std::uint32_t bits = 0;
  for (const Lit l : model) {
    if (!l.negated()) bits |= 1u << l.var();
  }
  return bits;
}

/// Random tomography-shaped CNF: positive disjunctions of "censor"
/// variables plus negative units, the shape build_cnfs emits.
Cnf random_cnf(util::Rng& rng, std::int32_t num_vars) {
  Cnf cnf;
  cnf.num_vars = num_vars;
  const std::int64_t positives = rng.uniform_int(1, 4);
  for (std::int64_t i = 0; i < positives; ++i) {
    std::vector<Lit> clause;
    const std::int64_t width = rng.uniform_int(1, 4);
    for (std::int64_t k = 0; k < width; ++k) {
      clause.push_back(pos(static_cast<Var>(rng.index(static_cast<std::size_t>(num_vars)))));
    }
    cnf.add_clause(std::move(clause));
  }
  const std::int64_t negatives = rng.uniform_int(0, num_vars);
  for (std::int64_t i = 0; i < negatives; ++i) {
    cnf.add_clause({neg(static_cast<Var>(rng.index(static_cast<std::size_t>(num_vars))))});
  }
  // A few fully random clauses to leave the tomo shape occasionally.
  const std::int64_t mixed = rng.uniform_int(0, 2);
  for (std::int64_t i = 0; i < mixed; ++i) {
    std::vector<Lit> clause;
    const std::int64_t width = rng.uniform_int(1, 3);
    for (std::int64_t k = 0; k < width; ++k) {
      clause.emplace_back(static_cast<Var>(rng.index(static_cast<std::size_t>(num_vars))),
                          rng.bernoulli(0.5));
    }
    cnf.add_clause(std::move(clause));
  }
  return cnf;
}

void expect_session_matches_oracle(SolverSession& session, const Oracle& oracle) {
  const auto count = static_cast<std::uint64_t>(oracle.models.size());

  const SolutionClassification cls = session.classify();
  EXPECT_EQ(cls.solution_class, static_cast<int>(std::min<std::uint64_t>(count, 2)));
  if (count == 1) {
    ASSERT_TRUE(cls.unique_model.has_value());
    EXPECT_EQ(model_bits(*cls.unique_model), oracle.models.front());
  }

  // Counting extends the classification's enumeration in place.
  EXPECT_EQ(session.count_models_capped(3), std::min<std::uint64_t>(count, 3));
  EXPECT_EQ(session.count_models_capped(0), count);  // 0 = no cap

  const PotentialTrueResult split = session.potential_true_vars();
  EXPECT_EQ(split.satisfiable, count > 0);
  EXPECT_EQ(split.potential_true, oracle.potential_true);
  EXPECT_EQ(split.always_false, oracle.always_false);
}

TEST(SolverSession, MatchesBruteForceOnRandomCnfs) {
  util::Rng rng(20170711);
  for (int round = 0; round < 200; ++round) {
    const auto num_vars = static_cast<std::int32_t>(rng.uniform_int(2, 10));
    const Cnf cnf = random_cnf(rng, num_vars);
    const Oracle oracle(cnf);

    SolverSession session(cnf);
    expect_session_matches_oracle(session, oracle);
    EXPECT_EQ(session.stats().cnf_loads, 1u)
        << "all queries must share the single CNF load";
  }
}

TEST(SolverSession, QueriesInAnyOrderAgree) {
  // potential_true before, between, and after enumeration (classify,
  // then a full count): the activation guard must keep blocking
  // clauses out of assumption solves.
  util::Rng rng(42);
  for (int round = 0; round < 50; ++round) {
    const auto num_vars = static_cast<std::int32_t>(rng.uniform_int(3, 8));
    const Cnf cnf = random_cnf(rng, num_vars);
    const Oracle oracle(cnf);
    if (oracle.models.empty()) continue;

    SolverSession session(cnf);
    const PotentialTrueResult before = session.potential_true_vars();
    session.classify();
    const PotentialTrueResult between = session.potential_true_vars();
    EXPECT_EQ(session.count_models_capped(0), oracle.models.size());
    const PotentialTrueResult after = session.potential_true_vars();

    EXPECT_EQ(before.potential_true, oracle.potential_true);
    EXPECT_EQ(between.potential_true, oracle.potential_true);
    EXPECT_EQ(after.potential_true, oracle.potential_true);
    EXPECT_EQ(after.always_false, oracle.always_false);
    EXPECT_EQ(session.stats().cnf_loads, 1u);
  }
}

TEST(SolverSession, GrowingTheCapNeverRederivesModels) {
  // (x0 v x1 v x2) has 7 models; counting at increasing caps must add
  // at most one probe model per step beyond the cap.
  Cnf cnf;
  cnf.num_vars = 3;
  cnf.add_clause({pos(0), pos(1), pos(2)});
  SolverSession session(cnf);

  EXPECT_EQ(session.count_models_capped(2), 2u);
  const std::uint64_t after_two = session.stats().models_found;
  EXPECT_EQ(after_two, 2u);
  EXPECT_EQ(session.count_models_capped(5), 5u);
  EXPECT_EQ(session.stats().models_found, 5u);
  EXPECT_EQ(session.count_models_capped(100), 7u);
  EXPECT_EQ(session.stats().models_found, 7u);
  // Re-asking smaller caps costs nothing.
  const std::uint64_t solves = session.stats().solve_calls;
  EXPECT_EQ(session.count_models_capped(3), 3u);
  EXPECT_EQ(session.stats().solve_calls, solves);
}

TEST(SolverSession, ArenaReloadMatchesFreshSession) {
  util::Rng rng(99);
  SolverSession arena;
  for (int round = 0; round < 50; ++round) {
    const auto num_vars = static_cast<std::int32_t>(rng.uniform_int(2, 8));
    const Cnf cnf = random_cnf(rng, num_vars);
    const Oracle oracle(cnf);

    arena.load(cnf);
    expect_session_matches_oracle(arena, oracle);
  }
  EXPECT_EQ(arena.stats().cnf_loads, 50u);
}

TEST(SolverSession, UnsatCnf) {
  Cnf cnf;
  cnf.num_vars = 2;
  cnf.add_clause({pos(0)});
  cnf.add_clause({neg(0)});
  SolverSession session(cnf);
  EXPECT_EQ(session.classify().solution_class, 0);
  EXPECT_EQ(session.count_models_capped(10), 0u);
  EXPECT_FALSE(session.potential_true_vars().satisfiable);
  // Asking again stays UNSAT, on the one load, with no model counted.
  EXPECT_EQ(session.classify().solution_class, 0);
  EXPECT_EQ(session.count_models_capped(0), 0u);
  EXPECT_EQ(session.stats().cnf_loads, 1u);
  EXPECT_EQ(session.stats().models_found, 0u);
}

// Hand-built CNFs with known answers, one session query each.

Cnf disjunction3() {
  // (x0 v x1 v x2): 7 models over 3 vars.
  Cnf cnf;
  cnf.num_vars = 3;
  cnf.add_clause({pos(0), pos(1), pos(2)});
  return cnf;
}

Cnf contradiction() {
  Cnf cnf;
  cnf.num_vars = 1;
  cnf.add_clause({pos(0)});
  cnf.add_clause({neg(0)});
  return cnf;
}

TEST(CountCapped, MatchesEnumeration) {
  SolverSession session(disjunction3());
  EXPECT_EQ(session.count_models_capped(100), 7u);
  SolverSession capped(disjunction3());
  EXPECT_EQ(capped.count_models_capped(4), 4u);
}

TEST(Classify, ZeroSolutions) {
  SolverSession session(contradiction());
  const SolutionClassification c = session.classify();
  EXPECT_EQ(c.solution_class, 0);
  EXPECT_FALSE(c.unique_model.has_value());
}

TEST(Classify, UniqueSolution) {
  // Paper scenario: (X v Y v Z) & ~X & ~Y  ==> unique model Z.
  Cnf cnf = disjunction3();
  cnf.add_clause({neg(0)});
  cnf.add_clause({neg(1)});
  SolverSession session(cnf);
  const SolutionClassification c = session.classify();
  ASSERT_EQ(c.solution_class, 1);
  ASSERT_TRUE(c.unique_model.has_value());
  EXPECT_EQ(*c.unique_model, (std::vector<Lit>{neg(0), neg(1), pos(2)}));
}

TEST(Classify, MultipleSolutions) {
  SolverSession session(disjunction3());
  EXPECT_EQ(session.classify().solution_class, 2);
}

TEST(PotentialTrue, SplitsCensorsFromNonCensors) {
  // (x0 v x1 v x2) & ~x0: x0 can never be true; x1, x2 can.
  Cnf cnf = disjunction3();
  cnf.add_clause({neg(0)});
  SolverSession session(cnf);
  const PotentialTrueResult r = session.potential_true_vars();
  ASSERT_TRUE(r.satisfiable);
  EXPECT_EQ(r.always_false, (std::vector<Var>{0}));
  EXPECT_EQ(r.potential_true, (std::vector<Var>{1, 2}));
}

TEST(PotentialTrue, UnsatGivesNothing) {
  SolverSession session(contradiction());
  const PotentialTrueResult r = session.potential_true_vars();
  EXPECT_FALSE(r.satisfiable);
  EXPECT_TRUE(r.potential_true.empty());
  EXPECT_TRUE(r.always_false.empty());
}

TEST(PotentialTrue, SplitCoversEveryVariable) {
  // (x0 v x1) & ~x2, x3 unconstrained: the split names every CNF
  // variable, the one a unit forces False and the free one included.
  Cnf cnf;
  cnf.num_vars = 4;
  cnf.add_clause({pos(0), pos(1)});
  cnf.add_clause({neg(2)});
  SolverSession session(cnf);
  const PotentialTrueResult r = session.potential_true_vars();
  ASSERT_TRUE(r.satisfiable);
  EXPECT_EQ(r.always_false, (std::vector<Var>{2}));
  EXPECT_EQ(r.potential_true, (std::vector<Var>{0, 1, 3}));
}

TEST(PotentialTrue, AllFreeVarsPotentiallyTrue) {
  Cnf cnf;
  cnf.num_vars = 3;  // no clauses at all
  SolverSession session(cnf);
  const PotentialTrueResult r = session.potential_true_vars();
  ASSERT_TRUE(r.satisfiable);
  EXPECT_EQ(r.potential_true.size(), 3u);
  EXPECT_TRUE(r.always_false.empty());
}

}  // namespace
}  // namespace ct::sat
