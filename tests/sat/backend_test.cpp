// The two SAT routes: the unit-prop presolver on its own, the session's
// route rule, and its per-route accounting (selected / served /
// escalated).
#include "sat/backend.h"

#include <gtest/gtest.h>

#include "sat/session.h"

namespace ct::sat {
namespace {

Lit pos(Var v) { return Lit(v, false); }
Lit neg(Var v) { return Lit(v, true); }

constexpr auto kCdcl = static_cast<std::size_t>(BackendKind::kCdcl);
constexpr auto kUnitProp = static_cast<std::size_t>(BackendKind::kUnitProp);

// (x0 v x1), ~x1  — propagation forces x0, x2 stays free: class 2.
Cnf propagation_decided_free() {
  Cnf cnf;
  cnf.num_vars = 3;
  cnf.add_clause({pos(0), pos(1)});
  cnf.add_clause({neg(1)});
  return cnf;
}

// (x0 v x1), ~x1, ~x2 — every variable forced: the unique model x0=T.
Cnf propagation_decided_unique() {
  Cnf cnf = propagation_decided_free();
  cnf.add_clause({neg(2)});
  return cnf;
}

// x0, ~x0 — propagation conflicts: UNSAT.
Cnf propagation_conflict() {
  Cnf cnf;
  cnf.num_vars = 2;
  cnf.add_clause({pos(0)});
  cnf.add_clause({neg(0)});
  return cnf;
}

// (x0 v x1)(~x0 v ~x1) — no units at all: propagation cannot decide.
Cnf propagation_undecided() {
  Cnf cnf;
  cnf.num_vars = 2;
  cnf.add_clause({pos(0), pos(1)});
  cnf.add_clause({neg(0), neg(1)});
  return cnf;
}

/// A CNF of `num_vars` variables: `units` negative units on even
/// variables, then `wide` positive clauses over neighbouring variables
/// (satisfiable when num_vars is even: every clause has an odd member).
Cnf shaped(std::int32_t num_vars, std::int32_t units, std::int32_t wide) {
  Cnf cnf;
  cnf.num_vars = num_vars;
  for (std::int32_t i = 0; i < units; ++i) cnf.add_clause({neg((2 * i) % num_vars)});
  for (std::int32_t i = 0; i < wide; ++i) {
    cnf.add_clause({pos(i % num_vars), pos((i + 1) % num_vars)});
  }
  return cnf;
}

TEST(UnitPropPresolver, DecidesByPropagation) {
  UnitPropPresolver presolver;

  const Presolve* outcome = presolver.presolve(propagation_decided_free());
  ASSERT_NE(outcome, nullptr);
  EXPECT_EQ(outcome->solution_class, 2);
  EXPECT_EQ(outcome->free_vars, 1);
  EXPECT_EQ(outcome->values[0], LBool::kTrue);
  EXPECT_EQ(outcome->values[1], LBool::kFalse);
  EXPECT_EQ(outcome->values[2], LBool::kUndef);

  outcome = presolver.presolve(propagation_decided_unique());
  ASSERT_NE(outcome, nullptr);
  EXPECT_EQ(outcome->solution_class, 1);
  EXPECT_EQ(outcome->free_vars, 0);

  outcome = presolver.presolve(propagation_conflict());
  ASSERT_NE(outcome, nullptr);
  EXPECT_EQ(outcome->solution_class, 0);

  EXPECT_EQ(presolver.presolve(propagation_undecided()), nullptr) << "must report escalate";
}

TEST(SolverSession, RoutesByShape) {
  // The route rule: unit propagation first when at least half of the
  // clauses are units or the CNF has at most 16 variables; CDCL
  // otherwise.  Read back from the per-route counters.
  const auto routed = [](const Cnf& cnf) {
    SolverSession session(cnf);
    const SessionStats& s = session.stats();
    EXPECT_EQ(s.backends[kCdcl].selected + s.backends[kUnitProp].selected, 1u);
    return s.backends[kUnitProp].selected == 1 ? BackendKind::kUnitProp : BackendKind::kCdcl;
  };

  // Unit-rich (tomography shape): unit propagation, whatever the size.
  EXPECT_EQ(routed(shaped(100, 30, 10)), BackendKind::kUnitProp);
  EXPECT_EQ(routed(shaped(100, 20, 20)), BackendKind::kUnitProp) << "exactly half units";
  // Tiny: the presolve attempt is nearly free.
  EXPECT_EQ(routed(shaped(16, 1, 11)), BackendKind::kUnitProp);
  // Wide with few units: straight to CDCL, sparse or dense.
  EXPECT_EQ(routed(shaped(100, 2, 38)), BackendKind::kCdcl);
  EXPECT_EQ(routed(shaped(40, 2, 198)), BackendKind::kCdcl);
  EXPECT_EQ(routed(shaped(17, 19, 20)), BackendKind::kCdcl) << "just under half units";
  // No clauses at all: no unit fraction, so size alone decides.
  EXPECT_EQ(routed(shaped(17, 0, 0)), BackendKind::kCdcl);
  EXPECT_EQ(routed(shaped(16, 0, 0)), BackendKind::kUnitProp);
}

TEST(SolverSession, CountsBackendSelectionAndEscalation) {
  SolverSession session;

  session.load(propagation_decided_free());
  EXPECT_TRUE(session.presolved());
  EXPECT_EQ(session.classify().solution_class, 2);

  session.load(propagation_undecided());
  EXPECT_FALSE(session.presolved()) << "escalated";
  EXPECT_EQ(session.classify().solution_class, 2);

  session.load(shaped(40, 2, 198));
  EXPECT_FALSE(session.presolved()) << "routed to CDCL";
  EXPECT_EQ(session.classify().solution_class, 2);

  const auto& stats = session.stats();
  EXPECT_EQ(stats.backends[kUnitProp].selected, 2u);
  EXPECT_EQ(stats.backends[kUnitProp].served, 1u);
  EXPECT_EQ(stats.backends[kUnitProp].escalated, 1u);
  EXPECT_EQ(stats.backends[kCdcl].selected, 1u);
  EXPECT_EQ(stats.backends[kCdcl].served, 2u);
  EXPECT_EQ(stats.backends[kCdcl].escalated, 0u);
  EXPECT_EQ(stats.cnf_loads, 3u);
}

TEST(SolverSession, PresolveEnumerationBeyond64FreeVars) {
  // ~x0 over 70 variables: presolve-decided with 69 free vars.  The
  // model count 2^69 must saturate at kCountCap (a shift past bit 61
  // would be UB), and the class and split follow from the free set.
  Cnf cnf;
  cnf.num_vars = 70;
  cnf.add_clause({neg(0)});
  SolverSession session(cnf);
  ASSERT_TRUE(session.presolved());
  EXPECT_EQ(session.count_models_capped(5), 5u);
  EXPECT_EQ(session.count_models_capped(0), kCountCap) << "saturated exact count";
  EXPECT_EQ(session.classify().solution_class, 2);

  const PotentialTrueResult split = session.potential_true_vars();
  ASSERT_TRUE(split.satisfiable);
  EXPECT_EQ(split.always_false, (std::vector<Var>{0}));
  EXPECT_EQ(split.potential_true.size(), 69u);
  EXPECT_EQ(session.stats().solve_calls, 0u) << "a decided presolve never searches";
}

}  // namespace
}  // namespace ct::sat
