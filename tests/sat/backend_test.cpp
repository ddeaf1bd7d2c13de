// SolverBackend contract tests: the unit-prop presolve fast path, the
// selection policy, and the session's per-backend accounting (selected /
// served / escalated).
#include "sat/backend.h"

#include <gtest/gtest.h>

#include "sat/session.h"

namespace ct::sat {
namespace {

Lit pos(Var v) { return Lit(v, false); }
Lit neg(Var v) { return Lit(v, true); }

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

TEST(UnitPropBackend, DecidesByPropagation) {
  UnitPropBackend backend;

  backend.load(propagation_decided_free());
  auto outcome = backend.presolve();
  ASSERT_NE(outcome, nullptr);
  EXPECT_EQ(outcome->solution_class, 2);
  EXPECT_EQ(outcome->free_vars, 1);
  EXPECT_EQ(outcome->values[0], LBool::kTrue);
  EXPECT_EQ(outcome->values[1], LBool::kFalse);
  EXPECT_EQ(outcome->values[2], LBool::kUndef);

  backend.load(propagation_decided_unique());
  outcome = backend.presolve();
  ASSERT_NE(outcome, nullptr);
  EXPECT_EQ(outcome->solution_class, 1);
  EXPECT_EQ(outcome->free_vars, 0);

  backend.load(propagation_conflict());
  outcome = backend.presolve();
  ASSERT_NE(outcome, nullptr);
  EXPECT_EQ(outcome->solution_class, 0);

  backend.load(propagation_undecided());
  EXPECT_EQ(backend.presolve(), nullptr) << "must report escalate";
}

TEST(UnitPropBackend, SearchOpsThrow) {
  UnitPropBackend backend;
  backend.load(propagation_undecided());
  EXPECT_FALSE(backend.supports_search());
  EXPECT_THROW(backend.solve({}), std::logic_error);
  EXPECT_THROW(backend.new_var(), std::logic_error);
  EXPECT_THROW(backend.add_clause({}), std::logic_error);
}

TEST(BackendSelector, ForcedModesPinTheBackend) {
  const FormulaShape shape = shape_of(propagation_decided_free());

  BackendSelector selector;
  selector.mode = BackendSelector::Mode::kCdcl;
  EXPECT_EQ(selector.pick(shape), BackendKind::kCdcl);
  selector.mode = BackendSelector::Mode::kUnitProp;
  EXPECT_EQ(selector.pick(shape), BackendKind::kUnitProp);
}

TEST(BackendSelector, AutoPicksByShapeAndWorkload) {
  BackendSelector selector;  // auto

  // Unit-rich (tomography shape): unit-prop first, whatever the size.
  FormulaShape unit_rich;
  unit_rich.num_vars = 100;
  unit_rich.num_clauses = 40;
  unit_rich.num_units = 30;
  EXPECT_EQ(selector.pick(unit_rich), BackendKind::kUnitProp);

  // Large and few units: plain CDCL, sparse or dense.
  FormulaShape wide;
  wide.num_vars = 100;
  wide.num_clauses = 40;
  wide.num_units = 2;
  EXPECT_EQ(selector.pick(wide), BackendKind::kCdcl);
  FormulaShape dense;
  dense.num_vars = 40;
  dense.num_clauses = 200;
  dense.num_units = 2;
  EXPECT_EQ(selector.pick(dense), BackendKind::kCdcl);

  // Tiny formulas always get the (nearly free) presolve attempt.
  FormulaShape tiny;
  tiny.num_vars = 8;
  tiny.num_clauses = 12;
  tiny.num_units = 1;
  EXPECT_EQ(selector.pick(tiny), BackendKind::kUnitProp);
}

TEST(BackendSelector, ShapeOfCountsUnits) {
  const FormulaShape shape = shape_of(propagation_decided_unique());
  EXPECT_EQ(shape.num_vars, 3);
  EXPECT_EQ(shape.num_clauses, 3);
  EXPECT_EQ(shape.num_units, 2);
  EXPECT_DOUBLE_EQ(shape.unit_fraction(), 2.0 / 3.0);
}

TEST(BackendSelector, Parse) {
  EXPECT_EQ(BackendSelector::parse("auto"), BackendSelector::Mode::kAuto);
  EXPECT_EQ(BackendSelector::parse("cdcl"), BackendSelector::Mode::kCdcl);
  EXPECT_EQ(BackendSelector::parse("unitprop"), BackendSelector::Mode::kUnitProp);
  for (const auto mode : {BackendSelector::Mode::kAuto, BackendSelector::Mode::kCdcl,
                          BackendSelector::Mode::kUnitProp}) {
    EXPECT_EQ(BackendSelector::parse(BackendSelector::to_string(mode)), mode);
  }
  // Retired backends are no longer modes.
  for (const char* retired : {"count", "ipasir", "portfolio"}) {
    EXPECT_FALSE(BackendSelector::parse(retired).has_value()) << retired;
  }
  EXPECT_FALSE(BackendSelector::parse("minisat").has_value());
  EXPECT_FALSE(BackendSelector::parse("").has_value());
}

TEST(SolverSession, CountsBackendSelectionAndEscalation) {
  SolverSession session;
  const BackendKind unitprop = BackendKind::kUnitProp;

  session.load(propagation_decided_free(), unitprop);
  EXPECT_TRUE(session.presolved());
  EXPECT_EQ(session.active_backend(), BackendKind::kUnitProp);
  EXPECT_EQ(session.classify().solution_class, 2);

  session.load(propagation_undecided(), unitprop);
  EXPECT_FALSE(session.presolved());
  EXPECT_EQ(session.active_backend(), BackendKind::kCdcl) << "escalated";
  EXPECT_EQ(session.classify().solution_class, 2);

  const auto& stats = session.stats();
  const auto up = static_cast<std::size_t>(BackendKind::kUnitProp);
  const auto cdcl = static_cast<std::size_t>(BackendKind::kCdcl);
  EXPECT_EQ(stats.backends[up].selected, 2u);
  EXPECT_EQ(stats.backends[up].served, 1u);
  EXPECT_EQ(stats.backends[up].escalated, 1u);
  EXPECT_EQ(stats.backends[cdcl].served, 1u);
  EXPECT_EQ(stats.cnf_loads, 2u);
}

TEST(SolverSession, DefaultLoadServesCdcl) {
  SolverSession session(propagation_decided_free());
  EXPECT_FALSE(session.presolved());
  EXPECT_EQ(session.active_backend(), BackendKind::kCdcl);
  const auto cdcl = static_cast<std::size_t>(BackendKind::kCdcl);
  EXPECT_EQ(session.stats().backends[cdcl].selected, 1u);
  EXPECT_EQ(session.stats().backends[cdcl].served, 1u);
  EXPECT_EQ(session.stats().backends[cdcl].escalated, 0u);
}

TEST(SolverSession, PresolveEnumerationBeyond64FreeVars) {
  // ~x0 over 70 variables: presolve-decided with 69 free vars.  The
  // model count 2^69 must saturate at kCountCap (a shift past bit 61
  // would be UB), and the class and split follow from the free set.
  Cnf cnf;
  cnf.num_vars = 70;
  cnf.add_clause({neg(0)});
  SolverSession session(cnf, BackendKind::kUnitProp);
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

TEST(MakeBackend, ProducesEveryKind) {
  for (const BackendKind kind : {BackendKind::kCdcl, BackendKind::kUnitProp}) {
    const auto backend = make_backend(kind);
    ASSERT_NE(backend, nullptr);
    EXPECT_EQ(backend->kind(), kind);
  }
  EXPECT_STREQ(to_string(BackendKind::kUnitProp), "unitprop");
  // The counter slots of retired backends construct nothing.
  for (const std::size_t retired : {1, 3, 4}) {
    EXPECT_THROW(make_backend(static_cast<BackendKind>(retired)), std::invalid_argument);
  }
}

}  // namespace
}  // namespace ct::sat
