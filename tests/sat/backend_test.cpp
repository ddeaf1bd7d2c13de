// SolverBackend contract tests: the unit-prop presolve fast path, the
// counting backend's exact-count shortcut, the selection policy, and
// the session's per-backend accounting (selected / served / escalated).
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

TEST(CountingBackend, ExactCountAndSearchAgree) {
  // (x0 v x1 v x2): 7 models.
  Cnf cnf;
  cnf.num_vars = 3;
  cnf.add_clause({pos(0), pos(1), pos(2)});

  CountingBackend backend;
  backend.load(cnf);
  ASSERT_TRUE(backend.exact_count().has_value());
  EXPECT_EQ(*backend.exact_count(), 7u);
  // The CDCL half still answers search queries on the same load.
  EXPECT_EQ(backend.solve({}), SolveResult::kSat);

  backend.load(propagation_conflict());
  EXPECT_EQ(*backend.exact_count(), 0u);

  // CdclBackend has no counting path.
  CdclBackend cdcl;
  cdcl.load(cnf);
  EXPECT_FALSE(cdcl.exact_count().has_value());
  EXPECT_EQ(cdcl.presolve(), nullptr);
}

TEST(BackendSelector, ForcedModesPinTheBackend) {
  const FormulaShape shape = shape_of(propagation_decided_free());
  const BackendWorkload workload{6, true};

  BackendSelector selector;
  selector.mode = BackendSelector::Mode::kCdcl;
  EXPECT_EQ(selector.plan(shape, workload).primary, BackendKind::kCdcl);
  selector.mode = BackendSelector::Mode::kCount;
  EXPECT_EQ(selector.plan(shape, workload).primary, BackendKind::kCount);
  EXPECT_EQ(selector.plan(shape, workload).fallback, BackendKind::kCount);
  selector.mode = BackendSelector::Mode::kUnitProp;
  EXPECT_EQ(selector.plan(shape, workload).primary, BackendKind::kUnitProp);
  EXPECT_EQ(selector.plan(shape, workload).fallback, BackendKind::kCdcl);
}

TEST(BackendSelector, AutoPicksByShapeAndWorkload) {
  BackendSelector selector;  // auto

  // Unit-rich (tomography shape): unit-prop first, whatever the size.
  FormulaShape unit_rich;
  unit_rich.num_vars = 100;
  unit_rich.num_clauses = 40;
  unit_rich.num_units = 30;
  EXPECT_EQ(selector.plan(unit_rich, {2, false}).primary, BackendKind::kUnitProp);

  // Large, few units, classification-only: plain CDCL.
  FormulaShape wide;
  wide.num_vars = 100;
  wide.num_clauses = 40;
  wide.num_units = 2;
  EXPECT_EQ(selector.plan(wide, {2, false}).primary, BackendKind::kCdcl);
  EXPECT_EQ(selector.plan(wide, {6, false}).primary, BackendKind::kCdcl);

  // Deep or unbounded counts on a sparse formula: counting backend
  // (also as the escalation target of unit-rich formulas).  A shallow
  // cap (Figure 4's 6) stays on enumeration — cheaper than one full
  // exact count.
  EXPECT_EQ(selector.plan(wide, {0, true}).primary, BackendKind::kCount);
  EXPECT_EQ(selector.plan(wide, {64, true}).primary, BackendKind::kCount);
  EXPECT_EQ(selector.plan(wide, {6, true}).primary, BackendKind::kCdcl);
  EXPECT_EQ(selector.plan(unit_rich, {0, true}).fallback, BackendKind::kCount);
  EXPECT_EQ(selector.plan(unit_rich, {6, true}).fallback, BackendKind::kCdcl);

  // ...but not on dense formulas, where DPLL counting explodes.
  FormulaShape dense;
  dense.num_vars = 40;
  dense.num_clauses = 200;
  dense.num_units = 2;
  EXPECT_EQ(selector.plan(dense, {0, true}).primary, BackendKind::kCdcl);

  // Tiny formulas always get the (nearly free) presolve attempt.
  FormulaShape tiny;
  tiny.num_vars = 8;
  tiny.num_clauses = 12;
  tiny.num_units = 1;
  EXPECT_EQ(selector.plan(tiny, {2, false}).primary, BackendKind::kUnitProp);
}

TEST(BackendSelector, ShapeOfCountsUnits) {
  const FormulaShape shape = shape_of(propagation_decided_unique());
  EXPECT_EQ(shape.num_vars, 3);
  EXPECT_EQ(shape.num_clauses, 3);
  EXPECT_EQ(shape.num_units, 2);
  EXPECT_DOUBLE_EQ(shape.density(), 1.0);
}

TEST(BackendSelector, Parse) {
  EXPECT_EQ(BackendSelector::parse("auto"), BackendSelector::Mode::kAuto);
  EXPECT_EQ(BackendSelector::parse("cdcl"), BackendSelector::Mode::kCdcl);
  EXPECT_EQ(BackendSelector::parse("count"), BackendSelector::Mode::kCount);
  EXPECT_EQ(BackendSelector::parse("unitprop"), BackendSelector::Mode::kUnitProp);
  EXPECT_EQ(BackendSelector::parse("ipasir"), BackendSelector::Mode::kIpasir);
  EXPECT_EQ(BackendSelector::parse("portfolio"), BackendSelector::Mode::kPortfolio);
  EXPECT_FALSE(BackendSelector::parse("minisat").has_value());
  EXPECT_FALSE(BackendSelector::parse("").has_value());
}

TEST(BackendSelector, PortfolioRacingWidth) {
  // Default: racing off, width 1 (no thread-budget division).
  BackendSelector selector;
  EXPECT_EQ(selector.portfolio_width, 0u);
  EXPECT_EQ(selector.racing_width(), 1u);

  // A width of 2 or more arms auto-mode racing, clamped to the slots.
  selector.portfolio_width = kDefaultPortfolioWidth;
  EXPECT_EQ(selector.racing_width(), kDefaultPortfolioWidth);
  selector.portfolio_width = 3;
  EXPECT_EQ(selector.racing_width(), 3u);
  selector.portfolio_width = kMaxPortfolioWidth + 1;
  EXPECT_EQ(selector.racing_width(), kMaxPortfolioWidth);

  // A width never makes a forced non-portfolio mode race...
  selector.mode = BackendSelector::Mode::kCdcl;
  EXPECT_EQ(selector.racing_width(), 1u);
  // ...and forced portfolio mode always races.
  selector.mode = BackendSelector::Mode::kPortfolio;
  selector.portfolio_width = 0;
  EXPECT_EQ(selector.racing_width(), kDefaultPortfolioWidth) << "forced mode always races";
}

TEST(SolverSession, CountsBackendSelectionAndEscalation) {
  SolverSession session;
  const BackendPlan unitprop{BackendKind::kUnitProp, BackendKind::kCdcl};

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
  SolverSession session(cnf, BackendPlan{BackendKind::kUnitProp, BackendKind::kCdcl});
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
  for (const BackendKind kind :
       {BackendKind::kCdcl, BackendKind::kCount, BackendKind::kUnitProp}) {
    const auto backend = make_backend(kind);
    ASSERT_NE(backend, nullptr);
    EXPECT_EQ(backend->kind(), kind);
  }
  EXPECT_STREQ(to_string(BackendKind::kUnitProp), "unitprop");
}

}  // namespace
}  // namespace ct::sat
