// Hand-built CNFs with known verdicts.  The tomography-shaped ones (a
// negative unit per clean-path AS, an all-positive clause per censored
// path) go through tomo::CnfAnalyzer; the textbook formulas of other
// shapes check the brute-force referee every oracle suite trusts
// (brute_force_reference.h) and that the analyzer refuses them.  The
// suites keep the names they had when a SAT solver computed the
// verdicts.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "brute_force_reference.h"
#include "tomo/engine.h"
#include "verdict_support.h"

namespace ct::tomo {
namespace {

using test::as_tomo_cnf;
using test::brute_force_verdict;
using test::neg;
using test::pos;
using test::vars_of;

using Vars = std::vector<sat::Var>;

/// A CNF of `num_vars` variables and the given clauses.
TomoCnf make_cnf(std::int32_t num_vars, std::vector<std::vector<sat::Lit>> clauses) {
  sat::Cnf cnf;
  cnf.num_vars = num_vars;
  cnf.clauses = std::move(clauses);
  return as_tomo_cnf(std::move(cnf));
}

/// (x0 v x1 v x2): 7 models over 3 vars.
TomoCnf disjunction3() { return make_cnf(3, {{pos(0), pos(1), pos(2)}}); }

/// x0, ~x0: a censored path of one AS that a clean path also crosses.
TomoCnf contradiction() { return make_cnf(1, {{pos(0)}, {neg(0)}}); }

/// The referee's class of `tc`, after checking the analyzer refuses it.
int refused_and_refereed(const TomoCnf& tc) {
  EXPECT_THROW(analyze_cnf(tc), std::invalid_argument);
  return brute_force_verdict(tc).solution_class;
}

// --- Solver: single formulas ---------------------------------------------

TEST(Solver, EmptyFormulaIsSat) {
  // No variables and no clauses: the empty assignment is the one model.
  const CnfVerdict v = analyze_cnf(make_cnf(0, {}));
  EXPECT_EQ(v.solution_class, 1);
  EXPECT_EQ(v.capped_count, 1u);
  EXPECT_TRUE(v.censors.empty());
}

TEST(Solver, SingleUnitClause) {
  const CnfVerdict v = analyze_cnf(make_cnf(1, {{pos(0)}}));
  ASSERT_EQ(v.solution_class, 1);
  EXPECT_EQ(vars_of(v.censors), Vars{0});
}

TEST(Solver, ContradictoryUnitsAreUnsat) {
  const CnfVerdict v = analyze_cnf(contradiction());
  EXPECT_EQ(v.solution_class, 0);
  EXPECT_EQ(v.capped_count, 0u);
  EXPECT_TRUE(v.censors.empty());
  EXPECT_TRUE(v.potential_censors.empty());
}

TEST(Solver, TautologyIsIgnored) {
  // (x0 v ~x0) constrains nothing: both values are models.  Not a
  // tomography clause, so the analyzer refuses it.
  EXPECT_EQ(refused_and_refereed(make_cnf(1, {{pos(0), neg(0)}})), 2);
}

TEST(Solver, DuplicateLiteralsDeduped) {
  // (x0 v x0 v x1): an AS repeated on a path is one AS; 3 models.
  const TomoCnf tc = make_cnf(2, {{pos(0), pos(0), pos(1)}});
  const CnfVerdict v = analyze_cnf(tc);
  EXPECT_EQ(v.solution_class, 2);
  EXPECT_EQ(v.capped_count, 3u);
  EXPECT_EQ(v, brute_force_verdict(tc));
}

TEST(Solver, SimpleImplicationChain) {
  // x0, x0->x1, x1->x2: all true, the only model.
  const TomoCnf tc = make_cnf(3, {{pos(0)}, {neg(0), pos(1)}, {neg(1), pos(2)}});
  EXPECT_EQ(refused_and_refereed(tc), 1);
  EXPECT_EQ(vars_of(brute_force_verdict(tc).censors), (Vars{0, 1, 2}));
}

TEST(Solver, UnsatTriangle) {
  // (x0 v x1) (x0 v ~x1) (~x0 v x1) (~x0 v ~x1) is UNSAT.
  const TomoCnf tc = make_cnf(
      2, {{pos(0), pos(1)}, {pos(0), neg(1)}, {neg(0), pos(1)}, {neg(0), neg(1)}});
  EXPECT_EQ(refused_and_refereed(tc), 0);
}

TEST(Solver, ModelSatisfiesAllClauses) {
  // Overlapping censored paths and clean paths: the model the verdict
  // names satisfies every clause.
  const TomoCnf tc = make_cnf(6, {{pos(0), pos(1), pos(2)},
                                  {pos(2), pos(3)},
                                  {pos(3), pos(4), pos(5)},
                                  {pos(1), pos(5)},
                                  {neg(2)},
                                  {neg(4)}});
  const CnfVerdict v = analyze_cnf(tc);
  ASSERT_GT(v.solution_class, 0);
  EXPECT_TRUE(test::satisfies(tc.cnf, test::verdict_model(v, 6)));
  EXPECT_EQ(v, brute_force_verdict(tc));
}

/// Pigeonhole principle PHP(pigeons, holes).
TomoCnf pigeonhole(int pigeons, int holes) {
  sat::Cnf cnf;
  cnf.num_vars = pigeons * holes;
  auto var = [holes](int p, int h) { return p * holes + h; };
  for (int p = 0; p < pigeons; ++p) {
    std::vector<sat::Lit> c;
    for (int h = 0; h < holes; ++h) c.push_back(pos(var(p, h)));
    cnf.add_clause(c);
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        cnf.add_clause({neg(var(p1, h)), neg(var(p2, h))});
      }
    }
  }
  return as_tomo_cnf(std::move(cnf));
}

TEST(Solver, PigeonholeUnsat) {
  // Up to the referee's 20 variables: PHP(5, 4).
  for (int n = 2; n <= 4; ++n) {
    EXPECT_EQ(refused_and_refereed(pigeonhole(n + 1, n)), 0) << "PHP(" << n + 1 << "," << n << ")";
  }
}

TEST(Solver, PigeonholeExactFitSat) {
  // 4 pigeons in 4 holes: the 24 permutations.
  const TomoCnf tc = pigeonhole(4, 4);
  EXPECT_EQ(refused_and_refereed(tc), 2);
  AnalysisOptions exact;
  exact.count_cap = 100;
  EXPECT_EQ(brute_force_verdict(tc, exact).capped_count, 24u);
}

TEST(Solver, AssumptionsSatAndUnsat) {
  // (x0 v x1) under clean-path units as assumptions: ~x1 pins x0, ~x0
  // and ~x1 together are UNSAT.  One analyzer: the assumptions of one
  // CNF do not stick to the next.
  CnfAnalyzer analyzer;
  const CnfVerdict pinned = analyzer.analyze(make_cnf(2, {{pos(0), pos(1)}, {neg(1)}}));
  ASSERT_EQ(pinned.solution_class, 1);
  EXPECT_EQ(vars_of(pinned.censors), Vars{0});
  EXPECT_EQ(analyzer.analyze(make_cnf(2, {{pos(0), pos(1)}, {neg(0)}, {neg(1)}})).solution_class,
            0);
  const CnfVerdict bare = analyzer.analyze(make_cnf(2, {{pos(0), pos(1)}}));
  EXPECT_EQ(bare.solution_class, 2);
  EXPECT_EQ(bare.capped_count, 3u);
}

TEST(Solver, IncrementalAddAfterSolve) {
  // A CNF that grows by one clean path at a time, on one analyzer:
  // (x0 v x1) has 3 models, ~x0 pins x1, ~x1 then makes it UNSAT.
  TomoCnf tc = make_cnf(2, {{pos(0), pos(1)}});
  CnfAnalyzer analyzer;
  EXPECT_EQ(analyzer.analyze(tc).capped_count, 3u);
  tc.cnf.add_clause({neg(0)});
  const CnfVerdict pinned = analyzer.analyze(tc);
  ASSERT_EQ(pinned.solution_class, 1);
  EXPECT_EQ(vars_of(pinned.censors), Vars{1});
  tc.cnf.add_clause({neg(1)});
  EXPECT_EQ(analyzer.analyze(tc).solution_class, 0);
}

TEST(Solver, AssumptionOnTrueLiteralStillSat) {
  // x0, with x0 observed again (a second one-AS censored path) or with
  // a clean path through it.
  EXPECT_EQ(analyze_cnf(make_cnf(1, {{pos(0)}, {pos(0)}})).solution_class, 1);
  EXPECT_EQ(analyze_cnf(make_cnf(1, {{pos(0)}, {neg(0)}})).solution_class, 0);
}

TEST(Solver, StatsAccumulate) {
  // An analyzer's counters sum over every CNF it analyzed.
  CnfAnalyzer analyzer;
  analyzer.analyze(disjunction3());
  analyzer.analyze(contradiction());
  analyzer.analyze(make_cnf(2, {{pos(0), pos(1)}, {neg(1)}}));
  const EngineStats s = analyzer.stats();
  EXPECT_EQ(s.cnf_loads, 3u);
  EXPECT_EQ(s.fresh_clauses, 5u);
  EXPECT_EQ(s.backends[EngineStats::kClosedFormSlot].served, 3u);
  EXPECT_EQ(s.arenas, 1u);
}

TEST(Solver, ManyVariablesLargeChain) {
  // 2000 ASes in a chain of overlapping two-AS censored paths, every
  // even AS clean: each path's odd AS is forced, so the odd ASes are
  // the unique model.
  constexpr int kN = 2000;
  std::vector<std::vector<sat::Lit>> clauses;
  for (int i = 0; i + 1 < kN; ++i) clauses.push_back({pos(i), pos(i + 1)});
  for (int i = 0; i < kN; i += 2) clauses.push_back({neg(i)});
  const CnfVerdict v = analyze_cnf(make_cnf(kN, std::move(clauses)));
  ASSERT_EQ(v.solution_class, 1);
  ASSERT_EQ(v.censors.size(), static_cast<std::size_t>(kN / 2));
  EXPECT_EQ(vars_of(v.censors).back(), kN - 1);
}

TEST(Solver, PaperStyleCnf) {
  // Paper example: path X->Y->Z saw DNS censorship; later measurements
  // on churned paths eliminate X and Y, pinning Z as the censor.
  const CnfVerdict v =
      analyze_cnf(make_cnf(3, {{pos(0), pos(1), pos(2)}, {neg(0)}, {neg(1)}}));
  ASSERT_EQ(v.solution_class, 1);
  EXPECT_EQ(vars_of(v.censors), Vars{2});
}

// --- Classify, CountCapped, PotentialTrue --------------------------------

TEST(CountCapped, MatchesEnumeration) {
  AnalysisOptions options;
  options.count_cap = 100;
  EXPECT_EQ(analyze_cnf(disjunction3(), options).capped_count, 7u);
  options.count_cap = 4;
  EXPECT_EQ(analyze_cnf(disjunction3(), options).capped_count, 4u);
}

TEST(Classify, ZeroSolutions) {
  const CnfVerdict v = analyze_cnf(contradiction());
  EXPECT_EQ(v.solution_class, 0);
  EXPECT_TRUE(v.censors.empty());
}

TEST(Classify, UniqueSolution) {
  // Paper scenario: (X v Y v Z) & ~X & ~Y  ==> unique model Z.
  TomoCnf tc = disjunction3();
  tc.cnf.add_clause({neg(0)});
  tc.cnf.add_clause({neg(1)});
  const CnfVerdict v = analyze_cnf(tc);
  ASSERT_EQ(v.solution_class, 1);
  EXPECT_EQ(test::verdict_model(v, 3), (std::vector<bool>{false, false, true}));
}

TEST(Classify, MultipleSolutions) { EXPECT_EQ(analyze_cnf(disjunction3()).solution_class, 2); }

TEST(PotentialTrue, SplitsCensorsFromNonCensors) {
  // (x0 v x1 v x2) & ~x0: x0 can never be true; x1, x2 can.
  TomoCnf tc = disjunction3();
  tc.cnf.add_clause({neg(0)});
  const CnfVerdict v = analyze_cnf(tc);
  ASSERT_EQ(v.solution_class, 2);
  EXPECT_EQ(vars_of(v.definite_noncensors), Vars{0});
  EXPECT_EQ(vars_of(v.potential_censors), (Vars{1, 2}));
  EXPECT_DOUBLE_EQ(v.reduction_fraction, 1.0 / 3.0);
}

TEST(PotentialTrue, UnsatGivesNothing) {
  const CnfVerdict v = analyze_cnf(contradiction());
  EXPECT_EQ(v.solution_class, 0);
  EXPECT_TRUE(v.potential_censors.empty());
  EXPECT_TRUE(v.definite_noncensors.empty());
}

TEST(PotentialTrue, SplitCoversEveryVariable) {
  // (x0 v x1) & ~x2, x3 unconstrained: the split names every CNF
  // variable, the clean one and the free one included.
  const CnfVerdict v = analyze_cnf(make_cnf(4, {{pos(0), pos(1)}, {neg(2)}}));
  ASSERT_EQ(v.solution_class, 2);
  EXPECT_EQ(vars_of(v.definite_noncensors), Vars{2});
  EXPECT_EQ(vars_of(v.potential_censors), (Vars{0, 1, 3}));
}

TEST(PotentialTrue, AllFreeVarsPotentiallyTrue) {
  const CnfVerdict v = analyze_cnf(make_cnf(3, {}));  // no clauses at all
  ASSERT_EQ(v.solution_class, 2);
  EXPECT_EQ(v.potential_censors.size(), 3u);
  EXPECT_TRUE(v.definite_noncensors.empty());
}

// --- SolverSession, UnitPropPresolver: counts, caps, counters ------------

TEST(SolverSession, GrowingTheCapNeverRederivesModels) {
  // (x0 v x1 v x2) has 7 models: on one analyzer, each cap in a rising
  // then falling sequence gets min(7, cap), whatever came before.
  CnfAnalyzer analyzer;
  for (const std::uint64_t cap : {2, 5, 100, 3, 7, 8}) {
    AnalysisOptions options;
    options.count_cap = cap;
    EXPECT_EQ(analyzer.analyze(disjunction3(), options).capped_count,
              std::min<std::uint64_t>(cap, 7))
        << "cap " << cap;
  }
}

TEST(SolverSession, UnsatCnf) {
  const TomoCnf tc = make_cnf(2, {{pos(0)}, {neg(0)}});
  CnfAnalyzer analyzer;
  AnalysisOptions ten;
  ten.count_cap = 10;
  EXPECT_EQ(analyzer.analyze(tc, ten).capped_count, 0u);
  const CnfVerdict again = analyzer.analyze(tc);
  EXPECT_EQ(again.solution_class, 0);
  EXPECT_EQ(again.capped_count, 0u);
  EXPECT_EQ(again.num_vars, 2u);
  EXPECT_TRUE(again.potential_censors.empty());
  EXPECT_EQ(analyzer.stats().cnf_loads, 2u);
}

// (x0 v x1), ~x1: x0 is forced, x2 stays free: class 2, 2 models.
TomoCnf propagation_decided_free() { return make_cnf(3, {{pos(0), pos(1)}, {neg(1)}}); }

// (x0 v x1), ~x1, ~x2: every variable decided: the unique model x0=T.
TomoCnf propagation_decided_unique() {
  TomoCnf tc = propagation_decided_free();
  tc.cnf.add_clause({neg(2)});
  return tc;
}

// (x0 v x1)(~x0 v ~x1): not a tomography CNF.
TomoCnf propagation_undecided() { return make_cnf(2, {{pos(0), pos(1)}, {neg(0), neg(1)}}); }

/// `units` negative units on even variables, then `wide` censored
/// paths over neighbouring variables (satisfiable when num_vars is
/// even: every path has an odd member).
TomoCnf shaped(std::int32_t num_vars, std::int32_t units, std::int32_t wide) {
  sat::Cnf cnf;
  cnf.num_vars = num_vars;
  for (std::int32_t i = 0; i < units; ++i) cnf.add_clause({neg((2 * i) % num_vars)});
  for (std::int32_t i = 0; i < wide; ++i) {
    cnf.add_clause({pos(i % num_vars), pos((i + 1) % num_vars)});
  }
  return as_tomo_cnf(std::move(cnf));
}

TEST(UnitPropPresolver, DecidesByPropagation) {
  // The sole-member rule is unit propagation over the clean units: it
  // decides every tomography CNF with no search.
  CnfVerdict v = analyze_cnf(propagation_decided_free());
  ASSERT_EQ(v.solution_class, 2);
  EXPECT_EQ(v.capped_count, 2u);
  EXPECT_EQ(vars_of(v.potential_censors), (Vars{0, 2}));
  EXPECT_EQ(vars_of(v.definite_noncensors), Vars{1});

  v = analyze_cnf(propagation_decided_unique());
  ASSERT_EQ(v.solution_class, 1);
  EXPECT_EQ(vars_of(v.censors), Vars{0});

  EXPECT_EQ(analyze_cnf(make_cnf(2, {{pos(0)}, {neg(0)}})).solution_class, 0);

  EXPECT_THROW(analyze_cnf(propagation_undecided()), std::invalid_argument);
}

TEST(SolverSession, RoutesByShape) {
  // Every tomography CNF takes the closed form, whatever its size or
  // share of units; any other shape is refused.
  for (const TomoCnf& tc : {shaped(100, 30, 10), shaped(100, 20, 20), shaped(16, 1, 11),
                            shaped(100, 2, 38), shaped(40, 2, 198), shaped(18, 19, 20),
                            shaped(16, 0, 0)}) {
    SCOPED_TRACE(std::to_string(tc.cnf.num_vars) + " vars, " +
                 std::to_string(tc.cnf.clauses.size()) + " clauses");
    CnfAnalyzer analyzer;
    const CnfVerdict v = analyzer.analyze(tc);
    EXPECT_GT(v.solution_class, 0);
    EXPECT_TRUE(test::satisfies(tc.cnf, test::verdict_model(v, tc.cnf.num_vars)));
    if (tc.cnf.num_vars <= 20) {
      EXPECT_EQ(v, brute_force_verdict(tc));
    }
    EXPECT_EQ(analyzer.stats().backends[EngineStats::kClosedFormSlot].served, 1u);
  }
  EXPECT_THROW(analyze_cnf(propagation_undecided()), std::invalid_argument);
}

TEST(SolverSession, CountsBackendSelectionAndEscalation) {
  // Every verdict counts once in the closed-form slot; nothing
  // escalates or searches, and a refused CNF counts nowhere.
  CnfAnalyzer analyzer;
  EXPECT_EQ(analyzer.analyze(propagation_decided_free()).solution_class, 2);
  EXPECT_THROW(analyzer.analyze(propagation_undecided()), std::invalid_argument);
  EXPECT_EQ(analyzer.analyze(shaped(40, 2, 198)).solution_class, 2);

  const EngineStats stats = analyzer.stats();
  EXPECT_EQ(stats.cnf_loads, 2u);
  EXPECT_EQ(stats.solve_calls, 0u);
  for (std::size_t k = 0; k < stats.backends.size(); ++k) {
    const std::uint64_t want = k == EngineStats::kClosedFormSlot ? 2 : 0;
    EXPECT_EQ(stats.backends[k], (sat::BackendCounters{want, 0})) << "slot " << k;
  }
}

TEST(SolverSession, PresolveEnumerationBeyond64FreeVars) {
  // ~x0 over 70 variables: 69 free ones.  The count 2^69 saturates at
  // the cap (a shift past bit 61 would be UB), and the class and split
  // follow from the free set.
  const TomoCnf tc = make_cnf(70, {{neg(0)}});
  AnalysisOptions options;
  options.count_cap = 5;
  EXPECT_EQ(analyze_cnf(tc, options).capped_count, 5u);
  options.count_cap = std::numeric_limits<std::uint64_t>::max();
  const CnfVerdict v = analyze_cnf(tc, options);
  EXPECT_EQ(v.capped_count, options.count_cap) << "saturated count";
  EXPECT_EQ(v.solution_class, 2);
  EXPECT_EQ(vars_of(v.definite_noncensors), Vars{0});
  EXPECT_EQ(v.potential_censors.size(), 69u);
}

}  // namespace
}  // namespace ct::tomo
