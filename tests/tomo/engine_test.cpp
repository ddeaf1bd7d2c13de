#include "tomo/engine.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "tomo/cnf_builder.h"

namespace ct::tomo {
namespace {

PathClause make_clause(PathPool& pool, std::vector<topo::AsId> path, bool observed,
                       std::int32_t url = 0, util::Day day = 0,
                       censor::Anomaly anomaly = censor::Anomaly::kDns) {
  PathClause c;
  c.path_id = pool.intern(path);
  c.url_id = url;
  c.vantage = 99;
  c.day = day;
  c.anomaly = anomaly;
  c.observed = observed;
  return c;
}

std::vector<TomoCnf> day_cnfs(PathPool& pool, const std::vector<PathClause>& clauses) {
  CnfBuildOptions o;
  o.granularities = {util::Granularity::kDay};
  return build_cnfs(pool, clauses, o);
}

TEST(Engine, UniqueSolutionIdentifiesCensor) {
  PathPool pool;
  // Censored path (1,2,3); churned clean paths eliminate 1 and 2.
  const auto cnfs = day_cnfs(pool, {
      make_clause(pool, {1, 2, 3}, true),
      make_clause(pool, {1, 2, 4}, false),
  });
  ASSERT_EQ(cnfs.size(), 1u);
  const CnfVerdict v = analyze_cnf(cnfs[0]);
  EXPECT_EQ(v.solution_class, 1);
  EXPECT_EQ(v.capped_count, 1u);
  EXPECT_EQ(v.censors, (std::vector<topo::AsId>{3}));
  EXPECT_TRUE(v.potential_censors.empty());
  EXPECT_EQ(v.num_vars, 4u);
}

TEST(Engine, ContradictionYieldsZeroSolutions) {
  PathPool pool;
  // Same path observed both clean and dirty (noise / policy change).
  const auto cnfs = day_cnfs(pool, {
      make_clause(pool, {1, 2}, true),
      make_clause(pool, {1, 2}, false),
  });
  ASSERT_EQ(cnfs.size(), 1u);
  const CnfVerdict v = analyze_cnf(cnfs[0]);
  EXPECT_EQ(v.solution_class, 0);
  EXPECT_EQ(v.capped_count, 0u);
  EXPECT_TRUE(v.censors.empty());
}

TEST(Engine, UnderconstrainedYieldsPotentialSet) {
  PathPool pool;
  // One dirty path, one clean path eliminating only AS 1.
  const auto cnfs = day_cnfs(pool, {
      make_clause(pool, {1, 2, 3}, true),
      make_clause(pool, {1, 4}, false),
  });
  const CnfVerdict v = analyze_cnf(cnfs[0]);
  EXPECT_EQ(v.solution_class, 2);
  EXPECT_EQ(v.potential_censors, (std::vector<topo::AsId>{2, 3}));
  EXPECT_EQ(v.definite_noncensors, (std::vector<topo::AsId>{1, 4}));
  EXPECT_DOUBLE_EQ(v.reduction_fraction, 0.5);
}

TEST(Engine, CappedCountRespectsCap) {
  PathPool pool;
  // (1 v 2 v 3) alone: 7 models.
  const auto cnfs = day_cnfs(pool, {make_clause(pool, {1, 2, 3}, true)});
  AnalysisOptions opt;
  opt.count_cap = 6;
  const CnfVerdict v = analyze_cnf(cnfs[0], opt);
  EXPECT_EQ(v.solution_class, 2);
  EXPECT_EQ(v.capped_count, 6u);
  AnalysisOptions big;
  big.count_cap = 100;
  EXPECT_EQ(analyze_cnf(cnfs[0], big).capped_count, 7u);
}

TEST(Engine, MultipleCensorsInOneCnf) {
  PathPool pool;
  // Two censored paths through disjoint censors 3 and 6; everything else
  // cleaned by churned paths.
  const auto cnfs = day_cnfs(pool, {
      make_clause(pool, {1, 2, 3}, true),
      make_clause(pool, {4, 5, 6}, true),
      make_clause(pool, {1, 2, 7}, false),
      make_clause(pool, {4, 5, 7}, false),
  });
  const CnfVerdict v = analyze_cnf(cnfs[0]);
  EXPECT_EQ(v.solution_class, 1);
  EXPECT_EQ(v.censors, (std::vector<topo::AsId>{3, 6}));
}

TEST(Engine, AnalyzeCnfsBatches) {
  PathPool pool;
  const auto cnfs = day_cnfs(pool, {
      make_clause(pool, {1, 2}, true, /*url=*/0),
      make_clause(pool, {3, 4}, true, /*url=*/1),
  });
  const auto verdicts = analyze_cnfs(cnfs);
  ASSERT_EQ(verdicts.size(), 2u);
  EXPECT_EQ(verdicts[0].key.url_id, 0);
  EXPECT_EQ(verdicts[1].key.url_id, 1);
}

// --- CnfLayout: the analyzer refuses an inconsistent flat layout --------

/// AS 1 clean; censored paths (1 2 3) and (2 3): class 2.
TomoCnf consistent_layout() {
  TomoCnf tc;
  tc.vars = {1, 2, 3};
  tc.clean = {1, 0, 0};
  tc.clause_vars = {0, 1, 2, 1, 2};
  tc.clause_ends = {3, 5};
  tc.path_ases = {1, 2, 3, 2, 3};
  tc.path_ends = {3, 5};
  tc.num_negative_units = 1;
  tc.num_positive_clauses = 2;
  return tc;
}

/// Expects `tc` refused by a fresh analyzer, by a threaded batch beside
/// a consistent CNF, and by an analyzer that then counts nothing for it.
void expect_refused(const TomoCnf& tc) {
  EXPECT_THROW(analyze_cnf(tc), std::invalid_argument);
  AnalysisOptions threaded;
  threaded.num_threads = 2;
  EXPECT_THROW(analyze_cnfs({consistent_layout(), tc}, threaded), std::invalid_argument);
  CnfAnalyzer analyzer;
  EXPECT_THROW(analyzer.analyze(tc), std::invalid_argument);
  EXPECT_EQ(analyzer.stats().cnf_loads, 0u);
  EXPECT_EQ(analyzer.analyze(consistent_layout()).solution_class, 2);
}

TEST(CnfLayout, ConsistentLayoutIsAnalyzed) {
  const CnfVerdict v = analyze_cnf(consistent_layout());
  EXPECT_EQ(v.solution_class, 2);
  EXPECT_EQ(v.definite_noncensors, (std::vector<topo::AsId>{1}));
  EXPECT_EQ(v.potential_censors, (std::vector<topo::AsId>{2, 3}));
}

TEST(CnfLayout, CleanFlagsMustMatchTheVariables) {
  // One variable and a negative unit on x40: the flag would index past
  // the analyzer's scratch.
  TomoCnf tc;
  tc.vars = {1};
  tc.clean.assign(41, 0);
  tc.clean[40] = 1;
  tc.num_negative_units = 1;
  expect_refused(tc);
  tc = consistent_layout();
  tc.clean.pop_back();
  expect_refused(tc);
}

TEST(CnfLayout, ClauseEndsMustAscend) {
  TomoCnf tc = consistent_layout();
  tc.clause_ends = {5, 3};
  expect_refused(tc);
}

TEST(CnfLayout, ClauseEndsMustNotRunPastTheLiterals) {
  TomoCnf tc = consistent_layout();
  tc.clause_ends = {3, 6};
  expect_refused(tc);
  tc.clause_ends = {3, 4};  // a literal after the last clause
  expect_refused(tc);
}

TEST(CnfLayout, LiteralsMustNameAVariable) {
  TomoCnf tc = consistent_layout();
  tc.clause_vars[4] = 3;
  expect_refused(tc);
  tc.clause_vars[4] = -1;
  expect_refused(tc);
}

TEST(CnfLayout, NegativeUnitCountMustMatchTheFlags) {
  TomoCnf tc = consistent_layout();
  tc.num_negative_units = 2;
  expect_refused(tc);
  tc.num_negative_units = 0;
  expect_refused(tc);
}

TEST(CnfLayout, PositiveClauseCountMustMatchTheEnds) {
  TomoCnf tc = consistent_layout();
  tc.num_positive_clauses = 1;
  expect_refused(tc);
  tc.num_positive_clauses = 3;
  expect_refused(tc);
}

TEST(IdentifiedCensors, UnionAcrossVerdicts) {
  PathPool pool;
  const auto cnfs = day_cnfs(pool, {
      make_clause(pool, {1, 2}, true, 0, 0),
      make_clause(pool, {1, 3}, false, 0, 0),
      make_clause(pool, {4, 5}, true, 1, 0),
      make_clause(pool, {4, 6}, false, 1, 0),
  });
  const auto verdicts = analyze_cnfs(cnfs);
  // url 0 pins censor 2; url 1 pins censor 5.
  EXPECT_EQ(identified_censors(verdicts), (std::vector<topo::AsId>{2, 5}));
}

TEST(IdentifiedCensors, MinSupportFiltersOneOffEvidence) {
  PathPool pool;
  // Censor 2 identified for two URLs; censor 9 only once.
  const auto cnfs = day_cnfs(pool, {
      make_clause(pool, {1, 2}, true, 0),
      make_clause(pool, {1, 3}, false, 0),
      make_clause(pool, {1, 2}, true, 1),
      make_clause(pool, {1, 3}, false, 1),
      make_clause(pool, {8, 9}, true, 2),
      make_clause(pool, {8, 7}, false, 2),
  });
  const auto verdicts = analyze_cnfs(cnfs);
  EXPECT_EQ(identified_censors(verdicts, 1), (std::vector<topo::AsId>{2, 9}));
  EXPECT_EQ(identified_censors(verdicts, 2), (std::vector<topo::AsId>{2}));
  EXPECT_TRUE(identified_censors(verdicts, 3).empty());
}

TEST(IdentifiedCensors, SameUrlDifferentAnomalyCountsAsSupport) {
  PathPool pool;
  const auto cnfs = day_cnfs(pool, {
      make_clause(pool, {1, 2}, true, 0, 0, censor::Anomaly::kDns),
      make_clause(pool, {1, 3}, false, 0, 0, censor::Anomaly::kDns),
      make_clause(pool, {1, 2}, true, 0, 0, censor::Anomaly::kTtl),
      make_clause(pool, {1, 3}, false, 0, 0, censor::Anomaly::kTtl),
  });
  const auto verdicts = analyze_cnfs(cnfs);
  EXPECT_EQ(identified_censors(verdicts, 2), (std::vector<topo::AsId>{2}));
}

TEST(Score, PrecisionRecall) {
  const CensorScore s = score_censors({1, 2, 3}, {2, 3, 4, 5});
  EXPECT_EQ(s.true_positives, 2);
  EXPECT_EQ(s.false_positives, 1);
  EXPECT_EQ(s.false_negatives, 2);
  EXPECT_DOUBLE_EQ(s.precision(), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(s.recall(), 0.5);
  EXPECT_EQ(s.false_positive_ases, (std::vector<topo::AsId>{1}));
  EXPECT_EQ(s.false_negative_ases, (std::vector<topo::AsId>{4, 5}));
}

TEST(Score, EmptySets) {
  const CensorScore s = score_censors({}, {});
  EXPECT_DOUBLE_EQ(s.precision(), 0.0);
  EXPECT_DOUBLE_EQ(s.recall(), 0.0);
}

}  // namespace
}  // namespace ct::tomo
