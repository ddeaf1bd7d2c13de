// Randomized agreement of the closed-form verdicts with the brute-force
// referee (brute_force_reference.h): satisfiability and its witness,
// the capped and the exhaustive count, the solution class and the
// potential-censor split, on sweeps of random tomography-shaped CNFs.
// The suites keep the names they had when a SAT solver computed the
// verdicts; they now hold tomo::CnfAnalyzer, the only verdict path, to
// the same truth tables on the CNF shape it accepts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "../support/fuzz_seed.h"
#include "brute_force_reference.h"
#include "tomo/engine.h"
#include "util/rng.h"
#include "verdict_support.h"

namespace ct::tomo {
namespace {

using test::brute_force_verdict;
using test::exact_count_options;
using test::from_cnf;
using test::neg;
using test::pos;

std::int32_t num_vars(const TomoCnf& tc) { return static_cast<std::int32_t>(tc.vars.size()); }

/// Exact model count of a small CNF by the referee.
std::uint64_t brute_force_count(const TomoCnf& tc) {
  return brute_force_verdict(tc, exact_count_options(num_vars(tc))).capped_count;
}

/// Per-variable "true in some model", by the referee's split.
std::vector<bool> brute_force_potential_true(const TomoCnf& tc) {
  const CnfVerdict v = brute_force_verdict(tc);
  return v.solution_class == 0 ? std::vector<bool>(tc.vars.size(), false)
                               : test::verdict_model(v, num_vars(tc));
}

struct RandomCnfParams {
  std::uint64_t seed;
  int num_vars;
  int num_clauses;
  int max_clause_len;
};

/// `num_clauses` random paths of 1..max_clause_len ASes (repeats
/// allowed): a clean path adds a negative unit per AS, a censored path
/// one all-positive clause.
TomoCnf random_cnf(const RandomCnfParams& p) {
  util::Rng rng(p.seed);
  sat::Cnf cnf;
  cnf.num_vars = p.num_vars;
  for (int c = 0; c < p.num_clauses; ++c) {
    const int len = static_cast<int>(rng.uniform_int(1, p.max_clause_len));
    std::vector<sat::Lit> path;
    for (int i = 0; i < len; ++i) {
      path.push_back(pos(static_cast<sat::Var>(rng.index(static_cast<std::size_t>(p.num_vars)))));
    }
    if (rng.bernoulli(0.3)) {
      for (const sat::Lit l : path) cnf.add_clause({neg(l.var())});
    } else {
      cnf.add_clause(std::move(path));
    }
  }
  return from_cnf(cnf);
}

class SatAgreement : public ::testing::TestWithParam<RandomCnfParams> {};

TEST_P(SatAgreement, SolverAgreesWithBruteForce) {
  // Satisfiability, and the model a satisfiable verdict names.
  const TomoCnf tc = random_cnf(GetParam());
  const std::uint64_t expected = brute_force_count(tc);
  const CnfVerdict v = analyze_cnf(tc);
  EXPECT_EQ(v.solution_class > 0, expected > 0);
  if (v.solution_class > 0) {
    EXPECT_TRUE(test::satisfies(to_cnf(tc), test::verdict_model(v, num_vars(tc))));
  }
}

TEST_P(SatAgreement, CounterAgreesWithBruteForce) {
  const TomoCnf tc = random_cnf(GetParam());
  const std::uint64_t expected = brute_force_count(tc);
  AnalysisOptions capped;
  capped.count_cap = 3;
  EXPECT_EQ(analyze_cnf(tc, capped).capped_count, std::min<std::uint64_t>(expected, 3));
  EXPECT_EQ(analyze_cnf(tc, exact_count_options(num_vars(tc))).capped_count, expected);
}

TEST_P(SatAgreement, EnumerationAgreesWithBruteForce) {
  // The class, a capped count and the exhaustive count, and the whole
  // verdict under both count settings.
  const TomoCnf tc = random_cnf(GetParam());
  const std::uint64_t expected = brute_force_count(tc);
  const CnfVerdict v = analyze_cnf(tc);
  EXPECT_EQ(v.solution_class, static_cast<int>(std::min<std::uint64_t>(expected, 2)));
  EXPECT_EQ(v.capped_count, std::min<std::uint64_t>(expected, 6));
  EXPECT_EQ(analyze_cnf(tc, exact_count_options(num_vars(tc))).capped_count, expected);
  for (const bool resolve_counts : {false, true}) {
    AnalysisOptions options;
    options.resolve_counts = resolve_counts;
    EXPECT_EQ(analyze_cnf(tc, options), brute_force_verdict(tc, options));
  }
}

TEST_P(SatAgreement, PotentialTrueAgreesWithBruteForce) {
  const TomoCnf tc = random_cnf(GetParam());
  const std::vector<bool> expected = brute_force_potential_true(tc);
  const CnfVerdict v = analyze_cnf(tc);
  if (brute_force_count(tc) == 0) {
    EXPECT_EQ(v.solution_class, 0);
    EXPECT_TRUE(v.censors.empty());
    EXPECT_TRUE(v.potential_censors.empty());
    EXPECT_TRUE(v.definite_noncensors.empty());
    return;
  }
  ASSERT_GT(v.solution_class, 0);
  EXPECT_EQ(test::verdict_model(v, num_vars(tc)), expected);
  if (v.solution_class == 2) {
    // The definite non-censors are the exact complement.
    for (const sat::Var x : test::vars_of(v.definite_noncensors)) {
      EXPECT_FALSE(expected[static_cast<std::size_t>(x)]);
    }
    EXPECT_EQ(v.potential_censors.size() + v.definite_noncensors.size(), tc.vars.size());
  }
}

std::vector<RandomCnfParams> make_params() {
  std::vector<RandomCnfParams> params;
  std::uint64_t seed = 1000;
  for (const int vars : {3, 5, 8, 10, 12}) {
    for (const int clauses : {2, 5, 10, 20, 40}) {
      for (const int len : {2, 3, 4}) {
        params.push_back({seed++, vars, clauses, len});
      }
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(RandomCnfs, SatAgreement, ::testing::ValuesIn(make_params()),
                         [](const ::testing::TestParamInfo<RandomCnfParams>& info) {
                           const auto& p = info.param;
                           std::ostringstream name;
                           name << "s" << p.seed << "_v" << p.num_vars << "_c" << p.num_clauses
                                << "_l" << p.max_clause_len;
                           return name.str();
                         });

TEST(SatAgreementSweep, ReachesEveryClass) {
  // The sweep above must reach every solution class, or its agreement
  // proves little.
  std::vector<int> seen(3, 0);
  for (const RandomCnfParams& p : make_params()) {
    seen[static_cast<std::size_t>(analyze_cnf(random_cnf(p)).solution_class)] += 1;
  }
  EXPECT_GT(seen[0], 0) << "no unsatisfiable CNF";
  EXPECT_GT(seen[1], 0) << "no unique-solution CNF";
  EXPECT_GT(seen[2], 0) << "no underconstrained CNF";
}

/// Tomography-shaped formula over 12 ASes: a few censored-path clauses
/// and many clean-path negative units.
TomoCnf tomo_shaped_cnf(std::uint64_t seed) {
  util::Rng rng(seed);
  sat::Cnf cnf;
  cnf.num_vars = 12;
  const int positives = static_cast<int>(rng.uniform_int(1, 4));
  for (int i = 0; i < positives; ++i) {
    std::vector<sat::Lit> clause;
    const int len = static_cast<int>(rng.uniform_int(2, 5));
    for (int k = 0; k < len; ++k) clause.push_back(pos(static_cast<sat::Var>(rng.index(12))));
    cnf.add_clause(std::move(clause));
  }
  const int negatives = static_cast<int>(rng.uniform_int(2, 10));
  for (int i = 0; i < negatives; ++i) cnf.add_clause({neg(static_cast<sat::Var>(rng.index(12)))});
  TomoCnf tc = from_cnf(cnf);
  tc.key.url_id = static_cast<std::int32_t>(seed);
  return tc;
}

constexpr std::uint64_t kTomoSeeds = 41;  // seeds 1..40

class TomoShapedCnf : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TomoShapedCnf, AllEnginesAgree) {
  // Every way a verdict is computed — a throwaway analyzer, a reused
  // one, and a threaded batch — against the truth table, under both
  // count settings and with an exhaustive count.
  const TomoCnf tc = tomo_shaped_cnf(GetParam());
  EXPECT_EQ(analyze_cnf(tc, exact_count_options(12)).capped_count, brute_force_count(tc));
  CnfAnalyzer reused;
  reused.analyze(tomo_shaped_cnf(GetParam() + 100));
  for (const bool resolve_counts : {false, true}) {
    SCOPED_TRACE(std::string("resolve_counts=") + (resolve_counts ? "on" : "off"));
    AnalysisOptions options;
    options.resolve_counts = resolve_counts;
    options.num_threads = 2;
    const CnfVerdict want = brute_force_verdict(tc, options);
    EXPECT_EQ(analyze_cnf(tc, options), want);
    EXPECT_EQ(reused.analyze(tc, options), want);
    const std::vector<CnfVerdict> batch = analyze_cnfs({tc, tc, tc}, options);
    ASSERT_EQ(batch.size(), 3u);
    for (const CnfVerdict& v : batch) EXPECT_EQ(v, want);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TomoShapedCnf, ::testing::Range<std::uint64_t>(1, kTomoSeeds));

/// Random tomography-shaped CNF of `num_vars` ASes: 1-4 censored paths
/// of 1-4 ASes and up to num_vars clean-path units.
TomoCnf random_shaped_cnf(util::Rng& rng, std::int32_t num_vars) {
  sat::Cnf cnf;
  cnf.num_vars = num_vars;
  const auto n = static_cast<std::size_t>(num_vars);
  const std::int64_t positives = rng.uniform_int(1, 4);
  for (std::int64_t i = 0; i < positives; ++i) {
    std::vector<sat::Lit> clause;
    const std::int64_t width = rng.uniform_int(1, 4);
    for (std::int64_t k = 0; k < width; ++k) {
      clause.push_back(pos(static_cast<sat::Var>(rng.index(n))));
    }
    cnf.add_clause(std::move(clause));
  }
  const std::int64_t negatives = rng.uniform_int(0, num_vars);
  for (std::int64_t i = 0; i < negatives; ++i) {
    cnf.add_clause({neg(static_cast<sat::Var>(rng.index(n)))});
  }
  return from_cnf(cnf);
}

/// Every query of one CNF against the referee: the class, the unique
/// model, counts capped at 3 and exhaustive, and the split.
void expect_matches_referee(CnfAnalyzer& analyzer, const TomoCnf& tc) {
  const std::int32_t n = num_vars(tc);
  const std::uint64_t count = brute_force_count(tc);
  const CnfVerdict v = analyzer.analyze(tc);
  EXPECT_EQ(v.solution_class, static_cast<int>(std::min<std::uint64_t>(count, 2)));
  EXPECT_EQ(v, brute_force_verdict(tc));
  AnalysisOptions three;
  three.count_cap = 3;
  EXPECT_EQ(analyzer.analyze(tc, three).capped_count, std::min<std::uint64_t>(count, 3));
  EXPECT_EQ(analyzer.analyze(tc, exact_count_options(n)).capped_count, count);
  if (count > 0) {
    EXPECT_EQ(test::verdict_model(v, n), brute_force_potential_true(tc));
  }
}

TEST(BackendFuzz, CounterSessionAndUnitPropAgreeOnRandomCnfs) {
  // Random tomography-shaped CNFs: the closed form's class, counts and
  // split against the truth table, on a throwaway analyzer each.
  const std::uint64_t seed = ct::test::fuzz_seed(20260730);
  SCOPED_TRACE(ct::test::fuzz_trace(seed));
  util::Rng rng(seed);
  std::vector<int> seen(3, 0);
  for (int round = 0; round < 200; ++round) {
    SCOPED_TRACE("round=" + std::to_string(round));
    const TomoCnf tc = random_shaped_cnf(rng, static_cast<std::int32_t>(rng.uniform_int(2, 10)));
    CnfAnalyzer analyzer;
    expect_matches_referee(analyzer, tc);
    seen[static_cast<std::size_t>(analyzer.analyze(tc).solution_class)] += 1;
  }
  // The generator must reach every class, or the suite proves little.
  EXPECT_GT(seen[0], 0) << "no unsatisfiable CNF";
  EXPECT_GT(seen[1], 0) << "no unique-solution CNF";
  EXPECT_GT(seen[2], 0) << "no underconstrained CNF";
}

TEST(SolverSession, MatchesBruteForceOnRandomCnfs) {
  util::Rng rng(20170711);
  for (int round = 0; round < 200; ++round) {
    SCOPED_TRACE("round=" + std::to_string(round));
    const TomoCnf tc = random_shaped_cnf(rng, static_cast<std::int32_t>(rng.uniform_int(2, 10)));
    CnfAnalyzer analyzer;
    expect_matches_referee(analyzer, tc);
    EXPECT_EQ(analyzer.stats().cnf_loads, 3u) << "one load per analysis";
  }
}

TEST(SolverSession, QueriesInAnyOrderAgree) {
  // One analyzer, the same CNF under several option sets in a random
  // order: no answer depends on the query before it.
  util::Rng rng(42);
  std::vector<AnalysisOptions> queries(4);
  queries[0].resolve_counts = false;
  queries[1].count_cap = 3;
  queries[2].count_cap = 0;
  queries[3].count_cap = 1000;
  for (int round = 0; round < 50; ++round) {
    SCOPED_TRACE("round=" + std::to_string(round));
    const TomoCnf tc = random_shaped_cnf(rng, static_cast<std::int32_t>(rng.uniform_int(3, 8)));
    rng.shuffle(queries);
    CnfAnalyzer analyzer;
    for (const AnalysisOptions& options : queries) {
      EXPECT_EQ(analyzer.analyze(tc, options), brute_force_verdict(tc, options))
          << "count_cap=" << options.count_cap << " resolve_counts=" << options.resolve_counts;
    }
  }
}

TEST(SolverSession, ArenaReloadMatchesFreshSession) {
  // One analyzer over 50 CNFs of 2-8 ASes matches the referee on each.
  util::Rng rng(99);
  CnfAnalyzer arena;
  for (int round = 0; round < 50; ++round) {
    SCOPED_TRACE("round=" + std::to_string(round));
    const TomoCnf tc = random_shaped_cnf(rng, static_cast<std::int32_t>(rng.uniform_int(2, 8)));
    EXPECT_EQ(arena.analyze(tc), brute_force_verdict(tc));
    EXPECT_EQ(arena.analyze(tc), analyze_cnf(tc));
  }
  EXPECT_EQ(arena.stats().cnf_loads, 100u);
}

}  // namespace
}  // namespace ct::tomo
