// Verdict-level oracle: every field of the verdict one reused
// tomo::CnfAnalyzer computes, with count resolution on and off, must
// equal what a brute-force sweep over all 2^n assignments says — an
// oracle that shares no code with the engine's closed form.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "../support/fuzz_seed.h"
#include "brute_force_reference.h"
#include "tomo/engine.h"
#include "util/rng.h"

namespace ct::tomo {
namespace {

constexpr std::uint64_t kCountCap = 6;

/// Random tomography-shaped CNF of at most 12 variables: positive
/// disjunctions (anomalous paths) plus negative units (clean paths).
/// Variables map to shuffled AS ids, so the verdict's sorting by AS is
/// exercised.
TomoCnf random_tomo_cnf(util::Rng& rng) {
  TomoCnf tc;
  const auto num_vars = static_cast<std::int32_t>(rng.uniform_int(1, 12));
  tc.cnf.num_vars = num_vars;
  for (std::int32_t v = 0; v < num_vars; ++v) {
    tc.vars.push_back(static_cast<topo::AsId>(100 + 7 * v));
  }
  rng.shuffle(tc.vars);
  const auto n = static_cast<std::size_t>(num_vars);
  const auto positives = rng.uniform_int(1, 4);
  for (std::int64_t i = 0; i < positives; ++i) {
    std::vector<sat::Lit> clause;
    const auto len = rng.uniform_int(1, 5);
    for (std::int64_t k = 0; k < len; ++k) {
      clause.emplace_back(static_cast<sat::Var>(rng.index(n)), false);
    }
    tc.cnf.add_clause(std::move(clause));
  }
  const auto negatives = rng.uniform_int(0, num_vars);
  for (std::int64_t i = 0; i < negatives; ++i) {
    tc.cnf.add_clause({sat::Lit(static_cast<sat::Var>(rng.index(n)), true)});
  }
  return tc;
}

TEST(VerdictOracle, AnalyzeCnfMatchesBruteForceUnderEveryBackend) {
  const std::uint64_t seed = ct::test::fuzz_seed(20171101);
  SCOPED_TRACE(ct::test::fuzz_trace(seed));
  util::Rng rng(seed);
  std::vector<int> class_seen(3, 0);

  CnfAnalyzer analyzer;
  for (int round = 0; round < 150; ++round) {
    SCOPED_TRACE("round=" + std::to_string(round));
    TomoCnf tc = random_tomo_cnf(rng);
    tc.key.url_id = round;
    for (const bool resolve_counts : {false, true}) {
      SCOPED_TRACE(std::string("resolve_counts=") + (resolve_counts ? "on" : "off"));
      AnalysisOptions options;
      options.count_cap = kCountCap;
      options.resolve_counts = resolve_counts;
      const CnfVerdict want = test::brute_force_verdict(tc, options);
      class_seen[static_cast<std::size_t>(want.solution_class)] += 1;
      const CnfVerdict got = analyzer.analyze(tc, options);
      EXPECT_EQ(got.solution_class, want.solution_class);
      EXPECT_EQ(got.capped_count, want.capped_count);
      EXPECT_EQ(got.censors, want.censors);
      EXPECT_EQ(got.potential_censors, want.potential_censors);
      EXPECT_EQ(got.definite_noncensors, want.definite_noncensors);
      EXPECT_DOUBLE_EQ(got.reduction_fraction, want.reduction_fraction);
      EXPECT_EQ(got, want) << "every verdict field, key and num_vars included";
    }
  }

  // The generator must reach every class, or the oracle checks less
  // than it claims.
  EXPECT_GT(class_seen[0], 0) << "no unsatisfiable CNF";
  EXPECT_GT(class_seen[1], 0) << "no unique-solution CNF";
  EXPECT_GT(class_seen[2], 0) << "no underconstrained CNF";
}

}  // namespace
}  // namespace ct::tomo
