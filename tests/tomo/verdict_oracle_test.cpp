// Verdict-level oracle: every field of tomo::analyze_cnf's verdict,
// under every backend mode and with count resolution on and off, must
// equal what a brute-force sweep over all 2^n assignments says — an
// oracle that shares no code with the SAT layer.  The cross-backend
// suites hold the backends to each other; this one holds them to the
// truth.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "../support/fuzz_seed.h"
#include "tomo/engine.h"
#include "util/rng.h"

namespace ct::tomo {
namespace {

using Mode = sat::BackendSelector::Mode;

constexpr std::uint64_t kCountCap = 6;

/// Random tomography-shaped CNF of at most 12 variables: positive
/// disjunctions (anomalous paths) plus negative units (clean paths),
/// as property_test's TomoShapedCnf builds them.  Variables map to
/// shuffled AS ids, so the verdict's sorting by AS is exercised.
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

/// The verdict fields, computed by enumerating every assignment.
CnfVerdict brute_force_verdict(const TomoCnf& tc, bool resolve_counts) {
  const auto n = static_cast<std::uint32_t>(tc.cnf.num_vars);
  std::uint64_t count = 0;
  std::uint32_t ever_true = 0;
  std::uint32_t last_model = 0;
  for (std::uint32_t a = 0; a < (1u << n); ++a) {
    const bool satisfied = std::all_of(
        tc.cnf.clauses.begin(), tc.cnf.clauses.end(), [a](const std::vector<sat::Lit>& c) {
          return std::any_of(c.begin(), c.end(), [a](sat::Lit l) {
            return (((a >> l.var()) & 1u) != 0) != l.negated();
          });
        });
    if (satisfied) {
      ++count;
      ever_true |= a;
      last_model = a;
    }
  }

  CnfVerdict want;
  want.key = tc.key;
  want.num_vars = n;
  want.solution_class = static_cast<int>(std::min<std::uint64_t>(count, 2));
  want.capped_count = std::min<std::uint64_t>(count, resolve_counts ? kCountCap : 2);
  for (std::uint32_t v = 0; v < n; ++v) {
    const topo::AsId as = tc.vars[v];
    if (want.solution_class == 1 && ((last_model >> v) & 1u) != 0) want.censors.push_back(as);
    if (want.solution_class == 2) {
      (((ever_true >> v) & 1u) != 0 ? want.potential_censors : want.definite_noncensors)
          .push_back(as);
    }
  }
  std::sort(want.censors.begin(), want.censors.end());
  std::sort(want.potential_censors.begin(), want.potential_censors.end());
  std::sort(want.definite_noncensors.begin(), want.definite_noncensors.end());
  if (want.solution_class == 2) {
    want.reduction_fraction =
        static_cast<double>(want.definite_noncensors.size()) / static_cast<double>(n);
  }
  return want;
}

TEST(VerdictOracle, AnalyzeCnfMatchesBruteForceUnderEveryBackend) {
  const std::uint64_t seed = ct::test::fuzz_seed(20171101);
  SCOPED_TRACE(ct::test::fuzz_trace(seed));
  util::Rng rng(seed);
  std::vector<int> class_seen(3, 0);

  for (int round = 0; round < 150; ++round) {
    SCOPED_TRACE("round=" + std::to_string(round));
    TomoCnf tc = random_tomo_cnf(rng);
    tc.key.url_id = round;
    for (const bool resolve_counts : {false, true}) {
      const CnfVerdict want = brute_force_verdict(tc, resolve_counts);
      class_seen[static_cast<std::size_t>(want.solution_class)] += 1;
      for (const Mode mode : {Mode::kAuto, Mode::kCdcl, Mode::kUnitProp}) {
        SCOPED_TRACE(std::string("backend=") + sat::BackendSelector::to_string(mode) +
                     " resolve_counts=" + (resolve_counts ? "on" : "off"));
        AnalysisOptions options;
        options.count_cap = kCountCap;
        options.resolve_counts = resolve_counts;
        options.backend.mode = mode;
        const CnfVerdict got = analyze_cnf(tc, options);
        EXPECT_EQ(got.solution_class, want.solution_class);
        EXPECT_EQ(got.capped_count, want.capped_count);
        EXPECT_EQ(got.censors, want.censors);
        EXPECT_EQ(got.potential_censors, want.potential_censors);
        EXPECT_EQ(got.definite_noncensors, want.definite_noncensors);
        EXPECT_DOUBLE_EQ(got.reduction_fraction, want.reduction_fraction);
        EXPECT_EQ(got, want) << "every verdict field, key and num_vars included";
      }
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
