// ClosedFormOracle: every verdict the engine returns must equal the
// closed form of its CNF (closed_form_reference.h), a referee that
// shares no code with the SAT layer.
//
// The world suite analyzes every CNF of a small-scenario world under
// each scenario regime — the main pass's and the Figure-4 pass's —
// with count resolution on and off, and asserts that all three routes
// served some of them: unit propagation decided, unit propagation
// escalated to CDCL, and CDCL picked outright.  The random suite holds
// the closed form itself to a brute-force sweep on small monotone CNFs,
// with model counts on both sides of the count cap.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "../support/fuzz_seed.h"
#include "analysis/experiment.h"
#include "analysis/platform_sinks.h"
#include "analysis/scenario.h"
#include "censor/regime.h"
#include "closed_form_reference.h"
#include "tomo/cnf_builder.h"
#include "tomo/engine.h"
#include "util/rng.h"

namespace ct::tomo {
namespace {

using test::brute_force_verdict;
using test::closed_form_verdict;

constexpr auto kCdcl = static_cast<std::size_t>(sat::BackendKind::kCdcl);
constexpr auto kUnitProp = static_cast<std::size_t>(sat::BackendKind::kUnitProp);

/// The main pass's and the Figure-4 pass's CNFs of one world.
std::vector<TomoCnf> world_cnfs(censor::ScenarioRegime regime) {
  analysis::ScenarioConfig config = analysis::small_scenario();
  config.regime.regime = regime;
  analysis::Scenario scenario(config);
  const auto sinks = analysis::run_platform(scenario, 1);
  const PathPool& pool = sinks->clause_builder.pool();
  const std::vector<PathClause>& clauses = sinks->clause_builder.clauses();
  std::vector<TomoCnf> cnfs = build_cnfs(pool, clauses);
  CnfBuildOptions fig4;
  fig4.granularities = analysis::ExperimentOptions{}.fig1_granularities;
  for (TomoCnf& tc : build_cnfs(pool, strip_path_churn(pool, clauses), fig4)) {
    cnfs.push_back(std::move(tc));
  }
  return cnfs;
}

/// One small-scenario world, named by its regime.
struct World {
  censor::ScenarioRegime regime;
};

void PrintTo(const World& world, std::ostream* os) { *os << censor::to_string(world.regime); }

std::vector<World> all_worlds() {
  std::vector<World> worlds;
  for (const censor::ScenarioRegime regime : censor::all_regimes()) worlds.push_back({regime});
  return worlds;
}

class ClosedFormOracle : public ::testing::TestWithParam<World> {};

TEST_P(ClosedFormOracle, EveryVerdictMatchesTheClosedForm) {
  const std::vector<TomoCnf> cnfs = world_cnfs(GetParam().regime);
  ASSERT_FALSE(cnfs.empty());
  std::uint64_t clause_volume = 0;
  for (const TomoCnf& tc : cnfs) clause_volume += tc.cnf.clauses.size();

  for (const bool resolve_counts : {false, true}) {
    SCOPED_TRACE(std::string("resolve_counts=") + (resolve_counts ? "on" : "off"));
    AnalysisOptions options;
    options.resolve_counts = resolve_counts;
    options.num_threads = 2;
    EngineStats stats;
    const std::vector<CnfVerdict> verdicts = analyze_cnfs(cnfs, options, &stats);
    ASSERT_EQ(verdicts.size(), cnfs.size());
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < cnfs.size(); ++i) {
      if (verdicts[i] == closed_form_verdict(cnfs[i], options)) continue;
      if (++mismatches <= 5) ADD_FAILURE() << "CNF " << i << " differs from its closed form";
    }
    EXPECT_EQ(mismatches, 0u) << "of " << cnfs.size() << " CNFs";

    // The counters account for every CNF once: one load, one route
    // picked and one route that served it.
    const auto& routes = stats.backends;
    EXPECT_EQ(stats.cnf_loads, cnfs.size());
    EXPECT_EQ(stats.fresh_clauses, clause_volume);
    std::uint64_t selected = 0;
    std::uint64_t served = 0;
    for (const sat::BackendCounters& c : routes) {
      selected += c.selected;
      served += c.served;
    }
    EXPECT_EQ(selected, cnfs.size());
    EXPECT_EQ(served, cnfs.size());
    EXPECT_EQ(routes[kUnitProp].selected, routes[kUnitProp].served + routes[kUnitProp].escalated);

    // Every route served part of the world.
    EXPECT_GT(routes[kUnitProp].served, 0u) << "unit propagation decided no CNF";
    EXPECT_GT(routes[kUnitProp].escalated, 0u) << "no CNF escalated to CDCL";
    EXPECT_GT(routes[kCdcl].selected, 0u) << "no CNF was routed straight to CDCL";
  }
}

INSTANTIATE_TEST_SUITE_P(Regimes, ClosedFormOracle, ::testing::ValuesIn(all_worlds()),
                         [](const auto& info) { return censor::to_string(info.param.regime); });

/// A monotone CNF of the tomography shape: all-positive clauses
/// (anomalous paths, some with a repeated AS) plus negative units
/// (clean paths), and some variables in no clause at all.
TomoCnf random_monotone_cnf(util::Rng& rng) {
  TomoCnf tc;
  const auto num_vars = static_cast<std::int32_t>(rng.uniform_int(1, 9));
  tc.cnf.num_vars = num_vars;
  for (std::int32_t v = 0; v < num_vars; ++v) {
    tc.vars.push_back(static_cast<topo::AsId>(200 + 3 * v));
  }
  rng.shuffle(tc.vars);
  const auto n = static_cast<std::size_t>(num_vars);
  const auto positives = rng.uniform_int(1, 4);
  for (std::int64_t i = 0; i < positives; ++i) {
    std::vector<sat::Lit> clause;
    const auto len = rng.uniform_int(1, 4);
    for (std::int64_t k = 0; k < len; ++k) {
      clause.emplace_back(static_cast<sat::Var>(rng.index(n)), false);
    }
    tc.cnf.add_clause(std::move(clause));
  }
  const auto negatives = rng.uniform_int(0, num_vars / 2);
  for (std::int64_t i = 0; i < negatives; ++i) {
    tc.cnf.add_clause({sat::Lit(static_cast<sat::Var>(rng.index(n)), true)});
  }
  return tc;
}

TEST(ClosedFormOracle, MatchesBruteForceOnRandomMonotoneCnfs) {
  const std::uint64_t seed = ct::test::fuzz_seed(20171102);
  SCOPED_TRACE(ct::test::fuzz_trace(seed));
  util::Rng rng(seed);
  constexpr std::uint64_t kCap = 6;
  std::vector<int> class_seen(3, 0);
  std::vector<int> count_seen(kCap + 2, 0);  // exact counts 0..kCap+1

  for (int round = 0; round < 2000; ++round) {
    SCOPED_TRACE("round=" + std::to_string(round));
    TomoCnf tc = random_monotone_cnf(rng);
    tc.key.url_id = round;
    {
      AnalysisOptions exact;
      exact.count_cap = kCap + 1;
      const std::uint64_t count = brute_force_verdict(tc, exact).capped_count;
      if (count <= kCap + 1) count_seen[count] += 1;
    }
    for (const bool resolve_counts : {false, true}) {
      SCOPED_TRACE(std::string("resolve_counts=") + (resolve_counts ? "on" : "off"));
      AnalysisOptions options;
      options.count_cap = kCap;
      options.resolve_counts = resolve_counts;
      const CnfVerdict want = brute_force_verdict(tc, options);
      class_seen[static_cast<std::size_t>(want.solution_class)] += 1;
      EXPECT_EQ(closed_form_verdict(tc, options), want);
      EXPECT_EQ(analyze_cnf(tc, options), want);
    }
  }

  EXPECT_GT(class_seen[0], 0) << "no unsatisfiable CNF";
  EXPECT_GT(class_seen[1], 0) << "no unique-solution CNF";
  EXPECT_GT(class_seen[2], 0) << "no underconstrained CNF";
  // Counts just below, at and just above the cap.
  for (const std::uint64_t at : {kCap - 1, kCap, kCap + 1}) {
    EXPECT_GT(count_seen[at], 0) << "no CNF with " << at << " models";
  }
}

TEST(ClosedFormOracle, RefusesOtherClauseShapes) {
  TomoCnf tc;
  tc.vars = {1, 2};
  tc.cnf.num_vars = 2;
  tc.cnf.add_clause({sat::Lit(0, false), sat::Lit(1, true)});
  EXPECT_THROW(closed_form_verdict(tc), std::invalid_argument);
}

TEST(ClosedFormOracle, CountCapZeroKeepsEveryCappedCountAtZero) {
  // count_cap = 0 keeps the engine's historical "capped_count stays 0"
  // behavior: no count is ever read (at the session level cap 0 means
  // *unbounded*, which is the opposite workload).
  const std::vector<TomoCnf> cnfs = world_cnfs(censor::ScenarioRegime::kBaseline);
  AnalysisOptions options;
  options.resolve_counts = true;
  options.count_cap = 0;
  const std::vector<CnfVerdict> verdicts = analyze_cnfs(cnfs, options);
  ASSERT_FALSE(verdicts.empty());
  for (std::size_t i = 0; i < cnfs.size(); ++i) {
    EXPECT_EQ(verdicts[i].capped_count, 0u);
    EXPECT_EQ(verdicts[i], closed_form_verdict(cnfs[i], options));
  }
}

}  // namespace
}  // namespace ct::tomo
