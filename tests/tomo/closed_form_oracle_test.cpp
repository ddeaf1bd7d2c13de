// ClosedFormOracle: every verdict the engine computes in closed form
// must equal a brute-force sweep of its CNF (brute_force_reference.h), a
// referee that shares no code with the engine.
//
// The world suite analyzes every CNF of a small-scenario world under
// each scenario regime — the main pass's and the Figure-4 pass's —
// with count resolution on and off, and sweeps each one of at most 20
// variables (nearly all of them; the larger ones are left to the
// solver-made goldens, the report hashes and the benchmark's pinned
// verdict hashes).  A second world suite holds the monitor's Figure-4
// verdicts, from one grouper's kept entries, to those of the strip
// reference.  The random suite sweeps small monotone CNFs with model
// counts on both sides of the count cap.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <cstdint>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "../support/fuzz_seed.h"
#include "analysis/experiment.h"
#include "analysis/platform_sinks.h"
#include "analysis/scenario.h"
#include "censor/regime.h"
#include "brute_force_reference.h"
#include "tomo/cnf_builder.h"
#include "tomo/engine.h"
#include "util/rng.h"
#include "verdict_support.h"

namespace ct::tomo {
namespace {

using test::brute_force_verdict;

/// The most variables a world CNF may have for the brute-force sweep.
constexpr std::int32_t kSweepVars = 20;

std::int32_t num_vars(const TomoCnf& tc) { return static_cast<std::int32_t>(tc.vars.size()); }

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
  std::size_t swept = 0;
  for (const TomoCnf& tc : cnfs) {
    clause_volume += to_cnf(tc).clauses.size();
    swept += num_vars(tc) <= kSweepVars ? 1 : 0;
  }
  // The sweep covers nearly the whole world.
  EXPECT_GE(swept * 100, cnfs.size() * 95) << swept << " of " << cnfs.size() << " CNFs swept";

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
      if (num_vars(cnfs[i]) > kSweepVars) continue;
      if (verdicts[i] == brute_force_verdict(cnfs[i], options)) continue;
      if (++mismatches <= 5) ADD_FAILURE() << "CNF " << i << " differs from the sweep";
    }
    EXPECT_EQ(mismatches, 0u) << "of " << swept << " CNFs swept";

    // The counters account for every CNF once, in the closed-form slot,
    // and nothing searched.
    EXPECT_EQ(stats.cnf_loads, cnfs.size());
    EXPECT_EQ(stats.fresh_clauses, clause_volume);
    EXPECT_EQ(stats.solve_calls, 0u);
    for (std::size_t k = 0; k < stats.backends.size(); ++k) {
      const std::uint64_t want = k == EngineStats::kClosedFormSlot ? cnfs.size() : 0;
      EXPECT_EQ(stats.backends[k], (sat::BackendCounters{want, 0})) << "slot " << k;
    }
  }
}

TEST_P(ClosedFormOracle, OneGrouperFigure4VerdictsMatchTheStripReference) {
  // The monitor's Figure 4: one grouper at all four granularities, fed
  // the strip's kept flags in 28-day segments, emitting its kept
  // entries at the Figure-1 granularities.  Its verdicts, counts
  // resolved, equal those of build_cnfs over the strip's survivors.
  analysis::ScenarioConfig config = analysis::small_scenario();
  config.regime.regime = GetParam().regime;
  analysis::Scenario scenario(config);
  const auto sinks = analysis::run_platform(scenario, 1);
  const PathPool& pool = sinks->clause_builder.pool();
  const std::vector<PathClause>& clauses = sinks->clause_builder.clauses();
  const std::vector<util::Granularity> fig1 = analysis::ExperimentOptions{}.fig1_granularities;
  AnalysisOptions counts;
  counts.resolve_counts = true;

  CnfBuildOptions stripped;
  stripped.granularities = fig1;
  const std::vector<CnfVerdict> want =
      analyze_cnfs(build_cnfs(pool, strip_path_churn(pool, clauses), stripped), counts);

  const auto num_urls = static_cast<std::int32_t>(scenario.platform().urls().size());
  CnfBuildOptions one;
  one.kept_granularities = fig1;
  StreamingCnfBuilder grouper(pool, num_urls, one);
  ChurnStripFilter strip(pool, scenario.graph().num_ases(), num_urls);
  std::vector<TomoCnf> kept_cnfs;
  const auto take = [&kept_cnfs](EmittedCnfs cnfs) {
    std::move(cnfs.kept.begin(), cnfs.kept.end(), std::back_inserter(kept_cnfs));
  };
  std::size_t i = 0;
  for (util::Day end = 28; i < clauses.size(); end += 28) {
    const std::size_t begin = i;
    std::vector<std::uint8_t> kept;
    for (; i < clauses.size() && clauses[i].day < end; ++i) kept.push_back(strip.keep(clauses[i]));
    grouper.add(std::span(clauses).subspan(begin, i - begin), kept);
    take(grouper.advance_watermark(end));
  }
  take(grouper.flush());
  std::sort(kept_cnfs.begin(), kept_cnfs.end(),
            [](const TomoCnf& a, const TomoCnf& b) { return a.key < b.key; });
  const std::vector<CnfVerdict> got = analyze_cnfs(kept_cnfs, counts);

  ASSERT_FALSE(want.empty());
  ASSERT_EQ(got.size(), want.size());
  std::size_t mismatches = 0;
  for (std::size_t k = 0; k < got.size(); ++k) {
    if (got[k] == want[k]) continue;
    if (++mismatches <= 5) ADD_FAILURE() << "Figure-4 verdict " << k << " differs";
  }
  EXPECT_EQ(mismatches, 0u) << "of " << want.size() << " Figure-4 CNFs";
}

INSTANTIATE_TEST_SUITE_P(Regimes, ClosedFormOracle, ::testing::ValuesIn(all_worlds()),
                         [](const auto& info) { return censor::to_string(info.param.regime); });

/// A monotone CNF of the tomography shape: all-positive clauses
/// (anomalous paths, some with a repeated AS) plus negative units
/// (clean paths), and some variables in no clause at all.
TomoCnf random_monotone_cnf(util::Rng& rng) {
  sat::Cnf cnf;
  const auto num_vars = static_cast<std::int32_t>(rng.uniform_int(1, 9));
  cnf.num_vars = num_vars;
  std::vector<topo::AsId> vars;
  for (std::int32_t v = 0; v < num_vars; ++v) {
    vars.push_back(static_cast<topo::AsId>(200 + 3 * v));
  }
  rng.shuffle(vars);
  const auto n = static_cast<std::size_t>(num_vars);
  const auto positives = rng.uniform_int(1, 4);
  for (std::int64_t i = 0; i < positives; ++i) {
    std::vector<sat::Lit> clause;
    const auto len = rng.uniform_int(1, 4);
    for (std::int64_t k = 0; k < len; ++k) {
      clause.emplace_back(static_cast<sat::Var>(rng.index(n)), false);
    }
    cnf.add_clause(std::move(clause));
  }
  const auto negatives = rng.uniform_int(0, num_vars / 2);
  for (std::int64_t i = 0; i < negatives; ++i) {
    cnf.add_clause({sat::Lit(static_cast<sat::Var>(rng.index(n)), true)});
  }
  TomoCnf tc = test::from_cnf(cnf);
  tc.vars = std::move(vars);
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
  // A mixed-sign clause, and an all-negative clause of two literals:
  // neither a clean path's unit nor a censored path's disjunction, so
  // the flat layout cannot state them.  What the analyzer is handed
  // instead, an inconsistent layout, it refuses alone and in a batch.
  for (const bool mixed : {true, false}) {
    SCOPED_TRACE(mixed ? "mixed-sign clause" : "all-negative clause");
    sat::Cnf cnf;
    cnf.num_vars = 2;
    cnf.add_clause({sat::Lit(0, false)});
    cnf.add_clause({sat::Lit(0, !mixed), sat::Lit(1, true)});
    EXPECT_THROW(test::from_cnf(cnf), std::invalid_argument);
  }
  sat::Cnf monotone;
  monotone.num_vars = 2;
  monotone.add_clause({sat::Lit(0, false), sat::Lit(1, false)});
  monotone.add_clause({sat::Lit(1, true)});
  const TomoCnf broken = test::with_stray_last_literal(test::from_cnf(monotone));
  EXPECT_THROW(analyze_cnf(broken), std::invalid_argument);
  EXPECT_THROW(analyze_cnfs({broken}), std::invalid_argument);
  AnalysisOptions threaded;
  threaded.num_threads = 2;
  EXPECT_THROW(analyze_cnfs({test::from_cnf(monotone), broken}, threaded), std::invalid_argument);
}

TEST(ClosedFormOracle, CountCapZeroKeepsEveryCappedCountAtZero) {
  // count_cap = 0 keeps the engine's historical "capped_count stays 0"
  // behavior: no count is ever read.
  const std::vector<TomoCnf> cnfs = world_cnfs(censor::ScenarioRegime::kBaseline);
  AnalysisOptions options;
  options.resolve_counts = true;
  options.count_cap = 0;
  const std::vector<CnfVerdict> verdicts = analyze_cnfs(cnfs, options);
  ASSERT_FALSE(verdicts.empty());
  for (std::size_t i = 0; i < cnfs.size(); ++i) {
    EXPECT_EQ(verdicts[i].capped_count, 0u);
    if (num_vars(cnfs[i]) <= kSweepVars) {
      EXPECT_EQ(verdicts[i], brute_force_verdict(cnfs[i], options));
    }
  }
}

TEST(ClosedFormOracle, ReusedAnalyzerMatchesFreshAnalyzers) {
  // One analyzer keeps its scratch buffers across CNFs: a CNF after a
  // larger one (stale flags and residues past its end) and after a
  // smaller one (grown buffers) must get a fresh analyzer's verdict.
  std::vector<TomoCnf> cnfs = world_cnfs(censor::ScenarioRegime::kAdaptive);
  ASSERT_GE(cnfs.size(), 2u);
  std::sort(cnfs.begin(), cnfs.end(), [](const TomoCnf& a, const TomoCnf& b) {
    return a.vars.size() < b.vars.size();
  });
  // Smallest, largest, second smallest, second largest, ...
  std::vector<const TomoCnf*> order;
  for (std::size_t lo = 0, hi = cnfs.size(); lo < hi;) {
    order.push_back(&cnfs[lo++]);
    if (lo < hi) order.push_back(&cnfs[--hi]);
  }
  ASSERT_LT(order.front()->vars.size(), order[1]->vars.size());

  for (const bool resolve_counts : {false, true}) {
    SCOPED_TRACE(std::string("resolve_counts=") + (resolve_counts ? "on" : "off"));
    AnalysisOptions options;
    options.resolve_counts = resolve_counts;
    CnfAnalyzer reused;
    std::size_t mismatches = 0;
    for (const TomoCnf* tc : order) {
      if (reused.analyze(*tc, options) == analyze_cnf(*tc, options)) continue;
      if (++mismatches <= 5) ADD_FAILURE() << "a reused analyzer differs on " << tc->vars.size()
                                           << " variables";
    }
    EXPECT_EQ(mismatches, 0u);
    EXPECT_EQ(reused.stats().cnf_loads, cnfs.size());
  }
}

/// 64-bit FNV-1a, to pin long DIMACS text in a short constant.
std::uint64_t fnv1a(std::uint64_t h, const std::string& bytes) {
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

TEST(TomoDimacs, SmallScenarioBytesArePinned) {
  // The DIMACS text of every CNF of every regime's small world, main
  // and Figure-4 passes: to_cnf rebuilds exactly the clauses, in
  // exactly the order, the builder emitted before the flat layout.  The
  // hashes were recorded from CNFs built as sat::Cnf directly.
  struct Pin {
    censor::ScenarioRegime regime;
    std::size_t cnfs;
    std::uint64_t hash;
  };
  const Pin pins[] = {{censor::ScenarioRegime::kBaseline, 1594, 14549968366426290571ULL},
                      {censor::ScenarioRegime::kRoutingInduced, 1294, 17648440929900967606ULL},
                      {censor::ScenarioRegime::kMultipath, 1690, 16530781421765245382ULL},
                      {censor::ScenarioRegime::kAdaptive, 3689, 12428227747371329934ULL},
                      {censor::ScenarioRegime::kPathDiversity, 958, 1995846500058884331ULL}};
  ASSERT_EQ(std::size(pins), censor::all_regimes().size());
  constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;
  std::uint64_t all = kFnvBasis;
  for (const Pin& pin : pins) {
    SCOPED_TRACE(censor::to_string(pin.regime));
    const std::vector<TomoCnf> cnfs = world_cnfs(pin.regime);
    std::uint64_t h = kFnvBasis;
    for (const TomoCnf& tc : cnfs) {
      const std::string text = to_dimacs_string(to_cnf(tc));
      h = fnv1a(h, text);
      all = fnv1a(all, text);
    }
    EXPECT_EQ(cnfs.size(), pin.cnfs);
    EXPECT_EQ(h, pin.hash);
  }
  EXPECT_EQ(all, 15402081934502036484ULL);
}

}  // namespace
}  // namespace ct::tomo
