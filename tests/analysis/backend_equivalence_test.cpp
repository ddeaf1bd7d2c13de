// Forced-backend equivalence suite (README "Solver backends").
//
// The multi-backend determinism contract says a CnfVerdict depends only
// on the CNF and the analysis options — never on which SolverBackend
// computed it.  These tests hold the pipeline to that contract at the
// verdict level (every field of every verdict, byte-identical across
// auto / cdcl / count / unitprop, three seeds, lazy and eager counting)
// and at the experiment level (every table/figure data product, across
// backends x shard counts).
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/experiment.h"
#include "analysis/platform_sinks.h"
#include "analysis/scenario.h"
#include "expect_churn.h"
#include "sat/backend.h"
#include "sat/portfolio.h"
#include "shard_scenario.h"
#include "tomo/cnf_builder.h"
#include "tomo/engine.h"

namespace ct::analysis {
namespace {

using sat::BackendKind;
using Mode = sat::BackendSelector::Mode;
using test::expect_churn_equal;
using test::shard_scenario;

constexpr Mode kAllModes[] = {Mode::kAuto,     Mode::kCdcl,   Mode::kCount,
                              Mode::kUnitProp, Mode::kIpasir, Mode::kPortfolio};

std::uint64_t sum_selected(const tomo::EngineStats& stats) {
  std::uint64_t total = 0;
  for (const auto& c : stats.backends) total += c.selected;
  return total;
}

std::uint64_t sum_served(const tomo::EngineStats& stats) {
  std::uint64_t total = 0;
  for (const auto& c : stats.backends) total += c.served;
  return total;
}

std::uint64_t total_clause_volume(const std::vector<tomo::TomoCnf>& cnfs) {
  std::uint64_t total = 0;
  for (const tomo::TomoCnf& tc : cnfs) total += tc.cnf.clauses.size();
  return total;
}

TEST(BackendEquivalence, VerdictsByteIdenticalAcrossBackends) {
  for (const std::uint64_t seed : {20170623ULL, 20170624ULL, 20170625ULL}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Scenario scenario(shard_scenario(seed));
    const auto sinks = run_platform(scenario, 1);
    const std::vector<tomo::TomoCnf> cnfs =
        tomo::build_cnfs(sinks->clause_builder.pool(), sinks->clause_builder.clauses());
    ASSERT_FALSE(cnfs.empty());

    for (const bool resolve_counts : {false, true}) {
      SCOPED_TRACE(resolve_counts ? "eager counts" : "lazy counts");
      tomo::AnalysisOptions baseline_options;
      baseline_options.resolve_counts = resolve_counts;
      baseline_options.backend.mode = Mode::kCdcl;
      tomo::EngineStats baseline_stats;
      const std::vector<tomo::CnfVerdict> baseline =
          tomo::analyze_cnfs(cnfs, baseline_options, &baseline_stats);
      EXPECT_EQ(baseline_stats.cnf_loads, cnfs.size());

      for (const Mode mode : kAllModes) {
        SCOPED_TRACE(std::string("backend=") + sat::BackendSelector::to_string(mode));
        tomo::AnalysisOptions options = baseline_options;
        options.backend.mode = mode;
        tomo::EngineStats stats;
        const std::vector<tomo::CnfVerdict> verdicts =
            tomo::analyze_cnfs(cnfs, options, &stats);

        // Every field of every verdict: class, capped_count, censor
        // sets, reduction_fraction (CnfVerdict::operator==).
        EXPECT_EQ(verdicts, baseline);

        // The one-load-per-verdict invariant holds on every backend,
        // the per-backend counters account for every load, and every
        // load asserts exactly its CNF's clauses.
        const std::uint64_t loads = stats.cnf_loads;
        EXPECT_EQ(loads, cnfs.size());
        EXPECT_EQ(sum_selected(stats), loads);
        EXPECT_EQ(sum_served(stats), loads);
        EXPECT_EQ(stats.fresh_clauses, total_clause_volume(cnfs));
        const auto up = static_cast<std::size_t>(BackendKind::kUnitProp);
        EXPECT_EQ(stats.backends[up].escalated + stats.backends[up].served,
                  stats.backends[up].selected);
        if (mode == Mode::kAuto || mode == Mode::kUnitProp) {
          EXPECT_GT(stats.backends[up].served, 0u)
              << "the unit-prop fast path never decided a CNF";
        }
        if (mode == Mode::kCdcl) {
          EXPECT_EQ(stats.backends[static_cast<std::size_t>(BackendKind::kCdcl)].served,
                    loads);
        }
        if (mode == Mode::kIpasir) {
          EXPECT_EQ(stats.backends[static_cast<std::size_t>(BackendKind::kIpasir)].served,
                    loads)
              << "forced ipasir must route every CNF through the flat-C seam";
        }
        if (mode == Mode::kPortfolio) {
          EXPECT_EQ(
              stats.backends[static_cast<std::size_t>(BackendKind::kPortfolio)].served,
              loads);
          // Every solve either probed out or raced; the counters prove
          // the portfolio actually engaged rather than quietly serving
          // plain CDCL.
          EXPECT_GT(stats.portfolio.races + stats.portfolio.probe_decided, 0u);
        }
      }
    }
  }
}

TEST(BackendEquivalence, CountCapZeroNeverSelectsCountingBackend) {
  // count_cap = 0 keeps the engine's historical "capped_count stays 0"
  // behavior — no count is ever read, so auto must not route CNFs to
  // the counting backend for it (at the session level cap 0 means
  // *unbounded*, which is the opposite workload).
  Scenario scenario(shard_scenario(20170623));
  const auto sinks = run_platform(scenario, 1);
  const std::vector<tomo::TomoCnf> cnfs =
      tomo::build_cnfs(sinks->clause_builder.pool(), sinks->clause_builder.clauses());

  tomo::AnalysisOptions options;
  options.resolve_counts = true;
  options.count_cap = 0;
  tomo::EngineStats stats;
  const std::vector<tomo::CnfVerdict> verdicts = tomo::analyze_cnfs(cnfs, options, &stats);
  EXPECT_EQ(stats.backends[static_cast<std::size_t>(BackendKind::kCount)].selected, 0u);
  for (const auto& v : verdicts) EXPECT_EQ(v.capped_count, 0u);
}

void expect_results_equal(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.table1, b.table1);
  EXPECT_EQ(a.fig1, b.fig1);
  EXPECT_EQ(a.fig2.reduction_percent, b.fig2.reduction_percent);
  EXPECT_EQ(a.fig2.multi_solution_cnfs, b.fig2.multi_solution_cnfs);
  EXPECT_EQ(a.fig2.fraction_no_elimination, b.fig2.fraction_no_elimination);
  expect_churn_equal(a.fig3, b.fig3);
  EXPECT_EQ(a.fig4.fraction_five_plus, b.fig4.fraction_five_plus);
  for (const auto& [granularity, counts] : a.fig4.solution_counts) {
    const auto it = b.fig4.solution_counts.find(granularity);
    ASSERT_NE(it, b.fig4.solution_counts.end());
    for (int v = 0; v <= counts.max_exact(); ++v) {
      EXPECT_EQ(counts.count(v), it->second.count(v));
    }
    EXPECT_EQ(counts.overflow(), it->second.overflow());
  }
  EXPECT_EQ(a.identified_censors, b.identified_censors);
  EXPECT_EQ(a.censor_countries, b.censor_countries);
  EXPECT_EQ(a.observable_censors, b.observable_censors);
  EXPECT_EQ(a.total_cnfs, b.total_cnfs);
  EXPECT_EQ(a.score_all.true_positives, b.score_all.true_positives);
  EXPECT_EQ(a.score_all.false_positives, b.score_all.false_positives);
  EXPECT_EQ(a.score_all.false_negatives, b.score_all.false_negatives);
  // The backend mix itself differs across modes; the loads (one per CNF
  // of the main pass) and the clauses they asserted must not.
  EXPECT_EQ(a.engine_stats.cnf_loads, b.engine_stats.cnf_loads);
  EXPECT_EQ(a.engine_stats.fresh_clauses, b.engine_stats.fresh_clauses);
}

TEST(BackendEquivalence, RunExperimentAcrossBackendsAndShards) {
  Scenario baseline_scenario(shard_scenario(20170623));
  ExperimentOptions baseline_options;
  baseline_options.analysis.backend.mode = Mode::kCdcl;
  baseline_options.num_platform_shards = 1;
  const ExperimentResult baseline = run_experiment(baseline_scenario, baseline_options);

  for (const Mode mode : kAllModes) {
    for (const unsigned shards : {1u, 4u}) {
      SCOPED_TRACE(std::string("backend=") + sat::BackendSelector::to_string(mode) +
                   " shards=" + std::to_string(shards));
      Scenario scenario(shard_scenario(20170623));
      ExperimentOptions options;
      options.analysis.backend.mode = mode;
      options.num_platform_shards = shards;
      expect_results_equal(run_experiment(scenario, options), baseline);
    }
  }
}

// Portfolio racing on/off, crossed with forced winners: a portfolio
// width arms racing in auto mode, forced kPortfolio races every CNF, and
// injected per-member delays force specific members to win — the final
// report must be byte-identical in every case (the determinism argument
// in sat/portfolio.h, held at the experiment level).
TEST(BackendEquivalence, PortfolioRacingOnOffByteIdentical) {
  struct DelayGuard {
    ~DelayGuard() { sat::set_portfolio_test_delays({}); }
  } guard;

  Scenario baseline_scenario(shard_scenario(20170623));
  ExperimentOptions baseline_options;
  baseline_options.analysis.backend.mode = Mode::kCdcl;
  baseline_options.num_platform_shards = 1;
  const ExperimentResult baseline = run_experiment(baseline_scenario, baseline_options);

  using std::chrono::milliseconds;
  struct Case {
    const char* name;
    Mode mode;
    unsigned width;
    std::vector<std::chrono::nanoseconds> delays;
  };
  const std::vector<Case> cases = {
      {"auto+racing", Mode::kAuto, 2, {}},
      {"forced portfolio", Mode::kPortfolio, 2, {}},
      {"forced portfolio, member 1 wins", Mode::kPortfolio, 2, {milliseconds(2), {}}},
      {"forced portfolio, member 0 wins", Mode::kPortfolio, 2, {{}, milliseconds(2)}},
      {"forced portfolio width 3", Mode::kPortfolio, 3, {}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    sat::set_portfolio_test_delays(c.delays);
    Scenario scenario(shard_scenario(20170623));
    ExperimentOptions options;
    options.analysis.backend.mode = c.mode;
    options.analysis.backend.portfolio_width = c.width;
    options.num_platform_shards = 1;
    const ExperimentResult got = run_experiment(scenario, options);
    expect_results_equal(got, baseline);
    if (c.mode == Mode::kPortfolio) {
      EXPECT_GT(got.engine_stats.portfolio.races + got.engine_stats.portfolio.probe_decided,
                0u);
    }
  }
}

}  // namespace
}  // namespace ct::analysis
