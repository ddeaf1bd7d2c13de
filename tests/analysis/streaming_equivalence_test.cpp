// Batch-vs-streaming equivalence suite (README "Streaming ingest").
//
// The streaming determinism contract says the overlapped pipeline —
// window-complete CNFs emitted as the measurement clock passes each
// boundary, min-merged across shards, analyzed concurrently with
// ingest — produces *byte-identical* results to the phase-separated
// batch path: same sink contents, same TomoCnf set (DIMACS-exact),
// same CnfVerdict vector.  These tests hold the implementation to that
// contract across three scenario seeds, serial/2/4-shard ingest, all
// four granularities, and the full experiment's data products.
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/experiment.h"
#include "analysis/platform_sinks.h"
#include "analysis/scenario.h"
#include "analysis/streaming_pipeline.h"
#include "expect_churn.h"
#include "sat/dimacs.h"
#include "shard_env.h"
#include "tomo/cnf_builder.h"
#include "tomo/engine.h"

namespace ct::analysis {
namespace {

using test::expect_churn_equal;
using test::shard_scenario;

void expect_cnfs_equal(const std::vector<tomo::TomoCnf>& actual,
                       const std::vector<tomo::TomoCnf>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    SCOPED_TRACE("cnf " + std::to_string(i));
    const tomo::TomoCnf& a = actual[i];
    const tomo::TomoCnf& e = expected[i];
    EXPECT_EQ(a.key, e.key);
    EXPECT_EQ(a.vars, e.vars);
    EXPECT_EQ(a.positive_paths, e.positive_paths);
    EXPECT_EQ(a.num_positive_clauses, e.num_positive_clauses);
    EXPECT_EQ(a.num_negative_units, e.num_negative_units);
    // DIMACS-exact: the SAT instance bytes match.
    EXPECT_EQ(sat::to_dimacs_string(a.cnf), sat::to_dimacs_string(e.cnf));
  }
}

void expect_verdicts_equal(const std::vector<tomo::CnfVerdict>& actual,
                           const std::vector<tomo::CnfVerdict>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    SCOPED_TRACE("verdict " + std::to_string(i));
    const tomo::CnfVerdict& a = actual[i];
    const tomo::CnfVerdict& e = expected[i];
    EXPECT_EQ(a.key, e.key);
    EXPECT_EQ(a.num_vars, e.num_vars);
    EXPECT_EQ(a.solution_class, e.solution_class);
    EXPECT_EQ(a.capped_count, e.capped_count);
    EXPECT_EQ(a.censors, e.censors);
    EXPECT_EQ(a.potential_censors, e.potential_censors);
    EXPECT_EQ(a.definite_noncensors, e.definite_noncensors);
    EXPECT_EQ(a.reduction_fraction, e.reduction_fraction);  // bit-exact
  }
}

void expect_sinks_equal(const PlatformSinks& actual, const PlatformSinks& expected) {
  EXPECT_EQ(actual.clause_builder.clauses(), expected.clause_builder.clauses());
  EXPECT_EQ(actual.clause_builder.seqs(), expected.clause_builder.seqs());
  EXPECT_EQ(actual.clause_builder.stats(), expected.clause_builder.stats());
  ASSERT_EQ(actual.clause_builder.pool().size(), expected.clause_builder.pool().size());
  for (std::size_t i = 0; i < actual.clause_builder.pool().size(); ++i) {
    EXPECT_EQ(actual.clause_builder.pool().get(static_cast<tomo::PathPool::PathId>(i)),
              expected.clause_builder.pool().get(static_cast<tomo::PathPool::PathId>(i)));
  }
  EXPECT_EQ(actual.summary.measurements(), expected.summary.measurements());
  EXPECT_EQ(actual.summary.unreachable(), expected.summary.unreachable());
  EXPECT_EQ(actual.truth_tracker.observable(), expected.truth_tracker.observable());
  expect_churn_equal(actual.churn_tracker.compute(), expected.churn_tracker.compute());
}

/// Batch reference for one scenario: run_platform + build_cnfs +
/// analyze_cnfs, exactly run_experiment's batch main pass.
struct BatchReference {
  std::unique_ptr<PlatformSinks> sinks;
  std::vector<tomo::TomoCnf> cnfs;
  std::vector<tomo::CnfVerdict> verdicts;
};

BatchReference batch_reference(Scenario& scenario, const tomo::CnfBuildOptions& build,
                               const tomo::AnalysisOptions& analysis) {
  BatchReference ref;
  ref.sinks = run_platform(scenario, 1);
  ref.cnfs = tomo::build_cnfs(ref.sinks->clause_builder.pool(),
                              ref.sinks->clause_builder.clauses(), build);
  ref.verdicts = tomo::analyze_cnfs(ref.cnfs, analysis);
  return ref;
}

TEST(StreamingEquivalence, PipelineMatchesBatchAcrossSeedsAndShardCounts) {
  tomo::CnfBuildOptions build;  // all four granularities
  tomo::AnalysisOptions analysis;
  analysis.resolve_counts = false;  // run_experiment's main-pass shape

  for (const std::uint64_t seed : {20170623ULL, 20170624ULL, 20170625ULL}) {
    Scenario ref_scenario(shard_scenario(seed));
    const BatchReference ref = batch_reference(ref_scenario, build, analysis);

    for (const unsigned shards : {1u, 2u, 4u}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) + " shards=" + std::to_string(shards));
      Scenario scenario(shard_scenario(seed));
      StreamingOptions options;
      options.num_platform_shards = shards;
      options.analysis = analysis;
      options.analysis.num_threads = 2;  // overlap even on one core
      options.build = build;
      StreamingResult streamed = run_streaming_pipeline(scenario, options);

      expect_cnfs_equal(streamed.cnfs, ref.cnfs);
      expect_verdicts_equal(streamed.verdicts, ref.verdicts);
      expect_sinks_equal(*streamed.sinks, *ref.sinks);
      // Session accounting survives streaming: one load per verdict,
      // asserting exactly that CNF's clauses, in every shard mode.
      EXPECT_EQ(streamed.engine_stats.cnf_loads, streamed.cnfs.size());
      std::uint64_t clause_volume = 0;
      for (const tomo::TomoCnf& tc : streamed.cnfs) clause_volume += tc.cnf.clauses.size();
      EXPECT_EQ(streamed.engine_stats.fresh_clauses, clause_volume);
    }
  }
}

TEST(StreamingEquivalence, EveryGranularitySubsetMatches) {
  // Single-granularity builds exercise the window-closure logic at each
  // cadence in isolation (year windows only close at flush()).
  Scenario scenario(shard_scenario(20170623));
  tomo::AnalysisOptions analysis;
  analysis.resolve_counts = false;

  for (const util::Granularity g : util::kAllGranularities) {
    SCOPED_TRACE(std::string("granularity=") + std::string(util::to_string(g)));
    tomo::CnfBuildOptions build;
    build.granularities = {g};

    Scenario ref_scenario(shard_scenario(20170623));
    const BatchReference ref = batch_reference(ref_scenario, build, analysis);

    StreamingOptions options;
    options.num_platform_shards = 2;
    options.analysis = analysis;
    options.analysis.num_threads = 2;
    options.build = build;
    options.queue_capacity = 4;  // exercise back-pressure
    StreamingResult streamed = run_streaming_pipeline(scenario, options);

    expect_cnfs_equal(streamed.cnfs, ref.cnfs);
    expect_verdicts_equal(streamed.verdicts, ref.verdicts);
  }
}

TEST(StreamingEquivalence, VantageSplitShardsShareDays) {
  // shards > num_days forces plan_shards to split the vantage
  // dimension, so several shards cover the *same* days and the
  // coordinator's same-day cross-shard merge does real work: the
  // stable seq sort interleaves entries from different shards, and a
  // day's windows may only close once every shard covering it has
  // delivered (min-watermark accounting).  The day-chunked cases above
  // never reach this path.
  ScenarioConfig cfg = small_scenario();
  cfg.platform.num_days = 3;
  cfg.seed = 20170623;
  tomo::CnfBuildOptions build;  // all four granularities
  tomo::AnalysisOptions analysis;
  analysis.resolve_counts = false;

  Scenario ref_scenario(cfg);
  const BatchReference ref = batch_reference(ref_scenario, build, analysis);

  Scenario scenario(cfg);
  StreamingOptions options;
  options.num_platform_shards = 5;  // > 3 days -> vantage_chunks > 1
  options.analysis = analysis;
  options.analysis.num_threads = 2;
  options.build = build;
  StreamingResult streamed = run_streaming_pipeline(scenario, options);

  expect_cnfs_equal(streamed.cnfs, ref.cnfs);
  expect_verdicts_equal(streamed.verdicts, ref.verdicts);
  expect_sinks_equal(*streamed.sinks, *ref.sinks);
}

TEST(StreamingEquivalence, RunExperimentStreamingBitIdentical) {
  // run_experiment's streaming path runs fully retired (O(open windows):
  // no retained clauses, CNFs, or verdicts — every product comes from
  // the incremental folds and the streamed Figure-4 ablation), so this
  // also holds the drop-mode configuration to byte-identity.
  for (const std::uint64_t seed : {20170623ULL, 20170624ULL, 20170625ULL}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Scenario batch_scenario(shard_scenario(seed));
    ExperimentOptions batch_options;
    batch_options.num_platform_shards = test::shards_from_env();
    const ExperimentResult batch = run_experiment(batch_scenario, batch_options);

    for (const unsigned shards : {1u, 4u}) {
      SCOPED_TRACE("shards=" + std::to_string(shards));
      Scenario scenario(shard_scenario(seed));
      ExperimentOptions options;
      options.streaming = true;
      options.num_platform_shards = shards;
      const ExperimentResult streamed = run_experiment(scenario, options);

      EXPECT_EQ(streamed.table1, batch.table1);
      EXPECT_EQ(streamed.fig1, batch.fig1);
      EXPECT_EQ(streamed.fig2.reduction_percent, batch.fig2.reduction_percent);
      EXPECT_EQ(streamed.fig2.multi_solution_cnfs, batch.fig2.multi_solution_cnfs);
      expect_churn_equal(streamed.fig3, batch.fig3);
      EXPECT_EQ(streamed.fig4.fraction_five_plus, batch.fig4.fraction_five_plus);
      EXPECT_EQ(streamed.identified_censors, batch.identified_censors);
      EXPECT_EQ(streamed.censor_countries, batch.censor_countries);
      EXPECT_EQ(streamed.observable_censors, batch.observable_censors);
      EXPECT_EQ(streamed.total_cnfs, batch.total_cnfs);
      EXPECT_EQ(streamed.score_all.true_positives, batch.score_all.true_positives);
      EXPECT_EQ(streamed.score_all.false_positives, batch.score_all.false_positives);
    }
  }
}

}  // namespace
}  // namespace ct::analysis
