// Serial-vs-sharded equivalence suite.
//
// The sharding determinism contract (README "Sharded execution") says a
// platform run split into any disjoint (vantage, day) tiling and handed
// off into one bundle is *bit-identical* to the serial run — same clause
// stream, same path-pool numbering, same DIMACS bytes, same figures.
// These tests hold the implementation to that contract at both the sink
// level (raw clause/churn streams) and the experiment level (every
// table/figure data product), across shard counts 2/4/7 and three
// scenario seeds.
#include <algorithm>
#include <limits>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/churn_stats.h"
#include "analysis/experiment.h"
#include "analysis/platform_sinks.h"
#include "analysis/scenario.h"
#include "expect_churn.h"
#include "shard_scenario.h"
#include "tomo/clause.h"
#include "tomo/cnf_builder.h"
#include "util/thread_pool.h"

namespace ct::analysis {
namespace {

using test::expect_churn_equal;
using test::shard_scenario;

void expect_pools_equal(const tomo::PathPool& a, const tomo::PathPool& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.get(static_cast<tomo::PathPool::PathId>(i)),
              b.get(static_cast<tomo::PathPool::PathId>(i)))
        << "path id " << i << " interned differently";
  }
}

std::vector<std::string> dimacs_of(const tomo::ClauseBuilder& builder) {
  const std::vector<tomo::TomoCnf> cnfs =
      tomo::build_cnfs(builder.pool(), builder.clauses());
  std::vector<std::string> out;
  out.reserve(cnfs.size());
  for (const auto& cnf : cnfs) out.push_back(tomo::to_dimacs_string(tomo::to_cnf(cnf)));
  return out;
}

/// Compares every sink of a merged bundle against the serial run's.
void expect_bundle_matches_serial(const PlatformSinks& merged, const PlatformSinks& serial) {
  // Clause stream: bit-identical, including path-pool numbering.
  EXPECT_EQ(merged.clause_builder.clauses(), serial.clause_builder.clauses());
  EXPECT_EQ(merged.clause_builder.seqs(), serial.clause_builder.seqs());
  EXPECT_EQ(merged.clause_builder.stats(), serial.clause_builder.stats());
  expect_pools_equal(merged.clause_builder.pool(), serial.clause_builder.pool());

  // Dataset summary and ground-truth observability.
  EXPECT_EQ(merged.summary.measurements(), serial.summary.measurements());
  EXPECT_EQ(merged.summary.unreachable(), serial.summary.unreachable());
  EXPECT_EQ(merged.summary.distinct_vantages(), serial.summary.distinct_vantages());
  EXPECT_EQ(merged.summary.distinct_urls(), serial.summary.distinct_urls());
  EXPECT_EQ(merged.summary.distinct_countries(), serial.summary.distinct_countries());
  for (const censor::Anomaly a : censor::kAllAnomalies) {
    EXPECT_EQ(merged.summary.anomaly_count(a), serial.summary.anomaly_count(a));
  }
  EXPECT_EQ(merged.truth_tracker.observable(), serial.truth_tracker.observable());

  // Path churn (Figure 3).
  expect_churn_equal(merged.churn_tracker.compute(), serial.churn_tracker.compute());
}

/// Runs every shard of `ranges` into its own sink bundle, hands them off
/// in the given order into one bundle, and compares everything against
/// `serial`, DIMACS bytes included.
void expect_sharded_matches_serial(Scenario& scenario, const PlatformSinks& serial,
                                   const std::vector<iclab::ShardRange>& ranges,
                                   const std::vector<std::size_t>& merge_order) {
  std::vector<std::unique_ptr<PlatformSinks>> shards;
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    shards.push_back(std::make_unique<PlatformSinks>(scenario));
    scenario.platform().run_shard(shards.back()->fanout, ranges[i]);
  }

  std::vector<std::unique_ptr<PlatformSinks>> ordered;
  for (const std::size_t i : merge_order) ordered.push_back(std::move(shards[i]));
  PlatformSinks merged(scenario);
  merged.absorb(ordered);
  expect_bundle_matches_serial(merged, serial);
  EXPECT_EQ(dimacs_of(merged.clause_builder), dimacs_of(serial.clause_builder));
}

TEST(PlanShards, GridClampsToDimensions) {
  const auto ranges = iclab::plan_shard_grid(3, 2, 10, 10);
  EXPECT_EQ(ranges.size(), 6u);  // 3 day chunks x 2 vantage chunks
  // The largest chunk counts clamp the same way instead of overflowing.
  const std::int32_t most = std::numeric_limits<std::int32_t>::max();
  EXPECT_EQ(iclab::plan_shard_grid(3, 2, most, most).size(), 6u);
  EXPECT_EQ(iclab::plan_shard_grid(3, 2, 0, 0).size(), 1u);  // at least one chunk
  EXPECT_THROW(iclab::plan_shard_grid(0, 2, 1, 1), std::invalid_argument);
}

TEST(ShardEquivalence, SinkStreamsAcrossShardCountsAndSeeds) {
  for (const std::uint64_t seed : {20170623ULL, 20170624ULL, 20170625ULL}) {
    Scenario scenario(shard_scenario(seed));
    PlatformSinks serial(scenario);
    scenario.platform().run(serial.fanout);

    for (const std::int32_t shards : {2, 4, 7}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) + " shards=" + std::to_string(shards));
      const auto ranges = iclab::plan_shard_grid(
          scenario.platform().config().num_days,
          static_cast<std::int32_t>(scenario.platform().vantages().size()), shards, 1);
      std::vector<std::size_t> order(ranges.size());
      std::iota(order.begin(), order.end(), std::size_t{0});
      expect_sharded_matches_serial(scenario, serial, ranges, order);
    }
  }
}

TEST(ShardEquivalence, VantageDimensionAndMergeOrder) {
  Scenario scenario(shard_scenario(20170623));
  PlatformSinks serial(scenario);
  scenario.platform().run(serial.fanout);
  const auto num_days = scenario.platform().config().num_days;
  const auto num_vp = static_cast<std::int32_t>(scenario.platform().vantages().size());

  // Grids that split the vantage dimension — with merge orders other
  // than plan order.
  const std::vector<std::pair<std::int32_t, std::int32_t>> grids{
      {1, 2}, {2, 2}, {1, 7}, {3, 4}};
  for (const auto& [day_chunks, vp_chunks] : grids) {
    SCOPED_TRACE("grid=" + std::to_string(day_chunks) + "x" + std::to_string(vp_chunks));
    const auto ranges = iclab::plan_shard_grid(num_days, num_vp, day_chunks, vp_chunks);
    std::vector<std::size_t> reversed(ranges.size());
    std::iota(reversed.begin(), reversed.end(), std::size_t{0});
    std::reverse(reversed.begin(), reversed.end());
    expect_sharded_matches_serial(scenario, serial, ranges, reversed);
  }
}

TEST(ShardEquivalence, RunExperimentBitIdenticalAcrossShardCounts) {
  for (const std::uint64_t seed : {20170623ULL, 20170624ULL, 20170625ULL}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Scenario serial_scenario(shard_scenario(seed));
    ExperimentOptions serial_options;
    serial_options.num_platform_shards = 1;
    const ExperimentResult serial = run_experiment(serial_scenario, serial_options);

    for (const unsigned shards : {2u, 4u, 7u}) {
      SCOPED_TRACE("shards=" + std::to_string(shards));
      Scenario scenario(shard_scenario(seed));
      ExperimentOptions options;
      options.num_platform_shards = shards;
      const ExperimentResult sharded = run_experiment(scenario, options);

      EXPECT_EQ(sharded.table1, serial.table1);
      EXPECT_EQ(sharded.fig1, serial.fig1);
      EXPECT_EQ(sharded.fig2.reduction_percent, serial.fig2.reduction_percent);
      EXPECT_EQ(sharded.fig2.multi_solution_cnfs, serial.fig2.multi_solution_cnfs);
      expect_churn_equal(sharded.fig3, serial.fig3);
      EXPECT_EQ(sharded.fig4.fraction_five_plus, serial.fig4.fraction_five_plus);
      EXPECT_EQ(sharded.identified_censors, serial.identified_censors);
      EXPECT_EQ(sharded.censor_countries, serial.censor_countries);
      EXPECT_EQ(sharded.observable_censors, serial.observable_censors);
      EXPECT_EQ(sharded.total_cnfs, serial.total_cnfs);
      EXPECT_EQ(sharded.score_all.true_positives, serial.score_all.true_positives);
      EXPECT_EQ(sharded.score_all.false_positives, serial.score_all.false_positives);
    }
  }
}

TEST(ShardEquivalence, RunPlatformDayRangeMatchesSerialSlice) {
  Scenario scenario(shard_scenario(20170623));
  const auto num_vp = static_cast<std::int32_t>(scenario.platform().vantages().size());

  // The whole schedule on one shard, a mid-run slice split by days, and
  // a slice with more shards than days, which splits the vantage
  // dimension (three vantage columns per day).
  struct Case {
    util::Day day_begin;
    util::Day day_end;
    unsigned shards;
  };
  for (const Case c : {Case{0, 21, 1}, Case{5, 12, 4}, Case{5, 8, 7}}) {
    SCOPED_TRACE("days=[" + std::to_string(c.day_begin) + "," + std::to_string(c.day_end) +
                 ") shards=" + std::to_string(c.shards));
    PlatformSinks slice(scenario);
    iclab::ShardRange range;
    range.day_begin = c.day_begin;
    range.day_end = c.day_end;
    range.vantage_begin = 0;
    range.vantage_end = num_vp;
    scenario.platform().run_shard(slice.fanout, range);

    const std::unique_ptr<PlatformSinks> run =
        run_platform(scenario, c.shards, c.day_begin, c.day_end);
    EXPECT_EQ(run->clause_builder.clauses(), slice.clause_builder.clauses());
    EXPECT_EQ(run->clause_builder.seqs(), slice.clause_builder.seqs());
    expect_pools_equal(run->clause_builder.pool(), slice.clause_builder.pool());
    EXPECT_EQ(run->summary.measurements(), slice.summary.measurements());
    EXPECT_EQ(run->summary.unreachable(), slice.summary.unreachable());
    for (const censor::Anomaly a : censor::kAllAnomalies) {
      EXPECT_EQ(run->summary.anomaly_count(a), slice.summary.anomaly_count(a));
    }
    expect_churn_equal(run->churn_tracker.compute(), slice.churn_tracker.compute());
  }
  EXPECT_THROW(run_platform(scenario, 2, 5, 5), std::invalid_argument);
  EXPECT_THROW(run_platform(scenario, 2, 0, 22), std::invalid_argument);
}

TEST(WorkerBundles, MatchSerialRunForEveryDayRangeAndWorkerCount) {
  // run_platform_shards with whole-day tasks, or with vantage chunks
  // when the range has fewer days than workers: which worker runs which
  // day depends on timing, so every (range, workers) pair runs five
  // times.  Each run must hand off into exactly the serial run's
  // contents, in one bundle per worker, each of whose streams ascends.
  ScenarioConfig config = shard_scenario(20170623);
  config.platform.num_days = 5 * util::kDaysPerWeek;
  Scenario scenario(config);
  const auto num_vp = static_cast<std::int32_t>(scenario.platform().vantages().size());
  const util::Day day_begin = 3;  // mid-schedule: every task primes
  for (const util::Day days : {1, 3, 4, 5, 28}) {
    const util::Day day_end = day_begin + days;
    PlatformSinks serial(scenario);
    scenario.platform().run_shard(serial.fanout,
                                  iclab::ShardRange{day_begin, day_end, 0, num_vp});
    for (const unsigned requested : {1u, 2u, 3u, 4u}) {
      const std::size_t expected_bundles = scenario.platform().num_run_days_sinks(
          days, std::min(requested, util::ThreadPool::hardware_threads()));
      for (int repeat = 0; repeat < 5; ++repeat) {
        SCOPED_TRACE("days=" + std::to_string(days) + " workers=" + std::to_string(requested) +
                     " repeat=" + std::to_string(repeat));
        std::vector<std::unique_ptr<PlatformSinks>> bundles =
            run_platform_shards(scenario, requested, day_begin, day_end);
        ASSERT_EQ(bundles.size(), expected_bundles);
        for (const auto& bundle : bundles) {
          const std::vector<std::int64_t>& seqs = bundle->clause_builder.seqs();
          EXPECT_TRUE(std::is_sorted(seqs.begin(), seqs.end()));
        }
        PlatformSinks merged(scenario);
        merged.absorb(bundles);
        expect_bundle_matches_serial(merged, serial);
      }
    }
  }
}

TEST(ShardEquivalence, HandOffIsIdempotentAndSerialNoOp) {
  Scenario scenario(shard_scenario(20170623));
  PlatformSinks serial(scenario);
  scenario.platform().run(serial.fanout);

  tomo::ClauseBuilder once(scenario.ip2as());
  once.absorb(std::vector<const tomo::ClauseBuilder*>{&serial.clause_builder});
  EXPECT_EQ(once.clauses(), serial.clause_builder.clauses());
  EXPECT_EQ(once.seqs(), serial.clause_builder.seqs());
  expect_pools_equal(once.pool(), serial.clause_builder.pool());
  tomo::ClauseBuilder twice(scenario.ip2as());
  twice.absorb(std::vector<const tomo::ClauseBuilder*>{&once});
  EXPECT_EQ(twice.clauses(), serial.clause_builder.clauses());
  expect_pools_equal(twice.pool(), serial.clause_builder.pool());
}

}  // namespace
}  // namespace ct::analysis
