// ClauseBuilder::merge / canonicalize algebra: merging shard-local
// builders must be associative and identity-respecting, and after
// canonicalize() the result must not depend on merge order at all —
// same clauses, same path-pool numbering, same stats.
#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/scenario.h"
#include "tomo/clause.h"

namespace ct::tomo {
namespace {

class ClauseMergeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    analysis::ScenarioConfig cfg = analysis::small_scenario();
    cfg.platform.num_days = util::kDaysPerWeek;
    scenario_ = new analysis::Scenario(cfg);

    serial_ = new ClauseBuilder(scenario_->ip2as());
    scenario_->platform().run(*serial_);

    // Three shards splitting the vantage dimension: the split that
    // scrambles clause order the most relative to the serial stream.
    const auto ranges = iclab::plan_shard_grid(
        cfg.platform.num_days,
        static_cast<std::int32_t>(scenario_->platform().vantages().size()), 1, 3);
    ASSERT_EQ(ranges.size(), 3u);
    for (const auto& range : ranges) {
      shards_.push_back(std::make_unique<ClauseBuilder>(scenario_->ip2as()));
      scenario_->platform().run_shard(*shards_.back(), range);
    }
  }
  static void TearDownTestSuite() {
    shards_.clear();
    delete serial_;
    delete scenario_;
    serial_ = nullptr;
    scenario_ = nullptr;
  }

  static void expect_equal(const ClauseBuilder& a, const ClauseBuilder& b) {
    EXPECT_EQ(a.clauses(), b.clauses());
    EXPECT_EQ(a.seqs(), b.seqs());
    EXPECT_EQ(a.stats(), b.stats());
    ASSERT_EQ(a.pool().size(), b.pool().size());
    for (std::size_t i = 0; i < a.pool().size(); ++i) {
      EXPECT_EQ(a.pool().get(static_cast<PathPool::PathId>(i)),
                b.pool().get(static_cast<PathPool::PathId>(i)));
    }
  }

  static analysis::Scenario* scenario_;
  static ClauseBuilder* serial_;
  static std::vector<std::unique_ptr<ClauseBuilder>> shards_;
};

analysis::Scenario* ClauseMergeTest::scenario_ = nullptr;
ClauseBuilder* ClauseMergeTest::serial_ = nullptr;
std::vector<std::unique_ptr<ClauseBuilder>> ClauseMergeTest::shards_;

TEST_F(ClauseMergeTest, IdentityRespecting) {
  // fresh ∪ A == A ∪ fresh == A (after canonicalize).
  ClauseBuilder left(scenario_->ip2as());
  left.merge(ClauseBuilder(*shards_[0]));
  left.canonicalize();

  ClauseBuilder right = *shards_[0];
  right.merge(ClauseBuilder(scenario_->ip2as()));
  right.canonicalize();

  ClauseBuilder plain = *shards_[0];
  plain.canonicalize();

  expect_equal(left, plain);
  expect_equal(right, plain);
}

TEST_F(ClauseMergeTest, MergeOrderPermutationsAgree) {
  std::vector<std::size_t> order{0, 1, 2};
  std::vector<ClauseBuilder> results;
  do {
    ClauseBuilder merged(scenario_->ip2as());
    for (const std::size_t i : order) merged.merge(ClauseBuilder(*shards_[i]));
    merged.canonicalize();
    results.push_back(std::move(merged));
  } while (std::next_permutation(order.begin(), order.end()));
  for (std::size_t i = 1; i < results.size(); ++i) {
    expect_equal(results[0], results[i]);
  }
}

TEST_F(ClauseMergeTest, Associative) {
  // (A ∪ B) ∪ C == A ∪ (B ∪ C).
  ClauseBuilder ab = *shards_[0];
  ab.merge(ClauseBuilder(*shards_[1]));
  ClauseBuilder ab_c = std::move(ab);
  ab_c.merge(ClauseBuilder(*shards_[2]));
  ab_c.canonicalize();

  ClauseBuilder bc = *shards_[1];
  bc.merge(ClauseBuilder(*shards_[2]));
  ClauseBuilder a_bc = *shards_[0];
  a_bc.merge(std::move(bc));
  a_bc.canonicalize();

  expect_equal(ab_c, a_bc);
}

TEST_F(ClauseMergeTest, MergedShardsReproduceSerialStream) {
  ClauseBuilder merged(scenario_->ip2as());
  for (const auto& shard : shards_) merged.merge(ClauseBuilder(*shard));
  merged.canonicalize();
  expect_equal(merged, *serial_);

  // Sanity: the shards were a genuine split, not empty husks.
  std::int64_t shard_clauses = 0;
  for (const auto& shard : shards_) {
    EXPECT_GT(shard->clauses().size(), 0u);
    shard_clauses += static_cast<std::int64_t>(shard->clauses().size());
  }
  EXPECT_EQ(shard_clauses, static_cast<std::int64_t>(serial_->clauses().size()));
}

TEST_F(ClauseMergeTest, StatsSum) {
  ClauseBuildStats sum;
  for (const auto& shard : shards_) sum += shard->stats();
  EXPECT_EQ(sum, serial_->stats());
  EXPECT_EQ(sum.usable_measurements + sum.dropped_total(), sum.measurements);
}

}  // namespace
}  // namespace ct::tomo
