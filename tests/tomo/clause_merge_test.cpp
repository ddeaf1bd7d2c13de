// Shard hand-off algebra (tomo::hand_off_clauses, ClauseBuilder::absorb):
// absorbing shard-local builders must be associative and
// identity-respecting, must not depend on the order the shards are
// given in at all — same clauses, same path-pool numbering, same stats —
// and must equal the merge-then-canonicalize reference it replaced.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/scenario.h"
#include "clause_merge_reference.h"
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

  static ClauseBuilder fresh() { return ClauseBuilder(scenario_->ip2as()); }

  /// A fresh builder that absorbed `shards`.
  static ClauseBuilder absorbed(const std::vector<const ClauseBuilder*>& shards) {
    ClauseBuilder out = fresh();
    out.absorb(shards);
    return out;
  }

  /// Hand-built shards: shard i is fed usable measurements of the
  /// scenario's first day, re-stamped with seqs[i].  Lets a test give
  /// several shards the same seq, which no platform plan produces.
  static std::vector<std::unique_ptr<ClauseBuilder>> stamped_shards(
      const std::vector<std::vector<std::int64_t>>& seqs) {
    struct Usable : iclab::MeasurementSink {
      explicit Usable(const net::Ip2AsDb& db) : probe(db) {}
      void on_measurement(const iclab::Measurement& m) override {
        // A usable measurement may add no clause (a same-day repeat),
        // so usability is read off the stats, not the stream.
        const std::int64_t before = probe.stats().usable_measurements;
        probe.on_measurement(m);
        if (probe.stats().usable_measurements > before) records.push_back(m);
      }
      ClauseBuilder probe;
      std::vector<iclab::Measurement> records;
    };
    Usable usable(scenario_->ip2as());
    const auto num_vp = static_cast<std::int32_t>(scenario_->platform().vantages().size());
    scenario_->platform().run_shard(usable, iclab::plan_shard_grid(1, num_vp, 1, 1).front());

    std::vector<std::unique_ptr<ClauseBuilder>> out;
    std::size_t next = 0;
    for (const auto& shard_seqs : seqs) {
      out.push_back(std::make_unique<ClauseBuilder>(scenario_->ip2as()));
      for (const std::int64_t seq : shard_seqs) {
        // A stride through the day, so the shards carry different paths.
        iclab::Measurement m = usable.records.at((next++ * 37) % usable.records.size());
        m.seq = seq;
        out.back()->on_measurement(m);
      }
    }
    return out;
  }

  static void expect_pools_equal(const PathPool& a, const PathPool& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a.get(static_cast<PathPool::PathId>(i)), b.get(static_cast<PathPool::PathId>(i)));
    }
  }

  static void expect_equal(const ClauseBuilder& a, const ClauseBuilder& b) {
    EXPECT_EQ(a.clauses(), b.clauses());
    EXPECT_EQ(a.seqs(), b.seqs());
    EXPECT_EQ(a.stats(), b.stats());
    expect_pools_equal(a.pool(), b.pool());
  }

  static analysis::Scenario* scenario_;
  static ClauseBuilder* serial_;
  static std::vector<std::unique_ptr<ClauseBuilder>> shards_;
};

analysis::Scenario* ClauseMergeTest::scenario_ = nullptr;
ClauseBuilder* ClauseMergeTest::serial_ = nullptr;
std::vector<std::unique_ptr<ClauseBuilder>> ClauseMergeTest::shards_;

TEST_F(ClauseMergeTest, IdentityRespecting) {
  // fresh ∪ A == A ∪ fresh == A: one shard's stream is already canonical.
  const ClauseBuilder empty = fresh();
  const ClauseBuilder& a = *shards_[0];
  expect_equal(absorbed({&empty, &a}), a);
  expect_equal(absorbed({&a, &empty}), a);
  expect_equal(absorbed({&a}), a);
}

TEST_F(ClauseMergeTest, MergeOrderPermutationsAgree) {
  std::vector<std::size_t> order{0, 1, 2};
  std::vector<ClauseBuilder> results;
  do {
    std::vector<const ClauseBuilder*> shards;
    for (const std::size_t i : order) shards.push_back(shards_[i].get());
    results.push_back(absorbed(shards));
  } while (std::next_permutation(order.begin(), order.end()));
  for (std::size_t i = 1; i < results.size(); ++i) {
    expect_equal(results[0], results[i]);
  }
}

TEST_F(ClauseMergeTest, Associative) {
  // (A ∪ B) ∪ C == A ∪ (B ∪ C).
  const ClauseBuilder ab = absorbed({shards_[0].get(), shards_[1].get()});
  const ClauseBuilder ab_c = absorbed({&ab, shards_[2].get()});
  const ClauseBuilder bc = absorbed({shards_[1].get(), shards_[2].get()});
  const ClauseBuilder a_bc = absorbed({shards_[0].get(), &bc});
  expect_equal(ab_c, a_bc);
}

TEST_F(ClauseMergeTest, MergedShardsReproduceSerialStream) {
  expect_equal(absorbed({shards_[0].get(), shards_[1].get(), shards_[2].get()}), *serial_);

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

TEST_F(ClauseMergeTest, HandOffMatchesMergeAndCanonicalizeReference) {
  // On the vantage-split grid (the k-way merge) in plan and reversed
  // order, on day-split shards (the concatenation), and on hand-built
  // shards sharing seqs (the merge's tie rule): the same
  // clauses, seqs and pool as the reference, both into a fresh pool and
  // into a pool that already holds paths — the monitor's persistent
  // pool, which the reference reached by remapping its canonical pool.
  const auto num_vp = static_cast<std::int32_t>(scenario_->platform().vantages().size());
  std::vector<std::unique_ptr<ClauseBuilder>> day_shards;
  for (const auto& range : iclab::plan_shard_grid(util::kDaysPerWeek, num_vp, 3, 1)) {
    day_shards.push_back(std::make_unique<ClauseBuilder>(scenario_->ip2as()));
    scenario_->platform().run_shard(*day_shards.back(), range);
  }
  // Equal seqs across shards, with a later shard holding the least
  // head: ties must still go to the earlier shard first.
  const std::vector<std::vector<std::int64_t>> stamps{{7}, {7, 9}, {5, 7, 7, 8}};
  const auto tied = stamped_shards(stamps);
  for (std::size_t i = 0; i < stamps.size(); ++i) {
    // Every stamp kept clauses: no tie was dropped as a same-day repeat.
    const std::set<std::int64_t> kept(tied[i]->seqs().begin(), tied[i]->seqs().end());
    EXPECT_EQ(kept, std::set<std::int64_t>(stamps[i].begin(), stamps[i].end()));
  }
  const std::vector<std::vector<const ClauseBuilder*>> layouts{
      {shards_[0].get(), shards_[1].get(), shards_[2].get()},
      {shards_[2].get(), shards_[1].get(), shards_[0].get()},
      {day_shards[0].get(), day_shards[1].get(), day_shards[2].get()},
      {tied[0].get(), tied[1].get(), tied[2].get()},
      {tied[2].get(), tied[0].get(), tied[1].get()}};
  for (std::size_t l = 0; l < layouts.size(); ++l) {
    SCOPED_TRACE("layout " + std::to_string(l));
    const test::CanonicalStream reference = test::merge_and_canonicalize(layouts[l]);

    PathPool pool;
    std::vector<std::int64_t> seqs;
    EXPECT_EQ(hand_off_clauses(layouts[l], pool, &seqs), reference.clauses);
    EXPECT_EQ(seqs, reference.seqs);
    expect_pools_equal(pool, reference.pool);

    // Seed a pool with a reversed slice of the shards' paths.
    PathPool seeded;
    for (std::size_t i = reference.pool.size(); i-- > reference.pool.size() / 2;) {
      seeded.intern(reference.pool.get(static_cast<PathPool::PathId>(i)));
    }
    PathPool expected_pool = seeded;
    PathRemap remap(reference.pool, expected_pool);
    std::vector<PathClause> expected = reference.clauses;
    for (PathClause& clause : expected) clause.path_id = remap(clause.path_id);
    EXPECT_EQ(hand_off_clauses(layouts[l], seeded), expected);
    expect_pools_equal(seeded, expected_pool);
  }
}

TEST_F(ClauseMergeTest, ShardOutOfScheduleOrderIsRefused) {
  // A builder fed a later day range before an earlier one is not a
  // shard: its stream is out of schedule order.
  ClauseBuilder scrambled = fresh();
  const auto num_vp = static_cast<std::int32_t>(scenario_->platform().vantages().size());
  const auto ranges = iclab::plan_shard_grid(util::kDaysPerWeek, num_vp, 2, 1);
  scenario_->platform().run_shard(scrambled, ranges[1]);
  scenario_->platform().run_shard(scrambled, ranges[0]);
  PathPool pool;
  EXPECT_THROW(hand_off_clauses(std::vector<const ClauseBuilder*>{&scrambled}, pool),
               std::invalid_argument);
  EXPECT_EQ(pool.size(), 0u) << "a refused hand-off interns nothing";
}

}  // namespace
}  // namespace ct::tomo
