// Merge algebra for the non-clause platform sinks: DatasetSummary,
// PathChurnTracker, and TruthTracker.  Each merge must be associative
// and identity-respecting, and merging any permutation of shard-local
// instances must reproduce the serial sink's outputs exactly.
#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/churn_stats.h"
#include "analysis/platform_sinks.h"
#include "analysis/scenario.h"
#include "analysis/truth_tracker.h"
#include "expect_churn.h"
#include "iclab/platform.h"
#include "util/serde.h"

namespace ct::analysis {
namespace {

class SinkMergeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ScenarioConfig cfg = small_scenario();
    cfg.platform.num_days = util::kDaysPerWeek;
    scenario_ = new Scenario(cfg);

    serial_ = new PlatformSinks(*scenario_);
    scenario_->platform().run(serial_->fanout);

    // A 2x2 (day, vantage) grid: exercises both shard dimensions.
    const auto ranges = iclab::plan_shard_grid(
        cfg.platform.num_days,
        static_cast<std::int32_t>(scenario_->platform().vantages().size()), 2, 2);
    for (const auto& range : ranges) {
      shards_.push_back(std::make_unique<PlatformSinks>(*scenario_));
      scenario_->platform().run_shard(shards_.back()->fanout, range);
    }
  }
  static void TearDownTestSuite() {
    shards_.clear();
    delete serial_;
    delete scenario_;
    serial_ = nullptr;
    scenario_ = nullptr;
  }

  static std::int32_t num_urls() {
    return static_cast<std::int32_t>(scenario_->platform().urls().size());
  }

  static void expect_summary_equal(const iclab::DatasetSummary& a,
                                   const iclab::DatasetSummary& b) {
    EXPECT_EQ(a.measurements(), b.measurements());
    EXPECT_EQ(a.unreachable(), b.unreachable());
    EXPECT_EQ(a.distinct_vantages(), b.distinct_vantages());
    EXPECT_EQ(a.distinct_urls(), b.distinct_urls());
    EXPECT_EQ(a.distinct_countries(), b.distinct_countries());
    for (const censor::Anomaly an : censor::kAllAnomalies) {
      EXPECT_EQ(a.anomaly_count(an), b.anomaly_count(an));
    }
  }

  static void expect_churn_equal(const PathChurnTracker& a, const PathChurnTracker& b) {
    test::expect_churn_equal(a.compute(), b.compute());
    for (const auto vp : scenario_->platform().vantages()) {
      for (const auto dest : scenario_->platform().dest_ases()) {
        EXPECT_EQ(a.distinct_paths_of_pair(vp, dest), b.distinct_paths_of_pair(vp, dest));
      }
    }
  }

  static Scenario* scenario_;
  static PlatformSinks* serial_;
  static std::vector<std::unique_ptr<PlatformSinks>> shards_;
};

Scenario* SinkMergeTest::scenario_ = nullptr;
PlatformSinks* SinkMergeTest::serial_ = nullptr;
std::vector<std::unique_ptr<PlatformSinks>> SinkMergeTest::shards_;

TEST_F(SinkMergeTest, DatasetSummaryPermutationsReproduceSerial) {
  std::vector<std::size_t> order{0, 1, 2, 3};
  do {
    iclab::DatasetSummary merged(scenario_->graph(), num_urls());
    for (const std::size_t i : order) {
      merged.merge(iclab::DatasetSummary(shards_[i]->summary));
    }
    expect_summary_equal(merged, serial_->summary);
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST_F(SinkMergeTest, DatasetSummaryIdentity) {
  iclab::DatasetSummary merged(scenario_->graph(), num_urls());  // identity element
  merged.merge(iclab::DatasetSummary(shards_[0]->summary));
  expect_summary_equal(merged, shards_[0]->summary);
}

TEST_F(SinkMergeTest, ChurnTrackerPermutationsReproduceSerial) {
  std::vector<std::size_t> order{0, 1, 2, 3};
  do {
    PlatformSinks merged(*scenario_);
    for (const std::size_t i : order) {
      merged.churn_tracker.merge(PathChurnTracker(shards_[i]->churn_tracker));
    }
    expect_churn_equal(merged.churn_tracker, serial_->churn_tracker);
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST_F(SinkMergeTest, ChurnTrackerAssociative) {
  // (A ∪ B) ∪ (C ∪ D) == ((A ∪ B) ∪ C) ∪ D.
  PathChurnTracker ab(shards_[0]->churn_tracker);
  ab.merge(PathChurnTracker(shards_[1]->churn_tracker));
  PathChurnTracker cd(shards_[2]->churn_tracker);
  cd.merge(PathChurnTracker(shards_[3]->churn_tracker));
  PathChurnTracker left(ab);
  left.merge(std::move(cd));

  PathChurnTracker right(ab);
  right.merge(PathChurnTracker(shards_[2]->churn_tracker));
  right.merge(PathChurnTracker(shards_[3]->churn_tracker));

  expect_churn_equal(left, right);
}

TEST_F(SinkMergeTest, ChurnTrackerRejectsGeometryMismatch) {
  PathChurnTracker other(scenario_->graph(), scenario_->platform().vantages(),
                         scenario_->platform().dest_ases(),
                         scenario_->platform().config().num_days + 1,
                         scenario_->platform().config().epochs_per_day);
  PathChurnTracker mine(shards_[0]->churn_tracker);
  EXPECT_THROW(mine.merge(std::move(other)), std::invalid_argument);
}

TEST_F(SinkMergeTest, TruthTrackerUnionReproducesSerial) {
  std::vector<std::size_t> order{0, 1, 2, 3};
  do {
    TruthTracker merged(scenario_->registry(), scenario_->platform());
    for (const std::size_t i : order) {
      merged.merge(TruthTracker(shards_[i]->truth_tracker));
    }
    EXPECT_EQ(merged.observable(), serial_->truth_tracker.observable());
  } while (std::next_permutation(order.begin(), order.end()));
  EXPECT_FALSE(serial_->truth_tracker.observable().empty());
}

TEST_F(SinkMergeTest, TruthTrackerIdentity) {
  TruthTracker merged(scenario_->registry(), scenario_->platform());
  merged.merge(TruthTracker(shards_[1]->truth_tracker));
  EXPECT_EQ(merged.observable(), shards_[1]->truth_tracker.observable());
}

TEST_F(SinkMergeTest, RejectedMeasurementLeavesSinksUnchanged) {
  // A record each sink refuses throws before it changes anything: the
  // summary's and the tracker's bytes are those of before the call.
  iclab::DatasetSummary summary(serial_->summary);
  TruthTracker truth(serial_->truth_tracker);
  const auto bytes = [](const auto& sink) {
    util::ByteWriter w;
    sink.save(w);
    return w.take();
  };
  const std::string summary_before = bytes(summary);
  const std::string truth_before = bytes(truth);

  // A record both sinks would count: reachable, every anomaly detected
  // on a censored path.
  iclab::Measurement valid;
  valid.vantage = scenario_->platform().vantages().front();
  valid.url_id = 0;
  valid.truth_path = {valid.vantage, scenario_->platform().dest_ases().front()};
  valid.detected.fill(true);
  valid.truth_censored.fill(true);

  iclab::Measurement negative_url = valid;
  negative_url.url_id = -1;
  EXPECT_THROW(summary.on_measurement(negative_url), std::out_of_range);
  EXPECT_THROW(truth.on_measurement(negative_url), std::out_of_range);

  iclab::Measurement url_past_platform = valid;
  url_past_platform.url_id = scenario_->platform().config().num_urls;
  EXPECT_THROW(summary.on_measurement(url_past_platform), std::out_of_range);
  EXPECT_THROW(truth.on_measurement(url_past_platform), std::out_of_range);

  for (const topo::AsId vantage : {topo::AsId{-1}, scenario_->graph().num_ases()}) {
    iclab::Measurement bad_vantage = valid;
    bad_vantage.vantage = vantage;
    EXPECT_THROW(summary.on_measurement(bad_vantage), std::out_of_range);
  }

  EXPECT_EQ(bytes(summary), summary_before);
  EXPECT_EQ(bytes(truth), truth_before);
  summary.on_measurement(valid);  // the same record, valid, does count
  EXPECT_NE(bytes(summary), summary_before);
}

}  // namespace
}  // namespace ct::analysis
