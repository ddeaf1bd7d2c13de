// Per-regime determinism contract (README "Scenarios").
//
// Each scenario regime — routing-induced censorship, ECMP multipath,
// adaptive censors, path-diversity dithering — changes the *world* the
// experiment measures, but none of them may change the execution
// contract: within a regime, the canonical report (serialize_report, the
// same oracle the monitor and checkpoint suites use) must be
// byte-identical across platform shard counts and the resident
// monitor.  And every stress regime must actually move the world: a
// regime whose report matches the baseline byte for byte is dead
// wiring, not a scenario.
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/checkpoint.h"
#include "analysis/experiment.h"
#include "analysis/monitor.h"
#include "analysis/scenario.h"
#include "censor/regime.h"
#include "../support/fuzz_seed.h"
#include "reference_experiment.h"
#include "shard_scenario.h"

namespace ct::analysis {
namespace {

using censor::ScenarioRegime;

ScenarioConfig regime_scenario(ScenarioRegime regime) {
  return test::shard_scenario(20170623, regime);
}

std::string report_bytes(const ScenarioConfig& config, const ExperimentOptions& options) {
  Scenario scenario(config);
  return serialize_report(run_experiment(scenario, options));
}

TEST(ScenarioRegime, ByteIdenticalAcrossExecutionModes) {
  for (const ScenarioRegime regime : censor::all_regimes()) {
    SCOPED_TRACE(censor::to_string(regime));
    const ScenarioConfig config = regime_scenario(regime);

    // The phase-separated reference, independent of the monitor that
    // run_experiment drives.
    ExperimentOptions reference;
    reference.num_platform_shards = 1;
    Scenario reference_scenario(config);
    const std::string expected =
        serialize_report(test::reference_experiment(reference_scenario, reference));
    ASSERT_FALSE(expected.empty());

    {
      ExperimentOptions sharded;
      sharded.num_platform_shards = 4;
      EXPECT_EQ(report_bytes(config, sharded), expected) << "sharded diverged";
    }
    {
      Scenario scenario(config);
      MonitorOptions monitor;
      monitor.experiment.num_platform_shards = 2;
      monitor.segment_days = util::kDaysPerWeek;
      EXPECT_EQ(serialize_report(MonitorEngine(scenario, monitor).finalize()), expected)
          << "monitor diverged";
    }
  }
}

TEST(ScenarioRegime, StressRegimesActuallyChangeTheWorld) {
  ExperimentOptions options;
  options.num_platform_shards = 1;
  std::map<ScenarioRegime, std::string> reports;
  for (const ScenarioRegime regime : censor::all_regimes()) {
    reports[regime] = report_bytes(regime_scenario(regime), options);
  }
  const std::string& baseline = reports[ScenarioRegime::kBaseline];
  for (const ScenarioRegime regime : censor::all_regimes()) {
    if (regime == ScenarioRegime::kBaseline) continue;
    EXPECT_NE(reports[regime], baseline)
        << censor::to_string(regime) << " regime left the report untouched — dead wiring?";
  }
}

TEST(ScenarioRegime, BaselineMatchesRegimeFreeConfig) {
  // The regime layer is strictly additive: a kBaseline RegimeConfig must
  // reproduce the pre-regime pipeline byte for byte.
  ExperimentOptions options;
  options.num_platform_shards = 1;
  ScenarioConfig with_field = test::shard_scenario(20170623);
  with_field.regime = censor::RegimeConfig{};
  ScenarioConfig untouched = small_scenario();  // regime field never written
  untouched.platform.num_days = with_field.platform.num_days;
  untouched.seed = with_field.seed;
  EXPECT_EQ(report_bytes(with_field, options), report_bytes(untouched, options));
}

TEST(ScenarioRegime, AdaptivePlacementsRespectThePeriodKnob) {
  // The re-optimization cadence segments each adaptive censor's year:
  // one policy per segment.  Over a 21-day run, a 7-day period yields 3
  // segments per transit slot, a 14-day period 2 — the knob must reach
  // the generated registry.  (The *chosen* ASes may coincide on a small
  // stable topology; the schedule structure cannot.)
  ScenarioConfig fast = regime_scenario(ScenarioRegime::kAdaptive);
  fast.regime.adaptive_period_days = 7;
  ScenarioConfig slow = regime_scenario(ScenarioRegime::kAdaptive);
  slow.regime.adaptive_period_days = 14;
  Scenario fast_scenario(fast);
  Scenario slow_scenario(slow);
  EXPECT_GT(fast_scenario.registry().policies().size(),
            slow_scenario.registry().policies().size());
  // Final segments are open-ended: the adaptive censor never goes dark.
  bool any_open = false;
  for (const auto& p : fast_scenario.registry().policies()) {
    if (p.active_to == censor::kPolicyNoExpiry) any_open = true;
  }
  EXPECT_TRUE(any_open);
}

TEST(CensorRegistry, FirstCensorsMatchPerAnomalyQueries) {
  // The one-walk query against the per-anomaly walk on the registries of
  // every regime: ingress predicates (routing), path dither (pathdiv)
  // and policy switches (adaptive re-placements, mid-year changes) all
  // occur.  Paths mix censors, their filtered ingresses, other ASes and
  // ids outside [0, num_ases).
  const std::uint64_t seed = ct::test::fuzz_seed(20171019);
  SCOPED_TRACE(ct::test::fuzz_trace(seed));
  util::Rng rng(seed);
  std::int64_t ingress_policies = 0, dithered_policies = 0, switching_policies = 0;
  for (const ScenarioRegime regime : censor::all_regimes()) {
    SCOPED_TRACE(censor::to_string(regime));
    ScenarioConfig config = small_scenario();
    config.censors.num_censors = 16;
    config.regime.regime = regime;
    const Scenario scenario(config);
    const censor::CensorRegistry& registry = scenario.registry();
    const topo::AsId num_ases = scenario.graph().num_ases();
    const std::vector<topo::AsId> censors = registry.censor_ases();
    std::vector<topo::AsId> ingresses;
    for (const censor::CensorPolicy& p : registry.policies()) {
      ingresses.insert(ingresses.end(), p.ingress_ases.begin(), p.ingress_ases.end());
      ingress_policies += p.ingress_ases.empty() ? 0 : 1;
      dithered_policies += p.path_fraction < 1.0 ? 1 : 0;
      switching_policies += p.active_from > 0 || p.active_to != censor::kPolicyNoExpiry;
    }
    ASSERT_FALSE(censors.empty());

    std::int64_t censored = 0;
    std::vector<topo::AsId> path;
    for (int trial = 0; trial < 4000; ++trial) {
      path.clear();
      const auto length = rng.uniform_int(0, 8);
      for (std::int64_t i = 0; i < length; ++i) {
        const double u = rng.uniform();
        if (u < 0.35) {
          path.push_back(rng.pick(censors));
        } else if (u < 0.6 && !ingresses.empty()) {
          path.push_back(rng.pick(ingresses));
        } else if (u < 0.9) {
          path.push_back(static_cast<topo::AsId>(rng.uniform_int(0, num_ases - 1)));
        } else {
          path.push_back(static_cast<topo::AsId>(
              rng.bernoulli(0.5) ? rng.uniform_int(-3, -1)
                                 : rng.uniform_int(num_ases, num_ases + 3)));
        }
      }
      const auto category =
          static_cast<censor::UrlCategory>(rng.index(censor::kNumCategories));
      const auto day = static_cast<util::Day>(rng.uniform_int(0, 2 * util::kDaysPerYear));
      const std::array<topo::AsId, censor::kNumAnomalies> first =
          registry.first_censors_on_path(path, category, day);
      for (const censor::Anomaly a : censor::kAllAnomalies) {
        const topo::AsId expected = registry.first_censor_on_path(path, category, a, day);
        ASSERT_EQ(first[static_cast<std::size_t>(a)], expected)
            << "trial " << trial << ", anomaly " << censor::to_string(a);
        censored += expected != topo::kInvalidAs ? 1 : 0;
      }
    }
    EXPECT_GT(censored, 100);
  }
  EXPECT_GT(ingress_policies, 0);
  EXPECT_GT(dithered_policies, 0);
  EXPECT_GT(switching_policies, 0);
}

}  // namespace
}  // namespace ct::analysis
