#include "bgp/churn.h"

#include <cstdint>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "topo/generator.h"

namespace ct::bgp {
namespace {

topo::AsGraph test_graph(double volatile_fraction = 0.5) {
  topo::TopologyConfig cfg;
  cfg.num_ases = 120;
  cfg.num_tier1 = 4;
  cfg.num_transit = 24;
  cfg.num_countries = 10;
  cfg.volatile_link_fraction = volatile_fraction;
  return topo::generate_topology(cfg, 5);
}

TEST(Churn, StartsAllUp) {
  const auto g = test_graph();
  ChurnEngine engine(g, ChurnConfig{}, 1);
  EXPECT_EQ(engine.epoch(), 0);
  EXPECT_EQ(engine.links_down(), 0);
  for (const bool up : engine.link_up()) EXPECT_TRUE(up);
}

TEST(Churn, Deterministic) {
  const auto g = test_graph();
  ChurnEngine a(g, ChurnConfig{}, 99);
  ChurnEngine b(g, ChurnConfig{}, 99);
  for (int i = 0; i < 50; ++i) {
    a.advance();
    b.advance();
    EXPECT_EQ(a.link_up(), b.link_up());
  }
}

TEST(Churn, SeedsDiffer) {
  const auto g = test_graph();
  ChurnEngine a(g, ChurnConfig{}, 1);
  ChurnEngine b(g, ChurnConfig{}, 2);
  int diffs = 0;
  for (int i = 0; i < 30; ++i) {
    a.advance();
    b.advance();
    if (a.link_up() != b.link_up()) ++diffs;
  }
  EXPECT_GT(diffs, 0);
}

TEST(Churn, ZeroProbabilitiesFreezeEverything) {
  const auto g = test_graph();
  ChurnConfig cfg;
  cfg.volatile_fail_prob = 0.0;
  cfg.stable_fail_prob = 0.0;
  ChurnEngine engine(g, cfg, 3);
  for (int i = 0; i < 100; ++i) engine.advance();
  EXPECT_EQ(engine.links_down(), 0);
  EXPECT_EQ(engine.total_failures(), 0);
}

TEST(Churn, DownCountMatchesLinkState) {
  const auto g = test_graph();
  ChurnConfig cfg;
  cfg.volatile_fail_prob = 0.3;
  cfg.stable_fail_prob = 0.05;
  cfg.repair_prob = 0.3;
  ChurnEngine engine(g, cfg, 7);
  for (int i = 0; i < 40; ++i) {
    engine.advance();
    std::int32_t down = 0;
    for (const bool up : engine.link_up()) down += up ? 0 : 1;
    ASSERT_EQ(down, engine.links_down());
  }
  EXPECT_GT(engine.total_failures(), 0);
}

TEST(Churn, SteadyStateDownFractionMatchesTheory) {
  // With fail prob f and repair prob r, the stationary down fraction of
  // a link is f / (f + r).
  const auto g = test_graph(/*volatile_fraction=*/1.0);
  ChurnConfig cfg;
  cfg.volatile_fail_prob = 0.2;
  cfg.stable_fail_prob = 0.2;  // all links behave identically
  cfg.repair_prob = 0.6;
  ChurnEngine engine(g, cfg, 11);
  double down_sum = 0.0;
  const int warmup = 50;
  const int samples = 400;
  for (int i = 0; i < warmup; ++i) engine.advance();
  for (int i = 0; i < samples; ++i) {
    engine.advance();
    down_sum += static_cast<double>(engine.links_down()) / g.num_links();
  }
  EXPECT_NEAR(down_sum / samples, 0.2 / 0.8, 0.03);
}

TEST(Churn, VolatileLinksFailMoreOften) {
  const auto g = test_graph(0.5);
  ChurnConfig cfg;  // defaults: volatile >> stable
  ChurnEngine engine(g, cfg, 13);
  std::vector<int> failures(static_cast<std::size_t>(g.num_links()), 0);
  std::vector<bool> prev(engine.link_up());
  for (int i = 0; i < 300; ++i) {
    engine.advance();
    for (std::size_t l = 0; l < prev.size(); ++l) {
      if (prev[l] && !engine.link_up()[l]) ++failures[l];
    }
    prev = engine.link_up();
  }
  std::int64_t volatile_failures = 0, volatile_links = 0;
  std::int64_t stable_failures = 0, stable_links = 0;
  for (const auto& link : g.links()) {
    if (link.is_volatile) {
      ++volatile_links;
      volatile_failures += failures[static_cast<std::size_t>(link.id)];
    } else {
      ++stable_links;
      stable_failures += failures[static_cast<std::size_t>(link.id)];
    }
  }
  ASSERT_GT(volatile_links, 0);
  ASSERT_GT(stable_links, 0);
  const double volatile_rate = static_cast<double>(volatile_failures) / volatile_links;
  const double stable_rate = static_cast<double>(stable_failures) / stable_links;
  EXPECT_GT(volatile_rate, stable_rate * 10);
}

TEST(Churn, RepairsBalanceFailures) {
  // Counter invariant: every link that failed is either still down or
  // was repaired, so failures - repairs == links currently down.
  const auto g = test_graph();
  ChurnConfig cfg;
  cfg.volatile_fail_prob = 0.3;
  cfg.stable_fail_prob = 0.05;
  cfg.repair_prob = 0.3;
  ChurnEngine engine(g, cfg, 17);
  for (int i = 0; i < 60; ++i) {
    engine.advance();
    ASSERT_EQ(engine.total_failures() - engine.total_repairs(),
              static_cast<std::int64_t>(engine.links_down()));
  }
  EXPECT_GT(engine.total_repairs(), 0);
}

TEST(Churn, ZeroProbabilitiesMeanZeroRepairs) {
  const auto g = test_graph();
  ChurnConfig cfg;
  cfg.volatile_fail_prob = 0.0;
  cfg.stable_fail_prob = 0.0;
  ChurnEngine engine(g, cfg, 3);
  for (int i = 0; i < 50; ++i) engine.advance();
  EXPECT_EQ(engine.total_repairs(), 0);
}

TEST(Churn, AdvanceToReplaysExactly) {
  const auto g = test_graph();
  ChurnEngine stepped(g, ChurnConfig{}, 7);
  for (int i = 0; i < 37; ++i) stepped.advance();

  ChurnEngine replayed(g, ChurnConfig{}, 7);
  replayed.advance_to(37);

  EXPECT_EQ(replayed.epoch(), 37);
  EXPECT_EQ(replayed.link_up(), stepped.link_up());
  EXPECT_EQ(replayed.links_down(), stepped.links_down());
  EXPECT_EQ(replayed.total_failures(), stepped.total_failures());
  EXPECT_EQ(replayed.total_repairs(), stepped.total_repairs());

  replayed.advance_to(37);  // no-op at the target epoch
  EXPECT_EQ(replayed.epoch(), 37);
  EXPECT_THROW(replayed.advance_to(10), std::invalid_argument);
}

// The recorded trajectory against its oracle, the engine stepped one
// advance() at a time: link state (both stepped through the flips and
// rebuilt from the stored states), the flips themselves and every
// counter, at every epoch of a multi-year schedule.
TEST(ChurnTrajectory, MatchesSteppedEngineAtEveryEpoch) {
  ChurnConfig heavy;
  heavy.volatile_fail_prob = 0.6;
  heavy.stable_fail_prob = 0.05;
  heavy.repair_prob = 0.3;
  struct Case {
    const char* name;
    double volatile_fraction;
    ChurnConfig config;
  };
  // Three years of three epochs a day: many stored-state strides.
  const std::int64_t epochs = 3 * 364 * 3;
  for (const Case& c : {Case{"default", 0.5, ChurnConfig{}}, Case{"heavy", 0.8, heavy}}) {
    SCOPED_TRACE(c.name);
    const auto g = test_graph(c.volatile_fraction);
    const ChurnTrajectory trajectory(g, c.config, 23, epochs);
    ASSERT_EQ(trajectory.num_epochs(), epochs);
    ChurnEngine oracle(g, c.config, 23);
    std::vector<bool> stepped;
    trajectory.link_state_at(0, stepped);
    std::vector<bool> rebuilt;
    std::int64_t flips = 0;
    for (std::int64_t e = 0; e < epochs; ++e) {
      std::vector<bool> before = oracle.link_up();
      if (e > 0) {
        oracle.advance();
        trajectory.step(e, stepped);
      }
      std::vector<topo::LinkId> expected_flips;
      for (std::size_t i = 0; i < before.size(); ++i) {
        if (before[i] != oracle.link_up()[i]) {
          expected_flips.push_back(static_cast<topo::LinkId>(i));
        }
      }
      const auto got_flips = trajectory.flips(e);
      ASSERT_EQ(std::vector<topo::LinkId>(got_flips.begin(), got_flips.end()), expected_flips)
          << "epoch " << e;
      flips += static_cast<std::int64_t>(got_flips.size());
      ASSERT_EQ(stepped, oracle.link_up()) << "epoch " << e;
      trajectory.link_state_at(e, rebuilt);
      ASSERT_EQ(rebuilt, oracle.link_up()) << "epoch " << e;
      ASSERT_EQ(trajectory.total_failures(e), oracle.total_failures()) << "epoch " << e;
      ASSERT_EQ(trajectory.total_repairs(e), oracle.total_repairs()) << "epoch " << e;
      ASSERT_EQ(trajectory.links_down(e), oracle.links_down()) << "epoch " << e;
    }
    // Every flip is a failure or a repair.
    EXPECT_EQ(flips, oracle.total_failures() + oracle.total_repairs());
    EXPECT_GT(oracle.total_repairs(), 0);
  }
}

TEST(ChurnTrajectory, RejectsEpochsOutsideTheRecording) {
  const auto g = test_graph();
  EXPECT_THROW(ChurnTrajectory(g, ChurnConfig{}, 1, 0), std::invalid_argument);
  const ChurnTrajectory one(g, ChurnConfig{}, 1, 1);
  EXPECT_TRUE(one.flips(0).empty());
  EXPECT_EQ(one.links_down(0), 0);
  const ChurnTrajectory trajectory(g, ChurnConfig{}, 1, 10);
  std::vector<bool> up;
  EXPECT_THROW(trajectory.flips(-1), std::out_of_range);
  EXPECT_THROW(trajectory.flips(10), std::out_of_range);
  EXPECT_THROW(trajectory.link_state_at(10, up), std::out_of_range);
  EXPECT_THROW(trajectory.total_failures(-1), std::out_of_range);
  EXPECT_THROW(trajectory.total_repairs(10), std::out_of_range);
  EXPECT_THROW(trajectory.links_down(10), std::out_of_range);
}

}  // namespace
}  // namespace ct::bgp
