// Scenario regimes (censor/regime.h): the regime names and the
// graph-only regime generators.  Name parsing is strict (a typo'd
// --regime is refused instead of silently running the wrong regime);
// the generators are deterministic functions of (seed, policy order) so
// every execution strategy builds the same registry.
#include "censor/regime.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "topo/generator.h"

namespace ct::censor {
namespace {

TEST(RegimeName, ParseRegimeRoundTrips) {
  const auto regimes = all_regimes();
  EXPECT_EQ(regimes.size(), kNumRegimes);
  for (const ScenarioRegime regime : regimes) {
    const auto parsed = parse_regime(to_string(regime));
    ASSERT_TRUE(parsed.has_value()) << to_string(regime);
    EXPECT_EQ(*parsed, regime);
  }
  EXPECT_FALSE(parse_regime("").has_value());
  EXPECT_FALSE(parse_regime("Baseline").has_value());
  EXPECT_FALSE(parse_regime("ecmp").has_value());
}

topo::AsGraph test_graph() {
  topo::TopologyConfig cfg;
  cfg.num_ases = 200;
  cfg.num_tier1 = 5;
  cfg.num_transit = 40;
  cfg.num_countries = 30;
  return topo::generate_topology(cfg, 77);
}

std::vector<CensorPolicy> test_policies(const topo::AsGraph& graph) {
  std::vector<CensorPolicy> policies;
  for (const topo::AsId as : graph.ases_with_tier(topo::AsTier::kTransit)) {
    CensorPolicy p;
    p.censor = as;
    p.categories = {UrlCategory::kNews};
    p.anomalies = {Anomaly::kDns};
    policies.push_back(p);
    if (policies.size() == 8) break;
  }
  for (const topo::AsId as : graph.ases_with_tier(topo::AsTier::kStub)) {
    CensorPolicy p;
    p.censor = as;
    p.categories = {UrlCategory::kNews};
    p.anomalies = {Anomaly::kDns};
    policies.push_back(p);
    if (policies.size() == 12) break;
  }
  return policies;
}

TEST(AttachIngressPredicates, TransitOnlyAndDeterministic) {
  const auto g = test_graph();
  auto a = test_policies(g);
  auto b = test_policies(g);
  attach_ingress_predicates(g, a, 0.5, 99);
  attach_ingress_predicates(g, b, 0.5, 99);
  bool any_transit_filtered = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ingress_ases, b[i].ingress_ases);  // deterministic
    const topo::AsTier tier = g.as_info(a[i].censor).tier;
    if (tier == topo::AsTier::kStub) {
      EXPECT_TRUE(a[i].ingress_ases.empty());  // stubs untouched
      continue;
    }
    const auto& neighbors = g.neighbors(a[i].censor);
    if (neighbors.size() < 2) continue;
    any_transit_filtered = true;
    // Proper non-empty subset of the neighbor set.
    EXPECT_GE(a[i].ingress_ases.size(), 1u);
    EXPECT_LT(a[i].ingress_ases.size(), neighbors.size());
    for (const topo::AsId ingress : a[i].ingress_ases) {
      EXPECT_TRUE(std::any_of(neighbors.begin(), neighbors.end(),
                              [ingress](const auto& nb) { return nb.as == ingress; }));
    }
  }
  EXPECT_TRUE(any_transit_filtered);
  // A different seed picks different ingress sets somewhere.
  auto c = test_policies(g);
  attach_ingress_predicates(g, c, 0.5, 100);
  bool any_differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].ingress_ases != c[i].ingress_ases) any_differs = true;
  }
  EXPECT_TRUE(any_differs);
}

TEST(AttachIngressPredicates, RejectsBadFraction) {
  const auto g = test_graph();
  auto policies = test_policies(g);
  EXPECT_THROW(attach_ingress_predicates(g, policies, 0.0, 1), std::invalid_argument);
  EXPECT_THROW(attach_ingress_predicates(g, policies, 1.5, 1), std::invalid_argument);
}

TEST(AttachPathDither, TransitOnlyAndDeterministic) {
  const auto g = test_graph();
  auto a = test_policies(g);
  auto b = test_policies(g);
  attach_path_dither(g, a, 0.5, 7);
  attach_path_dither(g, b, 0.5, 7);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].path_salt, b[i].path_salt);
    EXPECT_EQ(a[i].path_fraction, b[i].path_fraction);
    const topo::AsTier tier = g.as_info(a[i].censor).tier;
    if (tier == topo::AsTier::kStub) {
      EXPECT_EQ(a[i].path_fraction, 1.0);  // stubs keep full coverage
      EXPECT_EQ(a[i].path_salt, 0u);
    } else {
      EXPECT_EQ(a[i].path_fraction, 0.5);
      EXPECT_NE(a[i].path_salt, 0u);
    }
  }
  EXPECT_THROW(attach_path_dither(g, a, -0.5, 7), std::invalid_argument);
}

}  // namespace
}  // namespace ct::censor
