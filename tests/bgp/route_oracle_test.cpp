// Route-kernel oracle: the word-parallel RouteComputer kernel against the
// original three-phase implementation (routing_reference.h), on random
// generated topologies under random link failures and on the first
// epochs of the default scenario's churn trajectory.  Every public
// answer of every table must match: kind, path length, path, ECMP next
// hops and flow-hashed ECMP paths.
#include "bgp/routing.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "../support/fuzz_seed.h"
#include "analysis/scenario.h"
#include "bgp/churn.h"
#include "routing_reference.h"
#include "topo/generator.h"
#include "util/rng.h"

namespace ct::bgp {
namespace {

using topo::AsGraph;
using topo::AsId;

/// The first query on which `table` and `ref` disagree, or "" if none.
std::string first_mismatch(const RouteTable& table, const reference::Table& ref,
                           const AsGraph& graph, const std::vector<bool>& up,
                           const std::vector<std::uint64_t>& flows) {
  if (table.dest() != ref.dest) return "dest";
  for (AsId src = 0; src < graph.num_ases(); ++src) {
    const auto at = [src](const std::string& what) {
      return what + " of src " + std::to_string(src);
    };
    if (table.kind(src) != ref.kind[static_cast<std::size_t>(src)]) return at("kind");
    if (table.path_length(src) != ref.path_length(src)) return at("path_length");
    if (table.path(src) != ref.path(src)) return at("path");
    if (table.ecmp_next_hops(src, graph, up) != ref.ecmp_next_hops(src, graph, up)) {
      return at("ecmp_next_hops");
    }
    for (const std::uint64_t flow : flows) {
      if (table.ecmp_path(src, flow, graph, up) != ref.ecmp_path(src, flow, graph, up)) {
        return at("ecmp_path (flow " + std::to_string(flow) + ")");
      }
    }
  }
  return "";
}

TEST(RouteKernelOracle, MatchesReferenceOnRandomTopologies) {
  const std::uint64_t seed = test::fuzz_seed(20170623);
  SCOPED_TRACE(test::fuzz_trace(seed));
  util::Rng rng(seed);

  struct Size {
    std::int32_t ases, tier1, transit, countries;
  };
  const std::vector<Size> sizes{{24, 2, 5, 4}, {80, 3, 16, 10}, {200, 5, 40, 20}};
  const std::vector<double> down_fractions{0.0, 0.05, 0.15, 0.3, 0.5};

  for (const Size& size : sizes) {
    for (int variant = 0; variant < 2; ++variant) {
      topo::TopologyConfig cfg;
      cfg.num_ases = size.ases;
      cfg.num_tier1 = size.tier1;
      cfg.num_transit = size.transit;
      cfg.num_countries = size.countries;
      if (variant == 1) {
        // Dense peering and multihoming: many equal-length alternates,
        // so every phase's lowest-next-hop tie-break is exercised.
        cfg.transit_peer_degree = 4.0;
        cfg.multihome_prob = 0.9;
        cfg.transit_extra_provider_prob = 0.8;
      }
      const std::uint64_t topo_seed = rng();
      const AsGraph graph = topo::generate_topology(cfg, topo_seed);
      const RouteComputer computer(graph);
      std::vector<AsId> dests(static_cast<std::size_t>(graph.num_ases()));
      for (AsId as = 0; as < graph.num_ases(); ++as) dests[static_cast<std::size_t>(as)] = as;

      for (const double down : down_fractions) {
        std::vector<bool> up(static_cast<std::size_t>(graph.num_links()));
        for (std::size_t link = 0; link < up.size(); ++link) up[link] = !rng.bernoulli(down);
        // Every destination through one RouteTableSet: the kernel's lane
        // scratch is reused from one 64-destination block to the next.
        const RouteTableSet tables(computer, dests, up);
        const std::vector<std::uint64_t> flows{rng(), rng(), rng()};
        for (const AsId dest : dests) {
          const auto ref = reference::compute(graph, dest, up);
          ASSERT_EQ(first_mismatch(tables.at(static_cast<std::size_t>(dest)), ref, graph, up,
                                   flows),
                    "")
              << graph.num_ases() << " ASes, topology seed " << topo_seed << ", down "
              << down << ", dest " << dest;
        }
        // The single-destination entry point runs the same kernel.
        const auto dest = static_cast<AsId>(rng.index(dests.size()));
        ASSERT_EQ(first_mismatch(computer.compute(dest, up),
                                 reference::compute(graph, dest, up), graph, up, flows),
                  "")
            << "compute(" << dest << ") alone, topology seed " << topo_seed;
      }
    }
  }
}

TEST(RouteKernelOracle, BlockBoundariesAndRepeatedDestinations) {
  // The kernel routes 64 destinations per pass, one bit lane each:
  // lists that end just short of, on, and just past a block boundary,
  // span three blocks, are unsorted, and repeat a destination inside
  // one block and across blocks must give every entry its own table.
  topo::TopologyConfig cfg;
  cfg.num_ases = 200;
  cfg.num_tier1 = 5;
  cfg.num_transit = 40;
  cfg.num_countries = 20;
  cfg.transit_peer_degree = 4.0;
  cfg.multihome_prob = 0.9;
  cfg.transit_extra_provider_prob = 0.8;
  const std::uint64_t seed = test::fuzz_seed(20170623);
  SCOPED_TRACE(test::fuzz_trace(seed));
  util::Rng rng(seed);
  const std::uint64_t topo_seed = rng();
  const AsGraph graph = topo::generate_topology(cfg, topo_seed);
  const RouteComputer computer(graph);

  for (const double down : {0.0, 0.15}) {
    std::vector<bool> up(static_cast<std::size_t>(graph.num_links()));
    for (std::size_t link = 0; link < up.size(); ++link) up[link] = !rng.bernoulli(down);
    RouteTableSet tables;
    tables.recompute(computer, {}, up);
    EXPECT_EQ(tables.size(), 0u);

    for (const std::size_t count : {1, 63, 64, 65, 129}) {
      // Distinct destinations in shuffled order...
      std::vector<AsId> dests(static_cast<std::size_t>(graph.num_ases()));
      for (AsId as = 0; as < graph.num_ases(); ++as) dests[static_cast<std::size_t>(as)] = as;
      rng.shuffle(dests);
      dests.resize(count);
      // ...then dests[0] again in its own block and in the next one.
      if (count > 1) dests[std::min<std::size_t>(count - 1, 40)] = dests[0];
      if (count > 64) dests[64] = dests[0];
      tables.recompute(computer, dests, up);
      ASSERT_EQ(tables.size(), count);
      const std::vector<std::uint64_t> flows{rng()};
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(first_mismatch(tables.at(i), reference::compute(graph, dests[i], up), graph,
                                 up, flows),
                  "")
            << count << " destinations, entry " << i << " (dest " << dests[i]
            << "), topology seed " << topo_seed << ", down " << down;
      }
    }
  }
}

TEST(RouteKernelOracle, MatchesReferenceOnDefaultScenarioEpochs) {
  const analysis::ScenarioConfig config = analysis::default_scenario();
  const analysis::Scenario scenario(config);
  const AsGraph& graph = scenario.graph();
  const std::vector<AsId>& dests = scenario.platform().dest_ases();
  const RouteComputer computer(graph);
  ChurnEngine churn(graph, config.platform.churn, config.seed);
  const std::uint64_t seed = test::fuzz_seed(20170623);
  SCOPED_TRACE(test::fuzz_trace(seed));
  util::Rng rng(seed);  // draws the ECMP flow hashes

  for (std::int64_t epoch = 0; epoch < 30; ++epoch) {
    if (epoch > 0) churn.advance();
    ASSERT_EQ(churn.epoch(), epoch);
    const RouteTableSet tables(computer, dests, churn.link_up());
    // One flow per epoch: 30 epochs already walk 1.07M (dest, src) pairs.
    const std::vector<std::uint64_t> flows{rng()};
    for (std::size_t di = 0; di < dests.size(); ++di) {
      ASSERT_EQ(first_mismatch(tables.at(di), reference::compute(graph, dests[di], churn.link_up()),
                               graph, churn.link_up(), flows),
                "")
          << "epoch " << epoch << ", dest " << dests[di];
    }
  }
}

}  // namespace
}  // namespace ct::bgp
