#include "bgp/routing.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "topo/generator.h"

namespace ct::bgp {
namespace {

using topo::AsGraph;
using topo::AsId;
using topo::AsTier;
using topo::AsClass;
using topo::LinkRelation;
using topo::NeighborKind;
using topo::Region;

/// Small hand-built world:
///
///   T1a ==== T1b            (tier-1 peer clique)
///    |  \     |
///   P1   P3  P2             (transits; customers of one tier-1 each)
///    |    |   |
///    +--- VP -+  D(cust of T1a)   D2 (cust of P2)
///
/// VP is a stub multihomed to P1 and P2; D hangs off T1a, D2 off P2.
struct World {
  AsGraph g;
  AsId t1a, t1b, p1, p2, p3, vp, d, d2;

  World() {
    const auto c0 = g.add_country("CN", Region::kAsia);
    const auto c1 = g.add_country("GB", Region::kEurope);
    t1a = g.add_as(10, AsTier::kTier1, AsClass::kTransitAccess, c0);
    t1b = g.add_as(11, AsTier::kTier1, AsClass::kTransitAccess, c1);
    p1 = g.add_as(20, AsTier::kTransit, AsClass::kTransitAccess, c0);
    p2 = g.add_as(21, AsTier::kTransit, AsClass::kTransitAccess, c1);
    p3 = g.add_as(22, AsTier::kTransit, AsClass::kTransitAccess, c0);
    vp = g.add_as(30, AsTier::kStub, AsClass::kEnterprise, c0);
    d = g.add_as(31, AsTier::kStub, AsClass::kContent, c1);
    d2 = g.add_as(32, AsTier::kStub, AsClass::kContent, c1);
    g.add_link(t1a, t1b, LinkRelation::kPeerPeer, false);
    g.add_link(p1, t1a, LinkRelation::kCustomerProvider, false);
    g.add_link(p3, t1a, LinkRelation::kCustomerProvider, false);
    g.add_link(p2, t1b, LinkRelation::kCustomerProvider, false);
    g.add_link(vp, p1, LinkRelation::kCustomerProvider, false);
    g.add_link(vp, p2, LinkRelation::kCustomerProvider, false);
    g.add_link(d, t1a, LinkRelation::kCustomerProvider, false);
    g.add_link(d2, p2, LinkRelation::kCustomerProvider, false);
  }
};

TEST(Routing, OriginHasZeroLengthPath) {
  World w;
  const RouteComputer rc(w.g);
  const RouteTable t = rc.compute(w.d);
  EXPECT_EQ(t.kind(w.d), RouteKind::kOrigin);
  EXPECT_EQ(t.path_length(w.d), 0);
  EXPECT_EQ(t.path(w.d), (std::vector<AsId>{w.d}));
}

TEST(Routing, CustomerRoutePropagetesUpward) {
  World w;
  const RouteComputer rc(w.g);
  const RouteTable t = rc.compute(w.d);
  // T1a learns D as a customer route.
  EXPECT_EQ(t.kind(w.t1a), RouteKind::kCustomer);
  EXPECT_EQ(t.path_length(w.t1a), 1);
  EXPECT_EQ(t.path(w.t1a), (std::vector<AsId>{w.t1a, w.d}));
}

TEST(Routing, PeerRouteOnePeerHop) {
  World w;
  const RouteComputer rc(w.g);
  const RouteTable t = rc.compute(w.d);
  // T1b reaches D via its peer T1a (customer route of T1a).
  EXPECT_EQ(t.kind(w.t1b), RouteKind::kPeer);
  EXPECT_EQ(t.path(w.t1b), (std::vector<AsId>{w.t1b, w.t1a, w.d}));
}

TEST(Routing, ProviderRoutesReachStubs) {
  World w;
  const RouteComputer rc(w.g);
  const RouteTable t = rc.compute(w.d);
  EXPECT_EQ(t.kind(w.p1), RouteKind::kProvider);
  EXPECT_EQ(t.path(w.p1), (std::vector<AsId>{w.p1, w.t1a, w.d}));
  EXPECT_EQ(t.kind(w.vp), RouteKind::kProvider);
  // VP picks the shorter provider route via P1 (3 hops) over P2 (4).
  EXPECT_EQ(t.path(w.vp), (std::vector<AsId>{w.vp, w.p1, w.t1a, w.d}));
}

TEST(Routing, CustomerPreferredOverShorterPeerOrProvider) {
  // D2 hangs off P2: P2's route to D2 is a customer route; T1b would
  // also offer a (longer) path.  VP must route via P2 even though the
  // path via P1 does not exist.
  World w;
  const RouteComputer rc(w.g);
  const RouteTable t = rc.compute(w.d2);
  EXPECT_EQ(t.kind(w.p2), RouteKind::kCustomer);
  EXPECT_EQ(t.path(w.vp), (std::vector<AsId>{w.vp, w.p2, w.d2}));
  // T1a reaches D2 via peer T1b then down (valley-free).
  EXPECT_EQ(t.path(w.t1a), (std::vector<AsId>{w.t1a, w.t1b, w.p2, w.d2}));
}

TEST(Routing, LinkFailureReroutes) {
  World w;
  const RouteComputer rc(w.g);
  std::vector<bool> up(static_cast<std::size_t>(w.g.num_links()), true);
  // Fail VP-P1 (link index 4 by construction order).
  up[4] = false;
  const RouteTable t = rc.compute(w.d, up);
  EXPECT_EQ(t.path(w.vp), (std::vector<AsId>{w.vp, w.p2, w.t1b, w.t1a, w.d}));
}

TEST(Routing, DisconnectionYieldsUnreachable) {
  World w;
  const RouteComputer rc(w.g);
  std::vector<bool> up(static_cast<std::size_t>(w.g.num_links()), true);
  up[4] = false;  // VP-P1
  up[5] = false;  // VP-P2
  const RouteTable t = rc.compute(w.d, up);
  EXPECT_FALSE(t.reachable(w.vp));
  EXPECT_TRUE(t.path(w.vp).empty());
  EXPECT_EQ(t.kind(w.vp), RouteKind::kNone);
}

TEST(Routing, ValidatesArguments) {
  World w;
  const RouteComputer rc(w.g);
  EXPECT_THROW(rc.compute(-1), std::invalid_argument);
  EXPECT_THROW(rc.compute(w.g.num_ases()), std::invalid_argument);
  std::vector<bool> short_up(3, true);
  EXPECT_THROW(rc.compute(w.d, short_up), std::invalid_argument);
}

// ---- property tests on generated topologies ----

bool is_valley_free(const AsGraph& g, const std::vector<AsId>& path) {
  // Classify each step: +1 up (customer->provider), 0 peer, -1 down.
  // Valid: some ups, at most one peer step, then downs; never up or
  // peer after going down, never up after a peer.
  int phase = 0;  // 0 = climbing, 1 = after peer, 2 = descending
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    int step = 99;
    for (const auto& nb : g.neighbors(path[i])) {
      if (nb.as != path[i + 1]) continue;
      if (nb.kind == NeighborKind::kProvider) step = +1;
      if (nb.kind == NeighborKind::kPeer) step = 0;
      if (nb.kind == NeighborKind::kCustomer) step = -1;
      break;
    }
    if (step == 99) return false;  // non-adjacent hop
    if (step == +1 && phase != 0) return false;
    if (step == 0) {
      if (phase != 0) return false;
      phase = 1;
    }
    if (step == -1) phase = 2;
  }
  return true;
}

class RoutingProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RoutingProperties, PathsAreValleyFreeLoopFreeAndConsistent) {
  topo::TopologyConfig cfg;
  cfg.num_ases = 80;
  cfg.num_tier1 = 3;
  cfg.num_transit = 16;
  cfg.num_countries = 10;
  const AsGraph g = topo::generate_topology(cfg, GetParam());
  const RouteComputer rc(g);

  util::Rng rng(GetParam() * 977);
  for (int trial = 0; trial < 5; ++trial) {
    const auto dest = static_cast<AsId>(rng.index(static_cast<std::size_t>(g.num_ases())));
    const RouteTable t = rc.compute(dest);
    for (AsId src = 0; src < g.num_ases(); ++src) {
      // Full topology with a tier-1 clique: everything is reachable.
      ASSERT_TRUE(t.reachable(src)) << "src " << src << " dest " << dest;
      const auto path = t.path(src);
      ASSERT_FALSE(path.empty());
      EXPECT_EQ(path.front(), src);
      EXPECT_EQ(path.back(), dest);
      // Loop-free.
      std::set<AsId> unique(path.begin(), path.end());
      EXPECT_EQ(unique.size(), path.size());
      // Valley-free (Gao-Rexford export rules).
      EXPECT_TRUE(is_valley_free(g, path)) << "dest " << dest;
      // Advertised length consistent with the path.
      EXPECT_EQ(static_cast<std::size_t>(t.path_length(src)) + 1, path.size());
    }
  }
}

TEST_P(RoutingProperties, FailuresNeverCreateValleys) {
  topo::TopologyConfig cfg;
  cfg.num_ases = 60;
  cfg.num_tier1 = 3;
  cfg.num_transit = 12;
  cfg.num_countries = 8;
  const AsGraph g = topo::generate_topology(cfg, GetParam());
  const RouteComputer rc(g);
  util::Rng rng(GetParam() * 31337);

  std::vector<bool> up(static_cast<std::size_t>(g.num_links()), true);
  for (std::size_t i = 0; i < up.size(); ++i) up[i] = !rng.bernoulli(0.15);

  const auto dest = static_cast<AsId>(rng.index(static_cast<std::size_t>(g.num_ases())));
  const RouteTable t = rc.compute(dest, up);
  for (AsId src = 0; src < g.num_ases(); ++src) {
    if (!t.reachable(src)) continue;
    const auto path = t.path(src);
    EXPECT_TRUE(is_valley_free(g, path));
    // Every link used must be up.
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      for (const auto& nb : g.neighbors(path[i])) {
        if (nb.as == path[i + 1]) {
          EXPECT_TRUE(up[static_cast<std::size_t>(nb.link)]);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutingProperties, ::testing::Range<std::uint64_t>(1, 16));

TEST(RouteTableSet, MatchesPerDestinationComputation) {
  topo::TopologyConfig cfg;
  cfg.num_ases = 120;
  cfg.num_tier1 = 4;
  cfg.num_transit = 24;
  cfg.num_countries = 10;
  const topo::AsGraph graph = topo::generate_topology(cfg, 5);
  const RouteComputer computer(graph);
  std::vector<bool> up(static_cast<std::size_t>(graph.num_links()), true);
  for (std::size_t i = 0; i < up.size(); i += 7) up[i] = false;  // some failures

  const std::vector<topo::AsId> dests{3, 17, 42, 99};
  const RouteTableSet tables(computer, dests, up);
  ASSERT_EQ(tables.size(), dests.size());
  for (std::size_t di = 0; di < dests.size(); ++di) {
    const RouteTable direct = computer.compute(dests[di], up);
    EXPECT_EQ(tables.at(di).dest(), dests[di]);
    for (AsId src = 0; src < graph.num_ases(); ++src) {
      EXPECT_EQ(tables.at(di).path(src), direct.path(src));
    }
  }
}

TEST(RouteTableSet, RecomputeInPlaceMatchesFreshSet) {
  // One set recomputed across link states and destination lists (equal,
  // shorter, longer) holds exactly what a freshly built set holds, down
  // to the per-class distances the ECMP alternates read: nothing of the
  // previous view survives in the reused storage.
  topo::TopologyConfig cfg;
  cfg.num_ases = 120;
  cfg.num_tier1 = 4;
  cfg.num_transit = 24;
  cfg.num_countries = 10;
  const topo::AsGraph graph = topo::generate_topology(cfg, 9);
  const RouteComputer computer(graph);
  // 129 destinations (three 64-lane blocks, some repeated) shrink to
  // five and grow back: the lane scratch and tables of a wider view must
  // not leak into a narrower one, nor the other way round.
  std::vector<topo::AsId> wide(129);
  for (std::size_t i = 0; i < wide.size(); ++i) wide[i] = static_cast<topo::AsId>(i * 7 % 120);
  const std::vector<std::vector<topo::AsId>> dest_lists{
      {3, 17, 42, 99}, {8, 17, 64, 101}, {5}, {0, 11, 23, 57, 88, 119}, wide, {1, 2, 3, 4, 5},
      wide};

  RouteTableSet reused;
  for (std::size_t step = 0; step < 2 * dest_lists.size(); ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    std::vector<bool> up(static_cast<std::size_t>(graph.num_links()), true);
    for (std::size_t i = step % 5; i < up.size(); i += 5 + step) up[i] = false;
    const std::vector<topo::AsId>& dests = dest_lists[step % dest_lists.size()];

    reused.recompute(computer, dests, up);
    const RouteTableSet fresh(computer, dests, up);
    ASSERT_EQ(reused.size(), fresh.size());
    for (std::size_t di = 0; di < dests.size(); ++di) {
      const RouteTable& got = reused.at(di);
      const RouteTable& want = fresh.at(di);
      EXPECT_EQ(got.dest(), want.dest());
      for (AsId src = 0; src < graph.num_ases(); ++src) {
        EXPECT_EQ(got.kind(src), want.kind(src));
        EXPECT_EQ(got.path_length(src), want.path_length(src));
        EXPECT_EQ(got.path(src), want.path(src));
        EXPECT_EQ(got.ecmp_next_hops(src, graph, up), want.ecmp_next_hops(src, graph, up));
      }
    }
  }
}

}  // namespace
}  // namespace ct::bgp
