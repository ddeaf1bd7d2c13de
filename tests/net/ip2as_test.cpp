#include "net/ip2as.h"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>

#include "topo/generator.h"

namespace ct::net {
namespace {

TEST(Ip2As, EmptyLookupIsNull) {
  Ip2AsDb db;
  EXPECT_FALSE(db.lookup(parse_ip4("10.0.0.1")).has_value());
  EXPECT_EQ(db.num_prefixes(), 0u);
}

TEST(Ip2As, BasicLookup) {
  Ip2AsDb db;
  db.add_prefix(Prefix::make(parse_ip4("10.1.0.0"), 16), 7);
  EXPECT_EQ(db.lookup(parse_ip4("10.1.2.3")).value(), 7);
  EXPECT_FALSE(db.lookup(parse_ip4("10.2.0.0")).has_value());
  EXPECT_EQ(db.num_prefixes(), 1u);
}

TEST(Ip2As, LongestPrefixWins) {
  Ip2AsDb db;
  db.add_prefix(Prefix::make(parse_ip4("10.0.0.0"), 8), 1);
  db.add_prefix(Prefix::make(parse_ip4("10.1.0.0"), 16), 2);
  db.add_prefix(Prefix::make(parse_ip4("10.1.2.0"), 24), 3);
  EXPECT_EQ(db.lookup(parse_ip4("10.9.9.9")).value(), 1);
  EXPECT_EQ(db.lookup(parse_ip4("10.1.9.9")).value(), 2);
  EXPECT_EQ(db.lookup(parse_ip4("10.1.2.9")).value(), 3);
}

TEST(Ip2As, ReRegisterOverwrites) {
  Ip2AsDb db;
  db.add_prefix(Prefix::make(parse_ip4("10.1.0.0"), 16), 1);
  db.add_prefix(Prefix::make(parse_ip4("10.1.0.0"), 16), 2);
  EXPECT_EQ(db.lookup(parse_ip4("10.1.0.1")).value(), 2);
  EXPECT_EQ(db.num_prefixes(), 1u);
}

TEST(Ip2As, DefaultRouteViaZeroLengthPrefix) {
  Ip2AsDb db;
  db.add_prefix(Prefix::make(0, 0), 42);
  EXPECT_EQ(db.lookup(parse_ip4("1.2.3.4")).value(), 42);
}

TEST(Ip2As, HostPrefix) {
  Ip2AsDb db;
  db.add_prefix(Prefix::make(parse_ip4("10.1.2.3"), 32), 9);
  EXPECT_EQ(db.lookup(parse_ip4("10.1.2.3")).value(), 9);
  EXPECT_FALSE(db.lookup(parse_ip4("10.1.2.2")).has_value());
}

TEST(Ip2As, PrefixesExport) {
  Ip2AsDb db;
  db.add_prefix(Prefix::make(parse_ip4("10.1.0.0"), 16), 1);
  db.add_prefix(Prefix::make(parse_ip4("10.2.0.0"), 16), 2);
  const auto all = db.prefixes();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].second, 1);
  EXPECT_EQ(all[1].second, 2);
}

topo::AsGraph small_graph() {
  topo::TopologyConfig cfg;
  cfg.num_ases = 50;
  cfg.num_tier1 = 3;
  cfg.num_transit = 10;
  cfg.num_countries = 8;
  return topo::generate_topology(cfg, 3);
}

TEST(AddressPlan, EveryAsGetsPrefixes) {
  const auto g = small_graph();
  const AddressPlan plan = allocate_prefixes(g, AddressPlanConfig{});
  ASSERT_EQ(plan.prefixes.size(), static_cast<std::size_t>(g.num_ases()));
  for (const auto& prefixes : plan.prefixes) {
    EXPECT_FALSE(prefixes.empty());
  }
  EXPECT_FALSE(plan.unmapped_pool.empty());
}

TEST(AddressPlan, TiersGetMorePrefixes) {
  const auto g = small_graph();
  AddressPlanConfig cfg;
  const AddressPlan plan = allocate_prefixes(g, cfg);
  for (const auto& info : g.ases()) {
    const auto count = static_cast<std::int32_t>(plan.prefixes[static_cast<std::size_t>(info.id)].size());
    if (info.tier == topo::AsTier::kTier1) {
      EXPECT_EQ(count, cfg.tier1_prefixes);
    }
    if (info.tier == topo::AsTier::kTransit) {
      EXPECT_EQ(count, cfg.transit_prefixes);
    }
    if (info.tier == topo::AsTier::kStub) {
      EXPECT_EQ(count, cfg.stub_prefixes);
    }
  }
}

TEST(AddressPlan, BlocksAreDisjoint) {
  const auto g = small_graph();
  const AddressPlan plan = allocate_prefixes(g, AddressPlanConfig{});
  std::set<Ip4> bases;
  for (const auto& prefixes : plan.prefixes) {
    for (const auto& p : prefixes) {
      EXPECT_EQ(p.length, 16);
      EXPECT_TRUE(bases.insert(p.address).second) << "overlapping block";
    }
  }
  for (const auto& p : plan.unmapped_pool) {
    EXPECT_TRUE(bases.insert(p.address).second);
  }
}

TEST(AddressPlan, BuildDbMapsEveryOwnedAddress) {
  const auto g = small_graph();
  const AddressPlan plan = allocate_prefixes(g, AddressPlanConfig{});
  const Ip2AsDb db = build_ip2as(plan);
  for (std::size_t as = 0; as < plan.prefixes.size(); ++as) {
    for (const auto& p : plan.prefixes[as]) {
      EXPECT_EQ(db.lookup(p.address + 1).value(), static_cast<topo::AsId>(as));
    }
  }
  // Unmapped pool is genuinely unmapped.
  for (const auto& p : plan.unmapped_pool) {
    EXPECT_FALSE(db.lookup(p.address + 1).has_value());
  }
}

/// One stub AS, so every block of a plan but the unmapped pool is its.
topo::AsGraph one_stub_graph() {
  topo::AsGraph g;
  const auto country = g.add_country("CN", topo::Region::kAsia);
  g.add_as(1, topo::AsTier::kStub, topo::AsClass::kContent, country);
  return g;
}

TEST(AddressPlan, StopsBeforePrivateRange) {
  const auto g = one_stub_graph();
  AddressPlanConfig cfg;
  cfg.unmapped_blocks = 0;
  cfg.stub_prefixes = 46760;  // blocks 0..46759: 10.0.0.0/16 .. 192.167.0.0/16
  const AddressPlan plan = allocate_prefixes(g, cfg);
  ASSERT_EQ(plan.prefixes[0].size(), 46760u);
  EXPECT_EQ(to_string(plan.prefixes[0].back()), "192.167.0.0/16");

  cfg.stub_prefixes = 46761;  // block 46760 would be 192.168.0.0/16
  try {
    allocate_prefixes(g, cfg);
    FAIL() << "a plan reaching 192.168.0.0/16 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("46760"), std::string::npos) << e.what();
  }
}

TEST(AddressPlan, UnmappedPoolCountsTowardTheLimit) {
  const auto g = one_stub_graph();
  AddressPlanConfig cfg;
  cfg.stub_prefixes = 46759;
  cfg.unmapped_blocks = 1;
  const AddressPlan plan = allocate_prefixes(g, cfg);
  ASSERT_EQ(plan.unmapped_pool.size(), 1u);
  EXPECT_EQ(to_string(plan.unmapped_pool[0]), "192.167.0.0/16");
  cfg.unmapped_blocks = 2;
  EXPECT_THROW(allocate_prefixes(g, cfg), std::invalid_argument);
}

}  // namespace
}  // namespace ct::net
