#include "topo/generator.h"

#include <algorithm>
#include <set>
#include <stdexcept>

namespace ct::topo {

namespace {

struct CountrySpec {
  const char* code;
  Region region;
};

// Priority-ordered: the countries the paper's evaluation names come
// first (Table 2: China, UK, Singapore, Poland, Cyprus; Table 3 adds
// Sweden, Ukraine, UAE, Ireland, Spain, Japan, Russia).
constexpr CountrySpec kCountryTable[] = {
    {"CN", Region::kAsia},         {"GB", Region::kEurope},
    {"SG", Region::kAsia},         {"PL", Region::kEurope},
    {"CY", Region::kEurope},       {"SE", Region::kEurope},
    {"UA", Region::kEurope},       {"AE", Region::kMiddleEast},
    {"IE", Region::kEurope},       {"ES", Region::kEurope},
    {"JP", Region::kAsia},         {"RU", Region::kEurope},
    {"US", Region::kNorthAmerica}, {"DE", Region::kEurope},
    {"FR", Region::kEurope},       {"NL", Region::kEurope},
    {"KR", Region::kAsia},         {"IN", Region::kAsia},
    {"HK", Region::kAsia},         {"TW", Region::kAsia},
    {"TH", Region::kAsia},         {"MY", Region::kAsia},
    {"ID", Region::kAsia},         {"VN", Region::kAsia},
    {"PK", Region::kAsia},         {"IT", Region::kEurope},
    {"CZ", Region::kEurope},       {"RO", Region::kEurope},
    {"CH", Region::kEurope},       {"AT", Region::kEurope},
    {"PT", Region::kEurope},       {"GR", Region::kEurope},
    {"SA", Region::kMiddleEast},   {"IL", Region::kMiddleEast},
    {"TR", Region::kMiddleEast},   {"QA", Region::kMiddleEast},
    {"CA", Region::kNorthAmerica}, {"MX", Region::kNorthAmerica},
    {"BR", Region::kSouthAmerica}, {"AR", Region::kSouthAmerica},
    {"CL", Region::kSouthAmerica}, {"CO", Region::kSouthAmerica},
    {"ZA", Region::kAfrica},       {"EG", Region::kAfrica},
    {"NG", Region::kAfrica},       {"KE", Region::kAfrica},
    {"AU", Region::kOceania},      {"NZ", Region::kOceania},
};

}  // namespace

const std::vector<Country>& builtin_countries() {
  static const std::vector<Country> table = [] {
    std::vector<Country> out;
    CountryId id = 0;
    for (const auto& spec : kCountryTable) {
      Country c;
      c.id = id++;
      c.code = spec.code;
      c.region = spec.region;
      out.push_back(std::move(c));
    }
    return out;
  }();
  return table;
}

AsGraph generate_topology(const TopologyConfig& config, std::uint64_t seed) {
  if (config.num_ases <= 0) throw std::invalid_argument("topology: num_ases <= 0");
  if (config.num_tier1 < 1) throw std::invalid_argument("topology: need >= 1 tier-1");
  if (config.num_tier1 + config.num_transit > config.num_ases) {
    throw std::invalid_argument("topology: tier1 + transit exceeds num_ases");
  }
  if (config.num_countries < 1) throw std::invalid_argument("topology: need >= 1 country");

  util::Rng rng(seed);
  AsGraph graph;

  // --- countries ---
  const auto& table = builtin_countries();
  const auto num_countries = std::min<std::size_t>(
      static_cast<std::size_t>(config.num_countries), table.size());
  for (std::size_t i = 0; i < num_countries; ++i) {
    graph.add_country(table[i].code, table[i].region);
  }
  util::ZipfSampler country_sampler(num_countries, config.country_skew);

  // --- unique display ASNs ---
  std::set<std::int32_t> used_asns;
  auto fresh_asn = [&]() {
    for (;;) {
      const auto asn = static_cast<std::int32_t>(rng.uniform_int(1000, 65000));
      if (used_asns.insert(asn).second) return asn;
    }
  };

  auto pick_country = [&]() {
    return static_cast<CountryId>(country_sampler.sample(rng));
  };

  // --- tier-1 clique ---
  std::vector<AsId> tier1;
  for (std::int32_t i = 0; i < config.num_tier1; ++i) {
    tier1.push_back(
        graph.add_as(fresh_asn(), AsTier::kTier1, AsClass::kTransitAccess, pick_country()));
  }
  for (std::size_t i = 0; i < tier1.size(); ++i) {
    for (std::size_t j = i + 1; j < tier1.size(); ++j) {
      // The tier-1 backbone mesh is operationally stable.
      graph.add_link(tier1[i], tier1[j], LinkRelation::kPeerPeer, /*is_volatile=*/false);
    }
  }

  auto volatile_draw = [&]() { return rng.bernoulli(config.volatile_link_fraction); };

  // Preferential attachment weight: 1 + customer degree.
  std::vector<double> attach_weight(static_cast<std::size_t>(config.num_ases), 1.0);
  auto weighted_pick = [&](const std::vector<AsId>& candidates) -> AsId {
    double total = 0.0;
    for (const AsId c : candidates) total += attach_weight[static_cast<std::size_t>(c)];
    double u = rng.uniform() * total;
    for (const AsId c : candidates) {
      u -= attach_weight[static_cast<std::size_t>(c)];
      if (u <= 0.0) return c;
    }
    return candidates.back();
  };

  // Picks a provider for `as_country`, preferring same-country providers
  // with probability intra_country_bias, excluding `exclude`.  The
  // candidate lists are reused across calls.
  std::vector<AsId> domestic;
  std::vector<AsId> anywhere;
  auto pick_provider = [&](const std::vector<AsId>& pool, CountryId as_country,
                           const std::vector<AsId>& exclude) -> AsId {
    domestic.clear();
    anywhere.clear();
    for (const AsId p : pool) {
      if (std::find(exclude.begin(), exclude.end(), p) != exclude.end()) continue;
      anywhere.push_back(p);
      if (graph.as_info(p).country == as_country) domestic.push_back(p);
    }
    if (anywhere.empty()) return kInvalidAs;
    if (!domestic.empty() && rng.bernoulli(config.intra_country_bias)) {
      return weighted_pick(domestic);
    }
    return weighted_pick(anywhere);
  };

  // --- transit layer ---
  std::vector<AsId> transits;
  for (std::int32_t i = 0; i < config.num_transit; ++i) {
    const CountryId country = pick_country();
    const AsId id =
        graph.add_as(fresh_asn(), AsTier::kTransit, AsClass::kTransitAccess, country);
    // Providers: tier-1s plus earlier transits.
    std::vector<AsId> pool = tier1;
    pool.insert(pool.end(), transits.begin(), transits.end());
    std::vector<AsId> chosen;
    const int extra = rng.bernoulli(config.transit_extra_provider_prob) ? 1 : 0;
    const int num_providers = std::min<int>(2 + extra, static_cast<int>(pool.size()));
    for (int k = 0; k < num_providers; ++k) {
      const AsId p = pick_provider(pool, country, chosen);
      if (p == kInvalidAs) break;
      graph.add_link(id, p, LinkRelation::kCustomerProvider, volatile_draw());
      attach_weight[static_cast<std::size_t>(p)] += 1.0;
      chosen.push_back(p);
    }
    transits.push_back(id);
  }

  // Transit peering, biased to same region.
  if (!transits.empty() && config.transit_peer_degree > 0.0) {
    const auto num_peerings = static_cast<std::int64_t>(
        config.transit_peer_degree * static_cast<double>(transits.size()) / 2.0);
    std::int64_t made = 0;
    std::int64_t attempts = 0;
    while (made < num_peerings && attempts < num_peerings * 20) {
      ++attempts;
      const AsId a = rng.pick(transits);
      // Prefer same-region partner.
      std::vector<AsId> same_region;
      for (const AsId b : transits) {
        if (b == a) continue;
        if (graph.country_of(b).region == graph.country_of(a).region) {
          same_region.push_back(b);
        }
      }
      const AsId b = (!same_region.empty() && rng.bernoulli(0.8)) ? rng.pick(same_region)
                                                                  : rng.pick(transits);
      if (a == b) continue;
      bool exists = false;
      for (const auto& n : graph.neighbors(a)) exists = exists || n.as == b;
      if (exists) continue;
      graph.add_link(a, b, LinkRelation::kPeerPeer, volatile_draw());
      ++made;
    }
  }

  // --- stub layer ---
  const std::int32_t num_stubs = config.num_ases - config.num_tier1 - config.num_transit;
  for (std::int32_t i = 0; i < num_stubs; ++i) {
    const CountryId country = pick_country();
    const AsClass cls = rng.bernoulli(config.content_stub_fraction) ? AsClass::kContent
                                                                    : AsClass::kEnterprise;
    const AsId id = graph.add_as(fresh_asn(), AsTier::kStub, cls, country);
    const std::vector<AsId>& pool = transits.empty() ? tier1 : transits;
    std::vector<AsId> chosen;
    const int num_providers =
        std::min<int>(rng.bernoulli(config.multihome_prob) ? 2 : 1, static_cast<int>(pool.size()));
    for (int k = 0; k < num_providers; ++k) {
      const AsId p = pick_provider(pool, country, chosen);
      if (p == kInvalidAs) break;
      graph.add_link(id, p, LinkRelation::kCustomerProvider, volatile_draw());
      attach_weight[static_cast<std::size_t>(p)] += 1.0;
      chosen.push_back(p);
    }
  }

  return graph;
}

}  // namespace ct::topo
