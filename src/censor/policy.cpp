#include "censor/policy.h"

#include <algorithm>
#include <optional>
#include <stdexcept>

namespace ct::censor {

std::string to_string(Anomaly a) {
  switch (a) {
    case Anomaly::kDns: return "DNS";
    case Anomaly::kSeqno: return "SEQNO";
    case Anomaly::kTtl: return "TTL";
    case Anomaly::kRst: return "RESET";
    case Anomaly::kBlockpage: return "Blockpage";
  }
  return "?";
}

std::string short_label(Anomaly a) {
  switch (a) {
    case Anomaly::kDns: return "dns";
    case Anomaly::kSeqno: return "seq";
    case Anomaly::kTtl: return "ttl";
    case Anomaly::kRst: return "rst";
    case Anomaly::kBlockpage: return "block";
  }
  return "?";
}

std::string to_string(UrlCategory c) {
  switch (c) {
    case UrlCategory::kShopping: return "Online Shopping";
    case UrlCategory::kClassifieds: return "Classifieds";
    case UrlCategory::kAds: return "Advertisements";
    case UrlCategory::kNews: return "News";
    case UrlCategory::kSocial: return "Social Media";
    case UrlCategory::kPolitical: return "Political";
    case UrlCategory::kGambling: return "Gambling";
    case UrlCategory::kStreaming: return "Streaming";
    case UrlCategory::kCircumvention: return "Circumvention";
  }
  return "?";
}

std::vector<std::pair<std::string, double>> default_censorship_country_weights() {
  return {{"CN", 4.0}, {"GB", 3.5}, {"SG", 3.0}, {"PL", 2.5}, {"CY", 2.5}, {"SE", 1.5},
          {"UA", 1.5}, {"AE", 1.5}, {"IE", 1.5}, {"ES", 1.5}, {"JP", 1.5}, {"RU", 1.5},
          {"US", 0.8}, {"DE", 0.8}, {"FR", 0.8}, {"NL", 0.8}, {"KR", 0.8}, {"IN", 0.8},
          {"TR", 0.8}, {"SA", 0.8}, {"BR", 0.8}, {"ZA", 0.8}, {"HK", 0.8}, {"TW", 0.8},
          {"TH", 0.8}, {"MY", 0.8}, {"ID", 0.8}, {"VN", 0.8}, {"IT", 0.8}, {"CZ", 0.8}};
}

std::uint64_t path_fingerprint(std::span<const topo::AsId> path) {
  std::uint64_t fp = 0x9A7Bu;
  for (const topo::AsId as : path) {
    fp = util::mix64(fp, static_cast<std::uint64_t>(static_cast<std::uint32_t>(as)));
  }
  return fp;
}

CensorRegistry::CensorRegistry(std::int32_t num_ases, std::vector<CensorPolicy> policies)
    : policies_(std::move(policies)),
      policy_index_(static_cast<std::size_t>(num_ases)) {
  for (std::size_t i = 0; i < policies_.size(); ++i) {
    auto& p = policies_[i];
    if (p.censor < 0 || p.censor >= num_ases) {
      throw std::invalid_argument("CensorRegistry: policy for unknown AS");
    }
    if (p.categories.empty() || p.anomalies.empty()) {
      throw std::invalid_argument("CensorRegistry: empty policy");
    }
    if (p.active_from >= p.active_to) {
      throw std::invalid_argument("CensorRegistry: empty active window");
    }
    if (!(p.path_fraction > 0.0) || p.path_fraction > 1.0) {
      throw std::invalid_argument("CensorRegistry: path_fraction outside (0, 1]");
    }
    std::sort(p.ingress_ases.begin(), p.ingress_ases.end());
    policy_index_[static_cast<std::size_t>(p.censor)].push_back(static_cast<std::int32_t>(i));
  }
}

bool CensorRegistry::applies(topo::AsId as_id, UrlCategory category, Anomaly anomaly,
                             util::Day day) const {
  if (as_id < 0 || as_id >= static_cast<topo::AsId>(policy_index_.size())) return false;
  for (const auto idx : policy_index_[static_cast<std::size_t>(as_id)]) {
    const auto& p = policies_[static_cast<std::size_t>(idx)];
    if (day < p.active_from || day >= p.active_to) continue;
    if (std::find(p.anomalies.begin(), p.anomalies.end(), anomaly) == p.anomalies.end()) {
      continue;
    }
    if (std::find(p.categories.begin(), p.categories.end(), category) != p.categories.end()) {
      return true;
    }
  }
  return false;
}

bool CensorRegistry::path_censored(std::span<const topo::AsId> path, UrlCategory category,
                                   Anomaly anomaly, util::Day day) const {
  return first_censor_on_path(path, category, anomaly, day) != topo::kInvalidAs;
}

namespace {

// Does `p` fire for `category` on `day` at position `i` of `path`, its
// anomaly aside?  `fp` caches the path's fingerprint: it is computed only
// when some policy carries a path_fraction predicate (the common case
// has none).
bool fires_at(const CensorPolicy& p, UrlCategory category, util::Day day,
              std::span<const topo::AsId> path, std::size_t i,
              std::optional<std::uint64_t>& fp) {
  if (day < p.active_from || day >= p.active_to) return false;
  if (std::find(p.categories.begin(), p.categories.end(), category) == p.categories.end()) {
    return false;
  }
  // Routing-induced predicate: the traffic must enter the censor via
  // one of the filtered ingress neighbors.  A path that *originates* at
  // the censor has no ingress link, so ingress policies skip it.
  const topo::AsId ingress = i > 0 ? path[i - 1] : topo::kInvalidAs;
  if (!p.ingress_ases.empty() &&
      (ingress == topo::kInvalidAs ||
       !std::binary_search(p.ingress_ases.begin(), p.ingress_ases.end(), ingress))) {
    return false;
  }
  // Path-diversity predicate: fires on the `path_fraction` slice of
  // path-hash space.  Deterministic per (policy, exact path).
  if (p.path_fraction < 1.0) {
    if (!fp) fp = path_fingerprint(path);
    const double u = static_cast<double>(util::mix64(p.path_salt, *fp) >> 11) * 0x1.0p-53;
    if (u >= p.path_fraction) return false;
  }
  return true;
}

}  // namespace

topo::AsId CensorRegistry::first_censor_on_path(std::span<const topo::AsId> path,
                                                UrlCategory category, Anomaly anomaly,
                                                util::Day day) const {
  std::optional<std::uint64_t> fp;
  for (std::size_t i = 0; i < path.size(); ++i) {
    const topo::AsId as = path[i];
    if (as < 0 || as >= static_cast<topo::AsId>(policy_index_.size())) continue;
    for (const auto idx : policy_index_[static_cast<std::size_t>(as)]) {
      const auto& p = policies_[static_cast<std::size_t>(idx)];
      if (std::find(p.anomalies.begin(), p.anomalies.end(), anomaly) == p.anomalies.end()) {
        continue;
      }
      if (fires_at(p, category, day, path, i, fp)) return as;
    }
  }
  return topo::kInvalidAs;
}

std::array<topo::AsId, kNumAnomalies> CensorRegistry::first_censors_on_path(
    std::span<const topo::AsId> path, UrlCategory category, util::Day day) const {
  std::array<topo::AsId, kNumAnomalies> first;
  first.fill(topo::kInvalidAs);
  std::size_t found = 0;
  std::optional<std::uint64_t> fp;
  for (std::size_t i = 0; i < path.size() && found < kNumAnomalies; ++i) {
    const topo::AsId as = path[i];
    if (as < 0 || as >= static_cast<topo::AsId>(policy_index_.size())) continue;
    for (const auto idx : policy_index_[static_cast<std::size_t>(as)]) {
      const auto& p = policies_[static_cast<std::size_t>(idx)];
      if (!fires_at(p, category, day, path, i, fp)) continue;
      for (const Anomaly a : p.anomalies) {
        topo::AsId& censor = first[static_cast<std::size_t>(a)];
        if (censor == topo::kInvalidAs) {
          censor = as;
          ++found;
        }
      }
    }
  }
  return first;
}

std::vector<topo::AsId> CensorRegistry::censor_ases() const {
  std::vector<topo::AsId> out;
  for (std::size_t as = 0; as < policy_index_.size(); ++as) {
    if (!policy_index_[as].empty()) out.push_back(static_cast<topo::AsId>(as));
  }
  return out;
}

std::vector<Anomaly> CensorRegistry::anomalies_of(topo::AsId as_id) const {
  std::vector<Anomaly> out;
  if (as_id < 0 || as_id >= static_cast<topo::AsId>(policy_index_.size())) return out;
  for (const auto idx : policy_index_[static_cast<std::size_t>(as_id)]) {
    for (const Anomaly a : policies_[static_cast<std::size_t>(idx)].anomalies) {
      if (std::find(out.begin(), out.end(), a) == out.end()) out.push_back(a);
    }
  }
  std::sort(out.begin(), out.end(),
            [](Anomaly a, Anomaly b) { return static_cast<int>(a) < static_cast<int>(b); });
  return out;
}

namespace {

std::vector<UrlCategory> draw_categories(util::Rng& rng, double extra_prob) {
  std::vector<UrlCategory> all;
  for (std::size_t c = 0; c < kNumCategories; ++c) all.push_back(static_cast<UrlCategory>(c));
  rng.shuffle(all);
  const auto count = std::min<std::size_t>(
      1 + static_cast<std::size_t>(rng.geometric(1.0 - extra_prob)), all.size());
  all.resize(count);
  return all;
}

std::vector<Anomaly> draw_anomalies(util::Rng& rng, double extra_prob) {
  std::vector<Anomaly> all(kAllAnomalies.begin(), kAllAnomalies.end());
  rng.shuffle(all);
  const auto count = std::min<std::size_t>(
      1 + static_cast<std::size_t>(rng.geometric(1.0 - extra_prob)), all.size());
  all.resize(count);
  return all;
}

}  // namespace

CensorRegistry generate_censors(const topo::AsGraph& graph, const CensorConfig& config,
                                std::uint64_t seed) {
  if (config.num_censors < 0) throw std::invalid_argument("CensorConfig: num_censors < 0");
  util::Rng rng(util::mix64(seed, 0x5EC5E7));

  // Resolve the weighted country list against the topology.
  std::vector<std::pair<topo::CountryId, double>> weighted;
  for (const auto& [code, weight] : config.country_weights) {
    for (const auto& c : graph.countries()) {
      if (c.code == code) {
        weighted.emplace_back(c.id, weight);
        break;
      }
    }
  }
  double total_weight = 0.0;
  for (const auto& [id, w] : weighted) total_weight += w;

  auto pick_weighted_country = [&]() -> topo::CountryId {
    double u = rng.uniform() * total_weight;
    for (const auto& [id, w] : weighted) {
      u -= w;
      if (u <= 0.0) return id;
    }
    return weighted.back().first;
  };

  const auto transits = graph.ases_with_tier(topo::AsTier::kTransit);
  const auto stubs = config.stub_censor_pool.empty() ? graph.ases_with_tier(topo::AsTier::kStub)
                                                     : config.stub_censor_pool;

  std::vector<bool> taken(static_cast<std::size_t>(graph.num_ases()), false);
  std::vector<CensorPolicy> policies;
  std::int32_t placed = 0;
  std::int32_t attempts = 0;
  const std::int32_t max_attempts = config.num_censors * 200 + 1000;
  while (placed < config.num_censors && attempts < max_attempts) {
    ++attempts;
    const bool want_transit = rng.bernoulli(config.transit_censor_fraction);
    const auto& pool = want_transit && !transits.empty() ? transits
                       : !stubs.empty()                  ? stubs
                                                         : transits;
    if (pool.empty()) break;

    topo::AsId candidate = topo::kInvalidAs;
    if (!weighted.empty() && rng.bernoulli(config.weighted_country_prob)) {
      const topo::CountryId cc = pick_weighted_country();
      std::vector<topo::AsId> domestic;
      for (const topo::AsId as : pool) {
        if (graph.as_info(as).country == cc && !taken[static_cast<std::size_t>(as)]) {
          domestic.push_back(as);
        }
      }
      if (!domestic.empty()) candidate = rng.pick(domestic);
    }
    if (candidate == topo::kInvalidAs) {
      const topo::AsId as = rng.pick(pool);
      if (!taken[static_cast<std::size_t>(as)]) candidate = as;
    }
    if (candidate == topo::kInvalidAs) continue;
    taken[static_cast<std::size_t>(candidate)] = true;
    ++placed;

    CensorPolicy base;
    base.censor = candidate;
    base.categories = draw_categories(rng, config.extra_category_prob);
    base.anomalies = draw_anomalies(rng, config.extra_anomaly_prob);

    if (rng.bernoulli(config.policy_change_prob)) {
      // Policy switch: the original policy runs until a random day, then
      // a (possibly different) one takes over.
      const auto switch_day =
          static_cast<util::Day>(rng.uniform_int(30, util::kDaysPerYear - 30));
      CensorPolicy before = base;
      before.active_to = switch_day;
      CensorPolicy after;
      after.censor = candidate;
      after.categories = draw_categories(rng, config.extra_category_prob);
      after.anomalies = draw_anomalies(rng, config.extra_anomaly_prob);
      after.active_from = switch_day;
      policies.push_back(std::move(before));
      policies.push_back(std::move(after));
    } else {
      policies.push_back(std::move(base));
    }
  }

  return CensorRegistry(graph.num_ases(), std::move(policies));
}

}  // namespace ct::censor
