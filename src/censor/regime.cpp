#include "censor/regime.h"

#include <algorithm>
#include <stdexcept>

#include "util/rng.h"

namespace ct::censor {

std::string to_string(ScenarioRegime regime) {
  switch (regime) {
    case ScenarioRegime::kBaseline: return "baseline";
    case ScenarioRegime::kRoutingInduced: return "routing";
    case ScenarioRegime::kMultipath: return "multipath";
    case ScenarioRegime::kAdaptive: return "adaptive";
    case ScenarioRegime::kPathDiversity: return "pathdiv";
  }
  return "?";
}

std::optional<ScenarioRegime> parse_regime(std::string_view value) {
  for (const ScenarioRegime regime : all_regimes()) {
    if (value == to_string(regime)) return regime;
  }
  return std::nullopt;
}

std::vector<ScenarioRegime> all_regimes() {
  return {ScenarioRegime::kBaseline, ScenarioRegime::kRoutingInduced, ScenarioRegime::kMultipath,
          ScenarioRegime::kAdaptive, ScenarioRegime::kPathDiversity};
}

namespace {

bool is_transit(const topo::AsGraph& graph, topo::AsId as) {
  const topo::AsTier tier = graph.as_info(as).tier;
  return tier == topo::AsTier::kTier1 || tier == topo::AsTier::kTransit;
}

/// Per-policy sub-seed: a function of the seed, the policy's position,
/// and its censor — NOT of any evaluation order.
std::uint64_t policy_seed(std::uint64_t seed, std::size_t index, topo::AsId censor) {
  return util::mix64(seed, util::mix64(static_cast<std::uint64_t>(index),
                                       static_cast<std::uint64_t>(static_cast<std::uint32_t>(censor))));
}

}  // namespace

void attach_ingress_predicates(const topo::AsGraph& graph, std::vector<CensorPolicy>& policies,
                               double ingress_fraction, std::uint64_t seed) {
  if (!(ingress_fraction > 0.0) || ingress_fraction > 1.0) {
    throw std::invalid_argument("attach_ingress_predicates: ingress_fraction outside (0, 1]");
  }
  for (std::size_t i = 0; i < policies.size(); ++i) {
    CensorPolicy& p = policies[i];
    if (!is_transit(graph, p.censor)) continue;
    const auto& neighbors = graph.neighbors(p.censor);
    if (neighbors.size() < 2) continue;  // single ingress: nothing for churn to flip
    std::vector<topo::AsId> candidates;
    candidates.reserve(neighbors.size());
    for (const topo::Neighbor& nb : neighbors) candidates.push_back(nb.as);
    std::sort(candidates.begin(), candidates.end());
    util::Rng rng(policy_seed(seed, i, p.censor) ^ 0x1A62E55ULL);
    rng.shuffle(candidates);
    const auto keep = std::max<std::size_t>(
        1, std::min(candidates.size() - 1,
                    static_cast<std::size_t>(ingress_fraction *
                                             static_cast<double>(candidates.size()) + 0.5)));
    candidates.resize(keep);
    p.ingress_ases = std::move(candidates);  // registry ctor re-sorts
  }
}

void attach_path_dither(const topo::AsGraph& graph, std::vector<CensorPolicy>& policies,
                        double dither_fraction, std::uint64_t seed) {
  if (!(dither_fraction > 0.0) || dither_fraction > 1.0) {
    throw std::invalid_argument("attach_path_dither: dither_fraction outside (0, 1]");
  }
  for (std::size_t i = 0; i < policies.size(); ++i) {
    CensorPolicy& p = policies[i];
    if (!is_transit(graph, p.censor)) continue;
    p.path_fraction = dither_fraction;
    p.path_salt = policy_seed(seed, i, p.censor) ^ 0xD17E4ULL;
  }
}

}  // namespace ct::censor
