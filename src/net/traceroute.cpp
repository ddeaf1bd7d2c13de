#include "net/traceroute.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace ct::net {

TracerouteEngine::TracerouteEngine(const AddressPlan& plan, const TracerouteConfig& config)
    : plan_(plan), config_(config) {
  if (config.min_hops_per_as < 1 || config.max_hops_per_as < config.min_hops_per_as) {
    throw std::invalid_argument("TracerouteConfig: bad hops_per_as range");
  }
  prefix_begin_.reserve(plan.prefixes.size() + 1);
  prefix_begin_.push_back(0);
  for (const std::vector<Prefix>& owned : plan.prefixes) {
    prefixes_.insert(prefixes_.end(), owned.begin(), owned.end());
    prefix_begin_.push_back(prefixes_.size());
  }
}

Ip4 TracerouteEngine::random_address_in(const Prefix& prefix, util::Rng& rng) const {
  const std::uint64_t host_bits = prefix.size();
  if (host_bits <= 1) return prefix.address;  // /32: only one address
  // Avoid the network address itself (offset >= 1).
  const auto offset = static_cast<Ip4>(rng.uniform_int(1, static_cast<std::int64_t>(host_bits) - 1));
  return prefix.address + offset;
}

Ip4 TracerouteEngine::random_address_of_as(topo::AsId as, util::Rng& rng) const {
  const auto index = static_cast<std::size_t>(as);  // a negative id wraps past the plan
  if (index >= prefix_begin_.size() - 1) {
    throw std::out_of_range("TracerouteEngine: AS outside the address plan");
  }
  const std::size_t begin = prefix_begin_[index];
  const std::size_t count = prefix_begin_[index + 1] - begin;
  if (count == 0) throw std::logic_error("TracerouteEngine: AS has no prefixes");
  return random_address_in(prefixes_[begin + rng.index(count)], rng);
}

void TracerouteEngine::trace_into(const std::vector<topo::AsId>& as_path, util::Rng& rng,
                                  Traceroute& out) const {
  out.error = false;
  out.hops.clear();
  if (as_path.empty() || rng.bernoulli(config_.error_prob)) {
    out.error = true;
    return;
  }
  for (std::size_t i = 0; i < as_path.size(); ++i) {
    const topo::AsId as = as_path[i];
    const bool is_dest = i + 1 == as_path.size();
    const auto hops = static_cast<std::int32_t>(
        rng.uniform_int(config_.min_hops_per_as, config_.max_hops_per_as));
    for (std::int32_t h = 0; h < hops; ++h) {
      const bool is_final_hop = is_dest && h + 1 == hops;
      if (is_final_hop) {
        // The destination server answered the probe; always mapped.
        out.hops.emplace_back(random_address_of_as(as, rng));
        continue;
      }
      if (i == 0 && config_.vantage_hops_private) {
        // VPN-tunnel / LAN hop: an address no IP-to-AS database covers.
        out.hops.emplace_back((192u << 24) | (168u << 16) |
                              static_cast<Ip4>(rng.uniform_int(0, 0xffff)));
        continue;
      }
      if (rng.bernoulli(config_.unresponsive_prob)) {
        out.hops.emplace_back(std::nullopt);
      } else if (!plan_.unmapped_pool.empty() && rng.bernoulli(config_.unmapped_prob)) {
        const auto& p = plan_.unmapped_pool[rng.index(plan_.unmapped_pool.size())];
        out.hops.emplace_back(random_address_in(p, rng));
      } else {
        out.hops.emplace_back(random_address_of_as(as, rng));
      }
    }
  }
}

void TracerouteEngine::trace_triple_into(const std::vector<topo::AsId>& as_path,
                                         const std::vector<topo::AsId>& alternate_path,
                                         double flutter_prob, util::Rng& rng,
                                         std::array<Traceroute, 3>& out) const {
  std::size_t flutter_index = 3;  // none
  if (!alternate_path.empty() && alternate_path != as_path && rng.bernoulli(flutter_prob)) {
    flutter_index = rng.index(3);
  }
  for (std::size_t i = 0; i < 3; ++i) {
    trace_into(i == flutter_index ? alternate_path : as_path, rng, out[i]);
  }
}

std::string to_string(InferenceDrop drop) {
  switch (drop) {
    case InferenceDrop::kNone: return "ok";
    case InferenceDrop::kNoMapping: return "no-ip-to-as-mapping";
    case InferenceDrop::kTracerouteError: return "traceroute-error";
    case InferenceDrop::kAmbiguousGap: return "ambiguous-gap";
    case InferenceDrop::kDivergentPaths: return "divergent-paths";
  }
  return "?";
}

namespace {

// One traceroute's conversion (rules 1-3) into `path`, which is cleared
// first and left empty unless the result is kNone.
InferenceDrop infer_single_into(const Traceroute& traceroute, const Ip2AsDb& db,
                                std::vector<topo::AsId>& path) {
  path.clear();
  if (traceroute.error) return InferenceDrop::kTracerouteError;

  topo::AsId last_as = topo::kInvalidAs;
  bool pending_gap = false;
  for (const Hop& hop : traceroute.hops) {
    std::optional<topo::AsId> mapped;
    if (hop.has_value()) mapped = db.lookup(*hop);
    if (!mapped.has_value()) {
      // Timeout or unmapped space: an attribution gap.  Leading gaps
      // (before any mapped hop) are benign — vantage-side private hops.
      pending_gap = last_as != topo::kInvalidAs;
      continue;
    }
    if (*mapped != last_as) {
      if (pending_gap) {
        // Rule 3: a gap flanked by two different ASes — the hidden hops
        // could belong to either side or a third AS entirely.
        path.clear();
        return InferenceDrop::kAmbiguousGap;
      }
      path.push_back(*mapped);
      last_as = *mapped;
    }
    pending_gap = false;
  }
  // Rule 1: nothing in this traceroute was mappable.
  return path.empty() ? InferenceDrop::kNoMapping : InferenceDrop::kNone;
}

}  // namespace

InferenceResult infer_single(const Traceroute& traceroute, const Ip2AsDb& db) {
  InferenceResult result;
  result.drop = infer_single_into(traceroute, db, result.as_path);
  return result;
}

InferenceDrop infer_as_path_into(const std::array<Traceroute, 3>& traceroutes,
                                 const Ip2AsDb& db,
                                 std::array<std::vector<topo::AsId>, 3>& scratch) {
  // Rule 2 first: any outright traceroute failure voids the record.
  for (const auto& t : traceroutes) {
    if (t.error) return InferenceDrop::kTracerouteError;
  }
  for (std::size_t i = 0; i < 3; ++i) {
    const InferenceDrop drop = infer_single_into(traceroutes[i], db, scratch[i]);
    if (drop != InferenceDrop::kNone) return drop;
  }
  // Rule 4: all three conversions must agree on one AS-level path.
  if (scratch[0] != scratch[1] || scratch[1] != scratch[2]) {
    return InferenceDrop::kDivergentPaths;
  }
  return InferenceDrop::kNone;
}

InferenceResult infer_as_path(const std::array<Traceroute, 3>& traceroutes,
                              const Ip2AsDb& db) {
  std::array<std::vector<topo::AsId>, 3> scratch;
  InferenceResult result;
  result.drop = infer_as_path_into(traceroutes, db, scratch);
  if (result.drop == InferenceDrop::kNone) result.as_path = std::move(scratch[0]);
  return result;
}

}  // namespace ct::net
