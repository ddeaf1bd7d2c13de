#include "bgp/routing.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "util/rng.h"

namespace ct::bgp {

using topo::AsId;
using topo::NeighborKind;

RouteTable::RouteTable(AsId dest, std::int32_t num_ases) { reset(dest, num_ases); }

void RouteTable::reset(AsId dest, std::int32_t num_ases) {
  const auto n = static_cast<std::size_t>(num_ases);
  dest_ = dest;
  kind_.assign(n, RouteKind::kNone);
  for (auto* dist : {&cust_dist_, &peer_dist_, &prov_dist_}) dist->assign(n, kInf);
  for (auto* next : {&cust_next_, &peer_next_, &prov_next_}) next->assign(n, topo::kInvalidAs);
}

std::int32_t RouteTable::path_length(AsId src) const {
  const auto s = static_cast<std::size_t>(src);
  switch (kind_[s]) {
    case RouteKind::kOrigin: return 0;
    case RouteKind::kCustomer: return cust_dist_[s];
    case RouteKind::kPeer: return peer_dist_[s];
    case RouteKind::kProvider: return prov_dist_[s];
    case RouteKind::kNone: return kInf;
  }
  return kInf;
}

void RouteTable::path_into(AsId src, std::vector<AsId>& out) const {
  out.clear();
  if (!reachable(src)) return;
  AsId x = src;
  RouteKind cls = kind_[static_cast<std::size_t>(src)];
  const auto limit = kind_.size() + 2;
  while (out.size() <= limit) {
    out.push_back(x);
    if (x == dest_) return;
    const auto xs = static_cast<std::size_t>(x);
    switch (cls) {
      case RouteKind::kCustomer:
        // The customer exported its own customer route to us.
        x = cust_next_[xs];
        cls = x == dest_ ? RouteKind::kOrigin : RouteKind::kCustomer;
        break;
      case RouteKind::kPeer:
        // The peer exported its customer route.
        x = peer_next_[xs];
        cls = x == dest_ ? RouteKind::kOrigin : RouteKind::kCustomer;
        break;
      case RouteKind::kProvider: {
        // The provider exported its best (selected) route.
        x = prov_next_[xs];
        const auto ps = static_cast<std::size_t>(x);
        if (x == dest_) {
          cls = RouteKind::kOrigin;
        } else if (cust_dist_[ps] < kInf) {
          cls = RouteKind::kCustomer;
        } else if (peer_dist_[ps] < kInf) {
          cls = RouteKind::kPeer;
        } else {
          cls = RouteKind::kProvider;
        }
        break;
      }
      case RouteKind::kOrigin:
      case RouteKind::kNone:
        throw std::logic_error("RouteTable::path_into: inconsistent route state");
    }
  }
  throw std::logic_error("RouteTable::path_into: path reconstruction did not terminate");
}

std::int32_t RouteTable::advertised(std::size_t x) const {
  if (cust_dist_[x] < kInf) return cust_dist_[x];
  if (peer_dist_[x] < kInf) return peer_dist_[x];
  return prov_dist_[x];
}

void RouteTable::class_next_hops_into(AsId x, RouteKind cls, const topo::AsGraph& graph,
                                      const std::vector<bool>& link_up,
                                      std::vector<AsId>& out) const {
  out.clear();
  const auto xs = static_cast<std::size_t>(x);
  for (const auto& nb : graph.neighbors(x)) {
    if (!link_up[static_cast<std::size_t>(nb.link)]) continue;
    const auto y = static_cast<std::size_t>(nb.as);
    switch (cls) {
      case RouteKind::kCustomer:
        // Mirror of phase 1: the route came up a provider edge, so from
        // x's side the next hop is a customer one level closer.
        if (nb.kind == NeighborKind::kCustomer && cust_dist_[y] < kInf &&
            cust_dist_[y] + 1 == cust_dist_[xs]) {
          out.push_back(nb.as);
        }
        break;
      case RouteKind::kPeer:
        // One peer hop onto an equally short customer route.
        if (nb.kind == NeighborKind::kPeer && cust_dist_[y] < kInf &&
            cust_dist_[y] + 1 == peer_dist_[xs]) {
          out.push_back(nb.as);
        }
        break;
      case RouteKind::kProvider:
        // The provider exported its selected route.
        if (nb.kind == NeighborKind::kProvider && advertised(y) < kInf &&
            advertised(y) + 1 == prov_dist_[xs]) {
          out.push_back(nb.as);
        }
        break;
      case RouteKind::kOrigin:
      case RouteKind::kNone:
        return;
    }
  }
  std::sort(out.begin(), out.end());
}

std::vector<AsId> RouteTable::ecmp_next_hops(AsId src, const topo::AsGraph& graph,
                                             const std::vector<bool>& link_up) const {
  std::vector<AsId> out;
  if (src < 0 || src >= static_cast<AsId>(kind_.size())) return out;
  class_next_hops_into(src, kind_[static_cast<std::size_t>(src)], graph, link_up, out);
  return out;
}

std::vector<AsId> RouteTable::ecmp_path(AsId src, std::uint64_t flow_hash,
                                        const topo::AsGraph& graph,
                                        const std::vector<bool>& link_up) const {
  std::vector<AsId> out;
  std::vector<AsId> hops;
  ecmp_path_into(src, flow_hash, graph, link_up, out, hops);
  return out;
}

void RouteTable::ecmp_path_into(AsId src, std::uint64_t flow_hash, const topo::AsGraph& graph,
                                const std::vector<bool>& link_up, std::vector<AsId>& out,
                                std::vector<AsId>& hops) const {
  out.clear();
  if (!reachable(src)) return;
  AsId x = src;
  RouteKind cls = kind_[static_cast<std::size_t>(src)];
  const auto limit = kind_.size() + 2;
  while (out.size() <= limit) {
    out.push_back(x);
    if (x == dest_) return;
    class_next_hops_into(x, cls, graph, link_up, hops);
    if (hops.empty()) {
      throw std::logic_error("RouteTable::ecmp_path: inconsistent route state");
    }
    // Per-hop ECMP hash: keyed on the flow and the hop index, so one
    // flow makes independent (but fixed) choices along its path.
    const std::size_t pick =
        hops.size() == 1
            ? 0
            : static_cast<std::size_t>(util::mix64(flow_hash, out.size()) % hops.size());
    x = hops[pick];
    const auto ps = static_cast<std::size_t>(x);
    if (x == dest_) {
      cls = RouteKind::kOrigin;
    } else if (cls == RouteKind::kCustomer || cls == RouteKind::kPeer) {
      cls = RouteKind::kCustomer;
    } else if (cust_dist_[ps] < kInf) {
      cls = RouteKind::kCustomer;
    } else if (peer_dist_[ps] < kInf) {
      cls = RouteKind::kPeer;
    } else {
      cls = RouteKind::kProvider;
    }
  }
  throw std::logic_error("RouteTable::ecmp_path: path reconstruction did not terminate");
}

RouteComputer::RouteComputer(const topo::AsGraph& graph) : graph_(graph) {
  const auto n = static_cast<std::size_t>(graph.num_ases());
  for (Csr* csr : {&providers_, &customers_, &peers_}) csr->offsets.assign(n + 1, 0);
  auto csr_of = [this](NeighborKind kind) -> Csr& {
    switch (kind) {
      case NeighborKind::kProvider: return providers_;
      case NeighborKind::kCustomer: return customers_;
      case NeighborKind::kPeer: break;
    }
    return peers_;
  };
  for (std::size_t x = 0; x < n; ++x) {
    for (const auto& nb : graph.neighbors(static_cast<AsId>(x))) {
      csr_of(nb.kind).edges.push_back({nb.as, nb.link});
    }
    for (Csr* csr : {&providers_, &customers_, &peers_}) {
      csr->offsets[x + 1] = static_cast<std::int32_t>(csr->edges.size());
      // The kernel's ascending sweeps pick the lowest-id next hop.
      std::sort(csr->edges.begin() + csr->offsets[x], csr->edges.end(),
                [](const Edge& a, const Edge& b) {
                  return a.as != b.as ? a.as < b.as : a.link < b.link;
                });
    }
  }
}

void RouteComputer::link_mask(const std::vector<bool>& link_up,
                              std::vector<std::uint8_t>& mask) const {
  if (link_up.size() != static_cast<std::size_t>(graph_.num_links())) {
    throw std::invalid_argument("RouteComputer::compute: link_up size mismatch");
  }
  mask.assign(link_up.begin(), link_up.end());
}

RouteTable RouteComputer::compute(topo::AsId dest) const {
  const std::vector<bool> all_up(static_cast<std::size_t>(graph_.num_links()), true);
  return compute(dest, all_up);
}

RouteTable RouteComputer::compute(topo::AsId dest, const std::vector<bool>& link_up) const {
  return RouteTableSet(*this, {dest}, link_up).at(0);
}

void RouteComputer::compute_block(const AsId* dests, std::size_t count, const std::uint8_t* up,
                                  Lanes& lanes, RouteTable* tables) const {
  for (std::size_t j = 0; j < count; ++j) {
    if (dests[j] < 0 || dests[j] >= graph_.num_ases()) {
      throw std::invalid_argument("RouteComputer::compute: unknown destination");
    }
  }
  const auto n = static_cast<std::size_t>(graph_.num_ases());
  constexpr std::int32_t kInf = RouteTable::kInf;
  std::vector<std::uint64_t>& levels = lanes.levels;
  std::vector<std::uint64_t>& buckets = lanes.buckets;
  std::vector<std::uint64_t>& cust = lanes.cust;
  std::vector<std::uint64_t>& peer = lanes.peer;
  std::vector<std::uint64_t>& prov = lanes.prov;
  // Calls write(table) for the table of every lane set in `bits`.
  const auto each_lane = [tables](std::uint64_t bits, const auto& write) {
    for (; bits != 0; bits &= bits - 1) write(tables[std::countr_zero(bits)]);
  };

  levels.assign(n, 0);
  for (std::size_t j = 0; j < count; ++j) {
    const auto d = static_cast<std::size_t>(dests[j]);
    tables[j].reset(dests[j], graph_.num_ases());
    tables[j].cust_dist_[d] = 0;
    levels[d] |= std::uint64_t{1} << j;
  }
  cust = levels;

  // --- Phase 1: customer routes, BFS up provider edges, level by level. ---
  std::size_t depth = 1;  // number of non-empty levels
  for (std::size_t l = 0; l < depth; ++l) {
    levels.resize((l + 2) * n, 0);
    const auto cand = static_cast<std::int32_t>(l + 1);
    for (std::size_t x = 0; x < n; ++x) {
      const std::uint64_t front = levels[l * n + x];
      if (front == 0) continue;
      for (std::int32_t e = providers_.offsets[x]; e < providers_.offsets[x + 1]; ++e) {
        const Edge& edge = providers_.edges[static_cast<std::size_t>(e)];
        if (up[edge.link] == 0) continue;
        const auto p = static_cast<std::size_t>(edge.as);
        const std::uint64_t fresh = front & ~cust[p];
        if (fresh == 0) continue;
        cust[p] |= fresh;
        levels[(l + 1) * n + p] |= fresh;
        depth = l + 2;
        each_lane(fresh, [&](RouteTable& t) {
          t.cust_dist_[p] = cand;
          t.cust_next_[p] = static_cast<AsId>(x);
        });
      }
    }
  }

  // --- Phase 2: peer routes, one peer hop onto a customer route. ---
  // buckets starts as the customer levels; a peer route enters it at its
  // length in the lanes where it is x's advertised route.
  buckets.assign(levels.begin(), levels.begin() + static_cast<std::ptrdiff_t>(depth * n));
  buckets.resize((depth + 1) * n, 0);
  peer.assign(n, 0);
  for (std::size_t x = 0; x < n; ++x) {
    const std::uint64_t open = ~levels[x];  // every lane but x's own destination
    for (std::size_t l = 0; l < depth; ++l) {
      const auto cand = static_cast<std::int32_t>(l + 1);
      for (std::int32_t e = peers_.offsets[x]; e < peers_.offsets[x + 1]; ++e) {
        const Edge& edge = peers_.edges[static_cast<std::size_t>(e)];
        if (up[edge.link] == 0) continue;
        const std::uint64_t fresh =
            levels[l * n + static_cast<std::size_t>(edge.as)] & open & ~peer[x];
        if (fresh == 0) continue;
        peer[x] |= fresh;
        buckets[(l + 1) * n + x] |= fresh & ~cust[x];
        each_lane(fresh, [&](RouteTable& t) {
          t.peer_dist_[x] = cand;
          t.peer_next_[x] = edge.as;
        });
      }
    }
  }

  // --- Phase 3: provider routes, advertised-length buckets down customer edges. ---
  // A lane enters bucket l + 1 of c when c has no customer or peer route
  // there and a provider in bucket l first offers one, i.e. at its final
  // length.  Lengths stay below n: along any selected route they drop by
  // one per hop down to the destination, so its ASes are distinct.
  prov.assign(n, 0);
  for (std::size_t l = 0; l * n < buckets.size(); ++l) {
    const auto cand = static_cast<std::int32_t>(l + 1);
    for (std::size_t x = 0; x < n; ++x) {
      const std::uint64_t bucket = buckets[l * n + x];
      if (bucket == 0) continue;
      for (std::int32_t e = customers_.offsets[x]; e < customers_.offsets[x + 1]; ++e) {
        const Edge& edge = customers_.edges[static_cast<std::size_t>(e)];
        if (up[edge.link] == 0) continue;
        const auto c = static_cast<std::size_t>(edge.as);
        const std::uint64_t fresh = bucket & ~levels[c] & ~prov[c];
        if (fresh == 0) continue;
        prov[c] |= fresh;
        if (const std::uint64_t enters = fresh & ~(cust[c] | peer[c]); enters != 0) {
          buckets.resize(std::max(buckets.size(), (l + 2) * n), 0);
          buckets[(l + 1) * n + c] |= enters;
        }
        each_lane(fresh, [&](RouteTable& t) {
          t.prov_dist_[c] = cand;
          t.prov_next_[c] = static_cast<AsId>(x);
        });
      }
    }
  }

  // --- Final selection. ---
  for (std::size_t j = 0; j < count; ++j) {
    RouteTable& t = tables[j];
    const auto d = static_cast<std::size_t>(dests[j]);
    for (std::size_t x = 0; x < n; ++x) {
      if (x == d) {
        t.kind_[x] = RouteKind::kOrigin;
      } else if (t.cust_dist_[x] < kInf) {
        t.kind_[x] = RouteKind::kCustomer;
      } else if (t.peer_dist_[x] < kInf) {
        t.kind_[x] = RouteKind::kPeer;
      } else if (t.prov_dist_[x] < kInf) {
        t.kind_[x] = RouteKind::kProvider;
      } else {
        t.kind_[x] = RouteKind::kNone;
      }
    }
  }
}

void RouteTableSet::recompute(const RouteComputer& computer,
                              const std::vector<topo::AsId>& dests,
                              const std::vector<bool>& link_up) {
  // One link-state conversion and one lane scratch for the whole epoch.
  computer.link_mask(link_up, up_);
  tables_.resize(dests.size(), RouteTable(0, 0));
  constexpr std::size_t kLanes = RouteComputer::kLanes;
  for (std::size_t begin = 0; begin < dests.size(); begin += kLanes) {
    computer.compute_block(dests.data() + begin, std::min(kLanes, dests.size() - begin),
                           up_.data(), lanes_, tables_.data() + begin);
  }
}

}  // namespace ct::bgp
