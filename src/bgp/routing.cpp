#include "bgp/routing.h"

#include <algorithm>
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

void RouteComputer::compute_into(topo::AsId dest, const std::uint8_t* up, Scratch& scratch,
                                 RouteTable& table) const {
  if (dest < 0 || dest >= graph_.num_ases()) {
    throw std::invalid_argument("RouteComputer::compute: unknown destination");
  }
  const auto n = static_cast<std::size_t>(graph_.num_ases());
  const auto d = static_cast<std::size_t>(dest);
  table.reset(dest, graph_.num_ases());
  constexpr std::int32_t kInf = RouteTable::kInf;

  // --- Phase 1: customer routes, FIFO BFS up provider edges from dest. ---
  // An AS is enqueued when first reached, so at its final distance; a
  // later same-level arrival only lowers the next hop.
  std::vector<AsId>& queue = scratch.queue;
  queue.clear();
  queue.push_back(dest);
  table.cust_dist_[d] = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const AsId x = queue[head];
    const auto row = static_cast<std::size_t>(x);
    const std::int32_t cand = table.cust_dist_[row] + 1;
    for (std::int32_t e = providers_.offsets[row]; e < providers_.offsets[row + 1]; ++e) {
      const Edge& edge = providers_.edges[static_cast<std::size_t>(e)];
      if (up[edge.link] == 0) continue;
      const auto p = static_cast<std::size_t>(edge.as);
      if (table.cust_dist_[p] > cand) {
        table.cust_dist_[p] = cand;
        table.cust_next_[p] = x;
        queue.push_back(edge.as);
      } else if (table.cust_dist_[p] == cand && x < table.cust_next_[p]) {
        table.cust_next_[p] = x;
      }
    }
  }

  // --- Phase 2: peer routes (one peer hop onto a customer route). ---
  for (std::size_t x = 0; x < n; ++x) {
    if (x == d) continue;
    for (std::int32_t e = peers_.offsets[x]; e < peers_.offsets[x + 1]; ++e) {
      const Edge& edge = peers_.edges[static_cast<std::size_t>(e)];
      if (up[edge.link] == 0) continue;
      const std::int32_t via = table.cust_dist_[static_cast<std::size_t>(edge.as)];
      if (via >= kInf) continue;
      const std::int32_t cand = via + 1;
      if (cand < table.peer_dist_[x] ||
          (cand == table.peer_dist_[x] && edge.as < table.peer_next_[x])) {
        table.peer_dist_[x] = cand;
        table.peer_next_[x] = edge.as;
      }
    }
  }

  // --- Phase 3: provider routes, bucket queue down customer edges. ---
  // buckets[l] holds the ASes whose selected route (the one they export
  // to customers) has length l.  ASes with a customer or peer route are
  // seeded at that length and never move.  An AS without one enters
  // when its provider route is first set, i.e. while its providers'
  // bucket l is swept, so at its final length l + 1; later offers of
  // l + 1 only lower the next hop.  Each AS is thus swept exactly once.
  // Lengths stay below n: along any selected route they drop by one per
  // hop down to dest, so its ASes are distinct.
  std::vector<std::vector<AsId>>& buckets = scratch.buckets;
  if (buckets.size() < n) buckets.resize(n);
  std::size_t top = 0;  // one past the highest non-empty bucket
  for (std::size_t x = 0; x < n; ++x) {
    const std::int32_t adv = table.advertised(x);
    if (adv >= kInf) continue;
    const auto l = static_cast<std::size_t>(adv);
    buckets[l].push_back(static_cast<AsId>(x));
    top = std::max(top, l + 1);
  }
  for (std::size_t l = 0; l < top; ++l) {
    const auto cand = static_cast<std::int32_t>(l + 1);
    for (std::size_t i = 0; i < buckets[l].size(); ++i) {
      const AsId x = buckets[l][i];
      const auto row = static_cast<std::size_t>(x);
      for (std::int32_t e = customers_.offsets[row]; e < customers_.offsets[row + 1]; ++e) {
        const Edge& edge = customers_.edges[static_cast<std::size_t>(e)];
        if (up[edge.link] == 0) continue;
        const auto c = static_cast<std::size_t>(edge.as);
        if (c == d) continue;
        if (cand < table.prov_dist_[c]) {
          const bool enters = table.advertised(c) >= kInf;
          table.prov_dist_[c] = cand;
          table.prov_next_[c] = x;
          if (enters) {
            buckets[l + 1].push_back(edge.as);
            top = std::max(top, l + 2);
          }
        } else if (cand == table.prov_dist_[c] && x < table.prov_next_[c]) {
          table.prov_next_[c] = x;
        }
      }
    }
    buckets[l].clear();
  }

  // --- Final selection. ---
  for (std::size_t x = 0; x < n; ++x) {
    if (x == d) {
      table.kind_[x] = RouteKind::kOrigin;
    } else if (table.cust_dist_[x] < kInf) {
      table.kind_[x] = RouteKind::kCustomer;
    } else if (table.peer_dist_[x] < kInf) {
      table.kind_[x] = RouteKind::kPeer;
    } else if (table.prov_dist_[x] < kInf) {
      table.kind_[x] = RouteKind::kProvider;
    } else {
      table.kind_[x] = RouteKind::kNone;
    }
  }
}

void RouteTableSet::recompute(const RouteComputer& computer,
                              const std::vector<topo::AsId>& dests,
                              const std::vector<bool>& link_up) {
  // One link-state conversion and one scratch for the whole epoch.
  computer.link_mask(link_up, up_);
  tables_.resize(dests.size(), RouteTable(0, 0));
  for (std::size_t i = 0; i < dests.size(); ++i) {
    computer.compute_into(dests[i], up_.data(), scratch_, tables_[i]);
  }
}

}  // namespace ct::bgp
