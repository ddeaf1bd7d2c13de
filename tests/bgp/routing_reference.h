// Reference Gao-Rexford route computation: the original three-phase
// implementation (per-level sorted BFS frontiers, a one-step peer pass,
// and a std::priority_queue Dijkstra), kept verbatim as the oracle the
// flat bgp::RouteComputer kernel is checked against.  It also carries
// the read-back (path, ECMP next hops, flow-hashed ECMP path) of the
// original RouteTable, so the oracle compares every public answer.
// Test-only: nothing in src/ includes it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

#include "bgp/routing.h"
#include "topo/as_graph.h"
#include "util/rng.h"

namespace ct::bgp::reference {

using topo::AsId;
using topo::NeighborKind;

struct Table {
  static constexpr std::int32_t kInf = 1 << 28;

  Table(AsId dest, std::int32_t num_ases)
      : dest(dest),
        kind(static_cast<std::size_t>(num_ases), RouteKind::kNone),
        cust_dist(static_cast<std::size_t>(num_ases), kInf),
        peer_dist(static_cast<std::size_t>(num_ases), kInf),
        prov_dist(static_cast<std::size_t>(num_ases), kInf),
        cust_next(static_cast<std::size_t>(num_ases), topo::kInvalidAs),
        peer_next(static_cast<std::size_t>(num_ases), topo::kInvalidAs),
        prov_next(static_cast<std::size_t>(num_ases), topo::kInvalidAs) {}

  bool reachable(AsId src) const { return kind[static_cast<std::size_t>(src)] != RouteKind::kNone; }

  std::int32_t path_length(AsId src) const {
    const auto s = static_cast<std::size_t>(src);
    switch (kind[s]) {
      case RouteKind::kOrigin: return 0;
      case RouteKind::kCustomer: return cust_dist[s];
      case RouteKind::kPeer: return peer_dist[s];
      case RouteKind::kProvider: return prov_dist[s];
      case RouteKind::kNone: return kInf;
    }
    return kInf;
  }

  std::int32_t advertised(std::size_t x) const {
    if (cust_dist[x] < kInf) return cust_dist[x];
    if (peer_dist[x] < kInf) return peer_dist[x];
    return prov_dist[x];
  }

  std::vector<AsId> path(AsId src) const {
    std::vector<AsId> out;
    if (!reachable(src)) return out;
    AsId x = src;
    RouteKind cls = kind[static_cast<std::size_t>(src)];
    const auto limit = kind.size() + 2;
    while (out.size() <= limit) {
      out.push_back(x);
      if (x == dest) return out;
      const auto xs = static_cast<std::size_t>(x);
      switch (cls) {
        case RouteKind::kCustomer:
          x = cust_next[xs];
          cls = x == dest ? RouteKind::kOrigin : RouteKind::kCustomer;
          break;
        case RouteKind::kPeer:
          x = peer_next[xs];
          cls = x == dest ? RouteKind::kOrigin : RouteKind::kCustomer;
          break;
        case RouteKind::kProvider: {
          x = prov_next[xs];
          const auto ps = static_cast<std::size_t>(x);
          if (x == dest) {
            cls = RouteKind::kOrigin;
          } else if (cust_dist[ps] < kInf) {
            cls = RouteKind::kCustomer;
          } else if (peer_dist[ps] < kInf) {
            cls = RouteKind::kPeer;
          } else {
            cls = RouteKind::kProvider;
          }
          break;
        }
        case RouteKind::kOrigin:
        case RouteKind::kNone:
          throw std::logic_error("reference::Table::path: inconsistent route state");
      }
    }
    throw std::logic_error("reference::Table::path: path reconstruction did not terminate");
  }

  std::vector<AsId> class_next_hops(AsId x, RouteKind cls, const topo::AsGraph& graph,
                                    const std::vector<bool>& link_up) const {
    std::vector<AsId> out;
    const auto xs = static_cast<std::size_t>(x);
    for (const auto& nb : graph.neighbors(x)) {
      if (!link_up[static_cast<std::size_t>(nb.link)]) continue;
      const auto y = static_cast<std::size_t>(nb.as);
      switch (cls) {
        case RouteKind::kCustomer:
          if (nb.kind == NeighborKind::kCustomer && cust_dist[y] < kInf &&
              cust_dist[y] + 1 == cust_dist[xs]) {
            out.push_back(nb.as);
          }
          break;
        case RouteKind::kPeer:
          if (nb.kind == NeighborKind::kPeer && cust_dist[y] < kInf &&
              cust_dist[y] + 1 == peer_dist[xs]) {
            out.push_back(nb.as);
          }
          break;
        case RouteKind::kProvider:
          if (nb.kind == NeighborKind::kProvider && advertised(y) < kInf &&
              advertised(y) + 1 == prov_dist[xs]) {
            out.push_back(nb.as);
          }
          break;
        case RouteKind::kOrigin:
        case RouteKind::kNone:
          return out;
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  std::vector<AsId> ecmp_next_hops(AsId src, const topo::AsGraph& graph,
                                   const std::vector<bool>& link_up) const {
    if (src < 0 || src >= static_cast<AsId>(kind.size())) return {};
    return class_next_hops(src, kind[static_cast<std::size_t>(src)], graph, link_up);
  }

  std::vector<AsId> ecmp_path(AsId src, std::uint64_t flow_hash, const topo::AsGraph& graph,
                              const std::vector<bool>& link_up) const {
    std::vector<AsId> out;
    if (!reachable(src)) return out;
    AsId x = src;
    RouteKind cls = kind[static_cast<std::size_t>(src)];
    const auto limit = kind.size() + 2;
    while (out.size() <= limit) {
      out.push_back(x);
      if (x == dest) return out;
      const std::vector<AsId> hops = class_next_hops(x, cls, graph, link_up);
      if (hops.empty()) {
        throw std::logic_error("reference::Table::ecmp_path: inconsistent route state");
      }
      const std::size_t pick =
          hops.size() == 1
              ? 0
              : static_cast<std::size_t>(util::mix64(flow_hash, out.size()) % hops.size());
      x = hops[pick];
      const auto ps = static_cast<std::size_t>(x);
      if (x == dest) {
        cls = RouteKind::kOrigin;
      } else if (cls == RouteKind::kCustomer || cls == RouteKind::kPeer) {
        cls = RouteKind::kCustomer;
      } else if (cust_dist[ps] < kInf) {
        cls = RouteKind::kCustomer;
      } else if (peer_dist[ps] < kInf) {
        cls = RouteKind::kPeer;
      } else {
        cls = RouteKind::kProvider;
      }
    }
    throw std::logic_error("reference::Table::ecmp_path: path reconstruction did not terminate");
  }

  AsId dest;
  std::vector<RouteKind> kind;
  std::vector<std::int32_t> cust_dist, peer_dist, prov_dist;
  std::vector<AsId> cust_next, peer_next, prov_next;
};

inline Table compute(const topo::AsGraph& graph, AsId dest, const std::vector<bool>& link_up) {
  const auto n = static_cast<std::size_t>(graph.num_ases());
  Table table(dest, graph.num_ases());

  // --- Phase 1: customer routes, BFS up provider edges from dest. ---
  table.cust_dist[static_cast<std::size_t>(dest)] = 0;
  std::vector<AsId> frontier{dest};
  std::int32_t level = 0;
  while (!frontier.empty()) {
    std::vector<AsId> next_frontier;
    std::sort(frontier.begin(), frontier.end());
    for (const AsId x : frontier) {
      for (const auto& nb : graph.neighbors(x)) {
        if (nb.kind != NeighborKind::kProvider) continue;
        if (!link_up[static_cast<std::size_t>(nb.link)]) continue;
        const auto p = static_cast<std::size_t>(nb.as);
        if (table.cust_dist[p] > level + 1) {
          table.cust_dist[p] = level + 1;
          table.cust_next[p] = x;
          next_frontier.push_back(nb.as);
        } else if (table.cust_dist[p] == level + 1 && x < table.cust_next[p]) {
          table.cust_next[p] = x;
        }
      }
    }
    frontier = std::move(next_frontier);
    ++level;
  }

  // --- Phase 2: peer routes (one peer hop onto a customer route). ---
  for (std::size_t x = 0; x < n; ++x) {
    if (static_cast<AsId>(x) == dest) continue;
    for (const auto& nb : graph.neighbors(static_cast<AsId>(x))) {
      if (nb.kind != NeighborKind::kPeer) continue;
      if (!link_up[static_cast<std::size_t>(nb.link)]) continue;
      const auto y = static_cast<std::size_t>(nb.as);
      if (table.cust_dist[y] >= Table::kInf) continue;
      const std::int32_t cand = table.cust_dist[y] + 1;
      if (cand < table.peer_dist[x] ||
          (cand == table.peer_dist[x] && nb.as < table.peer_next[x])) {
        table.peer_dist[x] = cand;
        table.peer_next[x] = nb.as;
      }
    }
  }

  // --- Phase 3: provider routes, Dijkstra down customer edges. ---
  using Entry = std::pair<std::int32_t, AsId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
  for (std::size_t x = 0; x < n; ++x) {
    const std::int32_t adv = table.advertised(x);
    if (adv < Table::kInf) pq.emplace(adv, static_cast<AsId>(x));
  }
  while (!pq.empty()) {
    const auto [d, x] = pq.top();
    pq.pop();
    if (d != table.advertised(static_cast<std::size_t>(x))) continue;
    for (const auto& nb : graph.neighbors(x)) {
      if (nb.kind != NeighborKind::kCustomer) continue;
      if (!link_up[static_cast<std::size_t>(nb.link)]) continue;
      const auto c = static_cast<std::size_t>(nb.as);
      if (static_cast<AsId>(c) == dest) continue;
      const std::int32_t cand = d + 1;
      if (cand < table.prov_dist[c] ||
          (cand == table.prov_dist[c] && x < table.prov_next[c])) {
        const std::int32_t before = table.advertised(c);
        table.prov_dist[c] = cand;
        table.prov_next[c] = x;
        if (table.advertised(c) < before) pq.emplace(table.advertised(c), static_cast<AsId>(c));
      }
    }
  }

  // --- Final selection. ---
  for (std::size_t x = 0; x < n; ++x) {
    if (static_cast<AsId>(x) == dest) {
      table.kind[x] = RouteKind::kOrigin;
    } else if (table.cust_dist[x] < Table::kInf) {
      table.kind[x] = RouteKind::kCustomer;
    } else if (table.peer_dist[x] < Table::kInf) {
      table.kind[x] = RouteKind::kPeer;
    } else if (table.prov_dist[x] < Table::kInf) {
      table.kind[x] = RouteKind::kProvider;
    } else {
      table.kind[x] = RouteKind::kNone;
    }
  }
  return table;
}

}  // namespace ct::bgp::reference
