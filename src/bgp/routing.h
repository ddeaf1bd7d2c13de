// Gao-Rexford BGP route computation.
//
// For a destination AS d, every other AS selects its best route under
// the standard economic policy model:
//   * route preference: customer-learned > peer-learned > provider-learned
//   * within a class: shortest AS-path length
//   * final tie-break: lowest next-hop AS id (deterministic)
// Export rules: customer routes are exported to everyone; peer- and
// provider-learned routes are exported only to customers.  All resulting
// paths are valley-free and loop-free.
//
// Computation runs over the subset of links that are currently up (the
// churn engine owns link state, read here as a dense byte mask), on
// per-relationship CSR adjacency built once per RouteComputer with every
// row sorted by neighbor id.  One pass routes a block of up to 64
// destinations: destination j of the block is bit lane j of a 64-bit
// word per AS, so each word says for which destinations an AS is in a
// given state.  Three phases:
//   1. customer routes: a level-synchronous BFS from every destination
//      at once up provider edges; level l's words are the lanes whose
//      customer route has length l;
//   2. peer routes: one peer hop onto a customer route, walking the
//      customer levels in ascending order;
//   3. provider routes: advertised-length buckets (a customer or peer
//      route seeds its AS at that length) swept in ascending order down
//      customer edges; a lane whose AS has no customer or peer route
//      enters bucket l + 1 when a provider in bucket l first offers it
//      one.
// Each (AS, destination) entry is written only by the first writer that
// finds its lane unset: a later offer in the same level or bucket is
// never shorter.  Every phase sweeps its levels or buckets in ascending
// order, the ASes within one in ascending id order, and (phase 2) each
// peer row in ascending id order, so the first writer is also the
// lowest-id next hop among the equal-length candidates: the tie-break
// falls out of the order, with no compare.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "topo/as_graph.h"

namespace ct::bgp {

/// How an AS learned its best route toward the destination.
enum class RouteKind : std::uint8_t {
  kNone = 0,   // unreachable
  kOrigin,     // this AS is the destination
  kCustomer,   // learned from a customer
  kPeer,       // learned from a peer
  kProvider,   // learned from a provider
};

/// Routing state toward a single destination AS.
class RouteTable {
 public:
  RouteTable(topo::AsId dest, std::int32_t num_ases);

  topo::AsId dest() const { return dest_; }
  RouteKind kind(topo::AsId src) const { return kind_[static_cast<std::size_t>(src)]; }
  bool reachable(topo::AsId src) const { return kind(src) != RouteKind::kNone; }
  /// AS-path length (number of AS hops, 0 for the destination itself).
  std::int32_t path_length(topo::AsId src) const;

  /// Writes the full AS path src..dest (inclusive) into `out`,
  /// replacing its contents; empty if unreachable.  Keeps `out`'s
  /// capacity, so a reused buffer allocates nothing once grown.
  void path_into(topo::AsId src, std::vector<topo::AsId>& out) const;

  /// path_into into a fresh vector.
  std::vector<topo::AsId> path(topo::AsId src) const {
    std::vector<topo::AsId> out;
    path_into(src, out);
    return out;
  }

  /// Equal-cost alternates: every neighbor of `src` that offers a route
  /// of the same (class, length) as src's selected route, ascending by
  /// AS id.  path() always follows the lowest-id one; the others are
  /// the ECMP set a load-balancing forwarder may spread flows across.
  /// Recomputed on demand from the stored per-class distances, so the
  /// table stores nothing extra for it.  `graph`/`link_up` must be the
  /// ones this table was computed from.  Empty for the destination
  /// itself or unreachable sources.
  std::vector<topo::AsId> ecmp_next_hops(topo::AsId src, const topo::AsGraph& graph,
                                         const std::vector<bool>& link_up) const;

  /// Flow-hashed equal-cost path: at every hop, `flow_hash` picks one
  /// of that hop's equal-cost alternates (ECMP forwarding).  The result
  /// has the same class and length as path() — only the concrete AS
  /// sequence may differ — and is a pure function of (table, flow_hash),
  /// so it is deterministic across shard layouts.  Empty if unreachable.
  std::vector<topo::AsId> ecmp_path(topo::AsId src, std::uint64_t flow_hash,
                                    const topo::AsGraph& graph,
                                    const std::vector<bool>& link_up) const;

  /// ecmp_path written into `out`, replacing its contents; `hops` is
  /// scratch for each hop's equal-cost alternates.  Both keep their
  /// capacity, so reused buffers allocate nothing once grown.
  void ecmp_path_into(topo::AsId src, std::uint64_t flow_hash, const topo::AsGraph& graph,
                      const std::vector<bool>& link_up, std::vector<topo::AsId>& out,
                      std::vector<topo::AsId>& hops) const;

 private:
  friend class RouteComputer;

  static constexpr std::int32_t kInf = 1 << 28;

  /// Every AS unreachable toward `dest`, keeping the arrays' capacity.
  void reset(topo::AsId dest, std::int32_t num_ases);
  /// Length of the route `x` exports to customers (its selected route).
  std::int32_t advertised(std::size_t x) const;
  /// Equal-cost next hops out of `x` when forwarding in class `cls`,
  /// written into `out` (replacing its contents), ascending.
  void class_next_hops_into(topo::AsId x, RouteKind cls, const topo::AsGraph& graph,
                            const std::vector<bool>& link_up,
                            std::vector<topo::AsId>& out) const;

  topo::AsId dest_;
  std::vector<RouteKind> kind_;
  // Per-class route state; kInf distance when the class has no route.
  std::vector<std::int32_t> cust_dist_, peer_dist_, prov_dist_;
  std::vector<topo::AsId> cust_next_, peer_next_, prov_next_;
};

class RouteComputer {
 public:
  explicit RouteComputer(const topo::AsGraph& graph);

  /// Routes toward `dest` considering only links with link_up[link.id].
  /// link_up must cover all links; pass all-true for the failure-free
  /// topology.
  RouteTable compute(topo::AsId dest, const std::vector<bool>& link_up) const;

  /// Convenience: routes over the full topology.
  RouteTable compute(topo::AsId dest) const;

 private:
  friend class RouteTableSet;

  /// Destinations routed per kernel pass: one bit lane of a word each.
  static constexpr std::size_t kLanes = 64;

  /// Lane words of one RouteTableSet, reused across its blocks and
  /// epochs; never shared between threads.  Per AS x, bit j of a word is
  /// destination j of the block.  `levels` and `buckets` hold one n-word
  /// row per length: row l of `levels` is the lanes whose customer route
  /// has length l (row 0: x is the destination), row l of `buckets` the
  /// lanes whose advertised route has length l.
  struct Lanes {
    std::vector<std::uint64_t> levels, buckets;
    // Lanes in which x has a customer / peer / provider route.
    std::vector<std::uint64_t> cust, peer, prov;
  };

  /// One neighbor edge of a CSR row.
  struct Edge {
    topo::AsId as = topo::kInvalidAs;
    topo::LinkId link = 0;
  };

  /// Neighbors of one relationship, ascending by neighbor id:
  /// row x is edges[offsets[x], offsets[x + 1]).
  struct Csr {
    std::vector<std::int32_t> offsets;
    std::vector<Edge> edges;
  };

  /// Writes link_up into `mask` as one byte per link (1 = up), validated
  /// against the graph.
  void link_mask(const std::vector<bool>& link_up, std::vector<std::uint8_t>& mask) const;

  /// The kernel behind both public overloads: routes toward the
  /// `count` (at most kLanes) destinations at `dests` into tables[0, count),
  /// one lane each; `up` is link_mask()'s data.
  void compute_block(const topo::AsId* dests, std::size_t count, const std::uint8_t* up,
                     Lanes& lanes, RouteTable* tables) const;

  const topo::AsGraph& graph_;
  Csr providers_, customers_, peers_;
};

/// Route tables toward a fixed destination list under one link state:
/// the routing view of a single epoch.  Each platform shard owns one and
/// recomputes it every epoch it simulates (and once more to prime
/// route-flutter history), so shards share no mutable routing state.
class RouteTableSet {
 public:
  RouteTableSet() = default;
  RouteTableSet(const RouteComputer& computer, const std::vector<topo::AsId>& dests,
                const std::vector<bool>& link_up) {
    recompute(computer, dests, link_up);
  }

  /// Replaces the view with the tables toward `dests` under `link_up`,
  /// computed into the previous view's storage, one kernel pass per 64
  /// destinations: bit-identical to a freshly constructed set, and
  /// allocation-free once sized.  `dests` may be in any order and may
  /// repeat a destination.
  void recompute(const RouteComputer& computer, const std::vector<topo::AsId>& dests,
                 const std::vector<bool>& link_up);

  std::size_t size() const { return tables_.size(); }
  /// Table toward dests[dest_index].
  const RouteTable& at(std::size_t dest_index) const {
    return tables_.at(dest_index);
  }

 private:
  std::vector<RouteTable> tables_;
  std::vector<std::uint8_t> up_;
  RouteComputer::Lanes lanes_;
};

}  // namespace ct::bgp
