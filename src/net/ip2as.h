// Longest-prefix-match IP-to-AS mapping.
//
// Substitutes for the CAIDA routed-prefix dataset the paper uses to
// convert IP-level traceroutes to AS-level paths.  Lookups return the
// AS of the most specific covering prefix, or nothing for unmapped
// space (IXP fabrics, unannounced ranges) — exactly the failure mode
// that produces the paper's "IP-to-AS mapping was not possible"
// eliminations.
//
// Prefixes live in a binary trie over address bits.  In front of it, a
// 65,536-slot table indexed by the top 16 address bits (4 bytes a slot,
// 256 KiB) holds each /16's answer from prefixes of length <= 16, so a
// lookup is one load unless a longer prefix falls inside the /16; such
// slots defer to the trie.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "net/ip.h"
#include "topo/as_graph.h"

namespace ct::net {

class Ip2AsDb {
 public:
  Ip2AsDb();
  ~Ip2AsDb();
  Ip2AsDb(Ip2AsDb&&) noexcept;
  Ip2AsDb& operator=(Ip2AsDb&&) noexcept;
  Ip2AsDb(const Ip2AsDb&) = delete;
  Ip2AsDb& operator=(const Ip2AsDb&) = delete;

  /// Registers a prefix as originated by `as_id`.  More-specific
  /// prefixes win on lookup.  Re-registering the same prefix overwrites.
  void add_prefix(const Prefix& prefix, topo::AsId as_id);

  /// Longest-prefix-match lookup.
  std::optional<topo::AsId> lookup(Ip4 ip) const {
    const std::int32_t slot = slots_[ip >> 16];
    if (slot >= 0) return slot;
    if (slot == kNoRoute) return std::nullopt;
    return lookup_trie(ip);
  }

  std::size_t num_prefixes() const { return num_prefixes_; }

  /// All registered prefixes (for export/debugging), in trie order.
  std::vector<std::pair<Prefix, topo::AsId>> prefixes() const;

 private:
  struct Node;

  /// Slot values besides an AS id (>= 0).
  static constexpr std::int32_t kNoRoute = -1;   // no covering prefix
  static constexpr std::int32_t kWalkTrie = -2;  // ask the trie

  std::optional<topo::AsId> lookup_trie(Ip4 ip) const;
  /// A /16's slot value, given its trie node (null if none) and the AS
  /// of its longest covering prefix of length <= 16.
  static std::int32_t slot_value(const Node* node, std::optional<topo::AsId> best);
  /// Recomputes slots_[slot] from the trie.
  void refresh_slot(std::uint32_t slot);

  std::unique_ptr<Node> root_;
  std::vector<std::int32_t> slots_;  // one per /16, indexed by ip >> 16
  std::size_t num_prefixes_ = 0;
};

/// Per-AS address plan produced by allocate_prefixes().
struct AddressPlan {
  /// prefixes[as] = prefixes owned by that AS.
  std::vector<std::vector<Prefix>> prefixes;
  /// Address space deliberately absent from the Ip2AsDb (models IXP /
  /// unannounced space seen in traceroutes).
  std::vector<Prefix> unmapped_pool;
};

struct AddressPlanConfig {
  /// Prefixes per AS: 1 + extra, tier-1/transit get more.
  std::int32_t stub_prefixes = 1;
  std::int32_t transit_prefixes = 3;
  std::int32_t tier1_prefixes = 4;
  /// Number of /16 blocks reserved as unmapped space.
  std::int32_t unmapped_blocks = 8;
};

/// /16 blocks from 10.0.0.0 up to, not including, 192.168.0.0/16.
inline constexpr std::int64_t kMaxAddressBlocks = ((192 << 8) + 168) - (10 << 8);

/// Assigns disjoint /16 blocks from 10.0.0.0-style space to every AS
/// (then to the unmapped pool).  Deterministic given the graph.  Throws
/// std::invalid_argument when the plan needs more than
/// kMaxAddressBlocks blocks.
AddressPlan allocate_prefixes(const topo::AsGraph& graph, const AddressPlanConfig& config);

/// Builds the lookup database from a plan (unmapped pool excluded).
Ip2AsDb build_ip2as(const AddressPlan& plan);

}  // namespace ct::net
