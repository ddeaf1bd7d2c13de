#include "net/ip2as.h"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>

namespace ct::net {

struct Ip2AsDb::Node {
  std::unique_ptr<Node> child[2];
  std::optional<topo::AsId> as;
};

Ip2AsDb::Ip2AsDb() : root_(std::make_unique<Node>()), slots_(std::size_t{1} << 16, kNoRoute) {}
Ip2AsDb::~Ip2AsDb() = default;
Ip2AsDb::Ip2AsDb(Ip2AsDb&&) noexcept = default;
Ip2AsDb& Ip2AsDb::operator=(Ip2AsDb&&) noexcept = default;

void Ip2AsDb::add_prefix(const Prefix& prefix, topo::AsId as_id) {
  Node* node = root_.get();
  for (std::uint8_t depth = 0; depth < prefix.length; ++depth) {
    const int bit = (prefix.address >> (31 - depth)) & 1;
    if (!node->child[bit]) node->child[bit] = std::make_unique<Node>();
    node = node->child[bit].get();
  }
  if (!node->as.has_value()) ++num_prefixes_;
  node->as = as_id;

  const std::uint32_t slot = prefix.address >> 16;
  if (prefix.length > 16) {
    slots_[slot] = kWalkTrie;
  } else if (prefix.length == 16) {
    slots_[slot] = slot_value(node, as_id);  // the longest prefix a slot holds
  } else {
    const std::uint32_t count = 1u << (16 - prefix.length);
    const std::uint32_t first = slot & ~(count - 1);
    for (std::uint32_t s = first; s < first + count; ++s) refresh_slot(s);
  }
}

std::int32_t Ip2AsDb::slot_value(const Node* node, std::optional<topo::AsId> best) {
  if (node && (node->child[0] || node->child[1])) return kWalkTrie;  // split by a longer prefix
  if (!best.has_value()) return kNoRoute;
  return *best >= 0 ? *best : kWalkTrie;  // negative ids do not fit a slot
}

void Ip2AsDb::refresh_slot(std::uint32_t slot) {
  const Node* node = root_.get();
  std::optional<topo::AsId> best = node->as;
  for (int depth = 0; depth < 16 && node; ++depth) {
    node = node->child[(slot >> (15 - depth)) & 1].get();
    if (node && node->as.has_value()) best = node->as;
  }
  slots_[slot] = slot_value(node, best);
}

std::optional<topo::AsId> Ip2AsDb::lookup_trie(Ip4 ip) const {
  const Node* node = root_.get();
  std::optional<topo::AsId> best = node->as;
  for (int depth = 0; depth < 32 && node; ++depth) {
    const int bit = (ip >> (31 - depth)) & 1;
    node = node->child[bit].get();
    if (node && node->as.has_value()) best = node->as;
  }
  return best;
}

std::vector<std::pair<Prefix, topo::AsId>> Ip2AsDb::prefixes() const {
  std::vector<std::pair<Prefix, topo::AsId>> out;
  std::function<void(const Node*, Ip4, std::uint8_t)> walk = [&](const Node* node, Ip4 addr,
                                                                 std::uint8_t depth) {
    if (!node) return;
    if (node->as.has_value()) out.emplace_back(Prefix::make(addr, depth), *node->as);
    if (depth < 32) {
      walk(node->child[0].get(), addr, static_cast<std::uint8_t>(depth + 1));
      walk(node->child[1].get(),
           addr | (1u << (31 - depth)), static_cast<std::uint8_t>(depth + 1));
    }
  };
  walk(root_.get(), 0, 0);
  return out;
}

AddressPlan allocate_prefixes(const topo::AsGraph& graph, const AddressPlanConfig& config) {
  AddressPlan plan;
  plan.prefixes.resize(static_cast<std::size_t>(graph.num_ases()));

  // Carve sequential /16 blocks out of 10.0.0.0/8-style space; when the
  // second octet overflows we continue into the next /8.  Block index i
  // maps to address (10 << 24) + (i << 16).  The blocks must stop short
  // of 192.168.0.0/16, the private space traceroutes render vantage-side
  // hops from: an AS owning it would make those hops mappable.
  const auto blocks_for = [&config](const topo::AsInfo& info) {
    std::int32_t count = config.stub_prefixes;
    if (info.tier == topo::AsTier::kTransit) count = config.transit_prefixes;
    if (info.tier == topo::AsTier::kTier1) count = config.tier1_prefixes;
    return std::max<std::int32_t>(count, 1);
  };
  std::int64_t needed = std::max<std::int32_t>(config.unmapped_blocks, 0);
  for (const auto& info : graph.ases()) needed += blocks_for(info);
  if (needed > kMaxAddressBlocks) {
    throw std::invalid_argument("allocate_prefixes: the plan needs " + std::to_string(needed) +
                                " /16 blocks, but only " + std::to_string(kMaxAddressBlocks) +
                                " fit between 10.0.0.0 and 192.168.0.0/16");
  }

  std::uint32_t next_block = 0;
  auto take_block = [&next_block]() {
    const Ip4 base = (10u << 24) + (next_block << 16);
    ++next_block;
    return Prefix::make(base, 16);
  };

  for (const auto& info : graph.ases()) {
    for (std::int32_t k = 0; k < blocks_for(info); ++k) {
      plan.prefixes[static_cast<std::size_t>(info.id)].push_back(take_block());
    }
  }
  for (std::int32_t k = 0; k < config.unmapped_blocks; ++k) {
    plan.unmapped_pool.push_back(take_block());
  }
  return plan;
}

Ip2AsDb build_ip2as(const AddressPlan& plan) {
  Ip2AsDb db;
  for (std::size_t as = 0; as < plan.prefixes.size(); ++as) {
    for (const auto& prefix : plan.prefixes[as]) {
      db.add_prefix(prefix, static_cast<topo::AsId>(as));
    }
  }
  return db;
}

}  // namespace ct::net
