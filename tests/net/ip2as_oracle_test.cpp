// Ip2AsDb oracle: the slot table plus trie fallback against a linear
// scan for the longest matching prefix, over random overlapping
// prefixes of mixed lengths (including /0 and /32) with
// re-registrations.
#include "net/ip2as.h"

#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

#include "../support/fuzz_seed.h"
#include "util/rng.h"

namespace ct::net {
namespace {

/// Registered prefixes, scanned linearly; re-registering overwrites.
class LinearLpm {
 public:
  void add(const Prefix& prefix, topo::AsId as) {
    for (auto& [p, owner] : entries_) {
      if (p == prefix) {
        owner = as;
        return;
      }
    }
    entries_.emplace_back(prefix, as);
  }

  std::optional<topo::AsId> lookup(Ip4 ip) const {
    std::optional<topo::AsId> best;
    int best_length = -1;
    for (const auto& [p, owner] : entries_) {
      if (p.contains(ip) && p.length > best_length) {
        best = owner;
        best_length = p.length;
      }
    }
    return best;
  }

  std::size_t size() const { return entries_.size(); }
  const std::vector<std::pair<Prefix, topo::AsId>>& entries() const { return entries_; }

 private:
  std::vector<std::pair<Prefix, topo::AsId>> entries_;
};

TEST(Ip2AsOracle, MatchesLinearScanOnRandomOverlappingPrefixes) {
  const std::uint64_t seed = test::fuzz_seed(20170623);
  SCOPED_TRACE(test::fuzz_trace(seed));
  util::Rng rng(seed);
  const std::vector<std::uint8_t> lengths{0, 8, 12, 16, 20, 24, 32};
  // Few leading octets, so prefixes overlap and share /16 slots.
  const std::vector<Ip4> first_octets{10, 11, 192};

  auto random_ip = [&]() {
    const Ip4 low = static_cast<Ip4>(rng() & 0xFFFFFFu);
    // Mostly near the registered space, sometimes anywhere.
    if (rng.bernoulli(0.1)) return static_cast<Ip4>(rng());
    return (first_octets[rng.index(first_octets.size())] << 24) | low;
  };

  for (int trial = 0; trial < 30; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    Ip2AsDb db;
    LinearLpm ref;
    for (int step = 0; step < 60; ++step) {
      // Some /0 and short prefixes are rare, so most slots stay direct.
      const std::uint8_t length =
          lengths[rng.bernoulli(0.05) ? 0 : 1 + rng.index(lengths.size() - 1)];
      Prefix prefix = Prefix::make(random_ip(), length);
      if (ref.size() > 0 && rng.bernoulli(0.2)) {
        prefix = ref.entries()[rng.index(ref.size())].first;  // re-register
      }
      // Mostly non-negative AS ids; a negative one cannot live in a slot.
      const auto as = static_cast<topo::AsId>(rng.uniform_int(-2, 999));
      db.add_prefix(prefix, as);
      ref.add(prefix, as);
      ASSERT_EQ(db.num_prefixes(), ref.size());

      if (step % 10 != 9) continue;
      std::vector<Ip4> probes;
      for (const auto& [p, owner] : ref.entries()) {
        const Ip4 last = p.address + static_cast<Ip4>(p.size() - 1);
        probes.insert(probes.end(), {p.address, last, p.address - 1, last + 1,
                                     p.address + static_cast<Ip4>(rng.index(p.size()))});
      }
      for (int k = 0; k < 200; ++k) probes.push_back(random_ip());
      for (const Ip4 ip : probes) {
        ASSERT_EQ(db.lookup(ip), ref.lookup(ip)) << "at " << to_string(ip) << ", step " << step;
      }
    }
  }
}

}  // namespace
}  // namespace ct::net
