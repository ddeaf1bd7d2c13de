// IP-level traceroute synthesis and AS-level path inference.
//
// The ICLab platform records three traceroutes per measurement; the
// paper converts them to AS paths via IP-to-AS mapping and discards
// records under four conditions (§3.1):
//   (1) no IP in the traceroute could be mapped to an AS,
//   (2) the traceroute failed outright,
//   (3) an unresponsive/unmappable gap sits between two different ASes
//       (AS inference ambiguous),
//   (4) the three traceroutes yield more than one distinct AS path.
// TracerouteEngine produces realistic raw traceroutes (multiple router
// hops per AS, unresponsive hops, unmapped border addresses, outright
// errors); infer_as_path implements the conversion with exactly those
// four elimination rules.
//
// Every renderer and the inference have an `_into` form that writes into
// caller-owned buffers (the platform and the clause builder reuse one
// set per shard, so steady-state emission allocates nothing) and a
// value-returning wrapper over it; each rule has exactly one body.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "net/ip2as.h"
#include "topo/as_graph.h"
#include "util/rng.h"

namespace ct::net {

/// One hop in a raw traceroute: the responding address, or nothing for a
/// "* * *" timeout.
using Hop = std::optional<Ip4>;

struct Traceroute {
  /// True if the traceroute failed entirely (no usable hops recorded).
  bool error = false;
  std::vector<Hop> hops;
};

struct TracerouteConfig {
  /// Probability an entire traceroute errors out.
  double error_prob = 0.008;
  /// Per-hop probability of a timeout (unresponsive router).
  double unresponsive_prob = 0.006;
  /// Per-hop probability the responding address is from unmapped space.
  double unmapped_prob = 0.004;
  /// Min/max router hops rendered per AS on the path.
  std::int32_t min_hops_per_as = 1;
  std::int32_t max_hops_per_as = 3;
  /// Render the vantage AS's own hops from private (RFC1918-style,
  /// unmappable) space.  ICLab vantage points are VPN clients: their
  /// first hops are VPN-tunnel / data-center LAN addresses that no
  /// IP-to-AS database maps, so the vantage AS itself does not appear
  /// as a literal in the paper's clauses.
  bool vantage_hops_private = true;
};

class TracerouteEngine {
 public:
  /// Flattens the plan's per-AS prefix lists into one table.  Rendering
  /// a path throws std::out_of_range for an AS outside the plan and
  /// std::logic_error for an AS that owns no prefix.
  TracerouteEngine(const AddressPlan& plan, const TracerouteConfig& config);

  /// Renders one traceroute along the AS-level path (vantage first)
  /// into `out`, replacing its contents: `error` is reset and `hops` is
  /// cleared and refilled, so a caller that passes the same Traceroute
  /// for every measurement keeps the hop list's capacity and allocates
  /// nothing once it has grown.  The destination's final hop is always
  /// rendered (when the traceroute does not error), mirroring a
  /// completed probe.
  void trace_into(const std::vector<topo::AsId>& as_path, util::Rng& rng,
                  Traceroute& out) const;

  /// trace_into into a fresh Traceroute: same draws, same hops.
  Traceroute trace(const std::vector<topo::AsId>& as_path, util::Rng& rng) const {
    Traceroute out;
    trace_into(as_path, rng, out);
    return out;
  }

  /// Renders the three traceroutes of one measurement into `out` (each
  /// through trace_into).  With probability `flutter_prob`, one of the
  /// three follows `alternate_path` instead (route change racing the
  /// measurement) — the organic source of rule-4 eliminations.  Pass an
  /// empty alternate to disable.
  void trace_triple_into(const std::vector<topo::AsId>& as_path,
                         const std::vector<topo::AsId>& alternate_path, double flutter_prob,
                         util::Rng& rng, std::array<Traceroute, 3>& out) const;

  /// trace_triple_into into fresh Traceroutes: same draws, same hops.
  std::array<Traceroute, 3> trace_triple(const std::vector<topo::AsId>& as_path,
                                         const std::vector<topo::AsId>& alternate_path,
                                         double flutter_prob, util::Rng& rng) const {
    std::array<Traceroute, 3> out;
    trace_triple_into(as_path, alternate_path, flutter_prob, rng, out);
    return out;
  }

 private:
  Ip4 random_address_in(const Prefix& prefix, util::Rng& rng) const;
  Ip4 random_address_of_as(topo::AsId as, util::Rng& rng) const;

  const AddressPlan& plan_;
  TracerouteConfig config_;
  /// Every AS's prefixes, flattened in AS order: AS `as` owns
  /// prefixes_[prefix_begin_[as], prefix_begin_[as + 1]).
  std::vector<Prefix> prefixes_;
  std::vector<std::size_t> prefix_begin_;
};

/// Why a measurement's paths were discarded during clause formulation.
enum class InferenceDrop : std::uint8_t {
  kNone = 0,          // usable AS path obtained
  kNoMapping,         // rule 1: nothing mappable
  kTracerouteError,   // rule 2: traceroute failed
  kAmbiguousGap,      // rule 3: gap between two different ASes
  kDivergentPaths,    // rule 4: the three traceroutes disagree
};

std::string to_string(InferenceDrop drop);

struct InferenceResult {
  InferenceDrop drop = InferenceDrop::kNone;
  /// Inferred AS-level path, starting at the first *mappable* hop
  /// (usually the vantage's upstream provider — the vantage AS's own
  /// hops are private space); empty unless drop == kNone.
  std::vector<topo::AsId> as_path;
};

/// Converts one raw traceroute to an AS path (rules 1-3, through the
/// same per-traceroute conversion infer_as_path_into runs).  Leading
/// unmappable hops (the vantage's private addresses) are benign; a gap
/// *between* two different mapped ASes is ambiguous (rule 3).
InferenceResult infer_single(const Traceroute& traceroute, const Ip2AsDb& db);

/// Applies all four elimination rules across a measurement's three
/// traceroutes, in this precedence: rule 2 over all three traceroutes
/// first, then rules 1 and 3 per traceroute in order, then rule 4.  The
/// three conversions are written into `scratch`; on kNone the inferred
/// path is scratch[0], otherwise the scratch contents are unspecified.
/// A caller that keeps one scratch across measurements allocates
/// nothing once its vectors have grown.
InferenceDrop infer_as_path_into(const std::array<Traceroute, 3>& traceroutes,
                                 const Ip2AsDb& db,
                                 std::array<std::vector<topo::AsId>, 3>& scratch);

/// infer_as_path_into with a fresh scratch.
InferenceResult infer_as_path(const std::array<Traceroute, 3>& traceroutes,
                              const Ip2AsDb& db);

}  // namespace ct::net
