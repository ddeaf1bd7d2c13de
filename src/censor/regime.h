// Scenario regimes: stress-tests of the paper's two load-bearing
// assumptions — censors sit still while paths churn, and each
// (vantage, URL, epoch) sees exactly one path.
//
// Related work shows both break in the wild, and each breakage is a
// regime here:
//   * kRoutingInduced — censorship policies bound to ingress links, so
//     path churn itself flips censorship on/off for a client even
//     though the censor never moves (Bhaskar & Pearce, "Understanding
//     Routing-Induced Censorship Changes Globally").
//   * kMultipath — ECMP/load-balanced forwarding: the platform hashes
//     flows across equal-cost alternates, breaking the
//     one-path-per-epoch premise (Barnes et al., "Node Failure
//     Localisation for Load Balancing Dynamic Networks").
//   * kAdaptive — strategic on-path placement that re-optimizes for
//     transit coverage at policy-change days (Decoy-Router-style
//     targeting).
//   * kPathDiversity — same URL, different verdicts by path: DPI on
//     some load-balanced internal paths but not others (Pathfinder).
//
// This header is graph-only (censor layer cannot link bgp); the
// route-aware adaptive generator lives in analysis/regime.h.  The
// regime is selected per-run via ScenarioConfig::regime.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "censor/policy.h"
#include "topo/as_graph.h"
#include "util/timewin.h"

namespace ct::censor {

/// Which stress regime the scenario runs under.
enum class ScenarioRegime : std::uint8_t {
  kBaseline = 0,
  kRoutingInduced,
  kMultipath,
  kAdaptive,
  kPathDiversity,
};

inline constexpr std::size_t kNumRegimes = 5;

/// Regime name (the examples' --regime value and the golden-file
/// suffix): baseline, routing, multipath, adaptive, pathdiv.
std::string to_string(ScenarioRegime regime);
std::optional<ScenarioRegime> parse_regime(std::string_view value);

/// All regimes in enum order (baseline first) — iteration order for the
/// accuracy report and the equivalence suites.
std::vector<ScenarioRegime> all_regimes();

/// Regime selection plus the knobs its generators read.  Part of
/// ScenarioConfig, so it is covered by the checkpoint config
/// fingerprint: a checkpoint written under one regime refuses to
/// resume under another.
struct RegimeConfig {
  ScenarioRegime regime = ScenarioRegime::kBaseline;
  /// kRoutingInduced: fraction of a transit censor's neighbor links its
  /// policy filters (the rest of its ingresses pass traffic clean).
  double ingress_fraction = 0.5;
  /// kPathDiversity: fraction of path-hash space a transit policy
  /// covers — the "DPI on some internal paths" share.
  double dither_fraction = 0.5;
  /// kAdaptive: days between placement re-optimizations (the strategic
  /// censor's policy-change cadence).
  util::Day adaptive_period_days = 91;
};

/// kRoutingInduced generator: attaches ingress predicates to every
/// transit-censor policy — a seeded ~ingress_fraction subset of the
/// censor's neighbors becomes its filtered ingress set.  Stub-censor
/// policies are left alone (a stub censors its own origin/terminus
/// traffic; there is no upstream ingress choice to churn through).
/// Deterministic in (seed, policy order).
void attach_ingress_predicates(const topo::AsGraph& graph, std::vector<CensorPolicy>& policies,
                               double ingress_fraction, std::uint64_t seed);

/// kPathDiversity generator: gives every transit-censor policy a
/// per-policy path salt and `dither_fraction` coverage of path-hash
/// space, so the same (URL, day) draws different verdicts on different
/// paths through the same censor.  Deterministic in (seed, policy
/// order).
void attach_path_dither(const topo::AsGraph& graph, std::vector<CensorPolicy>& policies,
                        double dither_fraction, std::uint64_t seed);

}  // namespace ct::censor
