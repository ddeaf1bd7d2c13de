// Ground-truth censorship model.
//
// The paper's subject of study: some ASes tamper with traffic that
// transits them.  Each censoring AS carries one or more policies — a set
// of URL categories it filters, the anomaly signatures its interference
// produces (DNS injection, TCP sequence-number anomalies, TTL anomalies,
// RST injection, blockpages), and an active-day range (policies change
// over time, which is what makes coarse-granularity CNFs unsolvable in
// the paper's Figure 1a).
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "topo/as_graph.h"
#include "util/rng.h"
#include "util/timewin.h"

namespace ct::censor {

/// The five anomaly types ICLab detects (paper §2.1).
enum class Anomaly : std::uint8_t {
  kDns = 0,
  kSeqno,
  kTtl,
  kRst,
  kBlockpage,
};
inline constexpr std::size_t kNumAnomalies = 5;
inline constexpr std::array<Anomaly, kNumAnomalies> kAllAnomalies{
    Anomaly::kDns, Anomaly::kSeqno, Anomaly::kTtl, Anomaly::kRst, Anomaly::kBlockpage};

std::string to_string(Anomaly a);
/// Short label used in figures: dns/seq/ttl/rst/block.
std::string short_label(Anomaly a);

/// URL content categories (stand-in for the McAfee categorization DB).
enum class UrlCategory : std::uint8_t {
  kShopping = 0,
  kClassifieds,
  kAds,
  kNews,
  kSocial,
  kPolitical,
  kGambling,
  kStreaming,
  /// Circumvention infrastructure (Tor bridges, proxies) — used by the
  /// paper's future-work extension (§5: "identify, at scale, the ASes
  /// responsible for blocking access to Tor bridges").
  kCircumvention,
};
inline constexpr std::size_t kNumCategories = 9;

std::string to_string(UrlCategory c);

/// "Never expires": the default policy end day.  Policies used to
/// default to util::kDaysPerYear, which silently turned every censor
/// off after day 365 — a multi-year monitor replay spent its later
/// years measuring a censor-free world.  Open-ended is the safe
/// default; generators that model a policy *switch* set explicit
/// bounds.
inline constexpr util::Day kPolicyNoExpiry = std::numeric_limits<util::Day>::max();

/// One censorship policy: `censor` filters `categories`, producing
/// `anomalies`, between days [active_from, active_to).
///
/// Two optional *path predicates* narrow where the policy fires (the
/// scenario-regime layer generates them; see censor/regime.h):
///   * `ingress_ases` — routing-induced censorship: the policy fires
///     only when traffic reaches the censor from one of these neighbor
///     ASes (the filtered ingress links).  Path churn that moves a
///     client onto or off a filtered ingress flips censorship on/off
///     for that client even though the censor sits still.
///   * `path_fraction`/`path_salt` — path-diversity inconsistency: the
///     policy fires only on the fraction of full-path-hash space below
///     `path_fraction` (DPI deployed on some internal load-balanced
///     paths but not others).  The same (URL, day) can draw different
///     verdicts on different paths through the same censor.
struct CensorPolicy {
  topo::AsId censor = topo::kInvalidAs;
  std::vector<UrlCategory> categories;
  std::vector<Anomaly> anomalies;
  util::Day active_from = 0;
  util::Day active_to = kPolicyNoExpiry;
  /// Sorted; empty = fires on every ingress.
  std::vector<topo::AsId> ingress_ases;
  /// Fraction of path-hash space the policy covers; 1.0 = every path.
  double path_fraction = 1.0;
  std::uint64_t path_salt = 0;
};

/// Deterministic hash of a full AS path, the input to the
/// `path_fraction` predicate.  Exposed so tests and generators can
/// reason about which side of a policy's threshold a path falls.
std::uint64_t path_fingerprint(std::span<const topo::AsId> path);

/// Queryable registry of ground-truth policies.
class CensorRegistry {
 public:
  CensorRegistry(std::int32_t num_ases, std::vector<CensorPolicy> policies);

  /// Does `as_id` censor `category` with signature `anomaly` on `day`?
  /// AS-level check: path predicates (ingress_ases / path_fraction) are
  /// NOT evaluated here — use the path-based queries for those.
  bool applies(topo::AsId as_id, UrlCategory category, Anomaly anomaly, util::Day day) const;

  /// Does any AS on `path` censor this (category, anomaly) on `day`?
  bool path_censored(std::span<const topo::AsId> path, UrlCategory category, Anomaly anomaly,
                     util::Day day) const;

  /// First AS on `path` whose policy matches, or kInvalidAs.
  topo::AsId first_censor_on_path(std::span<const topo::AsId> path, UrlCategory category,
                                  Anomaly anomaly, util::Day day) const;

  /// first_censor_on_path for every anomaly (index = Anomaly value), in
  /// one walk of the path.
  std::array<topo::AsId, kNumAnomalies> first_censors_on_path(
      std::span<const topo::AsId> path, UrlCategory category, util::Day day) const;

  const std::vector<CensorPolicy>& policies() const { return policies_; }

  /// Distinct ASes with at least one policy, ascending.
  std::vector<topo::AsId> censor_ases() const;

  /// Anomaly types AS `as_id` ever produces (union over its policies).
  std::vector<Anomaly> anomalies_of(topo::AsId as_id) const;

  /// Total-function contract shared with applies()/anomalies_of(): any
  /// AS id outside [0, num_ases) — e.g. from a malformed ip2as mapping
  /// — is simply "not a censor", never an exception.
  bool is_censor(topo::AsId as_id) const {
    return as_id >= 0 && static_cast<std::size_t>(as_id) < policy_index_.size() &&
           !policy_index_[static_cast<std::size_t>(as_id)].empty();
  }

 private:
  std::vector<CensorPolicy> policies_;
  /// Per AS: indices into policies_.
  std::vector<std::vector<std::int32_t>> policy_index_;
};

/// The default country-weight list shared by censor placement and
/// vantage placement: the paper's Table 2/3 countries (China, UK,
/// Singapore, Poland, Cyprus, ...) at high weight, plus a broad tail so
/// censors appear in ~30 countries as in the paper.
std::vector<std::pair<std::string, double>> default_censorship_country_weights();

/// Configuration of ground-truth censor generation.
struct CensorConfig {
  /// How many ASes censor.  Placed with a bias toward the weighted
  /// country list below, mirroring the paper's skewed Table 2.
  std::int32_t num_censors = 24;
  /// (country code, weight) pairs; countries absent from the topology
  /// are skipped.  An empty list places censors uniformly.
  /// IMPORTANT: localization works where the platform has nearby
  /// vantage points, so this list should stay aligned with
  /// iclab::PlatformConfig::vantage_country_weights (ICLab deliberately
  /// deploys vantage points where censorship is expected).
  std::vector<std::pair<std::string, double>> country_weights =
      default_censorship_country_weights();
  /// Probability mass for choosing a censor from the weighted list vs.
  /// any country.
  double weighted_country_prob = 0.8;
  /// Fraction of censors placed on transit ASes (the rest on stubs);
  /// transit censors are the ones that can leak.
  double transit_censor_fraction = 0.75;
  /// When non-empty, stub censors are drawn from this pool instead of
  /// all stubs.  The scenario passes the measurement endpoints here:
  /// eyeball and hosting ASes censoring their own traffic are the stub
  /// censors a measurement platform can actually observe.
  std::vector<topo::AsId> stub_censor_pool;
  /// Number of categories per policy: 1 + geometric(extra).
  double extra_category_prob = 0.35;
  /// Number of anomaly signatures per censor: 1 + geometric(extra).
  double extra_anomaly_prob = 0.35;
  /// Probability a censor changes policy mid-year (one switch day).
  double policy_change_prob = 0.15;
};

/// Draws ground-truth censors.  Deterministic given the seed.
CensorRegistry generate_censors(const topo::AsGraph& graph, const CensorConfig& config,
                                std::uint64_t seed);

/// Per-anomaly measurement noise: the probability the detector fires on
/// an uncensored measurement (false positive) and misses a censored one
/// (false negative).  The RST detector is deliberately the noisiest,
/// matching the paper's observation that organic RSTs are hard to tell
/// from injected ones (Figure 1b discussion).
struct DetectorNoise {
  std::array<double, kNumAnomalies> false_positive{1.5e-5, 3e-5, 5e-5, 1.5e-4, 8e-6};
  std::array<double, kNumAnomalies> false_negative{0.003, 0.006, 0.005, 0.02, 0.003};

  double fp(Anomaly a) const { return false_positive[static_cast<std::size_t>(a)]; }
  double fn(Anomaly a) const { return false_negative[static_cast<std::size_t>(a)]; }
};

}  // namespace ct::censor
