#include "iclab/platform.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <functional>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>

#include "util/serde.h"

namespace ct::iclab {

using censor::Anomaly;
using censor::kAllAnomalies;
using censor::kNumAnomalies;
using topo::AsId;

namespace {

// session_noise packs a URL id, and the ECMP flow hash a node index,
// into a 20-bit field: past kMaxCellKeyIds ids two cells would share one
// noise or flow stream.
void check_cell_key_fields(std::int64_t nodes_per_as, std::int64_t num_urls) {
  if (nodes_per_as > kMaxCellKeyIds || num_urls > kMaxCellKeyIds) {
    throw std::invalid_argument(
        "PlatformConfig: more than 2^20 URLs or nodes per AS would alias cell streams");
  }
}

}  // namespace

Platform::Platform(const topo::AsGraph& graph, const censor::CensorRegistry& registry,
                   const net::AddressPlan& plan, const PlatformConfig& config,
                   std::uint64_t seed)
    : Platform(graph, registry, plan, config, seed,
               choose_endpoints(graph, config, seed)) {}

Platform::Platform(const topo::AsGraph& graph, const censor::CensorRegistry& registry,
                   const net::AddressPlan& plan, const PlatformConfig& config,
                   std::uint64_t seed, Endpoints endpoints)
    : graph_(graph),
      registry_(registry),
      plan_(plan),
      config_(config),
      seed_(seed),
      vantages_(std::move(endpoints.vantages)),
      dest_ases_(std::move(endpoints.dest_ases)),
      urls_(std::move(endpoints.urls)) {
  if (config.num_days < 1) throw std::invalid_argument("PlatformConfig: num_days < 1");
  if (config.epochs_per_day < 1) {
    throw std::invalid_argument("PlatformConfig: epochs_per_day < 1");
  }
  if (config.vp_nodes_per_as < 1) {
    throw std::invalid_argument("PlatformConfig: vp_nodes_per_as < 1");
  }
  if (vantages_.empty() || dest_ases_.empty() || urls_.empty()) {
    throw std::invalid_argument("Platform: empty endpoints");
  }
  check_cell_key_fields(config.vp_nodes_per_as, static_cast<std::int64_t>(urls_.size()));
  // Shards look destinations up by binary search and URLs by id.
  const auto sorted_distinct_ases = [&graph](const std::vector<AsId>& ases) {
    return std::adjacent_find(ases.begin(), ases.end(), std::greater_equal<>()) == ases.end() &&
           ases.front() >= 0 && ases.back() < graph.num_ases();
  };
  if (!sorted_distinct_ases(vantages_)) {
    throw std::invalid_argument("Platform: vantages must be sorted, distinct AS ids");
  }
  if (!sorted_distinct_ases(dest_ases_)) {
    throw std::invalid_argument("Platform: dest_ases must be sorted, distinct AS ids");
  }
  for (std::size_t i = 0; i < urls_.size(); ++i) {
    if (urls_[i].id != static_cast<std::int32_t>(i)) {
      throw std::invalid_argument("Platform: URL ids must equal their index");
    }
    if (!std::binary_search(dest_ases_.begin(), dest_ases_.end(), urls_[i].dest_as)) {
      throw std::invalid_argument("Platform: URL dest_as is not a destination AS");
    }
  }
  urls_by_dest_.resize(dest_ases_.size());
  for (const Url& url : urls_) {
    const auto it = std::lower_bound(dest_ases_.begin(), dest_ases_.end(), url.dest_as);
    urls_by_dest_[static_cast<std::size_t>(it - dest_ases_.begin())].push_back(url.id);
  }
}

Endpoints choose_endpoints(const topo::AsGraph& graph, const PlatformConfig& config,
                           std::uint64_t seed) {
  if (config.num_vantages < 1 || config.num_urls < 1 || config.num_dest_ases < 1) {
    throw std::invalid_argument("PlatformConfig: counts must be positive");
  }
  check_cell_key_fields(config.vp_nodes_per_as, config.num_urls);
  util::Rng rng(util::mix64(seed, 0x1C1AB));
  Endpoints out;
  // Vantage points live in stub ASes (ICLab's VPN-provider vantage
  // points are hosted in content/access networks).  Multihomed stubs are
  // preferred: commercial VPN/hosting providers are well connected, and
  // their exit diversity is what lets sibling nodes observe different
  // paths.
  std::vector<AsId> stubs = graph.ases_with_tier(topo::AsTier::kStub);
  if (stubs.empty()) stubs = graph.ases_with_tier(topo::AsTier::kTransit);
  if (stubs.empty()) throw std::invalid_argument("Platform: topology has no candidate ASes");

  std::vector<AsId> multihomed;
  std::vector<AsId> singlehomed;
  for (const AsId as : stubs) {
    std::int32_t providers = 0;
    for (const auto& nb : graph.neighbors(as)) {
      providers += nb.kind == topo::NeighborKind::kProvider ? 1 : 0;
    }
    (providers >= 2 ? multihomed : singlehomed).push_back(as);
  }
  rng.shuffle(multihomed);
  rng.shuffle(singlehomed);
  std::vector<AsId> pool = multihomed;
  pool.insert(pool.end(), singlehomed.begin(), singlehomed.end());

  // Country bias: ICLab concentrates vantage points in regions where
  // censorship is expected.
  std::vector<std::pair<topo::CountryId, double>> weighted;
  double total_weight = 0.0;
  for (const auto& [code, weight] : config.vantage_country_weights) {
    for (const auto& c : graph.countries()) {
      if (c.code == code) {
        weighted.emplace_back(c.id, weight);
        total_weight += weight;
        break;
      }
    }
  }

  std::vector<bool> taken(static_cast<std::size_t>(graph.num_ases()), false);
  const auto num_vp = std::min<std::size_t>(static_cast<std::size_t>(config.num_vantages),
                                            pool.size());
  while (out.vantages.size() < num_vp) {
    AsId chosen = topo::kInvalidAs;
    if (!weighted.empty() && rng.bernoulli(config.vantage_weighted_prob)) {
      double u = rng.uniform() * total_weight;
      topo::CountryId country = weighted.back().first;
      for (const auto& [id, w] : weighted) {
        u -= w;
        if (u <= 0.0) {
          country = id;
          break;
        }
      }
      // Pool order already prefers multihomed ASes.
      for (const AsId as : pool) {
        if (!taken[static_cast<std::size_t>(as)] && graph.as_info(as).country == country) {
          chosen = as;
          break;
        }
      }
    }
    if (chosen == topo::kInvalidAs) {
      for (const AsId as : pool) {
        if (!taken[static_cast<std::size_t>(as)]) {
          chosen = as;
          break;
        }
      }
    }
    if (chosen == topo::kInvalidAs) break;
    taken[static_cast<std::size_t>(chosen)] = true;
    out.vantages.push_back(chosen);
  }
  std::sort(out.vantages.begin(), out.vantages.end());

  // Destination ASes prefer content stubs (web hosting).
  std::vector<AsId> content;
  for (const AsId as : stubs) {
    if (graph.as_info(as).cls == topo::AsClass::kContent &&
        std::find(out.vantages.begin(), out.vantages.end(), as) == out.vantages.end()) {
      content.push_back(as);
    }
  }
  if (content.empty()) content = stubs;
  rng.shuffle(content);
  const auto num_dest = std::min<std::size_t>(static_cast<std::size_t>(config.num_dest_ases),
                                              content.size());
  out.dest_ases.assign(content.begin(), content.begin() + static_cast<std::ptrdiff_t>(num_dest));
  std::sort(out.dest_ases.begin(), out.dest_ases.end());

  // URLs: category skewed toward the paper's most-censored buckets
  // (shopping, classifieds, ads) plus a tail of everything else.
  util::ZipfSampler category_sampler(censor::kNumCategories, 0.7);
  for (std::int32_t u = 0; u < config.num_urls; ++u) {
    Url url;
    url.id = u;
    char buf[40];
    std::snprintf(buf, sizeof(buf), "www.site%03d.example", u);
    url.name = buf;
    url.category = static_cast<censor::UrlCategory>(category_sampler.sample(rng));
    url.dest_as = out.dest_ases[static_cast<std::size_t>(u) % out.dest_ases.size()];
    out.urls.push_back(std::move(url));
  }
  return out;
}

std::vector<ShardRange> plan_shard_grid(util::Day num_days, std::int32_t num_vantages,
                                        std::int32_t day_chunks,
                                        std::int32_t vantage_chunks) {
  if (num_days < 1 || num_vantages < 1) {
    throw std::invalid_argument("plan_shard_grid: empty schedule");
  }
  day_chunks = std::clamp(day_chunks, 1, num_days);
  vantage_chunks = std::clamp(vantage_chunks, 1, num_vantages);
  std::vector<ShardRange> out;
  out.reserve(static_cast<std::size_t>(day_chunks) *
              static_cast<std::size_t>(vantage_chunks));
  for (std::int32_t dc = 0; dc < day_chunks; ++dc) {
    ShardRange range;
    range.day_begin = static_cast<util::Day>(
        static_cast<std::int64_t>(num_days) * dc / day_chunks);
    range.day_end = static_cast<util::Day>(
        static_cast<std::int64_t>(num_days) * (dc + 1) / day_chunks);
    for (std::int32_t vc = 0; vc < vantage_chunks; ++vc) {
      range.vantage_begin = static_cast<std::int32_t>(
          static_cast<std::int64_t>(num_vantages) * vc / vantage_chunks);
      range.vantage_end = static_cast<std::int32_t>(
          static_cast<std::int64_t>(num_vantages) * (vc + 1) / vantage_chunks);
      out.push_back(range);
    }
  }
  return out;
}

void Platform::run(MeasurementSink& sink) const {
  ShardRange all;
  all.day_begin = 0;
  all.day_end = config_.num_days;
  all.vantage_begin = 0;
  all.vantage_end = static_cast<std::int32_t>(vantages_.size());
  run_shard(sink, all);
}

/// What one worker reuses from shard to shard: the engines, the link
/// state and routing view, the flutter history, the session schedules
/// and the emission buffers.  Every buffer keeps its capacity, so a
/// worker's later shards allocate next to nothing.
struct Platform::ShardScratch {
  explicit ShardScratch(const Platform& platform)
      : computer(platform.graph_), tracer(platform.plan_, platform.config_.traceroute) {}

  const bgp::RouteComputer computer;
  const net::TracerouteEngine tracer;
  std::vector<bool> link_up;
  /// The routing view, recomputed in place every epoch: one table per
  /// destination, shared by every vantage.
  bgp::RouteTableSet tables;
  /// Previous-epoch path per (shard-local vantage node, destination),
  /// for route flutter.  Kept current only for the cells that read it:
  /// those with a session that day.
  std::vector<std::vector<std::vector<AsId>>> prev_paths;
  /// The session schedule of the day and of the next day per
  /// (shard-local vantage, URL), and from it per (shard-local vantage,
  /// destination): does any of the destination's URLs have a session?
  std::vector<std::uint8_t> scheduled, next_scheduled;
  std::vector<std::uint8_t> has_session, next_has_session;
  /// node_path_into's scratch.
  std::vector<AsId> providers, rest, ecmp_hops;
  /// Emission buffers.  The sink sees `m` only for the duration of
  /// on_measurement (MeasurementSink).
  std::vector<AsId> default_path, path, ecmp_path;
  Measurement m;
};

void Platform::run_shard(MeasurementSink& sink, const ShardRange& range) const {
  ShardScratch scratch(*this);
  run_range(sink, range, scratch);
}

void Platform::run_range(MeasurementSink& sink, const ShardRange& range,
                         ShardScratch& scratch) const {
  if (range.day_begin < 0 || range.day_begin >= range.day_end ||
      range.day_end > config_.num_days || range.vantage_begin < 0 ||
      range.vantage_begin >= range.vantage_end ||
      range.vantage_end > static_cast<std::int32_t>(vantages_.size())) {
    throw std::invalid_argument("Platform::run_shard: range outside the schedule");
  }

  const bgp::ChurnTrajectory& churn = churn_trajectory();
  std::vector<bool>& link_up = scratch.link_up;
  const bgp::RouteComputer& computer = scratch.computer;
  const net::TracerouteEngine& tracer = scratch.tracer;
  const std::int64_t epochs_per_day = config_.epochs_per_day;

  const auto nodes = static_cast<std::size_t>(config_.vp_nodes_per_as);
  const auto vantage_begin = static_cast<std::size_t>(range.vantage_begin);
  const auto vantage_end = static_cast<std::size_t>(range.vantage_end);

  // A shard starting at day 0 has no flutter history; a later one's is
  // primed below.
  std::vector<std::vector<std::vector<AsId>>>& prev_paths = scratch.prev_paths;
  prev_paths.resize((vantage_end - vantage_begin) * nodes);
  for (std::vector<std::vector<AsId>>& node_paths : prev_paths) {
    node_paths.resize(dest_ases_.size());
    for (std::vector<AsId>& prev : node_paths) prev.clear();
  }

  // Deterministic session schedule: is (vantage AS, url) tested on
  // `day`?  A scheduled session runs from *every* node of the AS in
  // every epoch of the day (ICLab batches its URL list per vantage), so
  // the draw depends on the AS, not the node or epoch.  Filled once per
  // day for the shard's vantages x every URL, then read by every
  // (epoch, destination, node) cell of that day; `has_session` marks the
  // (vantage, destination) cells with at least one scheduled URL.
  const std::size_t num_urls = urls_.size();
  const std::size_t num_dests = dest_ases_.size();
  auto schedule_day = [&](util::Day day, std::vector<std::uint8_t>& scheduled,
                          std::vector<std::uint8_t>& has_session) {
    scheduled.resize((vantage_end - vantage_begin) * num_urls);
    has_session.assign((vantage_end - vantage_begin) * num_dests, 0);
    for (std::size_t vi = vantage_begin; vi < vantage_end; ++vi) {
      for (std::size_t di = 0; di < num_dests; ++di) {
        for (const std::int32_t u : urls_by_dest_[di]) {
          const std::uint64_t key = util::mix64(
              util::mix64(seed_ ^ 0x5E55u, static_cast<std::uint64_t>(day)),
              (static_cast<std::uint64_t>(vi) << 32) | static_cast<std::uint32_t>(u));
          util::Rng rng(key);
          const std::uint8_t session = rng.bernoulli(config_.test_prob) ? 1 : 0;
          scheduled[(vi - vantage_begin) * num_urls + static_cast<std::size_t>(u)] = session;
          has_session[(vi - vantage_begin) * num_dests + di] |= session;
        }
      }
    }
  };

  // Detector *misses* (false negatives) are correlated within a
  // session: a detector that fails to recognize interference for a URL
  // from a node tends to fail for the whole day (vantage- or
  // configuration-related).  False positives stay per-measurement —
  // organic RSTs, resolver races and the like are transient
  // per-connection events (and are exactly the "noise in the ICLab
  // measurements" the paper blames for unsolvable CNFs).
  auto session_noise = [this](util::Day day, std::size_t node_index, std::int32_t url_id,
                              Anomaly a, double prob) {
    const std::uint64_t key = util::mix64(
        util::mix64(seed_ ^ 0x4015Eu, static_cast<std::uint64_t>(day)),
        (static_cast<std::uint64_t>(node_index) << 24) ^
            (static_cast<std::uint64_t>(url_id) << 4) ^ static_cast<std::uint64_t>(a));
    util::Rng rng(key);
    return rng.bernoulli(prob);
  };

  // Per-measurement randomness (traceroute rendering, route flutter,
  // detector false positives) is drawn from a stream keyed on the cell
  // coordinates (epoch, destination, vantage node) rather than from one
  // sequential per-epoch stream, so the draws a measurement sees do not
  // depend on which other cells the executing shard simulates, nor on
  // which cells it skips.  This is the determinism contract that makes
  // sharded runs bit-identical to the serial run.
  auto cell_rng = [this](std::int64_t global_epoch, std::size_t di, std::size_t vi,
                         std::size_t node) {
    // Chained mixes, not bit-packing: no coordinate bound can alias two
    // cells onto one stream.
    return util::Rng(util::mix64(
        util::mix64(
            util::mix64(seed_ ^ 0xCE11u, static_cast<std::uint64_t>(global_epoch)),
            (static_cast<std::uint64_t>(di) << 32) ^ static_cast<std::uint64_t>(vi)),
        static_cast<std::uint64_t>(node)));
  };

  // Path of a vantage node, written into `out`: node 0 follows the AS's
  // best BGP route; further nodes exit through the AS's other providers
  // (different PoP, different first hop) when the AS is multihomed.
  // With a flow hash (multipath regime) the path beyond the exit
  // load-balances across equal-cost alternates keyed on that hash;
  // without one it follows the best route.
  std::vector<AsId>& providers = scratch.providers;
  std::vector<AsId>& rest = scratch.rest;
  std::vector<AsId>& ecmp_hops = scratch.ecmp_hops;
  auto node_path_into = [&](const bgp::RouteTable& table, AsId vp, std::size_t node,
                            const std::vector<bool>& link_up,
                            std::optional<std::uint64_t> flow_hash, std::vector<AsId>& out) {
    const auto follow = [&](AsId from, std::vector<AsId>& dst) {
      if (flow_hash) {
        table.ecmp_path_into(from, *flow_hash, graph_, link_up, dst, ecmp_hops);
      } else {
        table.path_into(from, dst);
      }
    };
    out.clear();
    if (!table.reachable(vp)) return;
    if (node == 0) return follow(vp, out);
    providers.clear();
    for (const auto& nb : graph_.neighbors(vp)) {
      if (nb.kind == topo::NeighborKind::kProvider &&
          link_up[static_cast<std::size_t>(nb.link)]) {
        providers.push_back(nb.as);
      }
    }
    std::sort(providers.begin(), providers.end());
    if (providers.size() < 2) return follow(vp, out);  // single-homed: same exit
    const AsId exit = providers[node % providers.size()];
    if (!table.reachable(exit)) return follow(vp, out);
    follow(exit, rest);
    out.push_back(vp);
    out.insert(out.end(), rest.begin(), rest.end());
  };

  bgp::RouteTableSet& tables = scratch.tables;

  // A cell computes its node paths, and so its flutter history, only
  // when its (vantage, destination) has a session that day, or in the
  // day's last epoch when it has one the next day: that epoch is the
  // history the next day's first epoch reads.  A node path is a pure
  // function of the link state, so the skipped cells change nothing a
  // measurement sees.
  std::vector<std::uint8_t>& scheduled = scratch.scheduled;
  std::vector<std::uint8_t>& next_scheduled = scratch.next_scheduled;
  std::vector<std::uint8_t>& has_session = scratch.has_session;
  std::vector<std::uint8_t>& next_has_session = scratch.next_has_session;
  schedule_day(range.day_begin, scheduled, has_session);

  // A shard starting mid-year reconstructs its starting state: the link
  // state of the epoch before the shard's first comes from the churn
  // trajectory, and that epoch's routing view primes the flutter
  // history of the first day's session cells exactly as the serial run
  // would have left it.  The epoch loop then steps the link state one
  // epoch's flips at a time.
  const std::int64_t first_epoch = static_cast<std::int64_t>(range.day_begin) * epochs_per_day;
  churn.link_state_at(std::max<std::int64_t>(first_epoch - 1, 0), link_up);
  if (first_epoch > 0) {
    tables.recompute(computer, dest_ases_, link_up);
    for (std::size_t di = 0; di < num_dests; ++di) {
      for (std::size_t vi = vantage_begin; vi < vantage_end; ++vi) {
        if (has_session[(vi - vantage_begin) * num_dests + di] == 0) continue;
        for (std::size_t node = 0; node < nodes; ++node) {
          node_path_into(tables.at(di), vantages_[vi], node, link_up, std::nullopt,
                         prev_paths[(vi - vantage_begin) * nodes + node][di]);
        }
      }
    }
  }

  std::vector<AsId>& default_path = scratch.default_path;
  std::vector<AsId>& path = scratch.path;
  std::vector<AsId>& ecmp_path = scratch.ecmp_path;
  Measurement& m = scratch.m;

  for (util::Day day = range.day_begin; day < range.day_end; ++day) {
    sink.on_day_start(day);
    const bool has_next_day = day + 1 < range.day_end;
    if (has_next_day) schedule_day(day + 1, next_scheduled, next_has_session);
    for (std::int32_t epoch = 0; epoch < config_.epochs_per_day; ++epoch) {
      const std::int64_t global_epoch = static_cast<std::int64_t>(day) * epochs_per_day +
                                        static_cast<std::int64_t>(epoch);
      if (global_epoch > 0) churn.step(global_epoch, link_up);
      tables.recompute(computer, dest_ases_, link_up);
      // The day's last epoch is the history of the next day's sessions.
      const bool feeds_next_day = has_next_day && epoch + 1 == config_.epochs_per_day;

      for (std::size_t di = 0; di < num_dests; ++di) {
        const AsId dest = dest_ases_[di];
        const std::vector<std::int32_t>& dest_urls = urls_by_dest_[di];
        const bgp::RouteTable& table = tables.at(di);

        for (std::size_t vi = vantage_begin; vi < vantage_end; ++vi) {
          const AsId vp = vantages_[vi];
          // AS-level churn tracking uses the AS's default best path.
          table.path_into(vp, default_path);
          sink.on_path(day, epoch, vp, dest, default_path);
          const std::size_t cell = (vi - vantage_begin) * num_dests + di;
          const bool session = has_session[cell] != 0;
          if (!session && !(feeds_next_day && next_has_session[cell] != 0)) continue;
          const std::uint8_t* vantage_scheduled = &scheduled[(vi - vantage_begin) * num_urls];

          for (std::size_t node = 0; node < nodes; ++node) {
            const std::size_t node_index = vi * nodes + node;
            const std::size_t local_node_index = (vi - vantage_begin) * nodes + node;
            std::vector<AsId>& prev = prev_paths[local_node_index][di];
            if (!session) {
              // History only, for the next day's first epoch.
              node_path_into(table, vp, node, link_up, std::nullopt, prev);
              continue;
            }
            util::Rng rng = cell_rng(global_epoch, di, vi, node);
            node_path_into(table, vp, node, link_up, std::nullopt, path);

            for (std::size_t ui = 0; ui < dest_urls.size(); ++ui) {
              const std::int32_t url_id = dest_urls[ui];
              if (vantage_scheduled[static_cast<std::size_t>(url_id)] == 0) continue;
              const Url& url = urls_[static_cast<std::size_t>(url_id)];

              m.vantage = vp;
              m.vp_node = static_cast<std::int32_t>(node);
              m.url_id = url_id;
              m.day = day;
              m.epoch_in_day = epoch;
              m.seq = static_cast<std::int64_t>(
                  ((((static_cast<std::size_t>(global_epoch) * dest_ases_.size() + di) *
                         vantages_.size() +
                     vi) *
                        nodes +
                    node) *
                       urls_.size() +
                   ui));
              m.detected = {};
              m.truth_censored = {};
              // Multipath regime: this flow's path may be an equal-cost
              // alternate of the default.  The flutter history and
              // on_path (AS-level churn tracking) stay keyed on the
              // default best path — ECMP spreads *flows*, it does not
              // change what BGP selected.
              const std::vector<AsId>* mpath = &path;
              if (config_.ecmp_multipath && !path.empty()) {
                const std::uint64_t flow_hash = util::mix64(
                    util::mix64(seed_ ^ 0xEC3Fu, (static_cast<std::uint64_t>(vi) << 20) ^
                                                     static_cast<std::uint64_t>(node)),
                    static_cast<std::uint64_t>(static_cast<std::uint32_t>(url_id)));
                node_path_into(table, vp, node, link_up, flow_hash, ecmp_path);
                mpath = &ecmp_path;
              }
              m.truth_path.assign(mpath->begin(), mpath->end());
              m.unreachable = mpath->empty();

              if (m.unreachable) {
                for (auto& t : m.traceroutes) {
                  t.error = true;
                  t.hops.clear();
                }
              } else {
                tracer.trace_triple_into(*mpath, prev, config_.flutter_prob, rng,
                                         m.traceroutes);
                const std::array<AsId, kNumAnomalies> censors =
                    registry_.first_censors_on_path(*mpath, url.category, day);
                for (const Anomaly a : kAllAnomalies) {
                  const auto ai = static_cast<std::size_t>(a);
                  const bool censored = censors[ai] != topo::kInvalidAs;
                  m.truth_censored[ai] = censored;
                  m.detected[ai] =
                      censored
                          ? !session_noise(day, node_index, url_id, a, config_.noise.fn(a))
                          : rng.bernoulli(config_.noise.fp(a));
                }
              }
              sink.on_measurement(m);
            }
            // The node's path becomes its flutter history; the old
            // history's buffer is refilled by the next cell.
            prev.swap(path);
          }
        }
      }
    }
    scheduled.swap(next_scheduled);
    has_session.swap(next_has_session);
  }
}

void Platform::run_days(util::Day day_begin, util::Day day_end,
                        const std::vector<MeasurementSink*>& sinks) const {
  if (day_begin < 0 || day_begin >= day_end || day_end > config_.num_days) {
    throw std::invalid_argument("Platform::run_days: day range outside the schedule");
  }
  if (sinks.empty()) throw std::invalid_argument("Platform::run_days: no workers");
  const std::size_t workers = sinks.size();
  const std::size_t num_vantages = vantages_.size();
  // One sink runs the range as one shard, priming once.
  const bool claim_days = workers > 1 && static_cast<std::size_t>(day_end - day_begin) >= workers;
  if (!claim_days && workers > num_vantages) {
    throw std::invalid_argument("Platform::run_days: more sinks than vantages to split");
  }
  const auto chunk_edge = [&](std::size_t w) {
    return static_cast<std::int32_t>(num_vantages * w / workers);
  };
  std::atomic<util::Day> next_day{day_begin};
  std::vector<std::exception_ptr> errors(workers);
  const auto work = [&](std::size_t w) {
    try {
      ShardScratch scratch(*this);
      if (claim_days) {
        // fetch_add hands each worker its days in ascending order.
        for (util::Day day = next_day.fetch_add(1); day < day_end;
             day = next_day.fetch_add(1)) {
          run_range(*sinks[w],
                    ShardRange{day, day + 1, 0, static_cast<std::int32_t>(num_vantages)},
                    scratch);
        }
      } else {
        // Seq is epoch-major, then destination, then vantage, so one
        // vantage chunk walked over the whole range ascends.
        run_range(*sinks[w], ShardRange{day_begin, day_end, chunk_edge(w), chunk_edge(w + 1)},
                  scratch);
      }
    } catch (...) {
      errors[w] = std::current_exception();
      next_day.store(day_end);  // the other workers stop at their next claim
    }
  };
  {
    std::vector<std::jthread> helpers;
    helpers.reserve(workers - 1);
    for (std::size_t w = 1; w < workers; ++w) helpers.emplace_back(work, w);
    work(0);
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

std::size_t Platform::num_run_days_sinks(util::Day num_days, std::size_t workers) const {
  if (num_days <= 0 || workers == 0) {
    throw std::invalid_argument("Platform::num_run_days_sinks: no days or no workers");
  }
  const auto days = static_cast<std::size_t>(num_days);
  if (days >= std::min<std::size_t>(workers, 4)) return std::min(workers, days);
  return std::min(workers, vantages_.size());
}

const bgp::ChurnTrajectory& Platform::churn_trajectory() const {
  std::call_once(trajectory_once_, [this] {
    trajectory_ = std::make_unique<const bgp::ChurnTrajectory>(
        graph_, config_.churn, seed_,
        static_cast<std::int64_t>(config_.num_days) * config_.epochs_per_day);
  });
  return *trajectory_;
}

void DatasetSummary::on_measurement(const Measurement& m) {
  // Validate first: a rejected measurement changes nothing.
  if (m.url_id < 0 || static_cast<std::size_t>(m.url_id) >= seen_urls_.size()) {
    throw std::out_of_range("DatasetSummary: URL id outside the URL list");
  }
  if (m.vantage < 0 || static_cast<std::size_t>(m.vantage) >= seen_vantages_.size()) {
    throw std::out_of_range("DatasetSummary: vantage outside the graph");
  }
  ++measurements_;
  if (m.unreachable) ++unreachable_;
  for (const Anomaly a : kAllAnomalies) {
    if (m.detected[static_cast<std::size_t>(a)]) {
      ++anomaly_counts_[static_cast<std::size_t>(a)];
    }
  }
  seen_vantages_[static_cast<std::size_t>(m.vantage)] = 1;
  seen_urls_[static_cast<std::size_t>(m.url_id)] = 1;
}

namespace {

// Ids of the set flags, ascending.
std::vector<std::int32_t> flagged_ids(const std::vector<std::uint8_t>& flags) {
  std::vector<std::int32_t> ids;
  for (std::size_t i = 0; i < flags.size(); ++i) {
    if (flags[i] != 0) ids.push_back(static_cast<std::int32_t>(i));
  }
  return ids;
}

void or_flags(std::vector<std::uint8_t>& into, const std::vector<std::uint8_t>& from) {
  for (std::size_t i = 0; i < from.size(); ++i) into[i] |= from[i];
}

void save_flags(util::ByteWriter& w, const std::vector<std::uint8_t>& flags) {
  const std::vector<std::int32_t> ids = flagged_ids(flags);
  w.size(ids.size());
  for (const std::int32_t id : ids) w.i32(id);
}

// Reads a count and strictly ascending ids in [0, bound) into flags of
// size `bound`.
std::vector<std::uint8_t> load_flags(util::ByteReader& r, std::int32_t bound,
                                     const char* what) {
  std::vector<std::uint8_t> flags(static_cast<std::size_t>(std::max(bound, 0)), 0);
  const std::size_t n = r.size();
  std::int32_t last = -1;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int32_t id = r.i32();
    if (id < 0 || id >= bound || id <= last) {
      throw util::SerdeError(std::string("DatasetSummary::load: ") + what + " id " +
                             std::to_string(id) +
                             " is negative, out of range, repeated or out of order");
    }
    flags[static_cast<std::size_t>(id)] = 1;
    last = id;
  }
  return flags;
}

}  // namespace

void DatasetSummary::merge(DatasetSummary&& other) {
  if (other.seen_vantages_.size() != seen_vantages_.size() ||
      other.seen_urls_.size() != seen_urls_.size()) {
    throw std::invalid_argument("DatasetSummary::merge: other graph size or URL count");
  }
  measurements_ += other.measurements_;
  unreachable_ += other.unreachable_;
  for (std::size_t i = 0; i < anomaly_counts_.size(); ++i) {
    anomaly_counts_[i] += other.anomaly_counts_[i];
  }
  or_flags(seen_vantages_, other.seen_vantages_);
  or_flags(seen_urls_, other.seen_urls_);
}

double DatasetSummary::anomaly_fraction(Anomaly a) const {
  return measurements_ == 0
             ? 0.0
             : static_cast<double>(anomaly_count(a)) / static_cast<double>(measurements_);
}

std::int64_t DatasetSummary::distinct_vantages() const {
  return std::count(seen_vantages_.begin(), seen_vantages_.end(), std::uint8_t{1});
}

std::int64_t DatasetSummary::distinct_urls() const {
  return std::count(seen_urls_.begin(), seen_urls_.end(), std::uint8_t{1});
}

std::int64_t DatasetSummary::distinct_countries() const {
  std::set<topo::CountryId> s;
  for (const std::int32_t vp : flagged_ids(seen_vantages_)) {
    s.insert(graph_->as_info(vp).country);
  }
  return static_cast<std::int64_t>(s.size());
}

void DatasetSummary::save(util::ByteWriter& w) const {
  w.i64(measurements_);
  w.i64(unreachable_);
  for (const std::int64_t c : anomaly_counts_) w.i64(c);
  save_flags(w, seen_vantages_);
  save_flags(w, seen_urls_);
}

void DatasetSummary::load(util::ByteReader& r) {
  const std::int64_t measurements = r.i64();
  const std::int64_t unreachable = r.i64();
  std::array<std::int64_t, kNumAnomalies> anomaly_counts{};
  for (std::int64_t& c : anomaly_counts) c = r.i64();
  std::vector<std::uint8_t> vantages = load_flags(r, graph_->num_ases(), "vantage");
  std::vector<std::uint8_t> urls =
      load_flags(r, static_cast<std::int32_t>(seen_urls_.size()), "URL");
  measurements_ = measurements;
  unreachable_ = unreachable;
  anomaly_counts_ = anomaly_counts;
  seen_vantages_ = std::move(vantages);
  seen_urls_ = std::move(urls);
}

}  // namespace ct::iclab
