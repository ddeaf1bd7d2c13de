#include "iclab/platform.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <latch>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>

#include "topo/generator.h"
#include "util/serde.h"

namespace ct::iclab {
namespace {

struct TestWorld {
  topo::AsGraph graph;
  censor::CensorRegistry registry;
  net::AddressPlan plan;
  PlatformConfig config;

  static topo::AsGraph make_graph() {
    topo::TopologyConfig cfg;
    cfg.num_ases = 100;
    cfg.num_tier1 = 4;
    cfg.num_transit = 20;
    cfg.num_countries = 12;
    return topo::generate_topology(cfg, 21);
  }

  explicit TestWorld(std::int32_t num_censors = 5)
      : graph(make_graph()),
        registry(censor::generate_censors(graph,
                                          [&] {
                                            censor::CensorConfig c;
                                            c.num_censors = num_censors;
                                            return c;
                                          }(),
                                          21)),
        plan(net::allocate_prefixes(graph, net::AddressPlanConfig{})) {
    config.num_vantages = 8;
    config.num_urls = 12;
    config.num_dest_ases = 6;
    config.test_prob = 0.5;
    config.num_days = 7;
    config.epochs_per_day = 2;
  }
};

class CollectingSink : public MeasurementSink {
 public:
  void on_measurement(const Measurement& m) override { measurements.push_back(m); }
  void on_path(util::Day day, std::int32_t epoch, topo::AsId vantage, topo::AsId dest,
               const std::vector<topo::AsId>& path) override {
    ++path_calls;
    last_day = day;
    last_epoch = epoch;
    if (!path.empty()) {
      EXPECT_EQ(path.front(), vantage);
      EXPECT_EQ(path.back(), dest);
    }
  }
  void on_day_start(util::Day day) override { days.push_back(day); }

  std::vector<Measurement> measurements;
  std::vector<util::Day> days;
  std::int64_t path_calls = 0;
  util::Day last_day = -1;
  std::int32_t last_epoch = -1;
};

TEST(Endpoints, Deterministic) {
  TestWorld w;
  const Endpoints a = choose_endpoints(w.graph, w.config, 3);
  const Endpoints b = choose_endpoints(w.graph, w.config, 3);
  EXPECT_EQ(a.vantages, b.vantages);
  EXPECT_EQ(a.dest_ases, b.dest_ases);
  ASSERT_EQ(a.urls.size(), b.urls.size());
  for (std::size_t i = 0; i < a.urls.size(); ++i) {
    EXPECT_EQ(a.urls[i].name, b.urls[i].name);
    EXPECT_EQ(a.urls[i].category, b.urls[i].category);
    EXPECT_EQ(a.urls[i].dest_as, b.urls[i].dest_as);
  }
}

TEST(Endpoints, RespectsCounts) {
  TestWorld w;
  const Endpoints e = choose_endpoints(w.graph, w.config, 3);
  EXPECT_EQ(e.vantages.size(), 8u);
  EXPECT_EQ(e.dest_ases.size(), 6u);
  EXPECT_EQ(e.urls.size(), 12u);
  // URLs map onto destination ASes.
  for (const auto& url : e.urls) {
    EXPECT_NE(std::find(e.dest_ases.begin(), e.dest_ases.end(), url.dest_as),
              e.dest_ases.end());
  }
  // Vantages and destinations are disjoint stub ASes.
  for (const auto vp : e.vantages) {
    EXPECT_EQ(w.graph.as_info(vp).tier, topo::AsTier::kStub);
    EXPECT_EQ(std::find(e.dest_ases.begin(), e.dest_ases.end(), vp), e.dest_ases.end());
  }
}

TEST(Endpoints, ValidatesConfig) {
  TestWorld w;
  PlatformConfig bad = w.config;
  bad.num_vantages = 0;
  EXPECT_THROW(choose_endpoints(w.graph, bad, 1), std::invalid_argument);
}

TEST(Platform, ValidatesConfig) {
  TestWorld w;
  PlatformConfig bad = w.config;
  bad.num_days = 0;
  EXPECT_THROW(Platform(w.graph, w.registry, w.plan, bad, 1), std::invalid_argument);
  bad = w.config;
  bad.epochs_per_day = 0;
  EXPECT_THROW(Platform(w.graph, w.registry, w.plan, bad, 1), std::invalid_argument);
  bad = w.config;
  bad.vp_nodes_per_as = 0;
  EXPECT_THROW(Platform(w.graph, w.registry, w.plan, bad, 1), std::invalid_argument);
}

TEST(Platform, RejectsInconsistentEndpoints) {
  TestWorld w;
  const Endpoints good = choose_endpoints(w.graph, w.config, 9);
  const auto build = [&w](Endpoints endpoints) {
    Platform(w.graph, w.registry, w.plan, w.config, 9, std::move(endpoints));
  };
  EXPECT_NO_THROW(build(good));
  // Re-labelled URLs (as the Tor-bridge study makes) keep their ids and hosts.
  Endpoints relabelled = good;
  for (auto& url : relabelled.urls) {
    url.category = censor::UrlCategory::kCircumvention;
    url.name = "bridge-" + std::to_string(url.id);
  }
  EXPECT_NO_THROW(build(relabelled));

  const auto rejects = [&](const std::string& what, const auto& mutate) {
    Endpoints bad = good;
    mutate(bad);
    EXPECT_THROW(build(std::move(bad)), std::invalid_argument) << what;
  };
  const topo::AsId num_ases = w.graph.num_ases();
  rejects("URL id off its index", [](Endpoints& e) { e.urls[1].id = 5; });
  rejects("URL hosted outside dest_ases",
          [](Endpoints& e) { e.urls[0].dest_as = e.vantages[0]; });
  rejects("URL hosted past the last AS", [num_ases](Endpoints& e) {
    e.urls[0].dest_as = num_ases;
  });
  for (const bool dests : {true, false}) {
    const std::string list = dests ? "dest_ases " : "vantages ";
    const auto of = [dests](Endpoints& e) -> std::vector<topo::AsId>& {
      return dests ? e.dest_ases : e.vantages;
    };
    rejects(list + "unsorted", [&](Endpoints& e) { std::swap(of(e)[0], of(e)[1]); });
    rejects(list + "repeated", [&](Endpoints& e) { of(e).push_back(of(e).back()); });
    rejects(list + "negative", [&](Endpoints& e) { of(e).insert(of(e).begin(), -1); });
    rejects(list + "past the last AS", [&](Endpoints& e) { of(e).push_back(num_ases); });
  }
}

TEST(Platform, RefusesCellKeysThatCouldAlias) {
  // The detector-noise stream packs a URL id, and the ECMP flow hash a
  // node index, into 20 bits; one id more would put two cells on one
  // stream.  The refusal comes from the configuration alone, before any
  // URL is built.
  TestWorld w;
  const auto too_many = static_cast<std::int32_t>(kMaxCellKeyIds + 1);
  for (const bool urls : {true, false}) {
    PlatformConfig bad = w.config;
    (urls ? bad.num_urls : bad.vp_nodes_per_as) = too_many;
    const std::string what = urls ? "URLs" : "nodes per AS";
    EXPECT_THROW(choose_endpoints(w.graph, bad, 9), std::invalid_argument) << what;
    EXPECT_THROW(Platform(w.graph, w.registry, w.plan, bad, 9), std::invalid_argument) << what;
  }
  PlatformConfig bad = w.config;
  bad.vp_nodes_per_as = too_many;
  EXPECT_THROW(Platform(w.graph, w.registry, w.plan, bad, 9, choose_endpoints(w.graph, w.config, 9)),
               std::invalid_argument);
  PlatformConfig widest = w.config;
  widest.vp_nodes_per_as = static_cast<std::int32_t>(kMaxCellKeyIds);
  EXPECT_NO_THROW(Platform(w.graph, w.registry, w.plan, widest, 9));
}

TEST(Platform, RunIsDeterministic) {
  TestWorld w;
  Platform p1(w.graph, w.registry, w.plan, w.config, 9);
  Platform p2(w.graph, w.registry, w.plan, w.config, 9);
  CollectingSink s1, s2;
  p1.run(s1);
  p2.run(s2);
  ASSERT_EQ(s1.measurements.size(), s2.measurements.size());
  for (std::size_t i = 0; i < s1.measurements.size(); ++i) {
    EXPECT_EQ(s1.measurements[i].vantage, s2.measurements[i].vantage);
    EXPECT_EQ(s1.measurements[i].url_id, s2.measurements[i].url_id);
    EXPECT_EQ(s1.measurements[i].detected, s2.measurements[i].detected);
    EXPECT_EQ(s1.measurements[i].truth_path, s2.measurements[i].truth_path);
  }
}

// Folds every field of every emitted record, and every on_path and
// on_day_start call, into one 64-bit digest in call order.
class DigestSink : public MeasurementSink {
 public:
  void on_measurement(const Measurement& m) override {
    fold(1);
    fold(m.vantage);
    fold(m.vp_node);
    fold(m.url_id);
    fold(m.day);
    fold(m.epoch_in_day);
    fold(m.seq);
    for (const bool d : m.detected) fold(d);
    for (const auto& t : m.traceroutes) {
      fold(t.error);
      fold(t.hops.size());
      for (const auto& hop : t.hops) {
        fold(hop.has_value());
        if (hop) fold(*hop);
      }
    }
    fold(m.unreachable);
    ++(m.unreachable ? unreachable : reachable);
    fold_path(m.truth_path);
    for (const bool c : m.truth_censored) fold(c);
  }
  void on_path(util::Day day, std::int32_t epoch, topo::AsId vantage, topo::AsId dest,
               const std::vector<topo::AsId>& path) override {
    fold(2);
    fold(day);
    fold(epoch);
    fold(vantage);
    fold(dest);
    fold_path(path);
  }
  void on_day_start(util::Day day) override {
    fold(3);
    fold(day);
  }

  std::uint64_t digest = 0;
  std::int64_t reachable = 0;
  std::int64_t unreachable = 0;

 private:
  template <typename T>
  void fold(T value) {
    digest = util::mix64(digest, static_cast<std::uint64_t>(value));
  }
  void fold_path(const std::vector<topo::AsId>& path) {
    fold(path.size());
    for (const topo::AsId as : path) fold(as);
  }
};

TEST(Platform, StreamDigestIsPinned) {
  // The emitted stream, byte for byte, for the serial run and for one
  // day x vantage tiling fed through run_shard in plan order, with and
  // without the ECMP flow hash, and under churn heavy enough to cut
  // vantages off (unreachable records).  Reused emission buffers that
  // leak a stale hop, path or flag change these digests.
  struct Expected {
    bool ecmp;
    bool heavy_churn;
    std::uint64_t serial;
    std::uint64_t tiled;
  };
  // Recorded from the emission kernel that rendered fresh buffers per
  // measurement; never edit these to make a change pass.
  const Expected cases[] = {
      {false, false, 0x8257b1e5a66cb189ULL, 0x651f0182d355a003ULL},
      {true, false, 0x06ec3a2edf51010eULL, 0xcb96aac6f51cfb87ULL},
      {false, true, 0xe5f4d0807783aa3aULL, 0x7ef0c74bed46153dULL},
      {true, true, 0xfa1cd23412f42d0aULL, 0x7c39b936914b4a75ULL},
  };
  for (const Expected& expected : cases) {
    TestWorld w;
    w.config.ecmp_multipath = expected.ecmp;
    if (expected.heavy_churn) {
      w.config.churn.stable_fail_prob = 0.1;
      w.config.churn.repair_prob = 0.5;
    }
    Platform platform(w.graph, w.registry, w.plan, w.config, 9);
    DigestSink serial;
    platform.run(serial);
    DigestSink tiled;
    for (const ShardRange& range : plan_shard_grid(w.config.num_days, w.config.num_vantages,
                                                   3, 2)) {
      platform.run_shard(tiled, range);
    }
    const std::string label = std::string("ecmp ") + (expected.ecmp ? "on" : "off") +
                              ", churn " + (expected.heavy_churn ? "heavy" : "default");
    EXPECT_EQ(serial.digest, expected.serial) << label;
    EXPECT_EQ(tiled.digest, expected.tiled) << label;
    if (expected.heavy_churn) {
      EXPECT_GT(serial.unreachable, 0) << label;
      EXPECT_GT(serial.reachable, serial.unreachable) << label;
    }
  }
}

TEST(Platform, FlutterHistoryDigestIsPinned) {
  // With flutter_prob 1.0 every triple whose node path changed since the
  // previous epoch renders one traceroute along that previous path, so
  // the digests pin the flutter history every measurement reads: carried
  // within a day, across days and primed by a range starting mid-run.
  // A sparse schedule leaves most (vantage, destination) cells without a
  // session on a given day, so a history those cells fail to keep, or
  // keep stale, shows.  Three layouts: the serial run, one run_shard per
  // day (each day primed; it emits the serial stream in serial order),
  // and a 2 x 3 day x vantage grid fed through run_shard in plan order.
  struct Expected {
    bool heavy_churn;
    std::uint64_t serial;
    std::uint64_t grid;
  };
  // Recorded by running this case on the kernel that computed and primed
  // every cell's node path, before cells without a session were skipped;
  // never edit these to make a change pass.
  const Expected cases[] = {
      {false, 0x9f7ca059629d8639ULL, 0x757571d7f3fee9ddULL},
      {true, 0x10b9620331d9f8a1ULL, 0x3fb9082d2938d8c1ULL},
  };
  for (const Expected& expected : cases) {
    TestWorld w;
    w.config.flutter_prob = 1.0;
    w.config.test_prob = 0.2;
    w.config.epochs_per_day = 3;
    if (expected.heavy_churn) {
      w.config.churn.stable_fail_prob = 0.1;
      w.config.churn.repair_prob = 0.5;
    }
    Platform platform(w.graph, w.registry, w.plan, w.config, 9);
    DigestSink serial;
    platform.run(serial);
    DigestSink daily;
    for (util::Day day = 0; day < w.config.num_days; ++day) {
      platform.run_shard(daily, ShardRange{day, day + 1, 0, w.config.num_vantages});
    }
    DigestSink grid;
    for (const ShardRange& range : plan_shard_grid(w.config.num_days, w.config.num_vantages,
                                                   2, 3)) {
      platform.run_shard(grid, range);
    }
    const std::string label =
        std::string("churn ") + (expected.heavy_churn ? "heavy" : "default");
    EXPECT_EQ(serial.digest, expected.serial) << label;
    EXPECT_EQ(daily.digest, expected.serial) << label;
    EXPECT_EQ(grid.digest, expected.grid) << label;
  }
}

TEST(Platform, EmitsAllDaysAndPaths) {
  TestWorld w;
  Platform platform(w.graph, w.registry, w.plan, w.config, 9);
  CollectingSink sink;
  platform.run(sink);
  ASSERT_EQ(sink.days.size(), 7u);
  EXPECT_EQ(sink.days.front(), 0);
  EXPECT_EQ(sink.days.back(), 6);
  // on_path: days * epochs * vantage ASes * dests.
  EXPECT_EQ(sink.path_calls, 7LL * 2 * 8 * 6);
  EXPECT_GT(sink.measurements.size(), 0u);
}

TEST(Platform, SessionsCoverEveryEpochAndNode) {
  TestWorld w;
  Platform platform(w.graph, w.registry, w.plan, w.config, 9);
  CollectingSink sink;
  platform.run(sink);
  // Group measurements by (vantage, url, day): each session must contain
  // one measurement per (node, epoch).
  std::map<std::tuple<topo::AsId, std::int32_t, util::Day>, std::set<std::pair<int, int>>>
      sessions;
  for (const auto& m : sink.measurements) {
    sessions[{m.vantage, m.url_id, m.day}].emplace(m.vp_node, m.epoch_in_day);
  }
  const auto expected = static_cast<std::size_t>(w.config.vp_nodes_per_as) *
                        static_cast<std::size_t>(w.config.epochs_per_day);
  for (const auto& [key, slots] : sessions) {
    EXPECT_EQ(slots.size(), expected);
  }
  EXPECT_GT(sessions.size(), 10u);
}

TEST(Platform, TruthConsistency) {
  TestWorld w;
  Platform platform(w.graph, w.registry, w.plan, w.config, 9);
  CollectingSink sink;
  platform.run(sink);
  for (const auto& m : sink.measurements) {
    if (m.unreachable) {
      EXPECT_TRUE(m.truth_path.empty());
      for (const auto& t : m.traceroutes) EXPECT_TRUE(t.error);
      continue;
    }
    ASSERT_FALSE(m.truth_path.empty());
    EXPECT_EQ(m.truth_path.front(), m.vantage);
    const auto& url = platform.urls()[static_cast<std::size_t>(m.url_id)];
    EXPECT_EQ(m.truth_path.back(), url.dest_as);
    // Ground-truth flags match the registry on the truth path.
    for (const auto a : censor::kAllAnomalies) {
      EXPECT_EQ(m.truth_censored[static_cast<std::size_t>(a)],
                w.registry.path_censored(m.truth_path, url.category, a, m.day));
    }
  }
}

TEST(Platform, NoNoiseMeansDetectionEqualsTruth) {
  TestWorld w;
  w.config.noise.false_positive.fill(0.0);
  w.config.noise.false_negative.fill(0.0);
  Platform platform(w.graph, w.registry, w.plan, w.config, 9);
  CollectingSink sink;
  platform.run(sink);
  std::int64_t censored = 0;
  for (const auto& m : sink.measurements) {
    EXPECT_EQ(m.detected, m.truth_censored);
    for (const bool d : m.detected) censored += d ? 1 : 0;
  }
  EXPECT_GT(censored, 0) << "scenario produced no censored measurement at all";
}

TEST(Platform, SiblingNodesCanTakeDifferentPaths) {
  TestWorld w;
  Platform platform(w.graph, w.registry, w.plan, w.config, 9);
  CollectingSink sink;
  platform.run(sink);
  std::map<std::tuple<topo::AsId, std::int32_t, util::Day, std::int32_t>,
           std::set<std::vector<topo::AsId>>>
      by_session_epoch;
  bool any_divergence = false;
  for (const auto& m : sink.measurements) {
    if (m.unreachable) continue;
    auto& paths = by_session_epoch[{m.vantage, m.url_id, m.day, m.epoch_in_day}];
    paths.insert(m.truth_path);
    any_divergence = any_divergence || paths.size() > 1;
  }
  EXPECT_TRUE(any_divergence) << "multihomed vantage nodes never diverged";
}

TEST(Platform, EcmpMultipathSpreadsFlowsAcrossEqualCostPaths) {
  TestWorld w;
  w.config.ecmp_multipath = true;
  Platform platform(w.graph, w.registry, w.plan, w.config, 9);
  CollectingSink sink;
  platform.run(sink);
  // Under ECMP the same (vantage node, dest, epoch) can carry different
  // URLs on different equal-cost paths — the one-path-per-epoch premise
  // the kMultipath regime deliberately breaks.
  std::map<std::tuple<topo::AsId, int, topo::AsId, util::Day, std::int32_t>,
           std::set<std::vector<topo::AsId>>>
      by_flow_slot;
  bool any_divergence = false;
  for (const auto& m : sink.measurements) {
    if (m.unreachable) continue;
    auto& paths =
        by_flow_slot[{m.vantage, m.vp_node, m.truth_path.back(), m.day, m.epoch_in_day}];
    paths.insert(m.truth_path);
    any_divergence = any_divergence || paths.size() > 1;
  }
  EXPECT_TRUE(any_divergence) << "ECMP never spread flows across alternates";
  // Still deterministic under ECMP.
  Platform replay(w.graph, w.registry, w.plan, w.config, 9);
  CollectingSink sink2;
  replay.run(sink2);
  ASSERT_EQ(sink.measurements.size(), sink2.measurements.size());
  for (std::size_t i = 0; i < sink.measurements.size(); ++i) {
    EXPECT_EQ(sink.measurements[i].truth_path, sink2.measurements[i].truth_path);
    EXPECT_EQ(sink.measurements[i].detected, sink2.measurements[i].detected);
  }
}

TEST(Platform, CensorsStayActivePastYearBoundary) {
  // Regression for the satellite fix: policies defaulted to
  // active_to = kDaysPerYear, so every censor went dark after day 364
  // and multi-year runs measured a censorless world in year two.
  TestWorld w;
  w.config.num_days = util::kDaysPerYear + 14;
  w.config.noise.false_positive.fill(0.0);
  w.config.noise.false_negative.fill(0.0);
  Platform platform(w.graph, w.registry, w.plan, w.config, 9);
  CollectingSink sink;
  platform.run(sink);
  std::int64_t censored_past_year = 0;
  for (const auto& m : sink.measurements) {
    if (m.day < util::kDaysPerYear) continue;
    for (std::size_t a = 0; a < censor::kNumAnomalies; ++a) {
      if (m.truth_censored[a]) {
        ++censored_past_year;
        EXPECT_TRUE(m.detected[a]);  // noiseless: detection equals truth
      }
    }
  }
  EXPECT_GT(censored_past_year, 0)
      << "no censorship observed after day " << util::kDaysPerYear
      << " — censors went dark at the year boundary";
}

TEST(Platform, RunDaysMatchesSerialRun) {
  // Whole-day tasks on three workers: every sink's stream ascends, and
  // their union is the serial run's stream over those days.
  TestWorld w;
  w.config.num_days = 9;
  const Platform platform(w.graph, w.registry, w.plan, w.config, 9);
  CollectingSink serial;
  platform.run(serial);
  std::vector<std::int64_t> expected;
  for (const Measurement& m : serial.measurements) {
    if (m.day >= 2 && m.day < 8) expected.push_back(m.seq);
  }
  ASSERT_FALSE(expected.empty());

  std::vector<CollectingSink> workers(3);
  platform.run_days(2, 8, {&workers[0], &workers[1], &workers[2]});
  std::vector<std::int64_t> got;
  std::vector<util::Day> days;
  for (const CollectingSink& sink : workers) {
    EXPECT_TRUE(std::is_sorted(sink.days.begin(), sink.days.end()));
    std::vector<std::int64_t> seqs;
    for (const Measurement& m : sink.measurements) seqs.push_back(m.seq);
    EXPECT_TRUE(std::is_sorted(seqs.begin(), seqs.end()));
    got.insert(got.end(), seqs.begin(), seqs.end());
    days.insert(days.end(), sink.days.begin(), sink.days.end());
  }
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected);
  std::sort(days.begin(), days.end());
  EXPECT_EQ(days, (std::vector<util::Day>{2, 3, 4, 5, 6, 7}));

  EXPECT_THROW(platform.run_days(2, 8, {}), std::invalid_argument);
  EXPECT_THROW(platform.run_days(3, 3, {&workers[0]}), std::invalid_argument);
  EXPECT_THROW(platform.run_days(0, 10, {&workers[0]}), std::invalid_argument);
}

TEST(Platform, RunDaysSplitsVantagesOnShortRanges) {
  // Fewer days than sinks: sink w runs vantage chunk w of the whole
  // range, whatever the host's core count.  Each sink's stream ascends
  // and holds exactly the serial run's records of its chunk, and the
  // union is the serial run's stream over the range.
  TestWorld w;
  w.config.num_days = 9;
  const Platform platform(w.graph, w.registry, w.plan, w.config, 9);
  const std::vector<topo::AsId>& vantages = platform.vantages();
  const std::size_t num_vp = vantages.size();
  CollectingSink serial;
  platform.run(serial);
  const auto vantage_index = [&](topo::AsId as) {
    return static_cast<std::size_t>(std::find(vantages.begin(), vantages.end(), as) -
                                    vantages.begin());
  };

  constexpr std::size_t kSinks = 4;
  ASSERT_GE(num_vp, kSinks);
  for (const util::Day days : {1, 2, 3}) {
    const util::Day day_begin = 4;  // mid-schedule: every chunk primes
    const util::Day day_end = day_begin + days;
    SCOPED_TRACE("days=" + std::to_string(days));
    std::vector<CollectingSink> sinks(kSinks);
    platform.run_days(day_begin, day_end, {&sinks[0], &sinks[1], &sinks[2], &sinks[3]});

    std::vector<util::Day> range_days;
    for (util::Day d = day_begin; d < day_end; ++d) range_days.push_back(d);
    std::vector<std::int64_t> all;
    for (std::size_t s = 0; s < kSinks; ++s) {
      const std::size_t chunk_begin = num_vp * s / kSinks;
      const std::size_t chunk_end = num_vp * (s + 1) / kSinks;
      std::vector<std::int64_t> expected;
      for (const Measurement& m : serial.measurements) {
        const std::size_t vi = vantage_index(m.vantage);
        if (m.day >= day_begin && m.day < day_end && vi >= chunk_begin && vi < chunk_end) {
          expected.push_back(m.seq);
        }
      }
      std::vector<std::int64_t> seqs;
      for (const Measurement& m : sinks[s].measurements) seqs.push_back(m.seq);
      EXPECT_TRUE(std::is_sorted(seqs.begin(), seqs.end())) << "sink " << s;
      EXPECT_EQ(seqs, expected) << "sink " << s;
      EXPECT_EQ(sinks[s].days, range_days) << "sink " << s;
      all.insert(all.end(), seqs.begin(), seqs.end());
    }
    std::vector<std::int64_t> expected_all;
    for (const Measurement& m : serial.measurements) {
      if (m.day >= day_begin && m.day < day_end) expected_all.push_back(m.seq);
    }
    ASSERT_FALSE(expected_all.empty());
    std::sort(all.begin(), all.end());
    EXPECT_EQ(all, expected_all);
  }

  // More sinks than vantages: a short range has no chunk for every
  // sink, while a range with a day per sink still claims days.
  std::vector<CollectingSink> many(num_vp + 1);
  std::vector<MeasurementSink*> targets;
  for (CollectingSink& sink : many) targets.push_back(&sink);
  EXPECT_THROW(platform.run_days(4, 6, targets), std::invalid_argument);
  for (const CollectingSink& sink : many) EXPECT_TRUE(sink.measurements.empty());
  ASSERT_LE(many.size(), static_cast<std::size_t>(w.config.num_days));
  platform.run_days(0, w.config.num_days, targets);
  std::vector<std::int64_t> got;
  for (const CollectingSink& sink : many) {
    for (const Measurement& m : sink.measurements) got.push_back(m.seq);
  }
  std::sort(got.begin(), got.end());
  std::vector<std::int64_t> expected;
  for (const Measurement& m : serial.measurements) expected.push_back(m.seq);
  EXPECT_EQ(got, expected);
}

TEST(Platform, RunDaysSinkCountPicksClaimsOrChunks) {
  // Day claims from min(workers, 4) days on, on at most a worker per
  // day; vantage chunks, at most one per vantage, below that.
  TestWorld w;
  w.config.num_days = 9;
  const Platform platform(w.graph, w.registry, w.plan, w.config, 9);
  const std::size_t num_vp = platform.vantages().size();
  ASSERT_GE(num_vp, 4U);
  EXPECT_EQ(platform.num_run_days_sinks(28, 4), 4U);
  EXPECT_EQ(platform.num_run_days_sinks(28, 32), 28U);
  EXPECT_EQ(platform.num_run_days_sinks(4, 32), 4U);
  EXPECT_EQ(platform.num_run_days_sinks(3, 2), 2U);
  EXPECT_EQ(platform.num_run_days_sinks(1, 1), 1U);
  EXPECT_EQ(platform.num_run_days_sinks(3, 4), 4U);
  EXPECT_EQ(platform.num_run_days_sinks(1, 4), 4U);
  EXPECT_EQ(platform.num_run_days_sinks(3, 1000), num_vp);
  EXPECT_THROW(platform.num_run_days_sinks(0, 4), std::invalid_argument);
  EXPECT_THROW(platform.num_run_days_sinks(3, 0), std::invalid_argument);
}

TEST(ChurnTrajectory, ConcurrentFirstUseRecordsOnce) {
  // Four threads ask a fresh platform for its trajectory at once: one
  // recording, which all of them see, equal to a standalone recording
  // of the whole multi-year schedule.
  TestWorld w;
  w.config.num_days = 3 * util::kDaysPerYear;
  const Platform platform(w.graph, w.registry, w.plan, w.config, 9);
  constexpr int kThreads = 4;
  std::vector<const bgp::ChurnTrajectory*> seen(kThreads, nullptr);
  {
    std::latch start(kThreads);
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        seen[static_cast<std::size_t>(t)] = &platform.churn_trajectory();
      });
    }
  }
  for (const bgp::ChurnTrajectory* trajectory : seen) EXPECT_EQ(trajectory, seen[0]);

  const std::int64_t epochs =
      static_cast<std::int64_t>(w.config.num_days) * w.config.epochs_per_day;
  const bgp::ChurnTrajectory expected(w.graph, w.config.churn, 9, epochs);
  const bgp::ChurnTrajectory& got = *seen[0];
  ASSERT_EQ(got.num_epochs(), epochs);
  std::vector<bool> got_up;
  std::vector<bool> expected_up;
  for (std::int64_t e = 0; e < epochs; ++e) {
    ASSERT_TRUE(std::ranges::equal(got.flips(e), expected.flips(e))) << "epoch " << e;
    ASSERT_EQ(got.total_failures(e), expected.total_failures(e)) << "epoch " << e;
    ASSERT_EQ(got.total_repairs(e), expected.total_repairs(e)) << "epoch " << e;
  }
  got.link_state_at(epochs - 1, got_up);
  expected.link_state_at(epochs - 1, expected_up);
  EXPECT_EQ(got_up, expected_up);
}

TEST(DatasetSummary, CountsDistincts) {
  TestWorld w;
  Platform platform(w.graph, w.registry, w.plan, w.config, 9);
  DatasetSummary summary(w.graph, w.config.num_urls);
  platform.run(summary);
  EXPECT_GT(summary.measurements(), 0);
  EXPECT_LE(summary.distinct_vantages(), 8);
  EXPECT_LE(summary.distinct_urls(), 12);
  EXPECT_GT(summary.distinct_countries(), 0);
  double total_fraction = 0.0;
  for (const auto a : censor::kAllAnomalies) {
    EXPECT_GE(summary.anomaly_count(a), 0);
    total_fraction += summary.anomaly_fraction(a);
  }
  EXPECT_LT(total_fraction, 1.0);
}

// The checkpoint bytes of a summary whose distinct sets are std::sets:
// the layout DatasetSummary::save must keep.
std::string reference_summary_bytes(const std::vector<Measurement>& stream) {
  std::int64_t unreachable = 0;
  std::array<std::int64_t, censor::kNumAnomalies> anomalies{};
  std::set<topo::AsId> vantages;
  std::set<std::int32_t> urls;
  for (const Measurement& m : stream) {
    unreachable += m.unreachable ? 1 : 0;
    for (std::size_t a = 0; a < censor::kNumAnomalies; ++a) anomalies[a] += m.detected[a];
    vantages.insert(m.vantage);
    urls.insert(m.url_id);
  }
  util::ByteWriter w;
  w.i64(static_cast<std::int64_t>(stream.size()));
  w.i64(unreachable);
  for (const std::int64_t c : anomalies) w.i64(c);
  util::save_set(w, vantages, [](util::ByteWriter& w, topo::AsId as) { w.i32(as); });
  util::save_set(w, urls, [](util::ByteWriter& w, std::int32_t url) { w.i32(url); });
  return w.take();
}

std::string summary_bytes(const DatasetSummary& summary) {
  util::ByteWriter w;
  summary.save(w);
  return w.take();
}

TEST(DatasetSummary, SaveBytesMatchSetReference) {
  TestWorld w;
  // Few URLs per vantage-day, so the two halves see different subsets.
  w.config.test_prob = 0.05;
  Platform platform(w.graph, w.registry, w.plan, w.config, 9);
  CollectingSink sink;
  platform.run(sink);
  ASSERT_GT(sink.measurements.size(), 0u);

  DatasetSummary serial(w.graph, w.config.num_urls);
  DatasetSummary first(w.graph, w.config.num_urls);
  DatasetSummary second(w.graph, w.config.num_urls);
  const std::size_t half = sink.measurements.size() / 2;
  for (std::size_t i = 0; i < sink.measurements.size(); ++i) {
    serial.on_measurement(sink.measurements[i]);
    (i < half ? first : second).on_measurement(sink.measurements[i]);
  }
  const std::string expected = reference_summary_bytes(sink.measurements);
  EXPECT_EQ(summary_bytes(serial), expected);

  // The flags OR under merge, in either order.
  DatasetSummary merged(w.graph, w.config.num_urls);
  merged.merge(DatasetSummary(second));
  merged.merge(DatasetSummary(first));
  EXPECT_EQ(summary_bytes(merged), expected);
  EXPECT_EQ(merged.distinct_vantages(), serial.distinct_vantages());
  EXPECT_EQ(merged.distinct_urls(), serial.distinct_urls());
  EXPECT_EQ(merged.distinct_countries(), serial.distinct_countries());

  // A round trip keeps the bytes and the distinct counts.
  DatasetSummary loaded(w.graph, w.config.num_urls);
  util::ByteReader r(expected);
  loaded.load(r);
  r.expect_end();
  EXPECT_EQ(summary_bytes(loaded), expected);
  EXPECT_EQ(loaded.distinct_vantages(), serial.distinct_vantages());
  EXPECT_EQ(loaded.distinct_urls(), serial.distinct_urls());
}

TEST(DatasetSummary, LoadRefusesBadIds) {
  TestWorld w;
  Platform platform(w.graph, w.registry, w.plan, w.config, 9);
  DatasetSummary summary(w.graph, w.config.num_urls);
  platform.run(summary);
  const std::string before = summary_bytes(summary);

  // A payload with the given vantage and URL id lists.
  auto payload = [](const std::vector<std::int32_t>& vantages,
                    const std::vector<std::int32_t>& urls) {
    util::ByteWriter pw;
    pw.i64(10);
    pw.i64(1);
    for (std::size_t a = 0; a < censor::kNumAnomalies; ++a) pw.i64(2);
    for (const auto* ids : {&vantages, &urls}) {
      pw.size(ids->size());
      for (const std::int32_t id : *ids) pw.i32(id);
    }
    return pw.take();
  };
  const std::int32_t num_ases = w.graph.num_ases();
  const std::int32_t num_urls = w.config.num_urls;
  const std::vector<std::pair<std::vector<std::int32_t>, std::vector<std::int32_t>>> bad = {
      {{-1, 3}, {0}},            // negative vantage
      {{3, num_ases}, {0}},      // vantage past the graph
      {{3, 3}, {0}},             // repeated vantage
      {{5, 3}, {0}},             // vantages out of order
      {{3}, {-1}},               // negative URL
      {{3}, {0, num_urls}},      // URL past the list
      {{3}, {2, 2}},             // repeated URL
      {{3}, {4, 1}},             // URLs out of order
  };
  for (const auto& [vantages, urls] : bad) {
    const std::string bytes = payload(vantages, urls);
    util::ByteReader r(bytes);
    EXPECT_THROW(summary.load(r), util::SerdeError);
    EXPECT_EQ(summary_bytes(summary), before) << "a refused load changed the summary";
  }
  // The same layout with valid ids loads.
  const std::string good = payload({3, num_ases - 1}, {0, num_urls - 1});
  util::ByteReader r(good);
  summary.load(r);
  EXPECT_EQ(summary_bytes(summary), good);
  EXPECT_EQ(summary.distinct_vantages(), 2);
  EXPECT_EQ(summary.distinct_urls(), 2);
}

TEST(DatasetSummary, RefusesUrlIdsPastTheList) {
  // The URL list bounds the ids: a measurement past it throws and
  // changes nothing, and a save/load/save round trip keeps the bytes.
  TestWorld w;
  Platform platform(w.graph, w.registry, w.plan, w.config, 9);
  CollectingSink sink;
  platform.run(sink);
  ASSERT_FALSE(sink.measurements.empty());
  DatasetSummary summary(w.graph, w.config.num_urls);
  for (const Measurement& m : sink.measurements) summary.on_measurement(m);
  const std::string before = summary_bytes(summary);

  for (const std::int32_t url_id : {-1, w.config.num_urls}) {
    Measurement bad = sink.measurements.front();
    bad.url_id = url_id;
    EXPECT_THROW(summary.on_measurement(bad), std::out_of_range) << url_id;
    EXPECT_EQ(summary_bytes(summary), before) << "a refused measurement changed the summary";
  }

  DatasetSummary loaded(w.graph, w.config.num_urls);
  util::ByteReader r(before);
  loaded.load(r);
  r.expect_end();
  EXPECT_EQ(summary_bytes(loaded), before);
  EXPECT_EQ(loaded.distinct_urls(), summary.distinct_urls());
}

TEST(SinkFanout, ForwardsToAll) {
  TestWorld w;
  Platform platform(w.graph, w.registry, w.plan, w.config, 9);
  CollectingSink a, b;
  SinkFanout fanout;
  fanout.add(&a);
  fanout.add(&b);
  platform.run(fanout);
  EXPECT_EQ(a.measurements.size(), b.measurements.size());
  EXPECT_EQ(a.path_calls, b.path_calls);
  EXPECT_GT(a.measurements.size(), 0u);
}

}  // namespace
}  // namespace ct::iclab
