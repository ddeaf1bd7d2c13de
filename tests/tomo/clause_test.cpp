#include "tomo/clause.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "util/serde.h"

namespace ct::tomo {
namespace {

TEST(PathPool, InternsAndDeduplicates) {
  PathPool pool;
  const auto a = pool.intern({1, 2, 3});
  const auto b = pool.intern({1, 2, 4});
  const auto c = pool.intern({1, 2, 3});
  EXPECT_EQ(a, c);
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.get(a), (std::vector<topo::AsId>{1, 2, 3}));
  EXPECT_EQ(pool.get(b), (std::vector<topo::AsId>{1, 2, 4}));
}

TEST(PathPool, EmptyPathInternable) {
  PathPool pool;
  const auto id = pool.intern({});
  EXPECT_TRUE(pool.get(id).empty());
}

TEST(PathPool, IdsSurviveIndexGrowthCopyAndReload) {
  // Enough paths to grow the index many times; prefixes of one another
  // and permutations, so a lookup that matched on hash alone would show.
  std::vector<std::vector<topo::AsId>> paths;
  for (topo::AsId a = 0; a < 40; ++a) {
    for (topo::AsId b = 0; b < 40; ++b) {
      paths.push_back({a, b});
      paths.push_back({b, a, b});
    }
    paths.push_back({a});
  }
  PathPool pool;
  std::vector<PathPool::PathId> ids;
  for (const auto& path : paths) ids.push_back(pool.intern(path));
  for (std::size_t i = 0; i < paths.size(); ++i) {
    EXPECT_EQ(pool.get(ids[i]), paths[i]);
    EXPECT_EQ(pool.intern(paths[i]), ids[i]);
  }
  EXPECT_EQ(pool.get(static_cast<PathPool::PathId>(pool.size() - 1)), paths.back());

  const PathPool copy = pool;
  util::ByteWriter w;
  copy.save(w);
  PathPool loaded;
  util::ByteReader r(w.bytes());
  loaded.load(r, /*num_ases=*/100);
  r.expect_end();
  for (std::size_t i = 0; i < paths.size(); ++i) {
    EXPECT_EQ(loaded.intern(paths[i]), ids[i]);
  }
  EXPECT_EQ(loaded.size(), pool.size());
  EXPECT_EQ(loaded.intern({99, 98}), static_cast<PathPool::PathId>(pool.size()));
}

/// A PathPool checkpoint payload in save()'s layout: the path count,
/// then each path as its length and AS ids.
std::string pool_payload(const std::vector<std::vector<topo::AsId>>& paths) {
  util::ByteWriter w;
  w.size(paths.size());
  for (const auto& path : paths) {
    w.size(path.size());
    for (const topo::AsId as : path) w.i32(as);
  }
  return w.take();
}

TEST(PathPoolLoad, AcceptsWellFormedPayload) {
  const std::string bytes = pool_payload({{1, 2, 3}, {1, 2, 4}, {}});
  PathPool pool;
  util::ByteReader r(bytes);
  pool.load(r, /*num_ases=*/5);
  r.expect_end();
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool.intern({1, 2, 4}), 1);
  EXPECT_EQ(pool.intern({}), 2);
  util::ByteWriter w;
  pool.save(w);
  EXPECT_EQ(w.bytes(), bytes);
}

TEST(PathPoolLoad, RejectsDuplicatePath) {
  PathPool pool;
  pool.intern({7, 8});
  // Path 2 repeats path 0: intern({1, 2, 3}) could not answer both ids.
  const std::string bytes = pool_payload({{1, 2, 3}, {1, 2, 4}, {1, 2, 3}});
  util::ByteReader r(bytes);
  EXPECT_THROW(pool.load(r, /*num_ases=*/10), util::SerdeError);
  // A refused payload leaves the pool as it was.
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.intern({7, 8}), 0);
}

TEST(PathPoolLoad, RejectsAsIdOutsideTheGraph) {
  // AS ids must lie in [0, num_ases): CNF emission sizes per-AS scratch
  // by the largest id it meets.
  for (const topo::AsId as : {-1, 5, std::numeric_limits<topo::AsId>::max()}) {
    SCOPED_TRACE("as=" + std::to_string(as));
    PathPool pool;
    pool.intern({7, 8});
    const std::string bytes = pool_payload({{1, 2}, {3, as}});
    util::ByteReader r(bytes);
    EXPECT_THROW(pool.load(r, /*num_ases=*/5), util::SerdeError);
    EXPECT_EQ(pool.size(), 1u);
  }
  const std::string bytes = pool_payload({{0, 4}});
  PathPool pool;
  util::ByteReader r(bytes);
  pool.load(r, /*num_ases=*/5);
  r.expect_end();
  EXPECT_EQ(pool.intern({0, 4}), 0);
}

/// Builds a measurement whose traceroutes hit the given mini address
/// plan exactly (one mapped hop per AS).
struct ClauseWorld {
  net::AddressPlan plan;
  net::Ip2AsDb db;

  ClauseWorld() {
    plan.prefixes.resize(6);
    for (std::uint32_t as = 0; as < 6; ++as) {
      plan.prefixes[as].push_back(net::Prefix::make((10u << 24) | (as << 16), 16));
    }
    db = net::build_ip2as(plan);
  }

  net::Traceroute trace_of(const std::vector<topo::AsId>& ases) const {
    net::Traceroute t;
    for (const auto as : ases) {
      t.hops.emplace_back((10u << 24) | (static_cast<std::uint32_t>(as) << 16) | 1u);
    }
    return t;
  }

  iclab::Measurement measurement(const std::vector<topo::AsId>& mapped_path,
                                 bool dns_detected) const {
    iclab::Measurement m;
    m.vantage = 0;
    m.url_id = 7;
    m.day = 3;
    m.detected[static_cast<std::size_t>(censor::Anomaly::kDns)] = dns_detected;
    for (auto& t : m.traceroutes) t = trace_of(mapped_path);
    return m;
  }
};

TEST(ClauseBuilder, EmitsOneClausePerAnomaly) {
  ClauseWorld w;
  ClauseBuilder builder(w.db);
  builder.on_measurement(w.measurement({1, 2, 3}, true));
  EXPECT_EQ(builder.stats().measurements, 1);
  EXPECT_EQ(builder.stats().usable_measurements, 1);
  EXPECT_EQ(builder.stats().clauses, static_cast<std::int64_t>(censor::kNumAnomalies));
  ASSERT_EQ(builder.clauses().size(), censor::kNumAnomalies);
  // The DNS clause is positive, the others negative.
  for (const auto& clause : builder.clauses()) {
    EXPECT_EQ(clause.observed, clause.anomaly == censor::Anomaly::kDns);
    EXPECT_EQ(clause.url_id, 7);
    EXPECT_EQ(clause.vantage, 0);
    EXPECT_EQ(clause.day, 3);
    EXPECT_EQ(builder.pool().get(clause.path_id), (std::vector<topo::AsId>{1, 2, 3}));
  }
}

TEST(ClauseBuilder, SharedPathsInterned) {
  ClauseWorld w;
  ClauseBuilder builder(w.db);
  builder.on_measurement(w.measurement({1, 2, 3}, false));
  builder.on_measurement(w.measurement({1, 2, 3}, true));
  builder.on_measurement(w.measurement({1, 4, 5}, false));
  EXPECT_EQ(builder.pool().size(), 2u);
  // All three share a day, vantage and URL: the second repeats the
  // first's path, so of its clauses only the new DNS-observed one is
  // kept.  stats() still counts every derived clause.
  EXPECT_EQ(builder.clauses().size(), 2 * censor::kNumAnomalies + 1);
  EXPECT_EQ(builder.stats().clauses, static_cast<std::int64_t>(3 * censor::kNumAnomalies));
}

TEST(ClauseBuilder, DropsTracerouteErrors) {
  ClauseWorld w;
  ClauseBuilder builder(w.db);
  iclab::Measurement m = w.measurement({1, 2}, false);
  m.traceroutes[1].error = true;
  builder.on_measurement(m);
  EXPECT_EQ(builder.stats().dropped_traceroute_error, 1);
  EXPECT_EQ(builder.stats().usable_measurements, 0);
  EXPECT_TRUE(builder.clauses().empty());
}

TEST(ClauseBuilder, DropsAmbiguousGaps) {
  ClauseWorld w;
  ClauseBuilder builder(w.db);
  iclab::Measurement m = w.measurement({1, 2}, false);
  m.traceroutes[0].hops = {(10u << 24) | (1u << 16) | 1u, std::nullopt,
                           (10u << 24) | (2u << 16) | 1u};
  builder.on_measurement(m);
  EXPECT_EQ(builder.stats().dropped_ambiguous_gap, 1);
}

TEST(ClauseBuilder, DropsDivergentTriples) {
  ClauseWorld w;
  ClauseBuilder builder(w.db);
  iclab::Measurement m = w.measurement({1, 2}, false);
  m.traceroutes[2] = w.trace_of({1, 4});
  builder.on_measurement(m);
  EXPECT_EQ(builder.stats().dropped_divergent_paths, 1);
}

TEST(ClauseBuilder, DropsUnmappable) {
  ClauseWorld w;
  ClauseBuilder builder(w.db);
  iclab::Measurement m = w.measurement({1}, false);
  for (auto& t : m.traceroutes) {
    t.hops = {std::nullopt, (192u << 24) | 1u};  // nothing mappable
  }
  builder.on_measurement(m);
  EXPECT_EQ(builder.stats().dropped_no_mapping, 1);
  EXPECT_EQ(builder.stats().dropped_total(), 1);
}

}  // namespace
}  // namespace ct::tomo
