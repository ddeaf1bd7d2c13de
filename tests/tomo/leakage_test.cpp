#include "tomo/leakage.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "tomo/cnf_builder.h"
#include "util/serde.h"

namespace ct::tomo {
namespace {

/// World: censor T (AS 2) in country CN; upstream ASes P (1, GB) and
/// VP-side provider 0 (GB); downstream D (3, CN).
topo::AsGraph leak_graph() {
  topo::AsGraph g;
  const auto gb = g.add_country("GB", topo::Region::kEurope);
  const auto cn = g.add_country("CN", topo::Region::kAsia);
  g.add_as(100, topo::AsTier::kTransit, topo::AsClass::kTransitAccess, gb);  // 0
  g.add_as(101, topo::AsTier::kTransit, topo::AsClass::kTransitAccess, gb);  // 1
  g.add_as(102, topo::AsTier::kTransit, topo::AsClass::kTransitAccess, cn);  // 2 censor
  g.add_as(103, topo::AsTier::kStub, topo::AsClass::kContent, cn);           // 3 dest
  g.add_as(104, topo::AsTier::kTransit, topo::AsClass::kTransitAccess, cn);  // 4
  return g;
}

PathClause make_clause(PathPool& pool, std::vector<topo::AsId> path, bool observed,
                       std::int32_t url = 0, censor::Anomaly a = censor::Anomaly::kDns) {
  PathClause c;
  c.path_id = pool.intern(path);
  c.url_id = url;
  c.vantage = 50;
  c.day = 0;
  c.anomaly = a;
  c.observed = observed;
  return c;
}

std::vector<TomoCnf> day_cnfs(PathPool& pool, const std::vector<PathClause>& clauses) {
  CnfBuildOptions o;
  o.granularities = {util::Granularity::kDay};
  return build_cnfs(pool, clauses, o);
}

TEST(Leakage, UpstreamVictimsAcrossBorder) {
  const auto g = leak_graph();
  PathPool pool;
  // Dirty path 0 -> 1 -> 2 -> 3 with censor 2; clean path 0 -> 1 -> 4
  // (churned around the censor) pins 0, 1, 4; dest 3 pinned by a clean
  // observation via 4.
  const auto cnfs = day_cnfs(pool, {
      make_clause(pool, {0, 1, 2, 3}, true),
      make_clause(pool, {0, 1, 4, 3}, false),
  });
  const auto verdicts = analyze_cnfs(cnfs);
  ASSERT_EQ(verdicts[0].solution_class, 1);
  ASSERT_EQ(verdicts[0].censors, (std::vector<topo::AsId>{2}));

  const LeakageReport report = analyze_leakage(g, cnfs, verdicts);
  EXPECT_EQ(report.censors, (std::vector<topo::AsId>{2}));
  ASSERT_TRUE(report.by_censor.count(2));
  const CensorLeaks& leaks = report.by_censor.at(2);
  // Victims: ASes 0 and 1, upstream of the censor on the dirty path.
  EXPECT_EQ(leaks.victim_ases, (std::set<topo::AsId>{0, 1}));
  // Both are in GB, censor in CN: one victim country.
  EXPECT_EQ(leaks.victim_countries.size(), 1u);
  EXPECT_EQ(report.censors_leaking_to_ases(), 1);
  EXPECT_EQ(report.censors_leaking_to_countries(), 1);
  // Country flow CN->GB counts the two distinct (censor, victim) pairs.
  const auto key = std::make_pair(g.as_info(2).country, g.as_info(0).country);
  ASSERT_TRUE(report.country_flow.count(key));
  EXPECT_EQ(report.country_flow.at(key), 2);
}

TEST(Leakage, CensorAtPathHeadHasNoVictims) {
  const auto g = leak_graph();
  PathPool pool;
  // The censor is the first AS of the dirty path: nobody upstream.
  const auto cnfs = day_cnfs(pool, {
      make_clause(pool, {2, 4, 3}, true),
      make_clause(pool, {4, 3}, false),
  });
  const auto verdicts = analyze_cnfs(cnfs);
  ASSERT_EQ(verdicts[0].solution_class, 1);
  const LeakageReport report = analyze_leakage(g, cnfs, verdicts);
  EXPECT_EQ(report.censors, (std::vector<topo::AsId>{2}));
  EXPECT_EQ(report.censors_leaking_to_ases(), 0);
  EXPECT_EQ(report.censors_leaking_to_countries(), 0);
  EXPECT_TRUE(report.country_flow.empty());
}

TEST(Leakage, SameCountryVictimCountsAsAsLeakOnly) {
  const auto g = leak_graph();
  PathPool pool;
  // Dirty path 4 -> 2 -> 3: upstream victim 4 is in CN like censor 2.
  const auto cnfs = day_cnfs(pool, {
      make_clause(pool, {4, 2, 3}, true),
      make_clause(pool, {4, 1, 3}, false),
  });
  const auto verdicts = analyze_cnfs(cnfs);
  ASSERT_EQ(verdicts[0].solution_class, 1);
  const LeakageReport report = analyze_leakage(g, cnfs, verdicts);
  EXPECT_EQ(report.censors_leaking_to_ases(), 1);
  EXPECT_EQ(report.censors_leaking_to_countries(), 0);
  EXPECT_TRUE(report.country_flow.empty());
}

TEST(Leakage, MultiSolutionCnfsContributeNothing) {
  const auto g = leak_graph();
  PathPool pool;
  const auto cnfs = day_cnfs(pool, {make_clause(pool, {0, 1, 2, 3}, true)});
  const auto verdicts = analyze_cnfs(cnfs);
  ASSERT_EQ(verdicts[0].solution_class, 2);
  const LeakageReport report = analyze_leakage(g, cnfs, verdicts);
  EXPECT_TRUE(report.censors.empty());
  EXPECT_TRUE(report.by_censor.empty());
}

TEST(Leakage, MinSupportFiltersCensors) {
  const auto g = leak_graph();
  PathPool pool;
  const auto cnfs = day_cnfs(pool, {
      make_clause(pool, {0, 1, 2, 3}, true),
      make_clause(pool, {0, 1, 4, 3}, false),
  });
  const auto verdicts = analyze_cnfs(cnfs);
  const LeakageReport report = analyze_leakage(g, cnfs, verdicts, /*min_support=*/2);
  EXPECT_TRUE(report.censors.empty());
  EXPECT_TRUE(report.by_censor.empty());
}

TEST(Leakage, VictimsDedupedAcrossCnfs) {
  const auto g = leak_graph();
  PathPool pool;
  // Two URLs, same censor, same victims: victim sets must not double.
  const auto cnfs = day_cnfs(pool, {
      make_clause(pool, {0, 1, 2, 3}, true, 0),
      make_clause(pool, {0, 1, 4, 3}, false, 0),
      make_clause(pool, {0, 1, 2, 3}, true, 1),
      make_clause(pool, {0, 1, 4, 3}, false, 1),
  });
  const auto verdicts = analyze_cnfs(cnfs);
  const LeakageReport report = analyze_leakage(g, cnfs, verdicts);
  ASSERT_TRUE(report.by_censor.count(2));
  EXPECT_EQ(report.by_censor.at(2).victim_ases.size(), 2u);
  const auto key = std::make_pair(g.as_info(2).country, g.as_info(0).country);
  EXPECT_EQ(report.country_flow.at(key), 2);  // distinct pairs, not occurrences
}

TEST(Leakage, SizeMismatchThrows) {
  const auto g = leak_graph();
  std::vector<TomoCnf> cnfs(1);
  std::vector<CnfVerdict> verdicts;
  EXPECT_THROW(analyze_leakage(g, cnfs, verdicts), std::invalid_argument);
}

/// A LeakageFold checkpoint: a pool of the given paths, then one
/// evidence record naming `censor` over the path ids `paths`.
std::string fold_payload(const std::vector<std::vector<topo::AsId>>& pool_paths,
                         topo::AsId censor, const std::vector<PathPool::PathId>& paths) {
  PathPool pool;
  for (const auto& path : pool_paths) pool.intern(path);
  util::ByteWriter w;
  pool.save(w);
  w.size(1);
  w.size(1);
  w.i32(censor);
  w.size(paths.size());
  for (const PathPool::PathId id : paths) w.i32(id);
  return w.take();
}

TEST(Leakage, FoldRefusesAnInconsistentPathLayout) {
  // A class-1 verdict whose CNF's path ends run past its ASes, or
  // descend: the fold refuses it and keeps no evidence.
  CnfVerdict v;
  v.solution_class = 1;
  v.censors = {2};
  TomoCnf cnf;
  cnf.path_ases = {0, 1, 2};
  LeakageFold fold;
  for (const std::vector<std::uint32_t>& ends :
       {std::vector<std::uint32_t>{4}, std::vector<std::uint32_t>{2, 1}}) {
    cnf.path_ends = ends;
    EXPECT_THROW(fold.add(cnf, v), std::invalid_argument);
  }
  EXPECT_EQ(fold.evidence_count(), 0u);
  cnf.path_ends = {2, 3};
  fold.add(cnf, v);
  EXPECT_EQ(fold.evidence_count(), 1u);
}

TEST(Leakage, FoldLoadRefusesIdsOutsideTheGraphOrPool) {
  const topo::AsGraph g = leak_graph();
  const auto num_ases = static_cast<std::int32_t>(g.num_ases());
  for (const std::string& payload : {fold_payload({{0, 1, 9}}, 2, {0}),   // AS past the graph
                                     fold_payload({{0, 1, 2}}, -1, {0}),  // negative censor
                                     fold_payload({{0, 1, 2}}, 2, {1})}) {  // path past the pool
    LeakageFold fold;
    util::ByteReader r(payload);
    EXPECT_THROW(fold.load(r, num_ases), util::SerdeError);
    EXPECT_EQ(fold.evidence_count(), 0u);
  }
  const std::string payload = fold_payload({{0, 1, 2, 3}}, 2, {0});
  LeakageFold fold;
  util::ByteReader r(payload);
  fold.load(r, num_ases);
  r.expect_end();
  EXPECT_EQ(fold.evidence_count(), 1u);
  const LeakageReport report = fold.finalize(g, {2});
  ASSERT_TRUE(report.by_censor.count(2));
  EXPECT_EQ(report.by_censor.at(2).victim_ases, (std::set<topo::AsId>{0, 1}));
}

}  // namespace
}  // namespace ct::tomo
