#include "tomo/cnf_builder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <string>

#include "../support/fuzz_seed.h"
#include "util/rng.h"
#include "util/serde.h"

namespace ct::tomo {
namespace {

PathClause make_clause(PathPool& pool, std::vector<topo::AsId> path, bool observed,
                       std::int32_t url = 0, util::Day day = 0,
                       censor::Anomaly anomaly = censor::Anomaly::kDns,
                       topo::AsId vantage = 99) {
  PathClause c;
  c.path_id = pool.intern(path);
  c.url_id = url;
  c.vantage = vantage;
  c.day = day;
  c.anomaly = anomaly;
  c.observed = observed;
  return c;
}

CnfBuildOptions day_only() {
  CnfBuildOptions o;
  o.granularities = {util::Granularity::kDay};
  return o;
}

TEST(CnfBuilder, PaperExampleStructure) {
  // (X v Y v Z) = T from a censored path; clean paths eliminate X and Y.
  PathPool pool;
  std::vector<PathClause> clauses{
      make_clause(pool, {1, 2, 3}, true),
      make_clause(pool, {1, 4}, false),
      make_clause(pool, {2, 4}, false),
  };
  const auto cnfs = build_cnfs(pool, clauses, day_only());
  ASSERT_EQ(cnfs.size(), 1u);
  const TomoCnf& tc = cnfs[0];
  EXPECT_EQ(tc.vars, (std::vector<topo::AsId>{1, 2, 3, 4}));
  EXPECT_EQ(tc.num_positive_clauses, 1);
  EXPECT_EQ(tc.num_negative_units, 3);  // ASes 1, 2, 4 seen clean
  EXPECT_EQ(tc.cnf.num_vars, 4);
  EXPECT_EQ(tc.cnf.clauses.size(), 4u);
  ASSERT_EQ(tc.positive_paths.size(), 1u);
  EXPECT_EQ(tc.positive_paths[0], (std::vector<topo::AsId>{1, 2, 3}));
  EXPECT_EQ(tc.var_of(3), 2);
  EXPECT_EQ(tc.var_of(42), -1);
}

TEST(CnfBuilder, RequirePositiveSkipsAllCleanGroups) {
  PathPool pool;
  std::vector<PathClause> clauses{make_clause(pool, {1, 2}, false)};
  EXPECT_TRUE(build_cnfs(pool, clauses, day_only()).empty());
  CnfBuildOptions keep = day_only();
  keep.require_positive = false;
  const auto cnfs = build_cnfs(pool, clauses, keep);
  ASSERT_EQ(cnfs.size(), 1u);
  EXPECT_EQ(cnfs[0].num_positive_clauses, 0);
  EXPECT_EQ(cnfs[0].num_negative_units, 2);
}

TEST(CnfBuilder, SplitsByUrl) {
  PathPool pool;
  std::vector<PathClause> clauses{
      make_clause(pool, {1, 2}, true, /*url=*/0),
      make_clause(pool, {1, 2}, true, /*url=*/1),
  };
  const auto cnfs = build_cnfs(pool, clauses, day_only());
  ASSERT_EQ(cnfs.size(), 2u);
  EXPECT_EQ(cnfs[0].key.url_id, 0);
  EXPECT_EQ(cnfs[1].key.url_id, 1);
}

TEST(CnfBuilder, SplitsByAnomaly) {
  PathPool pool;
  std::vector<PathClause> clauses{
      make_clause(pool, {1, 2}, true, 0, 0, censor::Anomaly::kDns),
      make_clause(pool, {1, 2}, true, 0, 0, censor::Anomaly::kRst),
  };
  const auto cnfs = build_cnfs(pool, clauses, day_only());
  ASSERT_EQ(cnfs.size(), 2u);
  EXPECT_NE(cnfs[0].key.anomaly, cnfs[1].key.anomaly);
}

TEST(CnfBuilder, SplitsByWindowPerGranularity) {
  PathPool pool;
  // Two observations nine days apart: distinct day and week windows,
  // same month window.
  std::vector<PathClause> clauses{
      make_clause(pool, {1, 2}, true, 0, /*day=*/0),
      make_clause(pool, {1, 3}, true, 0, /*day=*/9),
  };
  CnfBuildOptions all;
  const auto cnfs = build_cnfs(pool, clauses, all);
  int day_cnfs = 0, week_cnfs = 0, month_cnfs = 0, year_cnfs = 0;
  for (const auto& tc : cnfs) {
    switch (tc.key.granularity) {
      case util::Granularity::kDay: ++day_cnfs; break;
      case util::Granularity::kWeek: ++week_cnfs; break;
      case util::Granularity::kMonth: ++month_cnfs; break;
      case util::Granularity::kYear: ++year_cnfs; break;
    }
  }
  EXPECT_EQ(day_cnfs, 2);
  EXPECT_EQ(week_cnfs, 2);
  EXPECT_EQ(month_cnfs, 1);
  EXPECT_EQ(year_cnfs, 1);
  // The month CNF pools both positive paths.
  for (const auto& tc : cnfs) {
    if (tc.key.granularity == util::Granularity::kMonth) {
      EXPECT_EQ(tc.num_positive_clauses, 2);
      EXPECT_EQ(tc.vars, (std::vector<topo::AsId>{1, 2, 3}));
    }
  }
}

TEST(CnfBuilder, DeduplicatesRepeatedConstraints) {
  PathPool pool;
  std::vector<PathClause> clauses{
      make_clause(pool, {1, 2, 3}, true),
      make_clause(pool, {1, 2, 3}, true),   // same positive path again
      make_clause(pool, {1, 4}, false),
      make_clause(pool, {1, 4}, false),     // same clean path again
  };
  const auto cnfs = build_cnfs(pool, clauses, day_only());
  ASSERT_EQ(cnfs.size(), 1u);
  EXPECT_EQ(cnfs[0].num_positive_clauses, 1);
  EXPECT_EQ(cnfs[0].num_negative_units, 2);  // ¬1, ¬4
}

TEST(CnfBuilder, SkipsEmptyPaths) {
  PathPool pool;
  std::vector<PathClause> clauses{make_clause(pool, {}, true)};
  // An empty positive path contributes nothing; group has a positive
  // marker with no literals — skip entirely.
  const auto cnfs = build_cnfs(pool, clauses, day_only());
  // One group exists with an empty positive path; its CNF has an empty
  // clause, making it trivially UNSAT.  We verify build doesn't crash
  // and the var set is empty.
  for (const auto& tc : cnfs) {
    EXPECT_TRUE(tc.vars.empty());
  }
}

TEST(CnfBuilder, DuplicateAsOnPathYieldsOneLiteral) {
  PathPool pool;
  std::vector<PathClause> clauses{make_clause(pool, {1, 2, 1}, true)};
  const auto cnfs = build_cnfs(pool, clauses, day_only());
  ASSERT_EQ(cnfs.size(), 1u);
  ASSERT_EQ(cnfs[0].cnf.clauses.size(), 1u);
  EXPECT_EQ(cnfs[0].cnf.clauses[0].size(), 2u);
}

TEST(CnfBuilder, OutputSortedByKey) {
  PathPool pool;
  std::vector<PathClause> clauses{
      make_clause(pool, {1}, true, 2, 5),
      make_clause(pool, {1}, true, 0, 3),
      make_clause(pool, {1}, true, 1, 1),
  };
  const auto cnfs = build_cnfs(pool, clauses, day_only());
  ASSERT_EQ(cnfs.size(), 3u);
  EXPECT_TRUE(std::is_sorted(cnfs.begin(), cnfs.end(),
                             [](const TomoCnf& a, const TomoCnf& b) { return a.key < b.key; }));
}

TEST(CnfBuilder, ChainGoingBackInDayThrows) {
  PathPool pool;
  StreamingCnfBuilder builder(CnfBuildOptions{}, &pool);
  builder.add(pool, make_clause(pool, {1, 2}, true, /*url=*/0, /*day=*/5));
  // Same chain (URL 0, DNS), an earlier day: the precondition is broken.
  EXPECT_THROW(builder.add(pool, make_clause(pool, {1, 3}, true, 0, /*day=*/4)),
               std::logic_error);
  // The rejected clause left no trace: one day window, one path.
  EXPECT_EQ(builder.open_windows(), 4u);
  const auto cnfs = builder.flush();
  ASSERT_EQ(cnfs.size(), 4u);
  for (const auto& tc : cnfs) {
    EXPECT_EQ(tc.positive_paths, (std::vector<std::vector<topo::AsId>>{{1, 2}}));
  }
}

TEST(CnfBuilder, ChainGoingBackWithinOneWindowIsAccepted) {
  // Only week windows configured: days 5 then 4 share week 0, so the
  // chain does not go back in window and the clause is filed.
  PathPool pool;
  CnfBuildOptions weeks;
  weeks.granularities = {util::Granularity::kWeek};
  StreamingCnfBuilder builder(weeks, &pool);
  builder.add(pool, make_clause(pool, {1, 2}, true, 0, /*day=*/5));
  builder.add(pool, make_clause(pool, {1, 3}, true, 0, /*day=*/4));
  const auto cnfs = builder.flush();
  ASSERT_EQ(cnfs.size(), 1u);
  EXPECT_EQ(cnfs[0].num_positive_clauses, 2);
}

TEST(CnfBuilder, OtherChainMayStartAtAnEarlierDay) {
  // The OutputSortedByKey shape: each chain is day-ordered, but a later
  // chain starts before the day an earlier one reached.
  PathPool pool;
  StreamingCnfBuilder builder(day_only(), &pool);
  builder.add(pool, make_clause(pool, {1}, true, /*url=*/2, /*day=*/5));
  builder.add(pool, make_clause(pool, {1}, true, /*url=*/0, /*day=*/3));
  builder.add(pool, make_clause(pool, {2}, true, /*url=*/2, /*day=*/1, censor::Anomaly::kRst));
  builder.add(pool, make_clause(pool, {1}, true, /*url=*/0, /*day=*/4));
  const auto cnfs = builder.flush();
  ASSERT_EQ(cnfs.size(), 4u);
  std::vector<CnfKey> keys;
  for (const auto& tc : cnfs) keys.push_back(tc.key);
  EXPECT_EQ(keys, (std::vector<CnfKey>{
                      {0, censor::Anomaly::kDns, util::Granularity::kDay, 3},
                      {0, censor::Anomaly::kDns, util::Granularity::kDay, 4},
                      {2, censor::Anomaly::kDns, util::Granularity::kDay, 5},
                      {2, censor::Anomaly::kRst, util::Granularity::kDay, 1},
                  }));
}

// ---------------------------------------------------------------------
// Oracle: the map/set grouping algorithm, written independently of the
// builder, that build_cnfs must reproduce field for field.

std::vector<TomoCnf> reference_cnfs(const PathPool& pool, const std::vector<PathClause>& clauses,
                                    const CnfBuildOptions& options) {
  struct Group {
    std::vector<PathPool::PathId> positive_ids;
    std::set<PathPool::PathId> positive_seen;
    std::set<PathPool::PathId> negative_seen;
  };
  std::map<CnfKey, Group> groups;
  for (const PathClause& c : clauses) {
    for (const util::Granularity g : options.granularities) {
      Group& group = groups[CnfKey{c.url_id, c.anomaly, g, util::window_of(c.day, g)}];
      if (!c.observed) {
        group.negative_seen.insert(c.path_id);
      } else if (group.positive_seen.insert(c.path_id).second) {
        group.positive_ids.push_back(c.path_id);
      }
    }
  }
  std::vector<TomoCnf> out;
  for (const auto& [key, group] : groups) {
    if (options.require_positive && group.positive_ids.empty()) continue;
    TomoCnf tc;
    tc.key = key;
    std::set<topo::AsId> negative;
    for (const auto id : group.negative_seen) {
      negative.insert(pool.get(id).begin(), pool.get(id).end());
    }
    std::set<topo::AsId> all = negative;
    for (const auto id : group.positive_ids) all.insert(pool.get(id).begin(), pool.get(id).end());
    tc.vars.assign(all.begin(), all.end());
    std::map<topo::AsId, sat::Var> var_of;
    for (std::size_t v = 0; v < tc.vars.size(); ++v) var_of[tc.vars[v]] = static_cast<sat::Var>(v);
    tc.cnf.num_vars = static_cast<std::int32_t>(tc.vars.size());
    for (const topo::AsId as : negative) {
      tc.cnf.add_clause({sat::Lit(var_of[as], true)});
      ++tc.num_negative_units;
    }
    for (const auto id : group.positive_ids) {
      std::vector<sat::Lit> lits;
      std::set<sat::Var> seen;
      for (const topo::AsId as : pool.get(id)) {
        if (seen.insert(var_of[as]).second) lits.emplace_back(var_of[as], false);
      }
      tc.cnf.add_clause(std::move(lits));
      ++tc.num_positive_clauses;
      tc.positive_paths.push_back(pool.get(id));
    }
    out.push_back(std::move(tc));
  }
  return out;
}

void expect_cnfs_equal(const std::vector<TomoCnf>& got, const std::vector<TomoCnf>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("cnf " + std::to_string(i));
    EXPECT_EQ(got[i].key, want[i].key);
    EXPECT_EQ(got[i].vars, want[i].vars);
    EXPECT_EQ(got[i].cnf.num_vars, want[i].cnf.num_vars);
    EXPECT_EQ(got[i].cnf.clauses, want[i].cnf.clauses);
    EXPECT_EQ(got[i].positive_paths, want[i].positive_paths);
    EXPECT_EQ(got[i].num_positive_clauses, want[i].num_positive_clauses);
    EXPECT_EQ(got[i].num_negative_units, want[i].num_negative_units);
  }
}

/// A random day-sorted clause stream over a small path pool that holds
/// an empty path and repeated-AS paths; paths recur, so duplicate
/// constraints are common.
std::vector<PathClause> random_stream(util::Rng& rng, PathPool& pool) {
  std::vector<PathPool::PathId> ids{pool.intern({}), pool.intern({3, 5, 3}),
                                    pool.intern({7, 7})};
  const int num_paths = static_cast<int>(rng.uniform_int(1, 12));
  for (int p = 0; p < num_paths; ++p) {
    std::vector<topo::AsId> path(static_cast<std::size_t>(rng.uniform_int(1, 5)));
    for (auto& as : path) as = static_cast<topo::AsId>(rng.uniform_int(0, 40));
    ids.push_back(pool.intern(path));
  }
  std::vector<PathClause> clauses;
  const int num_urls = static_cast<int>(rng.uniform_int(1, 4));
  const util::Day last_day = static_cast<util::Day>(rng.uniform_int(0, 800));
  const std::size_t n = 1 + rng.index(300);
  for (std::size_t i = 0; i < n; ++i) {
    PathClause c;
    c.path_id = ids[rng.index(ids.size())];
    c.url_id = static_cast<std::int32_t>(rng.uniform_int(0, num_urls - 1));
    c.vantage = 99;
    c.day = static_cast<util::Day>(rng.uniform_int(0, last_day));
    c.anomaly = censor::kAllAnomalies[rng.index(censor::kAllAnomalies.size())];
    c.observed = rng.bernoulli(0.4);
    clauses.push_back(c);
  }
  std::stable_sort(clauses.begin(), clauses.end(),
                   [](const PathClause& a, const PathClause& b) { return a.day < b.day; });
  return clauses;
}

/// A random non-empty granularity subset in random order, sometimes
/// with a granularity repeated.
std::vector<util::Granularity> random_granularities(util::Rng& rng) {
  std::vector<util::Granularity> gs;
  for (const util::Granularity g : util::kAllGranularities) {
    if (rng.bernoulli(0.6)) gs.push_back(g);
  }
  if (gs.empty()) gs.push_back(util::kAllGranularities[rng.index(4)]);
  if (rng.bernoulli(0.1)) gs.push_back(gs.front());
  rng.shuffle(gs);
  return gs;
}

TEST(CnfBuilder, MatchesReferenceGrouperOnRandomStreams) {
  const std::uint64_t seed = ct::test::fuzz_seed(20170623);
  SCOPED_TRACE(ct::test::fuzz_trace(seed));
  util::Rng rng(seed);
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    PathPool pool;
    const std::vector<PathClause> clauses = random_stream(rng, pool);
    CnfBuildOptions options;
    options.require_positive = rng.bernoulli(0.5);
    // Fixed out-of-enum-order subsets first, then random ones.
    if (trial == 0) options.granularities = {util::Granularity::kYear, util::Granularity::kDay};
    if (trial == 1) {
      options.granularities = {util::Granularity::kMonth, util::Granularity::kWeek,
                               util::Granularity::kDay};
    }
    if (trial >= 2) options.granularities = random_granularities(rng);
    const std::vector<TomoCnf> want = reference_cnfs(pool, clauses, options);
    expect_cnfs_equal(build_cnfs(pool, clauses, options), want);

    // The same stream through the streaming path, with random watermark
    // advances and save/load round trips into a fresh builder mid-run:
    // the rebuilt dedupe state must file nothing twice.
    auto builder = std::make_unique<StreamingCnfBuilder>(options, &pool);
    std::vector<TomoCnf> streamed;
    const auto take = [&streamed](std::vector<TomoCnf> batch) {
      for (TomoCnf& tc : batch) streamed.push_back(std::move(tc));
    };
    for (std::size_t i = 0; i < clauses.size(); ++i) {
      builder->add(pool, clauses[i]);
      if (rng.bernoulli(0.05)) {
        util::ByteWriter w;
        builder->save(w);
        builder = std::make_unique<StreamingCnfBuilder>(options, &pool);
        util::ByteReader r(w.bytes());
        builder->load(r);
        r.expect_end();
      }
      if (i + 1 < clauses.size() && rng.bernoulli(0.1)) {
        take(builder->advance_watermark(clauses[i + 1].day));
      }
    }
    take(builder->flush());
    std::sort(streamed.begin(), streamed.end(),
              [](const TomoCnf& a, const TomoCnf& b) { return a.key < b.key; });
    expect_cnfs_equal(streamed, want);
    if (HasFailure()) return;
  }
}

// ---------------------------------------------------------------------
// Checkpoint format.

/// An owned-pool builder with open groups in two chains at all four
/// granularities, duplicate positives and negatives, and closed day
/// windows behind a watermark of 2.
StreamingCnfBuilder checkpoint_fixture() {
  PathPool src;
  std::vector<PathClause> clauses{
      make_clause(src, {1, 2, 3}, true, 0, 0, censor::Anomaly::kDns),
      make_clause(src, {1, 4}, false, 0, 0, censor::Anomaly::kDns),
      make_clause(src, {1, 2, 3}, true, 0, 0, censor::Anomaly::kDns),
      make_clause(src, {5, 1}, true, 1, 1, censor::Anomaly::kRst),
      make_clause(src, {1, 4}, false, 0, 2, censor::Anomaly::kDns),
      make_clause(src, {2, 6}, true, 0, 2, censor::Anomaly::kDns),
      make_clause(src, {1, 2, 3}, true, 0, 2, censor::Anomaly::kDns),
      make_clause(src, {7}, false, 1, 3, censor::Anomaly::kRst),
  };
  StreamingCnfBuilder builder;
  for (const PathClause& c : clauses) {
    if (c.day == 2 && builder.watermark() == 0) builder.advance_watermark(2);
    builder.add(src, c);
  }
  return builder;
}

std::string to_hex(const std::string& bytes) {
  static const char* const kDigits = "0123456789abcdef";
  std::string out;
  for (const char ch : bytes) {
    const auto b = static_cast<unsigned char>(ch);
    out += kDigits[b >> 4];
    out += kDigits[b & 15];
  }
  return out;
}

TEST(CnfBuilder, CheckpointBytesAreStable) {
  // Captured from the map/set builder this layout replaced: the format
  // (and analysis::kCheckpointVersion) did not change with it.
  const std::string expected =
      "050000000000000003000000000000000100000002000000030000000200000000000000010000000400"
      "000002000000000000000500000001000000020000000000000002000000060000000100000000000000"
      "070000000800000000000000000000000000020000000200000000000000030000000000000002000000"
      "000000000000000003000000010000000000000001000000000000000001000000000200000000000000"
      "000000000300000002000000000000000000000003000000010000000000000001000000000000000002"
      "000000000200000000000000000000000300000002000000000000000000000003000000010000000000"
      "000001000000000000000003000000000200000000000000000000000300000002000000000000000000"
      "000003000000010000000000000001000000010000000300030000000000000000000000000000000000"
      "000001000000000000000400000001000000030100000000010000000000000002000000010000000000"
      "000002000000010000000000000004000000010000000302000000000100000000000000020000000100"
      "000000000000020000000100000000000000040000000100000003030000000001000000000000000200"
      "0000010000000000000002000000010000000000000004000000020000000200000000000000";
  const StreamingCnfBuilder builder = checkpoint_fixture();
  util::ByteWriter w;
  builder.save(w);
  EXPECT_EQ(to_hex(w.bytes()), expected);

  // load() + save() reproduces the bytes.
  StreamingCnfBuilder restored;
  util::ByteReader r(w.bytes());
  restored.load(r);
  r.expect_end();
  util::ByteWriter again;
  restored.save(again);
  EXPECT_EQ(again.bytes(), w.bytes());
  EXPECT_EQ(restored.open_windows(), builder.open_windows());
}

TEST(CnfBuilder, PathSeenBeforeSaveIsNotFiledAgainAfterLoad) {
  PathPool pool;
  const PathClause positive = make_clause(pool, {1, 2, 3}, true, 0, /*day=*/3);
  const PathClause negative = make_clause(pool, {1, 4}, false, 0, /*day=*/3);
  StreamingCnfBuilder builder(CnfBuildOptions{}, &pool);
  builder.add(pool, positive);
  builder.add(pool, negative);
  util::ByteWriter w;
  builder.save(w);

  StreamingCnfBuilder restored(CnfBuildOptions{}, &pool);
  util::ByteReader r(w.bytes());
  restored.load(r);
  // Both pairs already sit in every open window: nothing is filed, so
  // the state (negatives included, which no CNF field would show) is
  // byte-for-byte what was saved.
  restored.add(pool, positive);
  restored.add(pool, negative);
  util::ByteWriter again;
  restored.save(again);
  EXPECT_EQ(again.bytes(), w.bytes());

  // A new day window still takes the path; the shared week, month and
  // year windows do not take it twice.
  PathClause later = positive;
  later.day = 5;
  restored.add(pool, later);
  const auto cnfs = restored.flush();
  ASSERT_EQ(cnfs.size(), 5u);  // days 3 and 5, week, month, year
  for (const auto& tc : cnfs) {
    SCOPED_TRACE(util::window_label(tc.key.window, tc.key.granularity));
    EXPECT_EQ(tc.num_positive_clauses, 1);
  }
}

TEST(StripPathChurn, KeepsOnlyFirstPathPerVantageUrl) {
  PathPool pool;
  std::vector<PathClause> clauses{
      make_clause(pool, {1, 2}, false, 0, 0, censor::Anomaly::kDns, /*vantage=*/7),
      make_clause(pool, {1, 3}, true, 0, 1, censor::Anomaly::kDns, /*vantage=*/7),  // churned
      make_clause(pool, {1, 2}, true, 0, 2, censor::Anomaly::kDns, /*vantage=*/7),  // back
      make_clause(pool, {4, 2}, false, 0, 0, censor::Anomaly::kDns, /*vantage=*/8),
  };
  const auto stripped = strip_path_churn(pool, clauses);
  ASSERT_EQ(stripped.size(), 3u);
  EXPECT_EQ(pool.get(stripped[0].path_id), (std::vector<topo::AsId>{1, 2}));
  EXPECT_EQ(pool.get(stripped[1].path_id), (std::vector<topo::AsId>{1, 2}));
  EXPECT_EQ(stripped[1].day, 2);
  EXPECT_EQ(stripped[2].vantage, 8);
}

TEST(StripPathChurn, DifferentUrlsTrackedSeparately) {
  PathPool pool;
  std::vector<PathClause> clauses{
      make_clause(pool, {1, 2}, false, /*url=*/0, 0, censor::Anomaly::kDns, 7),
      make_clause(pool, {1, 3}, false, /*url=*/1, 0, censor::Anomaly::kDns, 7),
  };
  EXPECT_EQ(strip_path_churn(pool, clauses).size(), 2u);
}

}  // namespace
}  // namespace ct::tomo
