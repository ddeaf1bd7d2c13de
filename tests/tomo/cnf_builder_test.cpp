#include "tomo/cnf_builder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "../support/fuzz_seed.h"
#include "util/rng.h"
#include "util/serde.h"
#include "util/thread_pool.h"

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
  EXPECT_EQ(tc.clean, (std::vector<std::uint8_t>{1, 1, 0, 1}));
  EXPECT_EQ(tc.clause_vars, (std::vector<sat::Var>{0, 1, 2}));
  EXPECT_EQ(tc.clause_ends, (std::vector<std::uint32_t>{3}));
  const sat::Cnf cnf = to_cnf(tc);
  EXPECT_EQ(cnf.num_vars, 4);
  EXPECT_EQ(cnf.clauses.size(), 4u);
  ASSERT_EQ(tc.num_positive_paths(), 1u);
  EXPECT_EQ(tc.path_ases, (std::vector<topo::AsId>{1, 2, 3}));
  EXPECT_EQ(tc.path_ends, (std::vector<std::uint32_t>{3}));
  EXPECT_EQ(tc.var_of(3), 2);
  EXPECT_EQ(tc.var_of(42), -1);
}

TEST(CnfBuilder, RequirePositiveSkipsAllCleanGroups) {
  PathPool pool;
  std::vector<PathClause> clauses{make_clause(pool, {1, 2}, false)};
  EXPECT_TRUE(build_cnfs(pool, clauses, day_only()).empty());
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
  ASSERT_EQ(cnfs[0].num_positive_clauses, 1);
  EXPECT_EQ(cnfs[0].clause(0).size(), 2u);
  EXPECT_EQ(cnfs[0].positive_path(0).size(), 3u) << "the path itself keeps the repeat";
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
  StreamingCnfBuilder builder(pool, /*num_urls=*/1);
  builder.add(make_clause(pool, {1, 2}, true, /*url=*/0, /*day=*/5));
  // Same chain (URL 0, DNS), an earlier day: the precondition is broken.
  EXPECT_THROW(builder.add(make_clause(pool, {1, 3}, true, 0, /*day=*/4)),
               std::logic_error);
  // The rejected clause left no trace: one day window, one path.
  EXPECT_EQ(builder.open_windows(), 4u);
  const auto cnfs = builder.flush().main;
  ASSERT_EQ(cnfs.size(), 4u);
  for (const auto& tc : cnfs) {
    EXPECT_EQ(tc.path_ases, (std::vector<topo::AsId>{1, 2}));
    EXPECT_EQ(tc.path_ends, (std::vector<std::uint32_t>{2}));
  }
}

TEST(CnfBuilder, ChainGoingBackWithinOneWindowIsAccepted) {
  // Only week windows configured: days 5 then 4 share week 0, so the
  // chain does not go back in window and the clause is filed.
  PathPool pool;
  CnfBuildOptions weeks;
  weeks.granularities = {util::Granularity::kWeek};
  StreamingCnfBuilder builder(pool, /*num_urls=*/1, weeks);
  builder.add(make_clause(pool, {1, 2}, true, 0, /*day=*/5));
  builder.add(make_clause(pool, {1, 3}, true, 0, /*day=*/4));
  const auto cnfs = builder.flush().main;
  ASSERT_EQ(cnfs.size(), 1u);
  EXPECT_EQ(cnfs[0].num_positive_clauses, 2);
}

TEST(CnfBuilder, OtherChainMayStartAtAnEarlierDay) {
  // The OutputSortedByKey shape: each chain is day-ordered, but a later
  // chain starts before the day an earlier one reached.
  PathPool pool;
  StreamingCnfBuilder builder(pool, /*num_urls=*/3, day_only());
  builder.add(make_clause(pool, {1}, true, /*url=*/2, /*day=*/5));
  builder.add(make_clause(pool, {1}, true, /*url=*/0, /*day=*/3));
  builder.add(make_clause(pool, {2}, true, /*url=*/2, /*day=*/1, censor::Anomaly::kRst));
  builder.add(make_clause(pool, {1}, true, /*url=*/0, /*day=*/4));
  const auto cnfs = builder.flush().main;
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
// builder and of TomoCnf's flat layout, that build_cnfs must reproduce
// field for field.

/// A reference CNF: plain clauses and path copies.
struct ReferenceCnf {
  CnfKey key;
  std::vector<topo::AsId> vars;
  sat::Cnf cnf;
  std::vector<std::vector<topo::AsId>> positive_paths;
  std::int32_t num_positive_clauses = 0;
  std::int32_t num_negative_units = 0;
};

std::vector<ReferenceCnf> reference_cnfs(const PathPool& pool,
                                         const std::vector<PathClause>& clauses,
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
  std::vector<ReferenceCnf> out;
  for (const auto& [key, group] : groups) {
    if (group.positive_ids.empty()) continue;
    ReferenceCnf tc;
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

void expect_cnfs_equal(const std::vector<TomoCnf>& got, const std::vector<ReferenceCnf>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("cnf " + std::to_string(i));
    EXPECT_EQ(got[i].key, want[i].key);
    EXPECT_EQ(got[i].vars, want[i].vars);
    const sat::Cnf cnf = to_cnf(got[i]);
    EXPECT_EQ(cnf.num_vars, want[i].cnf.num_vars);
    EXPECT_EQ(cnf.clauses, want[i].cnf.clauses);
    std::vector<std::vector<topo::AsId>> paths;
    for (std::size_t p = 0; p < got[i].num_positive_paths(); ++p) {
      const std::span<const topo::AsId> path = got[i].positive_path(p);
      paths.emplace_back(path.begin(), path.end());
    }
    EXPECT_EQ(paths, want[i].positive_paths);
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
  // More lanes than chains, fewer, and uneven splits: the CNFs may not
  // depend on the chain ranges.
  std::vector<std::unique_ptr<util::ThreadPool>> lanes;
  for (const unsigned n : {1u, 2u, 3u, 7u}) lanes.push_back(std::make_unique<util::ThreadPool>(n));
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    PathPool pool;
    const std::vector<PathClause> clauses = random_stream(rng, pool);
    CnfBuildOptions options;
    // Fixed out-of-enum-order subsets first, then random ones.
    if (trial == 0) options.granularities = {util::Granularity::kYear, util::Granularity::kDay};
    if (trial == 1) {
      options.granularities = {util::Granularity::kMonth, util::Granularity::kWeek,
                               util::Granularity::kDay};
    }
    if (trial >= 2) options.granularities = random_granularities(rng);
    const std::vector<ReferenceCnf> want = reference_cnfs(pool, clauses, options);
    expect_cnfs_equal(build_cnfs(pool, clauses, options), want);

    std::int32_t num_urls = 0;  // the tightest table the stream fits
    for (const PathClause& c : clauses) num_urls = std::max(num_urls, c.url_id + 1);
    for (const auto& threads : lanes) {
      SCOPED_TRACE("threads " + std::to_string(threads->size()));
      expect_cnfs_equal(build_cnfs(pool, clauses, options, threads.get()), want);

      // The same stream through the incremental path in random batches,
      // with random watermark advances and save/load round trips into a
      // fresh builder mid-run: the rebuilt dedupe state must file
      // nothing twice.
      auto builder = std::make_unique<StreamingCnfBuilder>(pool, num_urls, options, threads.get());
      std::vector<TomoCnf> streamed;
      const auto take = [&streamed](std::vector<TomoCnf> batch) {
        for (TomoCnf& tc : batch) streamed.push_back(std::move(tc));
      };
      std::size_t i = 0;
      while (i < clauses.size()) {
        const std::size_t n = std::min(clauses.size() - i, 1 + rng.index(40));
        builder->add(std::span(clauses).subspan(i, n));
        i += n;
        if (rng.bernoulli(0.2)) {
          util::ByteWriter w;
          builder->save(w);
          builder = std::make_unique<StreamingCnfBuilder>(pool, num_urls, options, threads.get());
          util::ByteReader r(w.bytes());
          builder->load(r);
          r.expect_end();
        }
        if (i < clauses.size() && rng.bernoulli(0.5)) {
          take(builder->advance_watermark(clauses[i].day).main);
        }
      }
      take(builder->flush().main);
      std::sort(streamed.begin(), streamed.end(),
                [](const TomoCnf& a, const TomoCnf& b) { return a.key < b.key; });
      expect_cnfs_equal(streamed, want);
      if (HasFailure()) return;
    }
  }
}

/// A CNF's positive clauses beside their paths, sorted: its content
/// whatever the clause order.
std::vector<std::pair<std::vector<sat::Var>, std::vector<topo::AsId>>> clause_path_pairs(
    const TomoCnf& tc) {
  std::vector<std::pair<std::vector<sat::Var>, std::vector<topo::AsId>>> pairs;
  for (std::size_t i = 0; i < tc.clause_ends.size(); ++i) {
    const std::span<const sat::Var> clause = tc.clause(i);
    const std::span<const topo::AsId> path = tc.positive_path(i);
    pairs.emplace_back(std::vector<sat::Var>(clause.begin(), clause.end()),
                       std::vector<topo::AsId>(path.begin(), path.end()));
  }
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

/// CNF for CNF: the same key, variables, clean flags and (clause, path)
/// pairs, in any clause order.
void expect_same_content(const std::vector<TomoCnf>& got, const std::vector<TomoCnf>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("cnf " + std::to_string(i));
    EXPECT_EQ(got[i].key, want[i].key);
    EXPECT_EQ(got[i].vars, want[i].vars);
    EXPECT_EQ(got[i].clean, want[i].clean);
    EXPECT_EQ(got[i].num_negative_units, want[i].num_negative_units);
    EXPECT_EQ(got[i].num_positive_clauses, want[i].num_positive_clauses);
    EXPECT_EQ(clause_path_pairs(got[i]), clause_path_pairs(want[i]));
  }
}

/// `clauses` through a fresh builder of `options`, with the kept flags
/// of one ChurnStripFilter over the stream, in random batches with
/// random watermark advances and save/load round trips into a fresh
/// builder: every batch each call emitted, sorted by key.
EmittedCnfs stream_with_kept_flags(util::Rng& rng, const PathPool& pool,
                                   const std::vector<PathClause>& clauses,
                                   const CnfBuildOptions& options, util::ThreadPool* threads) {
  std::int32_t num_urls = 0;
  topo::AsId num_vantages = 0;
  for (const PathClause& c : clauses) {
    num_urls = std::max(num_urls, c.url_id + 1);
    num_vantages = std::max(num_vantages, c.vantage + 1);
  }
  ChurnStripFilter strip(pool, num_vantages, num_urls);
  std::vector<std::uint8_t> kept;
  for (const PathClause& c : clauses) kept.push_back(strip.keep(c) ? 1 : 0);

  auto builder = std::make_unique<StreamingCnfBuilder>(pool, num_urls, options, threads);
  EmittedCnfs out;
  const auto take = [&out](EmittedCnfs batch) {
    for (TomoCnf& tc : batch.main) out.main.push_back(std::move(tc));
    for (TomoCnf& tc : batch.kept) out.kept.push_back(std::move(tc));
  };
  std::size_t i = 0;
  while (i < clauses.size()) {
    const std::size_t n = std::min(clauses.size() - i, 1 + rng.index(40));
    builder->add(std::span(clauses).subspan(i, n), std::span(kept).subspan(i, n));
    i += n;
    if (rng.bernoulli(0.2)) {
      util::ByteWriter w;
      builder->save(w);
      builder = std::make_unique<StreamingCnfBuilder>(pool, num_urls, options, threads);
      util::ByteReader r(w.bytes());
      builder->load(r);
      r.expect_end();
    }
    if (i < clauses.size() && rng.bernoulli(0.5)) take(builder->advance_watermark(clauses[i].day));
  }
  take(builder->flush());
  const auto by_key = [](const TomoCnf& a, const TomoCnf& b) { return a.key < b.key; };
  std::sort(out.main.begin(), out.main.end(), by_key);
  std::sort(out.kept.begin(), out.kept.end(), by_key);
  return out;
}

TEST(CnfBuilder, KeptSubsetMatchesTheStripReference) {
  // Figure 4 from the main groups: the kept CNFs equal build_cnfs over
  // the strip's survivors at the kept granularities, and the kept
  // flags leave the main CNFs as they were.
  const std::uint64_t seed = ct::test::fuzz_seed(20171120);
  SCOPED_TRACE(ct::test::fuzz_trace(seed));
  util::Rng rng(seed);
  std::vector<std::unique_ptr<util::ThreadPool>> lanes;
  for (const unsigned n : {1u, 2u, 3u, 7u}) lanes.push_back(std::make_unique<util::ThreadPool>(n));
  std::size_t kept_cnfs = 0;
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    PathPool pool;
    std::vector<PathClause> clauses = random_stream(rng, pool);
    // A few vantages, so paths churn per (vantage, URL) and one path is
    // often seen from a vantage that keeps it and one that does not.
    for (PathClause& c : clauses) c.vantage = static_cast<topo::AsId>(rng.uniform_int(0, 3));
    CnfBuildOptions options;
    options.granularities = random_granularities(rng);
    for (const util::Granularity g : options.granularities) {
      if (rng.bernoulli(0.6)) options.kept_granularities.push_back(g);
    }
    if (options.kept_granularities.empty()) {
      options.kept_granularities.push_back(options.granularities.back());
    }
    CnfBuildOptions stripped;
    stripped.granularities = options.kept_granularities;
    const std::vector<TomoCnf> want_kept =
        build_cnfs(pool, strip_path_churn(pool, clauses), stripped);
    const std::vector<ReferenceCnf> want_main = reference_cnfs(pool, clauses, options);
    kept_cnfs += want_kept.size();

    for (const auto& threads : lanes) {
      SCOPED_TRACE("threads " + std::to_string(threads->size()));
      const EmittedCnfs got = stream_with_kept_flags(rng, pool, clauses, options, threads.get());
      expect_cnfs_equal(got.main, want_main);
      expect_same_content(got.kept, want_kept);
      if (HasFailure()) return;
    }
  }
  EXPECT_GT(kept_cnfs, 200u);
}

TEST(CnfBuilder, KeptFlagIsOredOverDuplicateVantages) {
  // Vantages 1 and 2 infer the same paths.  Vantage 1's first path is
  // {1, 9}, so its clauses on {1, 2} and {3, 4} are churned; vantage
  // 2's first path is {1, 2} and vantage 3's {3, 4}, so theirs are kept.
  // The group holds each path once, whichever vantage came first, and
  // its entry is kept if any clause on it was.
  PathPool pool;
  const auto clause = [&pool](std::vector<topo::AsId> path, bool observed, topo::AsId vantage) {
    return make_clause(pool, std::move(path), observed, 0, 0, censor::Anomaly::kDns, vantage);
  };
  const PathClause first = clause({1, 9}, true, 1);
  const std::vector<PathClause> churned{clause({1, 2}, true, 1), clause({3, 4}, false, 1)};
  const std::vector<PathClause> kept{clause({1, 2}, true, 2), clause({3, 4}, false, 3)};
  const auto join = [&first](const std::vector<PathClause>& a, const std::vector<PathClause>& b) {
    std::vector<PathClause> out{first};
    out.insert(out.end(), a.begin(), a.end());
    out.insert(out.end(), b.begin(), b.end());
    return out;
  };
  CnfBuildOptions days = day_only();
  days.kept_granularities = {util::Granularity::kDay};
  struct Case {
    const char* name;
    std::vector<PathClause> clauses;
    std::size_t save_at;  // a save/load round trip before this clause
  };
  const std::vector<Case> cases{
      {"unkept then kept", join(churned, kept), 0},
      {"kept then unkept", join(kept, churned), 0},
      {"unkept, save/load, kept", join(churned, kept), 3},
      {"kept, save/load, unkept", join(kept, churned), 3},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::vector<TomoCnf> want = build_cnfs(pool, strip_path_churn(pool, c.clauses), days);
    ASSERT_EQ(want.size(), 1u);
    EXPECT_EQ(want[0].num_positive_clauses, 2);     // {1, 9} and {1, 2}
    EXPECT_EQ(want[0].num_negative_units, 2);       // 3 and 4

    ChurnStripFilter strip(pool, 4, 1);
    auto builder = std::make_unique<StreamingCnfBuilder>(pool, 1, days);
    for (std::size_t i = 0; i < c.clauses.size(); ++i) {
      if (i == c.save_at && i > 0) {
        util::ByteWriter w;
        builder->save(w);
        builder = std::make_unique<StreamingCnfBuilder>(pool, 1, days);
        util::ByteReader r(w.bytes());
        builder->load(r);
      }
      builder->add(c.clauses[i], strip.keep(c.clauses[i]));
    }
    const EmittedCnfs got = builder->flush();
    expect_same_content(got.kept, want);
    ASSERT_EQ(got.main.size(), 1u);
    EXPECT_EQ(got.main[0].num_positive_clauses, 2);
  }
}

TEST(CnfBuilder, BatchBelowTheWatermarkThrowsAndFilesNothing) {
  PathPool pool;
  util::ThreadPool threads(3);
  StreamingCnfBuilder builder(pool, /*num_urls=*/4, {}, &threads);
  builder.add(make_clause(pool, {1, 2}, true, /*url=*/0, /*day=*/9));
  builder.advance_watermark(7);  // closes day windows 0..6 (all empty)
  const std::size_t open = builder.open_windows();
  // Valid clauses of other chains first: the late one rejects the whole
  // batch before any chain is touched.
  const std::vector<PathClause> batch{
      make_clause(pool, {3}, true, /*url=*/1, /*day=*/8),
      make_clause(pool, {4}, false, /*url=*/2, /*day=*/9, censor::Anomaly::kRst),
      make_clause(pool, {5}, true, /*url=*/3, /*day=*/6),
  };
  EXPECT_THROW(builder.add(batch), std::logic_error);
  EXPECT_EQ(builder.open_windows(), open);
  const auto cnfs = builder.flush().main;
  ASSERT_EQ(cnfs.size(), 4u);  // url 0's day, week, month and year windows
  for (const auto& tc : cnfs) EXPECT_EQ(tc.key.url_id, 0);
}

// ---------------------------------------------------------------------
// Checkpoint format.

/// A builder borrowing `pool`, with open groups in two chains at all
/// four granularities, duplicate positives and negatives, a day window
/// whose negatives arrive out of id order, and closed day windows behind
/// a watermark of 2.  Two clauses are kept: the repeat of {1, 2, 3} on
/// day 0, whose first sight was not, and {1, 4} on day 2.  Their flags
/// mark entries only if `options` keeps a granularity.
StreamingCnfBuilder checkpoint_fixture(PathPool& pool, const CnfBuildOptions& options = {}) {
  std::vector<PathClause> clauses{
      make_clause(pool, {1, 2, 3}, true, 0, 0, censor::Anomaly::kDns),
      make_clause(pool, {1, 4}, false, 0, 0, censor::Anomaly::kDns),
      make_clause(pool, {1, 2, 3}, true, 0, 0, censor::Anomaly::kDns),
      make_clause(pool, {5, 1}, true, 1, 1, censor::Anomaly::kRst),
      make_clause(pool, {8, 2}, false, 0, 2, censor::Anomaly::kDns),
      make_clause(pool, {1, 4}, false, 0, 2, censor::Anomaly::kDns),
      make_clause(pool, {2, 6}, true, 0, 2, censor::Anomaly::kDns),
      make_clause(pool, {1, 2, 3}, true, 0, 2, censor::Anomaly::kDns),
      make_clause(pool, {7}, false, 1, 3, censor::Anomaly::kRst),
  };
  const std::set<std::size_t> kept{2, 5};
  StreamingCnfBuilder builder(pool, /*num_urls=*/2, options);
  for (std::size_t i = 0; i < clauses.size(); ++i) {
    if (clauses[i].day == 2 && builder.watermark() == 0) builder.advance_watermark(2);
    builder.add(clauses[i], kept.count(i) != 0);
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

std::string from_hex(const std::string& hex) {
  std::string out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out += static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16));
  }
  return out;
}

/// A checkpoint-format-v4 builder payload with the three fields v5
/// dropped cut out: the private pool (empty when borrowing), each
/// group's sorted positive-id set, and the trailing emitted-CNF count,
/// `emitted`.  Every other byte is copied as it stands.
std::string cut_v4_to_v5(const std::string& v4, std::int64_t emitted) {
  util::ByteReader r(v4);
  std::string v5;
  const auto copy_since = [&](std::size_t begin) {
    v5 += v4.substr(begin, v4.size() - r.remaining() - begin);
  };
  const auto at = [&] { return v4.size() - r.remaining(); };
  const auto load_ids = [&] {
    std::vector<PathPool::PathId> ids;
    util::load_vec(r, ids, [](util::ByteReader& r) { return r.i32(); });
    return ids;
  };
  EXPECT_EQ(r.size(), 0u);  // private pool: no paths
  std::size_t begin = at();
  const std::size_t windows = r.size();
  for (std::size_t i = 0; i < windows; ++i) {
    r.i32();  // key: url, anomaly, granularity, window
    r.u8();
    r.u8();
    r.i32();
    std::vector<PathPool::PathId> positives = load_ids();  // first-occurrence order
    copy_since(begin);
    std::sort(positives.begin(), positives.end());
    EXPECT_EQ(load_ids(), positives);  // the positive set: cut
    begin = at();
    load_ids();  // negatives
  }
  r.i32();  // watermark
  copy_since(begin);
  EXPECT_EQ(r.i64(), emitted);  // cut
  r.expect_end();
  return v5;
}

/// A checkpoint-format-v5 builder payload in format v8, which writes
/// each group's path ids as u32 entries, id << 1 | kept, with `kept`
/// set where kept(key, id) says.  Every other byte is copied as it
/// stands; a group's negatives stay sorted by id.
std::string pack_v5_to_v8(const std::string& v5,
                          const std::function<bool(const CnfKey&, PathPool::PathId)>& kept) {
  util::ByteReader r(v5);
  util::ByteWriter v8;
  const std::size_t windows = r.size();
  v8.size(windows);
  for (std::size_t i = 0; i < windows; ++i) {
    const CnfKey key = load_cnf_key(r);
    save_cnf_key(v8, key);
    for (int list = 0; list < 2; ++list) {  // positives, then negatives
      const std::size_t n = r.size();
      v8.size(n);
      for (std::size_t k = 0; k < n; ++k) {
        const PathPool::PathId id = r.i32();
        v8.u32(static_cast<std::uint32_t>(id) << 1 | (kept(key, id) ? 1u : 0u));
      }
    }
  }
  v8.i32(r.i32());  // watermark
  r.expect_end();
  return v8.take();
}

TEST(CnfBuilder, CheckpointBytesAreStable) {
  // The fixture's bytes under checkpoint format v4, before the grouper
  // dropped its private pool, positive-id sets and emitted count.
  const std::string v4 =
      "000000000000000008000000000000000000000000000200000002000000000000000400000000000000"
      "020000000000000000000000040000000200000000000000010000000300000000000000000100000000"
      "020000000000000000000000040000000200000000000000000000000400000002000000000000000100"
      "000003000000000000000002000000000200000000000000000000000400000002000000000000000000"
      "000004000000020000000000000001000000030000000000000000030000000002000000000000000000"
      "000004000000020000000000000000000000040000000200000000000000010000000300000001000000"
      "030003000000000000000000000000000000000000000100000000000000050000000100000003010000"
      "000001000000000000000200000001000000000000000200000001000000000000000500000001000000"
      "030200000000010000000000000002000000010000000000000002000000010000000000000005000000"
      "010000000303000000000100000000000000020000000100000000000000020000000100000000000000"
      "05000000020000000200000000000000";
  // Watermark 2 closed url 0's day-0 window and url 1's day-1 window.
  const std::string v5 = cut_v4_to_v5(from_hex(v4), /*emitted=*/2);

  // Without kept granularities every kept bit is 0.  Keeping weeks
  // marks the week-0 entries of url 0's two kept paths: {1, 2, 3} (id
  // 0) though its first sight was not kept, and {1, 4} (id 1).
  CnfBuildOptions weeks;
  weeks.kept_granularities = {util::Granularity::kWeek};
  const auto none = [](const CnfKey&, PathPool::PathId) { return false; };
  const auto kept_in_week = [](const CnfKey& key, PathPool::PathId id) {
    return key.granularity == util::Granularity::kWeek && key.url_id == 0 && id <= 1;
  };
  for (const bool keep_weeks : {false, true}) {
    SCOPED_TRACE(keep_weeks ? "weeks kept" : "nothing kept");
    const CnfBuildOptions options = keep_weeks ? weeks : CnfBuildOptions{};
    const std::string expected = keep_weeks ? pack_v5_to_v8(v5, kept_in_week)
                                            : pack_v5_to_v8(v5, none);
    PathPool pool;
    const StreamingCnfBuilder builder = checkpoint_fixture(pool, options);
    util::ByteWriter w;
    builder.save(w);
    EXPECT_EQ(to_hex(w.bytes()), to_hex(expected));

    // load() + save() reproduces the bytes.
    StreamingCnfBuilder restored(pool, /*num_urls=*/2, options);
    util::ByteReader r(w.bytes());
    restored.load(r);
    r.expect_end();
    util::ByteWriter again;
    restored.save(again);
    EXPECT_EQ(again.bytes(), w.bytes());
    EXPECT_EQ(restored.open_windows(), builder.open_windows());
  }
}

TEST(CnfBuilder, PathSeenBeforeSaveIsNotFiledAgainAfterLoad) {
  PathPool pool;
  const PathClause positive = make_clause(pool, {1, 2, 3}, true, 0, /*day=*/3);
  const PathClause negative = make_clause(pool, {1, 4}, false, 0, /*day=*/3);
  StreamingCnfBuilder builder(pool, /*num_urls=*/1);
  builder.add(positive);
  builder.add(negative);
  util::ByteWriter w;
  builder.save(w);

  StreamingCnfBuilder restored(pool, /*num_urls=*/1);
  util::ByteReader r(w.bytes());
  restored.load(r);
  // Both pairs already sit in every open window: nothing is filed, so
  // the state (negatives included, which no CNF field would show) is
  // byte-for-byte what was saved.
  restored.add(positive);
  restored.add(negative);
  util::ByteWriter again;
  restored.save(again);
  EXPECT_EQ(again.bytes(), w.bytes());

  // A new day window still takes the path; the shared week, month and
  // year windows do not take it twice.
  PathClause later = positive;
  later.day = 5;
  restored.add(later);
  const auto cnfs = restored.flush().main;
  ASSERT_EQ(cnfs.size(), 5u);  // days 3 and 5, week, month, year
  for (const auto& tc : cnfs) {
    SCOPED_TRACE(util::window_label(tc.key.window, tc.key.granularity));
    EXPECT_EQ(tc.num_positive_clauses, 1);
  }
}

/// A hand-built payload holding one open day window of `url_id` with the
/// given positive and negative entries (path id << 1 | kept) — as a
/// crafted checkpoint would.
std::string window_payload(std::int32_t url_id, const std::vector<std::uint32_t>& positives,
                           const std::vector<std::uint32_t>& negatives = {},
                           std::int32_t window = 0) {
  const auto save_entry = [](util::ByteWriter& w, std::uint32_t e) { w.u32(e); };
  util::ByteWriter w;
  w.size(1);  // open windows
  w.i32(url_id);
  w.u8(static_cast<std::uint8_t>(censor::Anomaly::kDns));
  w.u8(static_cast<std::uint8_t>(util::Granularity::kDay));
  w.i32(window);
  util::save_vec(w, positives, save_entry);
  util::save_vec(w, negatives, save_entry);
  w.i32(0);  // watermark
  return w.take();
}

/// window_payload whose one positive entry is `path_id`, not kept.
std::string one_window_payload(std::int32_t url_id, PathPool::PathId path_id = 0) {
  return window_payload(url_id, {static_cast<std::uint32_t>(path_id) << 1});
}

/// A pool holding the one path {1, 2}, which one_window_payload's
/// default path id names.
PathPool one_path_pool() {
  PathPool pool;
  pool.intern({1, 2});
  return pool;
}

TEST(CnfBuilder, LoadRefusesUrlIdAtOrPastTheBound) {
  constexpr std::int32_t kUrls = 120;
  const PathPool pool = one_path_pool();
  // Unchecked, 2^28 would size the chain table at 2^28 x 5 chains.
  for (const std::int32_t url_id : {kUrls, std::int32_t{1} << 28, -1}) {
    SCOPED_TRACE("url_id=" + std::to_string(url_id));
    const std::string payload = one_window_payload(url_id);
    StreamingCnfBuilder builder(pool, kUrls);
    util::ByteReader r(payload);
    EXPECT_THROW(builder.load(r), util::SerdeError);
    // add() refuses the same id: no builder can save what load refuses.
    PathClause clause;
    clause.url_id = url_id;
    EXPECT_THROW(builder.add(clause), std::logic_error);
    EXPECT_EQ(builder.open_windows(), 0u);
  }
}

TEST(CnfBuilder, LoadAcceptsUrlIdJustBelowTheBound) {
  constexpr std::int32_t kUrls = 120;
  const PathPool pool = one_path_pool();
  const std::string payload = one_window_payload(kUrls - 1);
  StreamingCnfBuilder builder(pool, kUrls);
  util::ByteReader r(payload);
  builder.load(r);
  r.expect_end();
  EXPECT_EQ(builder.open_windows(), 1u);
  util::ByteWriter again;
  builder.save(again);
  EXPECT_EQ(again.bytes(), payload);
}

TEST(CnfBuilder, LoadRefusesIdsOutsideTheirPool) {
  // Path ids are bounded by the borrowed pool, as add() bounds them.
  const PathPool pool = one_path_pool();
  for (const PathPool::PathId id : {-1, 1}) {
    SCOPED_TRACE("path_id=" + std::to_string(id));
    const std::string payload = one_window_payload(0, id);
    StreamingCnfBuilder refused(pool, 1);
    util::ByteReader r(payload);
    EXPECT_THROW(refused.load(r), util::SerdeError);
    EXPECT_EQ(refused.open_windows(), 0u);
  }

  // A saved builder's ids are refused by a builder borrowing an empty
  // pool and accepted by one borrowing the pool they came from.
  PathPool grown;
  const PathClause clause = make_clause(grown, {1, 2, 3}, true, 0, /*day=*/3);
  StreamingCnfBuilder builder(grown, 1);
  builder.add(clause);
  util::ByteWriter w;
  builder.save(w);
  const PathPool empty;
  StreamingCnfBuilder refused(empty, 1);
  util::ByteReader r3(w.bytes());
  EXPECT_THROW(refused.load(r3), util::SerdeError);
  StreamingCnfBuilder accepted(grown, 1);
  util::ByteReader r4(w.bytes());
  accepted.load(r4);
  r4.expect_end();
  EXPECT_EQ(accepted.open_windows(), builder.open_windows());
}

/// Expects a one-URL builder of `options` over `pool`, holding path 0's
/// four windows, to refuse `payload` and keep those windows.
void expect_load_refused(const PathPool& pool, const std::string& payload,
                         const CnfBuildOptions& options = {}) {
  StreamingCnfBuilder builder(pool, 1, options);
  PathClause clause;
  clause.path_id = 0;
  clause.observed = true;
  builder.add(clause);
  util::ByteReader r(payload);
  EXPECT_THROW(builder.load(r), util::SerdeError);
  EXPECT_EQ(builder.open_windows(), 4u);
}

TEST(CnfBuilder, LoadRefusesAPathTwiceInOneGroup) {
  // add() files a path once per group; unchecked, a repeated id was
  // emitted as a duplicate clause and counted twice.
  PathPool pool = one_path_pool();
  pool.intern({3});
  CnfBuildOptions days;
  days.kept_granularities = {util::Granularity::kDay};
  for (const auto& [positives, negatives] :
       std::vector<std::pair<std::vector<std::uint32_t>, std::vector<std::uint32_t>>>{
           {{0, 2, 0}, {}},  // path 0 twice in the positives
           {{0, 1}, {}},     // the same path, once kept and once not
           {{0}, {2, 2}},    // path 1 twice in the negatives
       }) {
    SCOPED_TRACE(::testing::PrintToString(positives) + " / " +
                 ::testing::PrintToString(negatives));
    expect_load_refused(pool, window_payload(0, positives, negatives), days);
  }
  // One path among both the positives and the negatives is what add()
  // makes of a path seen censored and clean.
  const std::string both = window_payload(0, {0, 3}, {0});
  StreamingCnfBuilder builder(pool, 1, days);
  util::ByteReader r(both);
  builder.load(r);
  r.expect_end();
  util::ByteWriter again;
  builder.save(again);
  EXPECT_EQ(again.bytes(), both);
}

TEST(CnfBuilder, LoadRefusesANegativeWindow) {
  // add() refuses a day below the watermark, which starts at 0.
  const PathPool pool = one_path_pool();
  for (const std::int32_t window : {-1, -5}) {
    SCOPED_TRACE("window=" + std::to_string(window));
    expect_load_refused(pool, window_payload(0, {0}, {}, window));
  }
}

TEST(CnfBuilder, LoadRefusesAKeptBitOutsideTheKeptGranularities) {
  // add() sets a kept bit only at a kept granularity.
  const PathPool pool = one_path_pool();
  const std::string kept_day = window_payload(0, {0 << 1 | 1});
  expect_load_refused(pool, kept_day);
  CnfBuildOptions weeks;
  weeks.kept_granularities = {util::Granularity::kWeek};
  expect_load_refused(pool, kept_day, weeks);
  expect_load_refused(pool, window_payload(0, {0}, {0 << 1 | 1}), weeks);

  CnfBuildOptions days;
  days.kept_granularities = {util::Granularity::kDay};
  StreamingCnfBuilder builder(pool, 1, days);
  util::ByteReader r(kept_day);
  builder.load(r);
  r.expect_end();
  const EmittedCnfs cnfs = builder.flush();
  ASSERT_EQ(cnfs.kept.size(), 1u);
  EXPECT_EQ(cnfs.kept[0].path_ases, (std::vector<topo::AsId>{1, 2}));
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

/// A std::map churn filter, written independently of the dense table:
/// the first non-empty path per (vantage, URL) is kept.
struct MapStripReference {
  std::map<std::pair<topo::AsId, std::int32_t>, PathPool::PathId> first_path;

  bool keep(const PathPool& pool, const PathClause& clause) {
    if (pool.get(clause.path_id).empty()) return false;
    const auto it = first_path.emplace(std::make_pair(clause.vantage, clause.url_id),
                                       clause.path_id).first;
    return it->second == clause.path_id;
  }

  /// The checkpoint bytes the map wrote: a count, then (vantage, URL,
  /// path id) in map order.
  std::string save() const {
    util::ByteWriter w;
    w.size(first_path.size());
    for (const auto& [key, id] : first_path) {
      w.i32(key.first);
      w.i32(key.second);
      w.i32(id);
    }
    return w.take();
  }
};

TEST(StripPathChurn, MatchesMapReferenceOnRandomStreams) {
  const std::uint64_t seed = ct::test::fuzz_seed(20171212);
  SCOPED_TRACE(ct::test::fuzz_trace(seed));
  util::Rng rng(seed);
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    PathPool pool;
    // The empty path (never kept, never a first path) and a few real
    // ones, so paths churn back and forth per pair.
    std::vector<PathPool::PathId> ids{pool.intern({})};
    const int num_paths = static_cast<int>(rng.uniform_int(1, 6));
    for (int p = 0; p < num_paths; ++p) {
      std::vector<topo::AsId> path(static_cast<std::size_t>(rng.uniform_int(1, 4)));
      for (auto& as : path) as = static_cast<topo::AsId>(rng.uniform_int(0, 30));
      ids.push_back(pool.intern(path));
    }
    const std::vector<topo::AsId> vantages{0, 3, 17, 99};
    const auto num_vantages = static_cast<std::int32_t>(rng.uniform_int(1, 4));
    const auto num_urls = static_cast<std::int32_t>(rng.uniform_int(1, 6));
    std::vector<PathClause> clauses;
    const std::size_t n = rng.index(400);
    for (std::size_t i = 0; i < n; ++i) {
      PathClause c;
      c.path_id = ids[rng.index(ids.size())];
      c.url_id = static_cast<std::int32_t>(rng.index(static_cast<std::size_t>(num_urls)));
      c.vantage = vantages[rng.index(static_cast<std::size_t>(num_vantages))];
      c.day = static_cast<util::Day>(i / 16);
      c.anomaly = censor::kAllAnomalies[rng.index(censor::kAllAnomalies.size())];
      c.observed = rng.bernoulli(0.4);
      clauses.push_back(c);
    }

    MapStripReference reference;
    std::vector<PathClause> want;
    for (const PathClause& c : clauses) {
      if (reference.keep(pool, c)) want.push_back(c);
    }
    EXPECT_EQ(strip_path_churn(pool, clauses), want);

    // The streaming filter, sized as the monitor sizes it, with a
    // save/load round trip into a fresh filter mid-stream: same
    // survivors, and the map's checkpoint bytes.
    const std::int32_t table_vantages = 100;
    auto filter = std::make_unique<ChurnStripFilter>(pool, table_vantages, num_urls);
    MapStripReference prefix;
    std::vector<PathClause> got;
    for (std::size_t i = 0; i < clauses.size(); ++i) {
      if (filter->keep(clauses[i])) got.push_back(clauses[i]);
      prefix.keep(pool, clauses[i]);
      if (rng.bernoulli(0.05)) {
        util::ByteWriter w;
        filter->save(w);
        ASSERT_EQ(w.bytes(), prefix.save());
        filter = std::make_unique<ChurnStripFilter>(pool, table_vantages, num_urls);
        util::ByteReader r(w.bytes());
        filter->load(r);
        r.expect_end();
      }
    }
    EXPECT_EQ(got, want);
    util::ByteWriter w;
    filter->save(w);
    EXPECT_EQ(w.bytes(), reference.save());
    if (HasFailure()) return;
  }
}

/// A filter checkpoint: a count, then the given (vantage, URL, path id)
/// entries as written.
std::string strip_payload(const std::vector<std::array<std::int32_t, 3>>& entries) {
  util::ByteWriter w;
  w.size(entries.size());
  for (const auto& [vantage, url, id] : entries) {
    w.i32(vantage);
    w.i32(url);
    w.i32(id);
  }
  return w.take();
}

/// A pool of `n` one-AS paths.
PathPool pool_of(std::int32_t n) {
  PathPool pool;
  for (topo::AsId as = 0; as < n; ++as) pool.intern({as});
  return pool;
}

TEST(StripPathChurn, LoadRefusesKeysOutsideTheTableOrOutOfOrder) {
  constexpr std::int32_t kPaths = 9;  // the corners below use ids 5 to 8
  const PathPool pool = pool_of(kPaths);
  const std::vector<std::vector<std::array<std::int32_t, 3>>> refused{
      {{4, 0, 1}},             // vantage at the bound
      {{-1, 0, 1}},            // negative vantage
      {{0, 3, 1}},             // url at the bound
      {{0, -1, 1}},            // negative url
      {{0, 0, -1}},            // negative path id
      {{0, 0, kPaths}},        // path id at the pool's size
      {{1, 2, 1}, {1, 2, 2}},  // repeated key
      {{1, 2, 1}, {1, 1, 2}},  // out of order within a vantage
      {{2, 0, 1}, {1, 2, 2}},  // out of order across vantages
  };
  for (const auto& entries : refused) {
    SCOPED_TRACE("first entry " + std::to_string(entries.front()[0]) + "," +
                 std::to_string(entries.front()[1]) + " of " + std::to_string(entries.size()));
    ChurnStripFilter filter(pool, 4, 3);
    const std::string payload = strip_payload(entries);
    util::ByteReader r(payload);
    EXPECT_THROW(filter.load(r), util::SerdeError);
    // The refused load left the filter empty.
    util::ByteWriter w;
    filter.save(w);
    EXPECT_EQ(w.bytes(), strip_payload({}));
  }

  // The corners of the table load and save back byte for byte.
  const std::string corners = strip_payload({{0, 0, 5}, {0, 2, 6}, {3, 0, 7}, {3, 2, 8}});
  ChurnStripFilter filter(pool, 4, 3);
  util::ByteReader r(corners);
  filter.load(r);
  r.expect_end();
  util::ByteWriter w;
  filter.save(w);
  EXPECT_EQ(w.bytes(), corners);
}

}  // namespace
}  // namespace ct::tomo
