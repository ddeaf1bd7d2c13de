#include "tomo/cnf_builder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
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
  StreamingCnfBuilder builder(pool);
  builder.add(make_clause(pool, {1, 2}, true, /*url=*/0, /*day=*/5));
  // Same chain (URL 0, DNS), an earlier day: the precondition is broken.
  EXPECT_THROW(builder.add(make_clause(pool, {1, 3}, true, 0, /*day=*/4)),
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
  StreamingCnfBuilder builder(pool, weeks);
  builder.add(make_clause(pool, {1, 2}, true, 0, /*day=*/5));
  builder.add(make_clause(pool, {1, 3}, true, 0, /*day=*/4));
  const auto cnfs = builder.flush();
  ASSERT_EQ(cnfs.size(), 1u);
  EXPECT_EQ(cnfs[0].num_positive_clauses, 2);
}

TEST(CnfBuilder, OtherChainMayStartAtAnEarlierDay) {
  // The OutputSortedByKey shape: each chain is day-ordered, but a later
  // chain starts before the day an earlier one reached.
  PathPool pool;
  StreamingCnfBuilder builder(pool, day_only());
  builder.add(make_clause(pool, {1}, true, /*url=*/2, /*day=*/5));
  builder.add(make_clause(pool, {1}, true, /*url=*/0, /*day=*/3));
  builder.add(make_clause(pool, {2}, true, /*url=*/2, /*day=*/1, censor::Anomaly::kRst));
  builder.add(make_clause(pool, {1}, true, /*url=*/0, /*day=*/4));
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
    if (group.positive_ids.empty()) continue;
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
    const std::vector<TomoCnf> want = reference_cnfs(pool, clauses, options);
    expect_cnfs_equal(build_cnfs(pool, clauses, options), want);

    std::int32_t num_urls = 0;  // the tightest bound load() must accept
    for (const PathClause& c : clauses) num_urls = std::max(num_urls, c.url_id + 1);
    for (const auto& threads : lanes) {
      SCOPED_TRACE("threads " + std::to_string(threads->size()));
      expect_cnfs_equal(build_cnfs(pool, clauses, options, threads.get()), want);

      // The same stream through the incremental path in random batches,
      // with random watermark advances and save/load round trips into a
      // fresh builder mid-run: the rebuilt dedupe state must file
      // nothing twice.
      auto builder = std::make_unique<StreamingCnfBuilder>(pool, options, threads.get());
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
          builder = std::make_unique<StreamingCnfBuilder>(pool, options, threads.get());
          util::ByteReader r(w.bytes());
          builder->load(r, num_urls, pool.size());
          r.expect_end();
        }
        if (i < clauses.size() && rng.bernoulli(0.5)) {
          take(builder->advance_watermark(clauses[i].day));
        }
      }
      take(builder->flush());
      std::sort(streamed.begin(), streamed.end(),
                [](const TomoCnf& a, const TomoCnf& b) { return a.key < b.key; });
      expect_cnfs_equal(streamed, want);
      if (HasFailure()) return;
    }
  }
}

TEST(CnfBuilder, BatchBelowTheWatermarkThrowsAndFilesNothing) {
  PathPool pool;
  util::ThreadPool threads(3);
  StreamingCnfBuilder builder(pool, {}, &threads);
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
  const auto cnfs = builder.flush();
  ASSERT_EQ(cnfs.size(), 4u);  // url 0's day, week, month and year windows
  for (const auto& tc : cnfs) EXPECT_EQ(tc.key.url_id, 0);
}

// ---------------------------------------------------------------------
// Checkpoint format.

/// A builder borrowing `pool`, with open groups in two chains at all
/// four granularities, duplicate positives and negatives, a day window
/// whose negatives arrive out of id order, and closed day windows behind
/// a watermark of 2.
StreamingCnfBuilder checkpoint_fixture(PathPool& pool) {
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
  StreamingCnfBuilder builder(pool);
  for (const PathClause& c : clauses) {
    if (c.day == 2 && builder.watermark() == 0) builder.advance_watermark(2);
    builder.add(c);
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
  const std::string expected = cut_v4_to_v5(from_hex(v4), /*emitted=*/2);

  PathPool pool;
  const StreamingCnfBuilder builder = checkpoint_fixture(pool);
  util::ByteWriter w;
  builder.save(w);
  EXPECT_EQ(to_hex(w.bytes()), to_hex(expected));

  // load() + save() reproduces the bytes.
  StreamingCnfBuilder restored(pool);
  util::ByteReader r(w.bytes());
  restored.load(r, /*num_urls=*/2, pool.size());
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
  StreamingCnfBuilder builder(pool);
  builder.add(positive);
  builder.add(negative);
  util::ByteWriter w;
  builder.save(w);

  StreamingCnfBuilder restored(pool);
  util::ByteReader r(w.bytes());
  restored.load(r, /*num_urls=*/1, pool.size());
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
  const auto cnfs = restored.flush();
  ASSERT_EQ(cnfs.size(), 5u);  // days 3 and 5, week, month, year
  for (const auto& tc : cnfs) {
    SCOPED_TRACE(util::window_label(tc.key.window, tc.key.granularity));
    EXPECT_EQ(tc.num_positive_clauses, 1);
  }
}

/// A hand-built payload holding one open day window of `url_id` whose
/// one positive path id is `path_id` — as a crafted checkpoint would.
std::string one_window_payload(std::int32_t url_id, PathPool::PathId path_id = 0) {
  const auto save_id = [](util::ByteWriter& w, PathPool::PathId id) { w.i32(id); };
  util::ByteWriter w;
  w.size(1);  // open windows
  w.i32(url_id);
  w.u8(static_cast<std::uint8_t>(censor::Anomaly::kDns));
  w.u8(static_cast<std::uint8_t>(util::Granularity::kDay));
  w.i32(0);  // window
  util::save_vec(w, std::vector<PathPool::PathId>{path_id}, save_id);  // positives
  util::save_vec(w, std::vector<PathPool::PathId>{}, save_id);  // negatives
  w.i32(0);  // watermark
  return w.take();
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
  for (const std::int32_t url_id : {kUrls, std::int32_t{1} << 28}) {
    SCOPED_TRACE("url_id=" + std::to_string(url_id));
    const std::string payload = one_window_payload(url_id);
    StreamingCnfBuilder builder(pool);
    util::ByteReader r(payload);
    EXPECT_THROW(builder.load(r, kUrls, pool.size()), util::SerdeError);
  }
}

TEST(CnfBuilder, LoadAcceptsUrlIdJustBelowTheBound) {
  constexpr std::int32_t kUrls = 120;
  const PathPool pool = one_path_pool();
  const std::string payload = one_window_payload(kUrls - 1);
  StreamingCnfBuilder builder(pool);
  util::ByteReader r(payload);
  builder.load(r, kUrls, pool.size());
  r.expect_end();
  EXPECT_EQ(builder.open_windows(), 1u);
  util::ByteWriter again;
  builder.save(again);
  EXPECT_EQ(again.bytes(), payload);
}

TEST(CnfBuilder, LoadRefusesIdsOutsideTheirPool) {
  // Path ids are bounded by the size the caller passes, the pool it
  // loaded alongside.
  const PathPool pool = one_path_pool();
  for (const PathPool::PathId id : {-1, 1}) {
    SCOPED_TRACE("path_id=" + std::to_string(id));
    const std::string payload = one_window_payload(0, id);
    StreamingCnfBuilder refused(pool);
    util::ByteReader r(payload);
    EXPECT_THROW(refused.load(r, 1, pool.size()), util::SerdeError);
    EXPECT_EQ(refused.open_windows(), 0u);
  }

  // A saved builder's ids are refused against an empty pool and
  // accepted against the pool they came from.
  PathPool grown;
  const PathClause clause = make_clause(grown, {1, 2, 3}, true, 0, /*day=*/3);
  StreamingCnfBuilder builder(grown);
  builder.add(clause);
  util::ByteWriter w;
  builder.save(w);
  StreamingCnfBuilder refused(grown);
  util::ByteReader r3(w.bytes());
  EXPECT_THROW(refused.load(r3, 1, /*num_paths=*/0), util::SerdeError);
  StreamingCnfBuilder accepted(grown);
  util::ByteReader r4(w.bytes());
  accepted.load(r4, 1, grown.size());
  r4.expect_end();
  EXPECT_EQ(accepted.open_windows(), builder.open_windows());
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
    auto filter = std::make_unique<ChurnStripFilter>(table_vantages, num_urls);
    MapStripReference prefix;
    std::vector<PathClause> got;
    for (std::size_t i = 0; i < clauses.size(); ++i) {
      if (filter->keep(pool, clauses[i])) got.push_back(clauses[i]);
      prefix.keep(pool, clauses[i]);
      if (rng.bernoulli(0.05)) {
        util::ByteWriter w;
        filter->save(w);
        ASSERT_EQ(w.bytes(), prefix.save());
        filter = std::make_unique<ChurnStripFilter>(table_vantages, num_urls);
        util::ByteReader r(w.bytes());
        filter->load(r, pool.size());
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

TEST(StripPathChurn, LoadRefusesKeysOutsideTheTableOrOutOfOrder) {
  constexpr std::int32_t kPaths = 9;  // the corners below use ids 5 to 8
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
    ChurnStripFilter filter(4, 3);
    const std::string payload = strip_payload(entries);
    util::ByteReader r(payload);
    EXPECT_THROW(filter.load(r, kPaths), util::SerdeError);
    // The refused load left the filter empty.
    util::ByteWriter w;
    filter.save(w);
    EXPECT_EQ(w.bytes(), strip_payload({}));
  }

  // The corners of the table load and save back byte for byte.
  const std::string corners = strip_payload({{0, 0, 5}, {0, 2, 6}, {3, 0, 7}, {3, 2, 8}});
  ChurnStripFilter filter(4, 3);
  util::ByteReader r(corners);
  filter.load(r, kPaths);
  r.expect_end();
  util::ByteWriter w;
  filter.save(w);
  EXPECT_EQ(w.bytes(), corners);
}

}  // namespace
}  // namespace ct::tomo
