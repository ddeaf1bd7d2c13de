// Self-consistency of the closed-form verdicts on tomography CNFs too
// large for the brute-force referee (50-150 ASes): the model a verdict
// names, its uniqueness, repeatability, and monotonicity as clean paths
// and censored paths are added; and reuse of one analyzer's scratch
// buffers across CNFs of rising and falling size.  The suites keep the
// names they had when a SAT solver computed the verdicts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "tomo/engine.h"
#include "util/rng.h"
#include "verdict_support.h"

namespace ct::tomo {
namespace {

using test::as_tomo_cnf;
using test::neg;
using test::pos;

/// Adds one path of three distinct ASes drawn from [lo, lo + span): a
/// clean path's three negative units, or a censored path's clause.
void add_path(sat::Cnf& cnf, util::Rng& rng, bool clean, std::int32_t lo, std::int32_t span) {
  std::vector<sat::Var> ases;
  while (ases.size() < 3) {
    const auto v = static_cast<sat::Var>(lo + static_cast<std::int32_t>(
                                                   rng.index(static_cast<std::size_t>(span))));
    if (std::find(ases.begin(), ases.end(), v) == ases.end()) ases.push_back(v);
  }
  if (clean) {
    for (const sat::Var v : ases) cnf.add_clause({neg(v)});
  } else {
    cnf.add_clause({pos(ases[0]), pos(ases[1]), pos(ases[2])});
  }
}

/// `num_paths` random paths over `num_vars` ASes, a share `clean` of
/// them clean.
TomoCnf random_paths(std::int32_t num_vars, int num_paths, double clean, std::uint64_t seed) {
  util::Rng rng(seed);
  sat::Cnf cnf;
  cnf.num_vars = num_vars;
  for (int i = 0; i < num_paths; ++i) add_path(cnf, rng, rng.bernoulli(clean), 0, num_vars);
  return as_tomo_cnf(std::move(cnf));
}

/// The ASes with a negative unit.
std::vector<bool> clean_set(const sat::Cnf& cnf) {
  std::vector<bool> clean(static_cast<std::size_t>(cnf.num_vars), false);
  for (const auto& clause : cnf.clauses) {
    if (clause.size() == 1 && clause[0].negated()) {
      clean[static_cast<std::size_t>(clause[0].var())] = true;
    }
  }
  return clean;
}

/// Checks a verdict against the CNF without the referee: UNSAT has a
/// censored path of clean ASes only; a satisfiable verdict names a
/// model whose false ASes are exactly the clean ones; and the model is
/// unique iff no true AS can be set false.
void expect_self_consistent(const TomoCnf& tc, const CnfVerdict& v) {
  const std::vector<bool> clean = clean_set(tc.cnf);
  if (v.solution_class == 0) {
    bool all_clean_path = false;
    for (const auto& clause : tc.cnf.clauses) {
      if (clause.size() == 1 && clause[0].negated()) continue;
      all_clean_path = all_clean_path || std::all_of(clause.begin(), clause.end(), [&](sat::Lit l) {
                         return clean[static_cast<std::size_t>(l.var())];
                       });
    }
    EXPECT_TRUE(all_clean_path) << "UNSAT, yet every censored path has an AS off the clean paths";
    return;
  }
  std::vector<bool> model = test::verdict_model(v, tc.cnf.num_vars);
  ASSERT_TRUE(test::satisfies(tc.cnf, model));
  for (std::size_t x = 0; x < model.size(); ++x) EXPECT_NE(model[x], clean[x]) << "AS " << x;
  bool some_true_as_is_free = false;
  for (std::size_t x = 0; x < model.size() && !some_true_as_is_free; ++x) {
    if (!model[x]) continue;
    model[x] = false;
    some_true_as_is_free = test::satisfies(tc.cnf, model);
    model[x] = true;
  }
  EXPECT_EQ(v.solution_class == 2, some_true_as_is_free);
  EXPECT_EQ(v.capped_count >= 2, v.solution_class == 2);
}

class SolverStress : public ::testing::TestWithParam<std::uint64_t> {};

/// Always satisfiable: `clean_paths` clean paths among the ASes below
/// `free_from`, and `censored_paths` censored paths that each carry an
/// AS from `free_from` up.
TomoCnf satisfiable_paths(std::int32_t num_vars, std::int32_t free_from, int clean_paths,
                          int censored_paths, std::uint64_t seed) {
  util::Rng rng(seed);
  sat::Cnf cnf;
  cnf.num_vars = num_vars;
  for (int i = 0; i < clean_paths; ++i) add_path(cnf, rng, true, 0, free_from);
  for (int i = 0; i < censored_paths; ++i) {
    add_path(cnf, rng, false, 0, num_vars);
    const auto span = static_cast<std::size_t>(num_vars - free_from);
    const auto v = static_cast<sat::Var>(free_from + static_cast<std::int32_t>(rng.index(span)));
    cnf.clauses.back().push_back(pos(v));
  }
  return as_tomo_cnf(std::move(cnf));
}

TEST_P(SolverStress, UnderconstrainedInstancesAreSatWithValidModels) {
  // 150 ASes, 30 clean paths among the first 100, 450 censored paths.
  const TomoCnf tc = satisfiable_paths(150, 100, 30, 450, GetParam());
  const CnfVerdict v = analyze_cnf(tc);
  ASSERT_GT(v.solution_class, 0);
  expect_self_consistent(tc, v);
}

TEST_P(SolverStress, NearThresholdInstancesAreSelfConsistent) {
  // 80 ASes and 130 paths, 3% of them clean: either verdict is likely
  // (seeds 1-8 give both).  Whatever it is, it is repeatable on one analyzer, equal on
  // a fresh analyzer and a threaded batch, and consistent with the CNF.
  const TomoCnf tc = random_paths(80, 130, 0.03, GetParam() + 1000);
  CnfAnalyzer analyzer;
  const CnfVerdict first = analyzer.analyze(tc);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(analyzer.analyze(tc), first);
  EXPECT_EQ(analyze_cnf(tc), first);
  AnalysisOptions threaded;
  threaded.num_threads = 2;
  for (const CnfVerdict& v : analyze_cnfs({tc, tc}, threaded)) EXPECT_EQ(v, first);
  expect_self_consistent(tc, first);
}

TEST_P(SolverStress, AssumptionMonotonicity) {
  // Clean-path units as assumptions: more of them never raise the model
  // count nor add a potential censor, and a CNF UNSAT under units {a, b}
  // stays UNSAT under {a, b, c, d}.  Assuming clean exactly the ASes the
  // verdict already calls clean changes nothing.
  const TomoCnf base = satisfiable_paths(60, 40, 6, 40, GetParam() + 2000);
  CnfAnalyzer analyzer;
  AnalysisOptions options;
  options.count_cap = 500;
  const CnfVerdict v = analyzer.analyze(base, options);
  ASSERT_GT(v.solution_class, 0);
  TomoCnf restated = base;
  for (const sat::Var x : test::vars_of(v.definite_noncensors)) restated.cnf.add_clause({neg(x)});
  EXPECT_EQ(analyzer.analyze(restated, options), v);

  util::Rng rng(GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    TomoCnf assumed = base;
    std::uint64_t previous = v.capped_count;
    std::vector<bool> previous_model = test::verdict_model(v, 60);
    bool was_unsat = false;
    for (int k = 0; k < 4; ++k) {
      assumed.cnf.add_clause({neg(static_cast<sat::Var>(rng.index(60)))});
      const CnfVerdict now = analyzer.analyze(assumed, options);
      EXPECT_LE(now.capped_count, previous);
      const std::vector<bool> model = test::verdict_model(now, 60);
      for (std::size_t x = 0; x < model.size(); ++x) {
        EXPECT_TRUE(!model[x] || previous_model[x]) << "AS " << x << " became a potential censor";
      }
      previous_model = model;
      if (was_unsat) {
        EXPECT_EQ(now.solution_class, 0);
      }
      was_unsat = now.solution_class == 0;
      previous = now.capped_count;
      expect_self_consistent(assumed, now);
    }
  }
}

TEST_P(SolverStress, IncrementalTighteningMonotone) {
  // Adding paths only removes models: the count never rises and a CNF
  // once UNSAT stays UNSAT.  The later rounds add clean paths only, so
  // the CNF must end UNSAT.
  TomoCnf tc = random_paths(50, 40, 0.1, GetParam() + 3000);
  util::Rng rng(GetParam() + 4000);
  CnfAnalyzer analyzer;
  AnalysisOptions options;
  options.count_cap = 500;
  std::uint64_t previous = options.count_cap;
  bool was_unsat = false;
  for (int round = 0; round < 30; ++round) {
    const CnfVerdict v = analyzer.analyze(tc, options);
    EXPECT_LE(v.capped_count, previous) << "round " << round;
    if (was_unsat) {
      EXPECT_EQ(v.solution_class, 0) << "round " << round;
    }
    was_unsat = was_unsat || v.solution_class == 0;
    previous = v.capped_count;
    expect_self_consistent(tc, v);
    add_path(tc.cnf, rng, round >= 10 || rng.bernoulli(0.5), 0, 50);
  }
  EXPECT_TRUE(was_unsat) << "20 clean paths should have emptied a censored path";
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverStress, ::testing::Range<std::uint64_t>(1, 9));

TEST(SolverStress, ManySmallSolvesReuseOneSolver) {
  // Many tiny analyses on one analyzer: ten disjoint censored paths
  // (x_2i v x_2i+1), each with one of its ASes assumed clean in turn.
  CnfAnalyzer analyzer;
  for (sat::Var v = 0; v < 20; ++v) {
    sat::Cnf cnf;
    cnf.num_vars = 20;
    for (sat::Var p = 0; p + 1 < 20; p += 2) cnf.add_clause({pos(p), pos(p + 1)});
    cnf.add_clause({neg(v)});
    const TomoCnf tc = as_tomo_cnf(std::move(cnf));
    const CnfVerdict got = analyzer.analyze(tc);
    ASSERT_EQ(got.solution_class, 2);
    const std::vector<bool> model = test::verdict_model(got, 20);
    EXPECT_TRUE(model[static_cast<std::size_t>(v ^ 1)]) << "the partner of a clean AS is forced";
    EXPECT_FALSE(model[static_cast<std::size_t>(v)]);
    EXPECT_EQ(got, analyze_cnf(tc));
  }
  // Both ASes of one path clean: UNSAT; the next CNF recovers.
  sat::Cnf both;
  both.num_vars = 2;
  both.add_clause({pos(0), pos(1)});
  both.add_clause({neg(0)});
  both.add_clause({neg(1)});
  EXPECT_EQ(analyzer.analyze(as_tomo_cnf(both)).solution_class, 0);
  both.clauses.pop_back();
  EXPECT_EQ(analyzer.analyze(as_tomo_cnf(both)).solution_class, 1);
}

/// The reuse stream: tomography CNFs whose sizes rise and fall from one
/// to the next (3..60 ASes).  A third are random paths, a third pin 1-3
/// censors (every other AS clean, each censor on a path of clean ASes)
/// and a third are mostly clean paths.
std::vector<TomoCnf> reuse_stream(std::uint64_t seed, int length) {
  util::Rng rng(seed);
  std::vector<TomoCnf> stream;
  for (int i = 0; i < length; ++i) {
    const auto num_vars = static_cast<std::int32_t>(rng.uniform_int(3, 60));
    const auto n = static_cast<std::size_t>(num_vars);
    const int paths = static_cast<int>(rng.uniform_int(1, num_vars));
    TomoCnf tc;
    switch (rng.index(3)) {
      case 0:
        tc = random_paths(num_vars, paths, 0.1, rng());
        break;
      case 1: {
        std::vector<sat::Var> order(n);
        for (std::size_t x = 0; x < n; ++x) order[x] = static_cast<sat::Var>(x);
        rng.shuffle(order);
        const auto censors =
            static_cast<std::size_t>(rng.uniform_int(1, std::min<std::int64_t>(3, num_vars - 1)));
        sat::Cnf cnf;
        cnf.num_vars = num_vars;
        for (std::size_t k = censors; k < n; ++k) cnf.add_clause({neg(order[k])});
        for (std::size_t k = 0; k < censors; ++k) {
          cnf.add_clause({pos(order[k]), pos(order[censors + rng.index(n - censors)]),
                          pos(order[censors + rng.index(n - censors)])});
        }
        tc = as_tomo_cnf(std::move(cnf));
        break;
      }
      default:
        tc = random_paths(num_vars, paths, 0.8, rng());
    }
    tc.key.url_id = i;
    stream.push_back(std::move(tc));
  }
  return stream;
}

/// What a stream exercised, so a suite cannot pass vacuously.
void expect_every_class(const std::vector<CnfVerdict>& verdicts) {
  std::vector<int> seen(3, 0);
  for (const CnfVerdict& v : verdicts) seen[static_cast<std::size_t>(v.solution_class)] += 1;
  EXPECT_GT(seen[0], 0) << "no unsatisfiable CNF";
  EXPECT_GT(seen[1], 0) << "no unique-solution CNF";
  EXPECT_GT(seen[2], 0) << "no underconstrained CNF";
}

TEST(SolverReuse, ResetSolverMatchesAFreshSolver) {
  // One analyzer over the stream, with a refused CNF (thrown mid-scan)
  // between every two: each verdict equals a fresh analyzer's, and the
  // refused CNFs count nowhere.
  const std::vector<TomoCnf> stream = reuse_stream(20260801, 150);
  sat::Cnf mixed;
  mixed.num_vars = 64;
  for (sat::Var v = 0; v < 63; ++v) mixed.add_clause({neg(v)});
  mixed.add_clause({pos(63), neg(0)});
  const TomoCnf refused = as_tomo_cnf(std::move(mixed));

  AnalysisOptions options;
  options.count_cap = 50;
  CnfAnalyzer reused;
  std::vector<CnfVerdict> verdicts;
  std::uint64_t clauses = 0;
  for (const TomoCnf& tc : stream) {
    SCOPED_TRACE("CNF " + std::to_string(tc.key.url_id) + ", " + std::to_string(tc.cnf.num_vars) +
                 " vars");
    verdicts.push_back(reused.analyze(tc, options));
    EXPECT_EQ(verdicts.back(), analyze_cnf(tc, options));
    clauses += tc.cnf.clauses.size();
    EXPECT_THROW(reused.analyze(refused, options), std::invalid_argument);
  }
  EXPECT_EQ(reused.stats().cnf_loads, stream.size());
  EXPECT_EQ(reused.stats().fresh_clauses, clauses);
  expect_every_class(verdicts);
}

TEST(SolverReuse, SessionArenaMatchesFreshSessions) {
  // The batch path: analyze_cnfs hands the stream to worker analyzers
  // that each reuse their buffers; every verdict equals a fresh
  // analyzer's, under both count settings and for 1-3 workers.
  const std::vector<TomoCnf> stream = reuse_stream(20260802, 150);
  for (const bool resolve_counts : {false, true}) {
    for (const unsigned threads : {1u, 2u, 3u}) {
      SCOPED_TRACE("resolve_counts=" + std::to_string(resolve_counts) +
                   " threads=" + std::to_string(threads));
      AnalysisOptions options;
      options.resolve_counts = resolve_counts;
      options.num_threads = threads;
      EngineStats stats;
      const std::vector<CnfVerdict> verdicts = analyze_cnfs(stream, options, &stats);
      ASSERT_EQ(verdicts.size(), stream.size());
      for (std::size_t i = 0; i < stream.size(); ++i) {
        EXPECT_EQ(verdicts[i], analyze_cnf(stream[i], options)) << "CNF " << i;
      }
      EXPECT_EQ(stats.cnf_loads, stream.size());
      expect_every_class(verdicts);
    }
  }
}

}  // namespace
}  // namespace ct::tomo
