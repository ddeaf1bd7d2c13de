// Same-day clause dedupe (ClauseBuilder).  A builder keeps a clause only
// on the first sight of its (day, vantage, URL, anomaly, path, observed)
// key.  The checks here compare it with a reference sink that keeps
// every derived clause, in every scenario regime, serial and absorbed
// from a 2 x 2 grid of shards:
//   * the builder's stream, seqs, pool and stats equal a std::set
//     first-occurrence filter over the reference stream;
//   * build_cnfs over the deduped stream equals build_cnfs over the full
//     stream, DIMACS-exact, and so does Figure 4's strip-then-build.
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/experiment.h"
#include "analysis/scenario.h"
#include "censor/regime.h"
#include "net/traceroute.h"
#include "tomo/clause.h"
#include "tomo/cnf_builder.h"

namespace ct::tomo {
namespace {

/// Every usable measurement's kNumAnomalies clauses, interned into its
/// own pool, with the elimination stats counted independently of
/// ClauseBuilder.
struct FullStream : iclab::MeasurementSink {
  explicit FullStream(const net::Ip2AsDb& db) : db(&db) {}

  void on_measurement(const iclab::Measurement& m) override {
    ++stats.measurements;
    const net::InferenceResult inferred = net::infer_as_path(m.traceroutes, *db);
    switch (inferred.drop) {
      case net::InferenceDrop::kNoMapping:
        ++stats.dropped_no_mapping;
        return;
      case net::InferenceDrop::kTracerouteError:
        ++stats.dropped_traceroute_error;
        return;
      case net::InferenceDrop::kAmbiguousGap:
        ++stats.dropped_ambiguous_gap;
        return;
      case net::InferenceDrop::kDivergentPaths:
        ++stats.dropped_divergent_paths;
        return;
      case net::InferenceDrop::kNone:
        break;
    }
    ++stats.usable_measurements;
    const PathPool::PathId path_id = pool.intern(inferred.as_path);
    for (const censor::Anomaly a : censor::kAllAnomalies) {
      PathClause clause;
      clause.path_id = path_id;
      clause.url_id = m.url_id;
      clause.vantage = m.vantage;
      clause.day = m.day;
      clause.anomaly = a;
      clause.observed = m.detected[static_cast<std::size_t>(a)];
      clauses.push_back(clause);
      seqs.push_back(m.seq);
      ++stats.clauses;
    }
  }

  const net::Ip2AsDb* db;
  PathPool pool;
  std::vector<PathClause> clauses;
  std::vector<std::int64_t> seqs;
  ClauseBuildStats stats;
};

/// The first occurrence of each (day, vantage, URL, anomaly, path,
/// observed) key in `full`, in stream order, path ids in full.pool.
struct FirstOccurrences {
  std::vector<PathClause> clauses;
  std::vector<std::int64_t> seqs;
};

FirstOccurrences first_occurrences(const FullStream& full) {
  using Key = std::tuple<util::Day, topo::AsId, std::int32_t, censor::Anomaly, PathPool::PathId,
                         bool>;
  std::set<Key> seen;
  FirstOccurrences out;
  for (std::size_t i = 0; i < full.clauses.size(); ++i) {
    const PathClause& c = full.clauses[i];
    if (seen.emplace(c.day, c.vantage, c.url_id, c.anomaly, c.path_id, c.observed).second) {
      out.clauses.push_back(c);
      out.seqs.push_back(full.seqs[i]);
    }
  }
  return out;
}

void expect_pools_equal(const PathPool& a, const PathPool& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.get(static_cast<PathPool::PathId>(i)), b.get(static_cast<PathPool::PathId>(i)));
  }
}

void expect_cnfs_equal(const std::vector<TomoCnf>& got, const std::vector<TomoCnf>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].key, want[i].key);
    EXPECT_EQ(got[i].vars, want[i].vars);
    EXPECT_EQ(got[i].clean, want[i].clean);
    EXPECT_EQ(got[i].clause_vars, want[i].clause_vars);
    EXPECT_EQ(got[i].clause_ends, want[i].clause_ends);
    EXPECT_EQ(got[i].path_ases, want[i].path_ases);
    EXPECT_EQ(got[i].path_ends, want[i].path_ends);
    EXPECT_EQ(got[i].num_positive_clauses, want[i].num_positive_clauses);
    EXPECT_EQ(got[i].num_negative_units, want[i].num_negative_units);
  }
}

/// A two-week small scenario under `regime`.
analysis::ScenarioConfig regime_scenario(censor::ScenarioRegime regime) {
  analysis::ScenarioConfig cfg = analysis::small_scenario();
  cfg.platform.num_days = 2 * util::kDaysPerWeek;
  cfg.regime.regime = regime;
  return cfg;
}

/// One regime's serial run into both sinks, and a ClauseBuilder that
/// absorbed the same schedule run on a 2 x 2 day x vantage grid.
struct RegimeRun {
  explicit RegimeRun(censor::ScenarioRegime regime)
      : scenario(regime_scenario(regime)),
        full(scenario.ip2as()),
        serial(scenario.ip2as()),
        absorbed(scenario.ip2as()) {
    iclab::SinkFanout both;
    both.add(&full);
    both.add(&serial);
    scenario.platform().run(both);

    const auto num_vp = static_cast<std::int32_t>(scenario.platform().vantages().size());
    std::vector<std::unique_ptr<ClauseBuilder>> shards;
    std::vector<const ClauseBuilder*> views;
    for (const auto& range :
         iclab::plan_shard_grid(scenario.config().platform.num_days, num_vp, 2, 2)) {
      shards.push_back(std::make_unique<ClauseBuilder>(scenario.ip2as()));
      scenario.platform().run_shard(*shards.back(), range);
      views.push_back(shards.back().get());
    }
    EXPECT_EQ(views.size(), 4u);
    absorbed.absorb(views);
  }

  analysis::Scenario scenario;
  FullStream full;
  ClauseBuilder serial;
  ClauseBuilder absorbed;
};

TEST(ClauseBuilder, StreamIsTheSameDayFirstOccurrenceFilter) {
  for (const censor::ScenarioRegime regime : censor::all_regimes()) {
    SCOPED_TRACE(censor::to_string(regime));
    const RegimeRun run(regime);
    const FirstOccurrences want = first_occurrences(run.full);
    // Not vacuous: the schedule repeats clauses within a day, and keeps
    // some of every measurement-day.
    EXPECT_LT(want.clauses.size(), run.full.clauses.size());
    EXPECT_GT(want.clauses.size(), 0u);
    for (const ClauseBuilder* builder : {&run.serial, &run.absorbed}) {
      SCOPED_TRACE(builder == &run.serial ? "serial" : "absorbed from 4 shards");
      EXPECT_EQ(builder->clauses(), want.clauses);
      EXPECT_EQ(builder->seqs(), want.seqs);
      EXPECT_EQ(builder->stats(), run.full.stats);
      expect_pools_equal(builder->pool(), run.full.pool);
    }
  }
}

TEST(ClauseBuilder, DedupedStreamBuildsTheSameCnfs) {
  const analysis::ExperimentOptions defaults;
  CnfBuildOptions fig4;
  fig4.granularities = defaults.fig1_granularities;
  for (const censor::ScenarioRegime regime : censor::all_regimes()) {
    SCOPED_TRACE(censor::to_string(regime));
    const RegimeRun run(regime);
    const PathPool& pool = run.full.pool;  // equal to the builder's pool
    ASSERT_EQ(run.serial.pool().size(), pool.size());
    const std::vector<TomoCnf> main = build_cnfs(pool, run.full.clauses);
    EXPECT_GT(main.size(), 0u);
    expect_cnfs_equal(build_cnfs(pool, run.serial.clauses()), main);
    expect_cnfs_equal(build_cnfs(pool, strip_path_churn(pool, run.serial.clauses()), fig4),
                      build_cnfs(pool, strip_path_churn(pool, run.full.clauses), fig4));
  }
}

}  // namespace
}  // namespace ct::tomo
