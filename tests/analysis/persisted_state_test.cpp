// Property suite for the parts of the monitor's persisted state: what a
// part's public API accepts, its loader accepts, and an input the API
// refuses leaves no trace.
//
// For each part, random public-API inputs — in-range and out-of-range
// ids alike — drive one instance built with a random geometry.  An
// input outside that geometry must throw and leave the saved bytes
// unchanged; every other input must be taken.  Then the part is saved,
// loaded into a fresh instance of the same geometry and saved again:
// the bytes must be equal.  A part that grew on an id its own loader
// refuses would write a checkpoint it cannot restore; this suite is
// where that shows.
//
// The verdict folds (CensorSupport, LiveCounts, LeakageFold) are built
// without the AS graph, so their add() takes any AS id and their
// loaders take the graph's AS count instead: a fold fed ids inside the
// graph round-trips, and bytes naming an AS outside it are refused.
//
// Replay a failure with CT_FUZZ_SEED=<n> ctest -R PersistedState.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "../support/fuzz_seed.h"
#include "analysis/churn_stats.h"
#include "analysis/live_report.h"
#include "analysis/scenario.h"
#include "analysis/truth_tracker.h"
#include "iclab/platform.h"
#include "tomo/clause.h"
#include "tomo/cnf_builder.h"
#include "tomo/engine.h"
#include "tomo/leakage.h"
#include "topo/generator.h"
#include "util/rng.h"
#include "util/serde.h"

namespace ct::analysis {
namespace {

template <typename T>
std::string bytes_of(const T& part) {
  util::ByteWriter w;
  part.save(w);
  return w.take();
}

/// Runs `input` on `part`.  A refused input must throw and leave the
/// saved bytes as they were; any other must be taken.  Every refusal
/// the parts make is a std::logic_error (out_of_range and
/// invalid_argument included).
template <typename T, typename Fn>
void expect_input(const T& part, bool refused, Fn&& input) {
  if (!refused) {
    EXPECT_NO_THROW(input());
    return;
  }
  const std::string before = bytes_of(part);
  EXPECT_THROW(input(), std::logic_error);
  EXPECT_EQ(bytes_of(part), before);
}

/// save, load into `fresh` (with the loader's `bound`, if it takes one),
/// save again: the same bytes.
template <typename T, typename... Bound>
void expect_round_trip(const T& part, T& fresh, Bound... bound) {
  const std::string saved = bytes_of(part);
  util::ByteReader r(saved);
  ASSERT_NO_THROW(fresh.load(r, bound...));
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(bytes_of(fresh), saved);
}

/// A value in [-1, bound]: one below the valid range, one past it, or
/// inside it.
std::int32_t id_around(util::Rng& rng, std::int64_t bound) {
  return static_cast<std::int32_t>(rng.uniform_int(-1, bound));
}

/// A value in [0, n).
std::int32_t id_below(util::Rng& rng, std::int64_t n) {
  return static_cast<std::int32_t>(rng.uniform_int(0, n - 1));
}

bool in_range(std::int64_t id, std::int64_t bound) { return id >= 0 && id < bound; }

topo::AsGraph tiny_graph() {
  topo::TopologyConfig cfg;
  cfg.num_ases = 30;
  cfg.num_tier1 = 2;
  cfg.num_transit = 6;
  cfg.num_countries = 4;
  return topo::generate_topology(cfg, 2);
}

/// A pool of the empty path and `n` non-empty ones.
tomo::PathPool random_pool(util::Rng& rng, int n) {
  tomo::PathPool pool;
  pool.intern({});
  for (int p = 0; p < n; ++p) {
    std::vector<topo::AsId> path(static_cast<std::size_t>(rng.uniform_int(1, 4)));
    for (topo::AsId& as : path) as = static_cast<topo::AsId>(rng.uniform_int(0, 29));
    pool.intern(path);
  }
  return pool;
}

TEST(PersistedState, StreamingCnfBuilder) {
  const std::uint64_t seed = ct::test::fuzz_seed(20171015);
  SCOPED_TRACE(ct::test::fuzz_trace(seed));
  util::Rng rng(seed);
  for (int trial = 0; trial < 100; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const tomo::PathPool pool = random_pool(rng, static_cast<int>(rng.uniform_int(0, 5)));
    const auto num_paths = static_cast<std::int64_t>(pool.size());
    const auto num_urls = static_cast<std::int32_t>(rng.uniform_int(0, 4));
    tomo::CnfBuildOptions options;
    if (rng.bernoulli(0.5)) options.granularities = {util::Granularity::kDay};
    tomo::StreamingCnfBuilder builder(pool, num_urls, options);

    // Days never go back, so no clause breaks the ordering
    // precondition; a late clause lands one day below the watermark.
    util::Day day = 0;
    for (int step = 0; step < 80; ++step) {
      day += rng.bernoulli(0.2) ? 1 : 0;
      if (rng.bernoulli(0.1)) {
        builder.advance_watermark(day);
        continue;
      }
      tomo::PathClause c;
      c.url_id = id_around(rng, num_urls);
      c.anomaly = static_cast<censor::Anomaly>(rng.uniform_int(0, censor::kNumAnomalies));
      c.path_id = id_around(rng, num_paths);
      c.observed = rng.bernoulli(0.5);
      c.day = builder.watermark() > 0 && rng.bernoulli(0.1) ? builder.watermark() - 1 : day;
      const bool refused = !in_range(c.url_id, num_urls) ||
                           static_cast<std::size_t>(c.anomaly) >= censor::kNumAnomalies ||
                           !in_range(c.path_id, num_paths) || c.day < builder.watermark();
      expect_input(builder, refused, [&] { builder.add(c); });
    }
    tomo::StreamingCnfBuilder fresh(pool, num_urls, options);
    expect_round_trip(builder, fresh);
    if (HasFailure()) return;
  }
}

TEST(PersistedState, ChurnStripFilter) {
  const std::uint64_t seed = ct::test::fuzz_seed(20171016);
  SCOPED_TRACE(ct::test::fuzz_trace(seed));
  util::Rng rng(seed);
  for (int trial = 0; trial < 100; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const tomo::PathPool pool = random_pool(rng, static_cast<int>(rng.uniform_int(0, 5)));
    const auto num_paths = static_cast<std::int64_t>(pool.size());
    const auto num_vantages = static_cast<std::int32_t>(rng.uniform_int(0, 4));
    const auto num_urls = static_cast<std::int32_t>(rng.uniform_int(0, 4));
    tomo::ChurnStripFilter filter(pool, num_vantages, num_urls);
    for (int step = 0; step < 60; ++step) {
      tomo::PathClause c;
      c.vantage = id_around(rng, num_vantages);
      c.url_id = id_around(rng, num_urls);
      c.path_id = id_around(rng, num_paths);
      const bool refused = !in_range(c.vantage, num_vantages) || !in_range(c.url_id, num_urls) ||
                           !in_range(c.path_id, num_paths);
      expect_input(filter, refused, [&] { filter.keep(c); });
    }
    tomo::ChurnStripFilter fresh(pool, num_vantages, num_urls);
    expect_round_trip(filter, fresh);
    if (HasFailure()) return;
  }
}

TEST(PersistedState, ChurnFold) {
  const std::uint64_t seed = ct::test::fuzz_seed(20171017);
  SCOPED_TRACE(ct::test::fuzz_trace(seed));
  util::Rng rng(seed);
  const topo::AsGraph graph = tiny_graph();
  const std::vector<topo::AsId> vantages{3, 10};
  const std::vector<topo::AsId> dests{20, 21, 25};
  const std::int64_t num_pairs = 6;
  const std::vector<std::uint64_t> signatures{0, 1, 2, 3, 0x9e3779b97f4a7c15ULL};
  for (int trial = 0; trial < 100; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const auto num_days = static_cast<util::Day>(rng.uniform_int(1, 40));
    ChurnFold fold(graph, vantages, dests, num_days, 2);
    for (int step = 0; step < 60; ++step) {
      switch (rng.uniform_int(0, 3)) {
        case 0:
        case 1: {
          const std::int32_t pair = id_around(rng, num_pairs);
          const util::Day day = id_around(rng, num_days);
          const std::uint64_t sig = signatures[rng.index(signatures.size())];
          const bool refused = !in_range(pair, num_pairs) || day < fold.retired_before() ||
                               day >= num_days || sig == 0;
          // A pair of -1 reaches observe() as SIZE_MAX.
          expect_input(fold, refused, [&] {
            fold.observe(static_cast<std::size_t>(static_cast<std::int64_t>(pair)), day, sig);
          });
          break;
        }
        case 2:
          fold.retire_before(static_cast<util::Day>(rng.uniform_int(0, num_days + 2)));
          break;
        default: {
          // A shard fold: sometimes of another geometry, sometimes
          // sealed, sometimes holding days this fold already sealed.
          const bool other_geometry = rng.bernoulli(0.1);
          ChurnFold other(graph, vantages, dests, num_days + (other_geometry ? 1 : 0), 2);
          util::Day earliest = std::numeric_limits<util::Day>::max();  // no observation
          for (std::int64_t k = rng.uniform_int(0, 4); k > 0; --k) {
            const auto day = static_cast<util::Day>(rng.uniform_int(0, num_days - 1));
            other.observe(rng.index(static_cast<std::size_t>(num_pairs)), day,
                          signatures[1 + rng.index(signatures.size() - 1)]);
            earliest = std::min(earliest, day);
          }
          const bool sealed = rng.bernoulli(0.1);
          if (sealed) other.retire_before(1);
          const bool refused = other_geometry || sealed || earliest < fold.retired_before();
          expect_input(fold, refused, [&] { fold.absorb_unsealed(std::move(other)); });
          break;
        }
      }
    }
    ChurnFold fresh(graph, vantages, dests, num_days, 2);
    expect_round_trip(fold, fresh);
    if (HasFailure()) return;
  }
}

TEST(PersistedState, DatasetSummary) {
  const std::uint64_t seed = ct::test::fuzz_seed(20171018);
  SCOPED_TRACE(ct::test::fuzz_trace(seed));
  util::Rng rng(seed);
  const topo::AsGraph graph = tiny_graph();
  const std::int32_t num_ases = graph.num_ases();
  const auto measurement = [&rng](std::int32_t vantage, std::int32_t url_id) {
    iclab::Measurement m;
    m.vantage = vantage;
    m.url_id = url_id;
    m.unreachable = rng.bernoulli(0.2);
    for (bool& detected : m.detected) detected = rng.bernoulli(0.3);
    return m;
  };
  for (int trial = 0; trial < 100; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const auto num_urls = static_cast<std::int32_t>(rng.uniform_int(0, 5));
    iclab::DatasetSummary summary(graph, num_urls);
    for (int step = 0; step < 60; ++step) {
      if (rng.bernoulli(0.1)) {
        // A shard summary, sometimes over another URL list.
        const auto other_urls = static_cast<std::int32_t>(num_urls + rng.uniform_int(0, 1));
        iclab::DatasetSummary other(graph, other_urls);
        for (std::int64_t k = rng.uniform_int(0, 3); k > 0 && other_urls > 0; --k) {
          other.on_measurement(measurement(id_below(rng, num_ases), id_below(rng, other_urls)));
        }
        expect_input(summary, other_urls != num_urls,
                     [&] { summary.merge(std::move(other)); });
        continue;
      }
      const iclab::Measurement m = measurement(id_around(rng, num_ases), id_around(rng, num_urls));
      const bool refused = !in_range(m.vantage, num_ases) || !in_range(m.url_id, num_urls);
      expect_input(summary, refused, [&] { summary.on_measurement(m); });
    }
    iclab::DatasetSummary fresh(graph, num_urls);
    expect_round_trip(summary, fresh);
    if (HasFailure()) return;
  }
}

TEST(PersistedState, TruthTracker) {
  const std::uint64_t seed = ct::test::fuzz_seed(20171019);
  SCOPED_TRACE(ct::test::fuzz_trace(seed));
  util::Rng rng(seed);
  const Scenario scenario(small_scenario());
  const iclab::Platform& platform = scenario.platform();
  const std::int32_t num_ases = scenario.graph().num_ases();
  const auto num_urls = static_cast<std::int32_t>(platform.urls().size());
  const std::vector<topo::AsId> censors = scenario.registry().censor_ases();
  ASSERT_FALSE(censors.empty());
  // A measurement whose truth path runs mostly through censors, so
  // some of them fire.
  const auto measurement = [&](std::int32_t url_id) {
    iclab::Measurement m;
    m.url_id = url_id;
    m.day = id_below(rng, platform.config().num_days);
    m.unreachable = rng.bernoulli(0.1);
    m.truth_path.resize(static_cast<std::size_t>(rng.uniform_int(1, 4)));
    for (topo::AsId& as : m.truth_path) {
      as = rng.bernoulli(0.7) ? censors[rng.index(censors.size())] : id_below(rng, num_ases);
    }
    for (bool& censored : m.truth_censored) censored = rng.bernoulli(0.5);
    for (bool& detected : m.detected) detected = rng.bernoulli(0.5);
    return m;
  };
  int observed_trials = 0;
  for (int trial = 0; trial < 50; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    TruthTracker truth(scenario.registry(), platform);
    for (int step = 0; step < 40; ++step) {
      if (rng.bernoulli(0.1)) {
        TruthTracker other(scenario.registry(), platform);
        for (std::int64_t k = rng.uniform_int(0, 3); k > 0; --k) {
          other.on_measurement(measurement(id_below(rng, num_urls)));
        }
        expect_input(truth, false, [&] { truth.merge(std::move(other)); });
        continue;
      }
      const iclab::Measurement m = measurement(id_around(rng, num_urls));
      expect_input(truth, !in_range(m.url_id, num_urls), [&] { truth.on_measurement(m); });
    }
    observed_trials += truth.observable().empty() ? 0 : 1;
    TruthTracker fresh(scenario.registry(), platform);
    expect_round_trip(truth, fresh);
    if (HasFailure()) return;
  }
  // The round trips carried censors, not only empty sets.
  EXPECT_GT(observed_trials, 10);
}

TEST(PersistedState, TruthTrackerLoadRefusesNonCensors) {
  // on_measurement() records only the registry's censors, so load()
  // refuses any other AS.
  const Scenario scenario(small_scenario());
  const censor::CensorRegistry& registry = scenario.registry();
  topo::AsId clean = 0;
  while (registry.is_censor(clean)) ++clean;
  const topo::AsId censor = registry.censor_ases().front();
  for (const topo::AsId as : {topo::AsId{-1}, clean, scenario.graph().num_ases()}) {
    SCOPED_TRACE("as=" + std::to_string(as));
    util::ByteWriter w;
    util::save_set(w, std::set<topo::AsId>{censor, as},
                   [](util::ByteWriter& w, topo::AsId id) { w.i32(id); });
    TruthTracker truth(registry, scenario.platform());
    util::ByteReader r(w.bytes());
    EXPECT_THROW(truth.load(r), util::SerdeError);
  }
}

/// A verdict of class 0, 1 or 2; a class-1 verdict names one to three
/// exact censors drawn by `as`, a class-2 one as many potential censors.
template <typename Draw>
tomo::CnfVerdict random_verdict(util::Rng& rng, Draw&& as) {
  tomo::CnfVerdict v;
  v.key.url_id = id_below(rng, 4);
  v.key.anomaly = static_cast<censor::Anomaly>(rng.index(censor::kNumAnomalies));
  v.solution_class = static_cast<int>(rng.uniform_int(0, 2));
  std::vector<topo::AsId>& named = v.solution_class == 1 ? v.censors : v.potential_censors;
  if (v.solution_class > 0) {
    for (std::int64_t k = rng.uniform_int(1, 3); k > 0; --k) named.push_back(as());
  }
  return v;
}

/// Drives a verdict fold through `add(part, verdict)`.  Verdicts naming
/// ASes of a graph of random size round-trip under load(r, num_ases);
/// one more verdict naming an AS outside it (-1 or num_ases), which
/// add() takes, gives bytes load(r, num_ases) refuses.
template <typename T, typename Add>
void expect_fold_bounds_as_ids(std::uint64_t seed, Add&& add) {
  SCOPED_TRACE(ct::test::fuzz_trace(seed));
  util::Rng rng(seed);
  for (int trial = 0; trial < 100; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const auto num_ases = static_cast<std::int32_t>(rng.uniform_int(1, 8));
    const auto inside = [&] { return id_below(rng, num_ases); };
    T part;
    for (int step = 0; step < 30; ++step) add(part, random_verdict(rng, inside));
    T fresh;
    expect_round_trip(part, fresh, num_ases);

    const topo::AsId outside = rng.bernoulli(0.5) ? -1 : num_ases;
    tomo::CnfVerdict named_outside = random_verdict(rng, inside);
    named_outside.solution_class = 1;
    named_outside.potential_censors.clear();
    named_outside.censors.push_back(outside);
    add(part, named_outside);
    const std::string saved = bytes_of(part);
    util::ByteReader r(saved);
    T refused;
    EXPECT_THROW(refused.load(r, num_ases), util::SerdeError) << "AS " << outside;
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(PersistedState, CensorSupport) {
  expect_fold_bounds_as_ids<tomo::CensorSupport>(
      ct::test::fuzz_seed(20171020),
      [](tomo::CensorSupport& support, const tomo::CnfVerdict& v) { support.add(v); });
}

TEST(PersistedState, LiveCounts) {
  expect_fold_bounds_as_ids<LiveCounts>(
      ct::test::fuzz_seed(20171021),
      [](LiveCounts& counts, const tomo::CnfVerdict& v) { counts.add(v); });
}

TEST(PersistedState, LeakageFold) {
  // Each verdict's CNF has one positive path through its censors, so
  // the fold's path pool holds the same AS ids.
  expect_fold_bounds_as_ids<tomo::LeakageFold>(
      ct::test::fuzz_seed(20171022),
      [](tomo::LeakageFold& fold, const tomo::CnfVerdict& v) {
        tomo::TomoCnf cnf;
        cnf.key = v.key;
        cnf.path_ases = v.censors;
        cnf.path_ends = {static_cast<std::uint32_t>(v.censors.size())};
        fold.add(cnf, v);
      });
}

}  // namespace
}  // namespace ct::analysis
