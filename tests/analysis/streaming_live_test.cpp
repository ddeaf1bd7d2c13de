// Any-time results property suite (README "Any-time results & memory
// model").
//
// The streaming pipeline promises that every LiveReport is *valid at
// its watermark*: the verdict counts cover exactly the CNFs of windows
// sealed by the watermark and the churn stats cover exactly the sealed
// measurement days — i.e. every snapshot equals the batch computation
// over its sealed prefix, for serial and min-merged sharded ingest
// alike.  The ChurnFold fuzz drives the same prefix-snapshot property
// through random observation streams and random retire/watermark
// interleavings (failing seeds print a CT_FUZZ_SEED replay line).  The
// drop-mode equivalence tests hold the O(open windows) configuration
// (retain_clauses = retain_results = false) to the byte-identical
// contract via the on_verdict stream.
#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "../support/fuzz_seed.h"
#include "analysis/churn_stats.h"
#include "analysis/experiment.h"
#include "analysis/live_report.h"
#include "analysis/platform_sinks.h"
#include "analysis/scenario.h"
#include "analysis/streaming_pipeline.h"
#include "expect_churn.h"
#include "sat/dimacs.h"
#include "shard_env.h"
#include "tomo/cnf_builder.h"
#include "tomo/engine.h"
#include "topo/generator.h"
#include "util/rng.h"

namespace ct::analysis {
namespace {

using test::expect_churn_equal;
using test::shard_scenario;

util::Day window_end(const tomo::CnfKey& key) {
  return util::window_start(key.window, key.granularity) + util::window_length(key.granularity);
}

/// Records every on_path observation as (day, pair, signature) so churn
/// prefixes can be replayed through a fresh ChurnFold.
class PathRecorder : public iclab::MeasurementSink {
 public:
  struct Obs {
    util::Day day;
    std::size_t pair;
    std::uint64_t sig;
  };

  explicit PathRecorder(const iclab::Platform& platform) {
    const auto& vantages = platform.vantages();
    const auto& dests = platform.dest_ases();
    for (std::size_t i = 0; i < vantages.size(); ++i) vantage_index_[vantages[i]] = i;
    for (std::size_t i = 0; i < dests.size(); ++i) dest_index_[dests[i]] = i;
    num_dests_ = dests.size();
  }

  void on_measurement(const iclab::Measurement&) override {}
  void on_path(util::Day day, std::int32_t /*epoch*/, topo::AsId vantage, topo::AsId dest,
               const std::vector<topo::AsId>& path) override {
    const auto vi = vantage_index_.find(vantage);
    const auto di = dest_index_.find(dest);
    if (vi == vantage_index_.end() || di == dest_index_.end()) return;
    const std::uint64_t sig = path_signature(path);
    if (sig == 0) return;
    observations_.push_back(Obs{day, vi->second * num_dests_ + di->second, sig});
  }

  /// Unsealed batch fold of every observation with day < `before`.
  ChurnStats prefix_churn(Scenario& scenario, util::Day before) const {
    const auto& platform = scenario.platform();
    ChurnFold fold(scenario.graph(), platform.vantages(), platform.dest_ases(),
                   platform.config().num_days, platform.config().epochs_per_day);
    for (const Obs& obs : observations_) {
      if (obs.day < before) fold.observe(obs.pair, obs.day, obs.sig);
    }
    return fold.snapshot();
  }

 private:
  std::map<topo::AsId, std::size_t> vantage_index_;
  std::map<topo::AsId, std::size_t> dest_index_;
  std::size_t num_dests_ = 0;
  std::vector<Obs> observations_;
};

/// Batch verdict counts over the CNFs whose windows end at or before
/// `watermark` — the reference a LiveReport must equal.
LiveReport prefix_counts(const std::vector<tomo::TomoCnf>& cnfs,
                         const std::vector<tomo::CnfVerdict>& verdicts,
                         util::Day watermark) {
  LiveReport expected;
  expected.watermark = watermark;
  for (std::size_t i = 0; i < cnfs.size(); ++i) {
    if (window_end(cnfs[i].key) > watermark) continue;
    const tomo::CnfVerdict& v = verdicts[i];
    ++expected.cnfs_analyzed;
    const auto cls = static_cast<std::size_t>(v.solution_class);
    ++expected.overall.count[cls];
    ++expected.by_url[v.key.url_id].count[cls];
    if (v.solution_class == 1) {
      for (const topo::AsId as : v.censors) ++expected.exact_censor_cnfs[as];
    } else if (v.solution_class == 2) {
      for (const topo::AsId as : v.potential_censors) ++expected.potential_censor_cnfs[as];
    }
  }
  return expected;
}

void expect_counts_equal(const LiveReport& actual, const LiveReport& expected) {
  EXPECT_EQ(actual.cnfs_analyzed, expected.cnfs_analyzed);
  EXPECT_EQ(actual.overall, expected.overall);
  EXPECT_EQ(actual.by_url, expected.by_url);
  EXPECT_EQ(actual.exact_censor_cnfs, expected.exact_censor_cnfs);
  EXPECT_EQ(actual.potential_censor_cnfs, expected.potential_censor_cnfs);
}

struct BatchReference {
  std::unique_ptr<PlatformSinks> sinks;
  std::vector<tomo::TomoCnf> cnfs;
  std::vector<tomo::CnfVerdict> verdicts;
};

BatchReference batch_reference(Scenario& scenario) {
  tomo::AnalysisOptions analysis;
  analysis.resolve_counts = false;
  BatchReference ref;
  ref.sinks = run_platform(scenario, 1);
  ref.cnfs = tomo::build_cnfs(ref.sinks->clause_builder.pool(),
                              ref.sinks->clause_builder.clauses());
  ref.verdicts = tomo::analyze_cnfs(ref.cnfs, analysis);
  return ref;
}

TEST(StreamingLive, EveryReportEqualsBatchOfSealedPrefix) {
  const std::uint64_t seed = 20170623;
  Scenario ref_scenario(shard_scenario(seed));
  const BatchReference ref = batch_reference(ref_scenario);

  // Churn reference: the same platform stream, recorded day by day.
  Scenario record_scenario(shard_scenario(seed));
  PathRecorder recorder(record_scenario.platform());
  record_scenario.platform().run(recorder);

  for (const unsigned shards : {1u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Scenario scenario(shard_scenario(seed));
    StreamingOptions options;
    options.num_platform_shards = shards;
    options.analysis.resolve_counts = false;
    options.analysis.num_threads = 2;
    options.retain_clauses = false;
    options.retain_results = false;
    std::vector<LiveReport> reports;
    options.on_report = [&reports](const LiveReport& r) { reports.push_back(r); };
    const StreamingResult streamed = run_streaming_pipeline(scenario, options);

    ASSERT_FALSE(reports.empty());
    util::Day last_watermark = 0;
    for (std::size_t i = 0; i < reports.size(); ++i) {
      SCOPED_TRACE("report " + std::to_string(i) + " watermark " +
                   std::to_string(reports[i].watermark));
      EXPECT_GT(reports[i].watermark, last_watermark);  // strictly advancing
      last_watermark = reports[i].watermark;
      expect_counts_equal(reports[i],
                          prefix_counts(ref.cnfs, ref.verdicts, reports[i].watermark));
      expect_churn_equal(reports[i].churn,
                         recorder.prefix_churn(record_scenario, reports[i].watermark));
    }
    // A serial run advances the watermark once per completed day.
    if (shards == 1) {
      EXPECT_EQ(reports.size(),
                static_cast<std::size_t>(scenario.platform().config().num_days));
    }

    // The final report is the whole run: full verdict counts and the
    // batch Figure-3 stats.
    const util::Day num_days = scenario.platform().config().num_days;
    EXPECT_EQ(streamed.final_report.watermark, num_days);
    expect_counts_equal(streamed.final_report,
                        prefix_counts(ref.cnfs, ref.verdicts, num_days + util::kDaysPerYear));
    expect_churn_equal(streamed.final_report.churn, ref.sinks->churn_tracker.compute());
  }
}

TEST(StreamingLive, DropModeVerdictStreamIsByteIdenticalToBatch) {
  // O(open windows) configuration: nothing retained, every product
  // flows through the on_verdict stream — and still matches the batch
  // bytes, for serial and sharded ingest.
  const std::uint64_t seed = 20170624;
  Scenario ref_scenario(shard_scenario(seed));
  const BatchReference ref = batch_reference(ref_scenario);

  for (const unsigned shards : {1u, 2u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Scenario scenario(shard_scenario(seed));
    StreamingOptions options;
    options.num_platform_shards = shards;
    options.analysis.resolve_counts = false;
    options.analysis.num_threads = 2;
    options.queue_capacity = 8;  // exercise back-pressure
    options.retain_clauses = false;
    options.retain_results = false;
    const util::Day num_days = shard_scenario(seed).platform.num_days;
    std::vector<std::pair<tomo::TomoCnf, tomo::CnfVerdict>> streamed_pairs;
    util::Day last_end = 0;
    bool flush_seen = false;
    options.on_verdict = [&, shards](const tomo::TomoCnf& cnf, const tomo::CnfVerdict& v) {
      // Emission order: watermark-closed windows (end <= num_days) come
      // out in non-decreasing end order on a serial run (each day batch
      // ends exactly at its watermark; a sharded watermark can jump
      // several days, interleaving one key-sorted batch), and the final
      // flush — every window still open at end of run, i.e. ending
      // beyond the run — strictly follows all of them.
      if (window_end(cnf.key) > num_days) {
        flush_seen = true;
      } else {
        EXPECT_FALSE(flush_seen);
        if (shards == 1) {
          EXPECT_GE(window_end(cnf.key), last_end);
          last_end = window_end(cnf.key);
        }
      }
      streamed_pairs.emplace_back(cnf, v);
    };
    const StreamingResult streamed = run_streaming_pipeline(scenario, options);

    // Nothing retained...
    EXPECT_TRUE(streamed.cnfs.empty());
    EXPECT_TRUE(streamed.verdicts.empty());
    EXPECT_TRUE(streamed.sinks->clause_builder.clauses().empty());
    EXPECT_GT(streamed.sinks->clause_builder.retired_clauses(), 0u);
    // ... but the stats, engine accounting, and churn still match.
    EXPECT_EQ(streamed.sinks->clause_builder.stats(), ref.sinks->clause_builder.stats());
    EXPECT_EQ(streamed.engine_stats.cnf_loads, streamed_pairs.size());
    expect_churn_equal(streamed.sinks->churn_tracker.compute(),
                       ref.sinks->churn_tracker.compute());
    for (const auto vp : scenario.platform().vantages()) {
      for (const auto dest : scenario.platform().dest_ases()) {
        EXPECT_EQ(streamed.sinks->churn_tracker.distinct_paths_of_pair(vp, dest),
                  ref.sinks->churn_tracker.distinct_paths_of_pair(vp, dest));
      }
    }

    // The verdict stream, key-sorted, is the batch output to the byte.
    std::sort(streamed_pairs.begin(), streamed_pairs.end(),
              [](const auto& a, const auto& b) { return a.first.key < b.first.key; });
    ASSERT_EQ(streamed_pairs.size(), ref.cnfs.size());
    for (std::size_t i = 0; i < streamed_pairs.size(); ++i) {
      SCOPED_TRACE("cnf " + std::to_string(i));
      EXPECT_EQ(streamed_pairs[i].first.key, ref.cnfs[i].key);
      EXPECT_EQ(streamed_pairs[i].first.vars, ref.cnfs[i].vars);
      EXPECT_EQ(streamed_pairs[i].first.positive_paths, ref.cnfs[i].positive_paths);
      EXPECT_EQ(sat::to_dimacs_string(streamed_pairs[i].first.cnf),
                sat::to_dimacs_string(ref.cnfs[i].cnf));
      EXPECT_EQ(streamed_pairs[i].second, ref.verdicts[i]);
    }
  }
}

TEST(StreamingLive, StreamedAblationMatchesBatchFigure4Pass) {
  const std::uint64_t seed = 20170625;
  Scenario ref_scenario(shard_scenario(seed));
  const BatchReference ref = batch_reference(ref_scenario);

  // Batch Figure-4 pass, exactly as run_experiment's batch path.
  const std::vector<util::Granularity> grans{util::Granularity::kDay, util::Granularity::kWeek,
                                             util::Granularity::kMonth};
  const std::vector<tomo::PathClause> stripped = tomo::strip_path_churn(
      ref.sinks->clause_builder.pool(), ref.sinks->clause_builder.clauses());
  tomo::CnfBuildOptions ab_build;
  ab_build.granularities = grans;
  const std::vector<tomo::TomoCnf> ab_cnfs =
      tomo::build_cnfs(ref.sinks->clause_builder.pool(), stripped, ab_build);
  tomo::AnalysisOptions ab_analysis;
  ab_analysis.resolve_counts = true;
  const std::vector<tomo::CnfVerdict> ab_verdicts = tomo::analyze_cnfs(ab_cnfs, ab_analysis);

  for (const unsigned shards : {1u, 3u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Scenario scenario(shard_scenario(seed));
    StreamingOptions options;
    options.num_platform_shards = shards;
    options.analysis.resolve_counts = false;
    options.analysis.num_threads = 2;
    options.retain_clauses = false;
    options.retain_results = false;
    StreamingOptions::Ablation ablation;
    ablation.build = ab_build;
    ablation.analysis = ab_analysis;
    ablation.analysis.num_threads = 2;
    ablation.retain_results = true;
    options.ablation = std::move(ablation);
    const StreamingResult streamed = run_streaming_pipeline(scenario, options);

    ASSERT_EQ(streamed.ablation_cnfs.size(), ab_cnfs.size());
    for (std::size_t i = 0; i < ab_cnfs.size(); ++i) {
      SCOPED_TRACE("ablation cnf " + std::to_string(i));
      EXPECT_EQ(streamed.ablation_cnfs[i].key, ab_cnfs[i].key);
      EXPECT_EQ(sat::to_dimacs_string(streamed.ablation_cnfs[i].cnf),
                sat::to_dimacs_string(ab_cnfs[i].cnf));
      EXPECT_EQ(streamed.ablation_verdicts[i], ab_verdicts[i]);
    }
  }
}

// --- ChurnFold prefix-snapshot fuzz ---------------------------------------

topo::AsGraph tiny_graph() {
  topo::TopologyConfig cfg;
  cfg.num_ases = 30;
  cfg.num_tier1 = 2;
  cfg.num_transit = 6;
  cfg.num_countries = 4;
  return topo::generate_topology(cfg, 2);
}

TEST(ChurnFoldFuzz, SnapshotsMatchUnsealedFoldUnderRandomRetireInterleavings) {
  const std::uint64_t seed = ct::test::fuzz_seed(20260731);
  SCOPED_TRACE(ct::test::fuzz_trace(seed));
  util::Rng rng(seed);
  const topo::AsGraph graph = tiny_graph();
  const std::vector<topo::AsId> vantages{3, 10};
  const std::vector<topo::AsId> dests{20, 21, 25};
  constexpr util::Day kDays = 5 * util::kDaysPerWeek;

  for (int round = 0; round < 25; ++round) {
    SCOPED_TRACE("round=" + std::to_string(round));
    ChurnFold fold(graph, vantages, dests, kDays, 3);
    std::vector<std::tuple<std::size_t, util::Day, std::uint64_t>> observed;
    util::Day retired = 0;

    auto check_snapshot = [&] {
      ChurnFold reference(graph, vantages, dests, kDays, 3);
      for (const auto& [pair, day, sig] : observed) reference.observe(pair, day, sig);
      expect_churn_equal(fold.snapshot(), reference.snapshot());
      for (std::size_t p = 0; p < fold.num_pairs(); ++p) {
        EXPECT_EQ(fold.distinct_of_pair(p), reference.distinct_of_pair(p));
      }
    };

    // A day-ascending observation stream with random density, random
    // signature reuse, and random retire points — every snapshot along
    // the way must equal the unsealed batch fold of the same prefix.
    for (util::Day day = 0; day < kDays; ++day) {
      const std::int64_t obs_today = rng.uniform_int(0, 6);
      for (std::int64_t k = 0; k < obs_today; ++k) {
        const auto pair = static_cast<std::size_t>(
            rng.index(vantages.size() * dests.size()));
        // Small signature alphabet: windows frequently see repeats (the
        // distinct-set dedup path) and occasionally 5+ distinct values
        // (the histogram overflow bucket).
        const auto sig = static_cast<std::uint64_t>(rng.uniform_int(1, 9));
        fold.observe(pair, day, sig);
        observed.emplace_back(pair, day, sig);
      }
      if (rng.bernoulli(0.4)) {
        // Any watermark at or below the current day is legal, including
        // replays of old ones (monotone no-op).
        const auto target = static_cast<util::Day>(rng.uniform_int(0, day));
        fold.retire_before(target);
        retired = std::max(retired, target);
        EXPECT_EQ(fold.retired_before(), retired);
      }
      if (rng.bernoulli(0.25)) check_snapshot();
    }
    fold.retire_before(kDays);
    check_snapshot();
    // Month/year windows extend past the run, so they are still open at
    // the end-of-run watermark; sealing past the year boundary drains
    // every unsealed window without changing the snapshot.
    EXPECT_GT(fold.open_window_entries(), 0u);
    fold.retire_before(util::kDaysPerYear);
    check_snapshot();
    EXPECT_EQ(fold.open_window_entries(), 0u);
  }
}

TEST(ChurnFoldFuzz, ShardedMergeMatchesSerialFoldOnRandomStreams) {
  const std::uint64_t seed = ct::test::fuzz_seed(20260732);
  SCOPED_TRACE(ct::test::fuzz_trace(seed));
  util::Rng rng(seed);
  const topo::AsGraph graph = tiny_graph();
  const std::vector<topo::AsId> vantages{3, 10};
  const std::vector<topo::AsId> dests{20, 25};
  constexpr util::Day kDays = 3 * util::kDaysPerWeek;

  for (int round = 0; round < 25; ++round) {
    SCOPED_TRACE("round=" + std::to_string(round));
    // A random day split: windows straddle the boundary, so the merge
    // must union partial windows, not just concatenate.
    const auto split = static_cast<util::Day>(rng.uniform_int(1, kDays - 1));
    ChurnFold serial(graph, vantages, dests, kDays, 3);
    ChurnFold left(graph, vantages, dests, kDays, 3);
    ChurnFold right(graph, vantages, dests, kDays, 3);
    for (util::Day day = 0; day < kDays; ++day) {
      const std::int64_t obs_today = rng.uniform_int(0, 4);
      for (std::int64_t k = 0; k < obs_today; ++k) {
        const auto pair =
            static_cast<std::size_t>(rng.index(vantages.size() * dests.size()));
        const auto sig = static_cast<std::uint64_t>(rng.uniform_int(1, 6));
        serial.observe(pair, day, sig);
        (day < split ? left : right).observe(pair, day, sig);
      }
    }
    ChurnFold merged(left);
    merged.merge(std::move(right));
    expect_churn_equal(merged.snapshot(), serial.snapshot());

    // Sealed folds refuse to merge: the same window may be open on the
    // other side.
    left.retire_before(split);
    ChurnFold other(graph, vantages, dests, kDays, 3);
    EXPECT_THROW(left.merge(std::move(other)), std::logic_error);
  }
}

TEST(ChurnFold, LateObservationAfterSealThrows) {
  const topo::AsGraph graph = tiny_graph();
  ChurnFold fold(graph, {3}, {20}, 14, 1);
  fold.observe(0, 3, 42);
  fold.retire_before(4);
  EXPECT_THROW(fold.observe(0, 3, 43), std::logic_error);
  fold.observe(0, 4, 43);  // at the watermark: still open
}

}  // namespace
}  // namespace ct::analysis
