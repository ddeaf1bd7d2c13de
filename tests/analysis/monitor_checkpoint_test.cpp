// Crash-safety suite for the resident monitor (README "Resident
// monitor & checkpoints").
//
// The contract under test: MonitorEngine::finalize() reproduces the
// phase-separated reference pipeline's report byte for byte
// (reference_experiment.h; serialize_report() is the oracle), and that
// byte-identity survives ANY kill/resume sequence —
// the process may die at arbitrary watermarks, restore the last
// checkpoint into a freshly constructed monitor (under the same or a
// *different* execution mode), and still land on the identical report.
// The fuzz matrix drives 3 seeds x {serial, sharded} with random crash
// points; the envelope tests pin down the refusal behavior (unknown or
// older version, bad magic, truncation, trailing bytes, fingerprint
// mismatch, corrupt payload) as clean CheckpointErrors, never UB.
//
// MonitorLive holds the any-time contract: every published LiveReport
// is valid at its watermark — its verdict counts cover exactly the CNFs
// of the windows sealed by the watermark and its churn stats exactly
// the measurement days below it, i.e. it equals the batch computation
// over its sealed prefix.
#include "analysis/monitor.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../support/fuzz_seed.h"
#include "../tomo/clause_merge_reference.h"
#include "analysis/checkpoint.h"
#include "analysis/experiment.h"
#include "analysis/live_report.h"
#include "analysis/platform_sinks.h"
#include "analysis/scenario.h"
#include "bgp/churn.h"
#include "censor/regime.h"
#include "expect_churn.h"
#include "reference_experiment.h"
#include "sat/backend.h"
#include "shard_scenario.h"
#include "tomo/cnf_builder.h"
#include "tomo/engine.h"
#include "util/serde.h"

namespace ct::analysis {
namespace {

using test::expect_churn_equal;
using test::shard_scenario;

MonitorOptions monitor_options(unsigned shards) {
  MonitorOptions options;
  options.experiment.num_platform_shards = shards;
  options.experiment.num_threads = shards == 1 ? 1 : 4;
  options.segment_days = 5;  // several segments per run, partial last one
  return options;
}

/// monitor_options with an explicit SAT lane count: a different
/// execution mode that must reach the same report.
MonitorOptions threaded_options(unsigned shards, unsigned threads) {
  MonitorOptions options = monitor_options(shards);
  options.experiment.num_threads = threads;
  return options;
}

/// The (regime, shard count) modes the MonitorCheckpoint tests run
/// under: the baseline world and the routing regime, each on a serial
/// and a sharded platform.  Tests that pin their shard count walk
/// kCheckpointRegimes only.
struct CheckpointMode {
  censor::ScenarioRegime regime;
  unsigned shards;
};
constexpr censor::ScenarioRegime kCheckpointRegimes[] = {
    censor::ScenarioRegime::kBaseline, censor::ScenarioRegime::kRoutingInduced};
constexpr CheckpointMode kCheckpointModes[] = {
    {censor::ScenarioRegime::kBaseline, 1},
    {censor::ScenarioRegime::kBaseline, 4},
    {censor::ScenarioRegime::kRoutingInduced, 1},
    {censor::ScenarioRegime::kRoutingInduced, 4},
};

std::string mode_name(const CheckpointMode& mode) {
  return censor::to_string(mode.regime) + " shards=" + std::to_string(mode.shards);
}

/// The phase-separated reference's canonical report bytes for `config`
/// — what every monitor run must reproduce.
std::string batch_report(const ScenarioConfig& config) {
  Scenario scenario(config);
  ExperimentOptions options;  // default execution mode: the contract
  options.num_platform_shards = 1;
  return serialize_report(test::reference_experiment(scenario, options));
}

/// Runs the monitor end to end, dying at each day in `kill_days`: the
/// in-flight monitor is checkpointed at its quiescent point, destroyed
/// (everything not in the checkpoint is lost — arenas, pool, groupers),
/// and a fresh monitor restores the bytes and carries on.  Each resume
/// may switch execution mode (`resume_options` cycles), which the
/// fingerprint deliberately permits.
std::string crashy_report(const ScenarioConfig& config, const MonitorOptions& options,
                          const std::vector<util::Day>& kill_days,
                          const std::vector<MonitorOptions>& resume_options) {
  Scenario scenario(config);
  auto monitor = std::make_unique<MonitorEngine>(scenario, options);
  std::size_t resumes = 0;
  for (const util::Day day : kill_days) {
    monitor->run_until(day);
    EXPECT_EQ(monitor->watermark(), day);
    const std::string bytes = monitor->checkpoint();
    const MonitorOptions& next =
        resume_options.empty() ? options : resume_options[resumes++ % resume_options.size()];
    monitor = std::make_unique<MonitorEngine>(scenario, next);
    monitor->restore(bytes);
    EXPECT_EQ(monitor->watermark(), day) << "restore must land on the checkpoint watermark";
  }
  return serialize_report(monitor->finalize());
}

TEST(MonitorEquivalence, FinalizeMatchesBatchExperiment) {
  const ScenarioConfig config = shard_scenario(11);
  const std::string expected = batch_report(config);

  Scenario scenario(config);
  MonitorEngine monitor(scenario, monitor_options(1));
  EXPECT_EQ(serialize_report(monitor.finalize()), expected);
}

TEST(MonitorEquivalence, ShardedSegmentsMatchBatchExperiment) {
  const ScenarioConfig config = shard_scenario(12);
  const std::string expected = batch_report(config);

  Scenario scenario(config);
  MonitorEngine monitor(scenario, monitor_options(3));
  EXPECT_EQ(serialize_report(monitor.finalize()), expected);
}

TEST(MonitorEquivalence, RunExperimentMatchesReference) {
  // run_experiment is a monitor run with the default segments (longer
  // than this run, so one segment and the flush); its report and its
  // main-pass engine counters match the reference's.
  const ScenarioConfig config = shard_scenario(13);
  ExperimentOptions options;
  options.num_platform_shards = 1;
  Scenario reference_scenario(config);
  const ExperimentResult expected = test::reference_experiment(reference_scenario, options);

  Scenario scenario(config);
  const ExperimentResult got = run_experiment(scenario, options);
  EXPECT_EQ(serialize_report(got), serialize_report(expected));
  EXPECT_EQ(got.engine_stats.cnf_loads, expected.engine_stats.cnf_loads);
  EXPECT_EQ(got.engine_stats.fresh_clauses, expected.engine_stats.fresh_clauses);
  EXPECT_EQ(got.engine_stats.backends, expected.engine_stats.backends);
}

TEST(MonitorEquivalence, OneRunUntilCallMatchesPerSegmentCalls) {
  // One run_until(num_days) call overlaps every segment's platform run
  // with the previous segment's drain; run_until one segment at a time
  // prefetches nothing.  Both must land on the same state and on the
  // reference's report — including 1-day segments on 4 shards, whose
  // plan splits the vantage dimension (the hand-off's k-way merge).
  const ScenarioConfig config = shard_scenario(14);
  const std::string expected = batch_report(config);
  for (const unsigned shards : {1u, 4u}) {
    for (const util::Day segment_days : {1, 5, 28}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " segment_days=" + std::to_string(segment_days));
      MonitorOptions options = monitor_options(shards);
      options.segment_days = segment_days;
      Scenario scenario(config);
      MonitorEngine overlapped(scenario, options);
      overlapped.run_until(overlapped.num_days());
      MonitorEngine stepped(scenario, options);
      while (stepped.watermark() < stepped.num_days()) {
        stepped.run_until(stepped.watermark() + segment_days);
      }
      EXPECT_EQ(overlapped.stats().segments_ingested, stepped.stats().segments_ingested);
      EXPECT_EQ(overlapped.checkpoint(), stepped.checkpoint());
      EXPECT_EQ(serialize_report(overlapped.finalize()), expected);
      EXPECT_EQ(serialize_report(stepped.finalize()), expected);
    }
  }
}

TEST(MonitorCrashResume, FuzzKillAtRandomWatermarksAcrossModes) {
  const std::uint64_t seed = ct::test::fuzz_seed(20260808);
  SCOPED_TRACE(ct::test::fuzz_trace(seed));
  std::mt19937_64 rng(seed);

  for (const std::uint64_t scenario_seed : {21u, 22u, 23u}) {
    const ScenarioConfig config = shard_scenario(scenario_seed);
    const std::string expected = batch_report(config);
    for (const unsigned shards : {1u, 3u}) {
      SCOPED_TRACE("seed " + std::to_string(scenario_seed) + " shards " +
                   std::to_string(shards));
      // 1-3 random crash points, strictly increasing, inside the run.
      const util::Day days = config.platform.num_days;
      std::vector<util::Day> kill_days;
      const int crashes = 1 + static_cast<int>(rng() % 3);
      for (int i = 0; i < crashes; ++i) {
        kill_days.push_back(1 + static_cast<util::Day>(rng() % (static_cast<std::uint64_t>(days) - 1)));
      }
      std::sort(kill_days.begin(), kill_days.end());
      kill_days.erase(std::unique(kill_days.begin(), kill_days.end()), kill_days.end());
      EXPECT_EQ(crashy_report(config, monitor_options(shards), kill_days, {}), expected);
    }
  }
}

TEST(MonitorCrashResume, ResumeUnderDifferentExecutionMode) {
  // A checkpoint written under (serial, one SAT lane) resumes under
  // (sharded, two lanes), (serial, three lanes) and back — the
  // fingerprint excludes execution knobs precisely because verdicts are
  // pure functions of (CNF, options) across all of them.
  const ScenarioConfig config = shard_scenario(31);
  const std::string expected = batch_report(config);
  EXPECT_EQ(crashy_report(config, monitor_options(1), {4, 9, 16},
                          {threaded_options(3, 2), threaded_options(1, 3),
                           monitor_options(3)}),
            expected);
}

TEST(MonitorCrashResume, EveryRegimeSurvivesKillResume) {
  // The crash-safety contract is regime-independent: under each scenario
  // regime, a monitor killed and resumed mid-run still reproduces the
  // batch pipeline's report byte for byte.
  for (const censor::ScenarioRegime regime : censor::all_regimes()) {
    SCOPED_TRACE(censor::to_string(regime));
    const ScenarioConfig config = shard_scenario(61, regime);
    const std::string expected = batch_report(config);
    EXPECT_EQ(crashy_report(config, monitor_options(1), {6, 13}, {threaded_options(3, 2)}),
              expected);
  }
}

TEST(MonitorCheckpoint, RefusesResumeUnderDifferentRegime) {
  // The regime (and its knobs) are part of the config fingerprint:
  // execution modes may change across a resume, the *world* may not.
  ScenarioConfig routing = shard_scenario(62, censor::ScenarioRegime::kRoutingInduced);
  Scenario routing_scenario(routing);
  MonitorEngine source(routing_scenario, monitor_options(1));
  source.run_until(6);
  const std::string bytes = source.checkpoint();

  ScenarioConfig baseline = shard_scenario(62);
  Scenario baseline_scenario(baseline);
  MonitorEngine other_regime(baseline_scenario, monitor_options(1));
  EXPECT_THROW(other_regime.restore(bytes), CheckpointError);

  ScenarioConfig other_knob = routing;
  other_knob.regime.ingress_fraction = 0.75;
  Scenario knob_scenario(other_knob);
  MonitorEngine other(knob_scenario, monitor_options(1));
  EXPECT_THROW(other.restore(bytes), CheckpointError);
}

TEST(MonitorStatsTest, ChurnCountersReplayDeterministicallyAcrossResume) {
  // The banner's churn gauges are read from the platform's churn
  // trajectory at the watermark (Platform::churn_trajectory) — a pure
  // function of the seed, so a resumed monitor must report the same
  // failure/repair totals as a straight run, under every regime, and
  // the gauges must balance.
  for (const censor::ScenarioRegime regime :
       {censor::ScenarioRegime::kBaseline, censor::ScenarioRegime::kMultipath}) {
    SCOPED_TRACE(censor::to_string(regime));
    const ScenarioConfig config = shard_scenario(63, regime);
    Scenario scenario(config);

    MonitorEngine straight(scenario, monitor_options(1));
    straight.run_until(12);
    const MonitorStats expected = straight.stats();
    EXPECT_GT(expected.churn_failures, 0);
    EXPECT_EQ(expected.churn_failures - expected.churn_repairs,
              static_cast<std::int64_t>(expected.churn_links_down));
    // The counters are the churn engine's at the last ingested epoch.
    bgp::ChurnEngine oracle(scenario.graph(), scenario.platform().config().churn,
                            scenario.config().seed);
    const std::int64_t last_epoch =
        12 * static_cast<std::int64_t>(scenario.platform().config().epochs_per_day) - 1;
    oracle.advance_to(last_epoch);
    EXPECT_EQ(expected.churn_failures, oracle.total_failures());
    EXPECT_EQ(expected.churn_repairs, oracle.total_repairs());
    EXPECT_EQ(expected.churn_links_down, oracle.links_down());

    auto crashy = std::make_unique<MonitorEngine>(scenario, monitor_options(1));
    crashy->run_until(7);
    const std::string bytes = crashy->checkpoint();
    crashy = std::make_unique<MonitorEngine>(scenario, monitor_options(3));
    crashy->restore(bytes);
    crashy->run_until(12);
    const MonitorStats resumed = crashy->stats();
    EXPECT_EQ(resumed.churn_failures, expected.churn_failures);
    EXPECT_EQ(resumed.churn_repairs, expected.churn_repairs);
    EXPECT_EQ(resumed.churn_links_down, expected.churn_links_down);
  }
}

TEST(MonitorCheckpoint, RestoreIsDeterministic) {
  // Two fresh monitors restoring the same bytes are in identical
  // persistent state: their own checkpoints match byte for byte, and so
  // do their final reports.
  for (const CheckpointMode mode : kCheckpointModes) {
    SCOPED_TRACE(mode_name(mode));
    const ScenarioConfig config = shard_scenario(41, mode.regime);
    Scenario scenario(config);
    auto first = std::make_unique<MonitorEngine>(scenario, monitor_options(mode.shards));
    first->run_until(8);
    const std::string bytes = first->checkpoint();
    first.reset();

    MonitorEngine a(scenario, monitor_options(mode.shards));
    MonitorEngine b(scenario, monitor_options(mode.shards));
    a.restore(bytes);
    b.restore(bytes);
    EXPECT_EQ(a.checkpoint(), b.checkpoint());
    EXPECT_EQ(serialize_report(a.finalize()), serialize_report(b.finalize()));
  }
}

TEST(MonitorCheckpoint, RestorePublishesSnapshotAndRefusesUsedMonitor) {
  for (const CheckpointMode mode : kCheckpointModes) {
    SCOPED_TRACE(mode_name(mode));
    const ScenarioConfig config = shard_scenario(42, mode.regime);
    Scenario scenario(config);
    MonitorEngine source(scenario, monitor_options(mode.shards));
    source.run_until(6);
    const std::string bytes = source.checkpoint();

    MonitorEngine resumed(scenario, monitor_options(mode.shards));
    EXPECT_EQ(resumed.reports().snapshot(), nullptr) << "no snapshot before first ingest";
    resumed.restore(bytes);
    const auto snapshot = resumed.reports().snapshot();
    ASSERT_NE(snapshot, nullptr) << "restore must seed readers with a snapshot";
    EXPECT_EQ(snapshot->watermark, 6);
    EXPECT_EQ(resumed.reports().published(), 1u);

    // A monitor that already ingested data must refuse to restore — the
    // result would silently double-count everything before the watermark.
    EXPECT_THROW(source.restore(bytes), std::logic_error);
    EXPECT_THROW(resumed.restore(bytes), std::logic_error);
  }
}

TEST(MonitorCheckpoint, EnvelopeRefusals) {
  for (const CheckpointMode mode : kCheckpointModes) {
    SCOPED_TRACE(mode_name(mode));
    const ScenarioConfig config = shard_scenario(43, mode.regime);
    Scenario scenario(config);
    MonitorEngine source(scenario, monitor_options(mode.shards));
    source.run_until(6);
    const std::string bytes = source.checkpoint();
    const std::uint64_t fingerprint = source.fingerprint();

    // The happy path holds before we start breaking things.
    EXPECT_EQ(open_checkpoint(bytes, fingerprint).watermark, 6);

    // Envelope layout: magic u32 | version u32 | fingerprint u64 |
    // watermark i32 | payload checksum u64 | payload length u64 | payload.
    std::string bad_magic = bytes;
    bad_magic[0] = static_cast<char>(bad_magic[0] ^ 0x01);
    EXPECT_THROW(open_checkpoint(bad_magic, fingerprint), CheckpointError);

    // A checkpoint from a future format version must be refused cleanly,
    // not misparsed — forward compatibility is an explicit error.
    std::string future_version = bytes;
    future_version[4] = static_cast<char>(future_version[4] + 1);
    EXPECT_THROW(open_checkpoint(future_version, fingerprint), CheckpointError);

    // Fingerprint mismatch: a different scenario config may not resume
    // this checkpoint (restore() checks against its own fingerprint).
    EXPECT_THROW(open_checkpoint(bytes, fingerprint + 1), CheckpointError);
    ScenarioConfig other_config = shard_scenario(44, mode.regime);
    Scenario other_scenario(other_config);
    MonitorEngine other(other_scenario, monitor_options(mode.shards));
    EXPECT_THROW(other.restore(bytes), CheckpointError);

    // Truncation anywhere — inside the header or inside the payload —
    // and trailing garbage are both refused.
    EXPECT_THROW(open_checkpoint(bytes.substr(0, 6), fingerprint), CheckpointError);
    EXPECT_THROW(open_checkpoint(bytes.substr(0, bytes.size() - 3), fingerprint),
                 CheckpointError);
    EXPECT_THROW(open_checkpoint(bytes + "x", fingerprint), CheckpointError);
    EXPECT_THROW(open_checkpoint(std::string(), fingerprint), CheckpointError);

    // One flipped bit anywhere in the payload, or in the checksum field,
    // fails the checksum, so no loader ever sees the corrupt bytes (a
    // huge url_id, a bogus length).
    constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 4 + 8 + 8;
    ASSERT_GT(bytes.size(), kHeaderBytes + 2);
    for (const std::size_t at :
         {std::size_t{20}, kHeaderBytes, (kHeaderBytes + bytes.size()) / 2, bytes.size() - 1}) {
      SCOPED_TRACE("flipped byte " + std::to_string(at));
      std::string corrupt = bytes;
      corrupt[at] = static_cast<char>(corrupt[at] ^ 0x10);
      EXPECT_THROW(open_checkpoint(corrupt, fingerprint), CheckpointError);
      MonitorEngine resumed(scenario, monitor_options(mode.shards));
      EXPECT_THROW(resumed.restore(corrupt), CheckpointError);
    }

    // A version-2 envelope (no checksum, delta-load counters in the
    // engine stats) is refused by its version field.
    util::ByteWriter v2;
    v2.u32(kCheckpointMagic);
    v2.u32(2);
    v2.u64(fingerprint);
    v2.i32(6);
    v2.str(open_checkpoint(bytes, fingerprint).payload);
    EXPECT_THROW(open_checkpoint(v2.take(), fingerprint), CheckpointError);

    // A version-3 envelope (one combined EngineStats record), a
    // version-4 one (groupers with a private pool, positive-id sets and
    // an emitted count), a version-5 one (racing counters in the engine
    // stats) and a version-6 one (models-found and selected counters in
    // the engine stats) are refused by their version field too, even
    // with a valid checksum.
    ASSERT_EQ(kCheckpointVersion, 7u);
    for (const std::uint32_t old : {3u, 4u, 5u, 6u}) {
      SCOPED_TRACE("version " + std::to_string(old));
      std::string stale = bytes;
      util::ByteWriter version;
      version.u32(old);
      stale.replace(4, 4, version.bytes());
      EXPECT_THROW(open_checkpoint(stale, fingerprint), CheckpointError);
      MonitorEngine resumed(scenario, monitor_options(mode.shards));
      EXPECT_THROW(resumed.restore(stale), CheckpointError);
    }
  }
}

/// `source`'s checkpoint with the payload bytes at `at` overwritten by
/// `bytes` and resealed, so only the payload's own bounds checks can
/// refuse it.  Expects restore() to refuse it with a CheckpointError and
/// the refused monitor to run cold to a fresh monitor's report.
void expect_crafted_bytes_refused(Scenario& scenario, const MonitorEngine& source,
                                  std::size_t at, const std::string& bytes) {
  const OpenedCheckpoint opened = open_checkpoint(source.checkpoint(), source.fingerprint());
  std::string payload = opened.payload;
  payload.replace(at, bytes.size(), bytes);
  const std::string crafted = seal_checkpoint(source.fingerprint(), opened.watermark, payload);

  MonitorEngine resumed(scenario, monitor_options(1));
  EXPECT_THROW(resumed.restore(crafted), CheckpointError);
  EXPECT_EQ(resumed.watermark(), 0);
  MonitorEngine fresh(scenario, monitor_options(1));
  EXPECT_EQ(serialize_report(resumed.finalize()), serialize_report(fresh.finalize()));
}

/// expect_crafted_bytes_refused with the 4-byte id `value` at `at`.
void expect_crafted_id_refused(Scenario& scenario, const MonitorEngine& source,
                               std::size_t at, std::int32_t value) {
  util::ByteWriter id;
  id.i32(value);
  expect_crafted_bytes_refused(scenario, source, at, id.bytes());
}

/// A reader over `payload` positioned at the experiment folds: past the
/// pool, both groupers, the strip filter and the churn fold, each loaded
/// as the monitor loads it.
util::ByteReader reader_at_folds(const Scenario& scenario, const std::string& payload) {
  util::ByteReader r(payload);
  const iclab::Platform& platform = scenario.platform();
  const std::int32_t num_urls = platform.config().num_urls;
  tomo::PathPool pool;
  pool.load(r, scenario.graph().num_ases());
  tomo::StreamingCnfBuilder grouper(pool, num_urls);
  grouper.load(r);
  tomo::ChurnStripFilter strip(pool, scenario.graph().num_ases(), num_urls);
  strip.load(r);
  grouper.load(r);  // the ablation grouper: the same layout
  ChurnFold churn(scenario.graph(), platform.vantages(), platform.dest_ases(),
                  platform.config().num_days, platform.config().epochs_per_day);
  churn.load(r);
  return r;
}

/// An anomaly byte no verdict carries (the enum ends at 4).
constexpr char kBadAnomaly = static_cast<char>(200);

TEST(MonitorCheckpoint, VerdictAnomalyByteOutsideTheEnumIsRefused) {
  // Unchecked, anomaly byte 200 loaded as a Figure-1 row and rendered
  // as "?" in the report.
  const ScenarioConfig config = shard_scenario(46);
  Scenario scenario(config);
  MonitorEngine source(scenario, monitor_options(1));
  source.run_until(6);
  const OpenedCheckpoint opened = open_checkpoint(source.checkpoint(), source.fingerprint());

  // Payload layout: ... | main verdict fold: the live counts, the
  // Figure-1 rows by granularity (key byte, split), then by anomaly.
  util::ByteReader r = reader_at_folds(scenario, opened.payload);
  LiveCounts counts;
  counts.load(r, scenario.graph().num_ases());
  const std::size_t granularities = r.size();
  for (std::size_t i = 0; i < granularities; ++i) {
    r.u8();
    for (std::size_t c = 0; c < SolutionSplit{}.count.size(); ++c) r.i64();
  }
  ASSERT_EQ(r.size(), censor::kNumAnomalies);  // rows by anomaly
  const std::size_t first_anomaly = opened.payload.size() - r.remaining();
  expect_crafted_bytes_refused(scenario, source, first_anomaly, std::string(1, kBadAnomaly));
}

TEST(MonitorCheckpoint, SupportAnomalyByteOutsideTheEnumIsRefused) {
  // Unchecked, anomaly byte 200 loaded as a censor's evidence and
  // rendered as "?" in Table 2.
  const ScenarioConfig config = shard_scenario(46);
  Scenario scenario(config);
  MonitorEngine source(scenario, monitor_options(1));
  source.run_until(14);
  const OpenedCheckpoint opened = open_checkpoint(source.checkpoint(), source.fingerprint());

  // Payload layout: ... | verdict fold | censor support: the AS count,
  // then each AS and its (URL, anomaly) evidence set | ...
  util::ByteReader r = reader_at_folds(scenario, opened.payload);
  ExperimentFolds folds(monitor_options(1).experiment);
  folds.verdicts.load(r, scenario.graph().num_ases());
  ASSERT_GT(r.size(), 0u);  // supported ASes
  r.i32();
  ASSERT_GT(r.size(), 0u);  // the first AS's evidence
  r.i32();                  // its URL
  const std::size_t first_anomaly = opened.payload.size() - r.remaining();
  expect_crafted_bytes_refused(scenario, source, first_anomaly, std::string(1, kBadAnomaly));
}

TEST(MonitorCheckpoint, FoldAsIdsPastTheGraphAreRefused) {
  // Unchecked, an AS id of num_ases in the censor support or the live
  // counts restored, and finalize() threw out_of_range from
  // AsGraph::as_info while building Table 2.
  const ScenarioConfig config = shard_scenario(46);
  Scenario scenario(config);
  MonitorEngine source(scenario, monitor_options(1));
  source.run_until(14);
  const OpenedCheckpoint opened = open_checkpoint(source.checkpoint(), source.fingerprint());
  const std::int32_t num_ases = scenario.graph().num_ases();

  // Payload layout: ... | main verdict fold: the live counts (CNF count,
  // overall split, the per-URL splits, then the exact-censor counts by
  // AS) | ...
  util::ByteReader r = reader_at_folds(scenario, opened.payload);
  r.i64();
  for (std::size_t c = 0; c < SolutionSplit{}.count.size(); ++c) r.i64();
  for (std::size_t urls = r.size(); urls > 0; --urls) {
    r.i32();
    for (std::size_t c = 0; c < SolutionSplit{}.count.size(); ++c) r.i64();
  }
  ASSERT_GT(r.size(), 0u);  // ASes named an exact censor
  const std::size_t first_counted_as = opened.payload.size() - r.remaining();
  for (const topo::AsId as : {-1, num_ases}) {
    SCOPED_TRACE("live counts, as=" + std::to_string(as));
    expect_crafted_id_refused(scenario, source, first_counted_as, as);
  }

  // ... | verdict fold | censor support: the AS count, then each AS and
  // its evidence | ...
  r = reader_at_folds(scenario, opened.payload);
  ExperimentFolds folds(monitor_options(1).experiment);
  folds.verdicts.load(r, num_ases);
  ASSERT_GT(r.size(), 0u);  // supported ASes
  const std::size_t first_supported_as = opened.payload.size() - r.remaining();
  for (const topo::AsId as : {-1, num_ases}) {
    SCOPED_TRACE("censor support, as=" + std::to_string(as));
    expect_crafted_id_refused(scenario, source, first_supported_as, as);
  }
}

TEST(MonitorCheckpoint, StripEntryPastTheGraphIsRefused) {
  for (const CheckpointMode mode : kCheckpointModes) {
    SCOPED_TRACE(mode_name(mode));
    const ScenarioConfig config = shard_scenario(46, mode.regime);
    Scenario scenario(config);
    MonitorEngine source(scenario, monitor_options(mode.shards));
    source.run_until(6);
    const OpenedCheckpoint opened = open_checkpoint(source.checkpoint(), source.fingerprint());

    // Payload layout: pool | main grouper | strip filter | ...  Skip to
    // the filter's entries, (vantage, URL, path id) in key order.
    util::ByteReader r(opened.payload);
    tomo::PathPool pool;
    pool.load(r, scenario.graph().num_ases());
    tomo::StreamingCnfBuilder grouper(pool, scenario.platform().config().num_urls);
    grouper.load(r);
    const std::size_t strip_at = opened.payload.size() - r.remaining();
    const std::size_t entries = r.size();
    ASSERT_GT(entries, 0u);

    // The last entry's vantage becomes the graph's AS count: still in key
    // order, one past the table.  The refusal comes after the pool and the
    // main grouper parsed; none of it may stick.
    const std::size_t last_vantage = strip_at + 8 + (entries - 1) * 12;
    expect_crafted_id_refused(scenario, source, last_vantage, scenario.graph().num_ases());
    // The untouched payload, resealed the same way, restores.
    MonitorEngine control(scenario, monitor_options(mode.shards));
    control.restore(seal_checkpoint(source.fingerprint(), opened.watermark, opened.payload));
    EXPECT_EQ(control.watermark(), 6);
  }
}

TEST(MonitorCheckpoint, PoolAsIdOutsideTheGraphIsRefused) {
  // Unchecked, AS -1 made finalize() throw an uncaught logic_error, and
  // a large id sized emission's dense per-AS scratch to it.
  for (const CheckpointMode mode : kCheckpointModes) {
    SCOPED_TRACE(mode_name(mode));
    const ScenarioConfig config = shard_scenario(46, mode.regime);
    Scenario scenario(config);
    MonitorEngine source(scenario, monitor_options(mode.shards));
    source.run_until(6);
    const OpenedCheckpoint opened = open_checkpoint(source.checkpoint(), source.fingerprint());

    // Payload layout: pool (path count, then each path as its length and
    // AS ids) | ...  The first path's first AS id sits at byte 16.
    util::ByteReader r(opened.payload);
    ASSERT_GT(r.size(), 0u);  // paths
    ASSERT_GT(r.size(), 0u);  // the first path's length
    for (const topo::AsId as : {-1, scenario.graph().num_ases()}) {
      SCOPED_TRACE("as=" + std::to_string(as));
      expect_crafted_id_refused(scenario, source, 16, as);
    }
  }
}

TEST(MonitorCheckpoint, GroupPathIdPastThePoolIsRefused) {
  // Unchecked, an open group's path id at the pool's size threw
  // out_of_range from PathPool::get at emission.
  for (const CheckpointMode mode : kCheckpointModes) {
    SCOPED_TRACE(mode_name(mode));
    const ScenarioConfig config = shard_scenario(46, mode.regime);
    Scenario scenario(config);
    MonitorEngine source(scenario, monitor_options(mode.shards));
    source.run_until(6);
    const OpenedCheckpoint opened = open_checkpoint(source.checkpoint(), source.fingerprint());

    // Payload layout: pool | main grouper: the open-window count, then
    // each window's key (URL, anomaly, granularity, window) and positive
    // path ids | ...
    util::ByteReader r(opened.payload);
    tomo::PathPool pool;
    pool.load(r, scenario.graph().num_ases());
    ASSERT_GT(r.size(), 0u);  // open windows
    r.i32();
    r.u8();
    r.u8();
    r.i32();
    ASSERT_GT(r.size(), 0u);  // the first window's positives
    const std::size_t first_id = opened.payload.size() - r.remaining();
    expect_crafted_id_refused(scenario, source, first_id, static_cast<std::int32_t>(pool.size()));
  }
}

TEST(MonitorCheckpoint, CadenceCheckpointsInsideOneCallMatchPerSegmentEngine) {
  // Cadence checkpoints written inside one overlapped run_until call —
  // while the next segment's platform runs — carry the same bytes as
  // checkpoint() on an engine stepped one segment at a time.  Each
  // target leaves the file at its last cadence write.
  for (const censor::ScenarioRegime regime : kCheckpointRegimes) {
    SCOPED_TRACE(censor::to_string(regime));
    const ScenarioConfig config = shard_scenario(47, regime);
    const std::string path = ::testing::TempDir() + "ct_monitor_cadence_test.bin";
    struct Case {
      util::Day segment_days;
      util::Day every;
      util::Day target;
      util::Day last_write;
    };
    for (const Case c : {Case{5, 5, 12, 10}, Case{5, 5, 21, 20}, Case{1, 3, 8, 6}}) {
      SCOPED_TRACE("segment_days=" + std::to_string(c.segment_days) +
                   " target=" + std::to_string(c.target));
      MonitorOptions options = monitor_options(4);
      options.segment_days = c.segment_days;
      Scenario scenario(config);
      MonitorEngine overlapped(scenario, [&] {
        MonitorOptions cadence = options;
        cadence.checkpoint_every = c.every;
        cadence.checkpoint_path = path;
        return cadence;
      }());
      overlapped.run_until(c.target);
      const std::string written = read_checkpoint_file(path);
      EXPECT_EQ(open_checkpoint(written, overlapped.fingerprint()).watermark, c.last_write);

      MonitorEngine stepped(scenario, options);
      while (stepped.watermark() < c.last_write) {
        stepped.run_until(stepped.watermark() + c.segment_days);
      }
      EXPECT_EQ(written, stepped.checkpoint());
    }
    std::remove(path.c_str());
  }
}

TEST(MonitorCheckpoint, VantageSplitHandOffPoolMatchesMergeAndCanonicalize) {
  // 1-day segments on 4 shards split every segment's vantage dimension
  // (as far as the hardware allows 4 workers).  The persistent pool the
  // monitor checkpoints must be the one the old path built: each
  // segment's shards merged and canonicalized (the reference in
  // clause_merge_reference.h), then remapped into the global pool in
  // stream order.
  for (const censor::ScenarioRegime regime : kCheckpointRegimes) {
    SCOPED_TRACE(censor::to_string(regime));
    const ScenarioConfig config = shard_scenario(48, regime);
    Scenario scenario(config);
    const std::size_t expected_bundles = scenario.platform().num_run_days_sinks(
        1, std::min(4U, util::ThreadPool::hardware_threads()));

    MonitorOptions options = monitor_options(4);
    options.segment_days = 1;
    MonitorEngine monitor(scenario, options);
    const util::Day days = 6;
    monitor.run_until(days);
    const OpenedCheckpoint opened = open_checkpoint(monitor.checkpoint(), monitor.fingerprint());
    util::ByteReader r(opened.payload);
    tomo::PathPool got;
    got.load(r, scenario.graph().num_ases());

    tomo::PathPool expected;
    for (util::Day d = 0; d < days; ++d) {
      const std::vector<std::unique_ptr<PlatformSinks>> shards =
          run_platform_shards(scenario, 4, d, d + 1);
      ASSERT_EQ(shards.size(), expected_bundles);
      std::vector<const tomo::ClauseBuilder*> builders;
      for (const auto& shard : shards) builders.push_back(&shard->clause_builder);
      const tomo::test::CanonicalStream canonical = tomo::test::merge_and_canonicalize(builders);
      tomo::PathRemap remap(canonical.pool, expected);
      for (const tomo::PathClause& clause : canonical.clauses) remap(clause.path_id);
    }
    ASSERT_GT(expected.size(), 0u);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got.get(static_cast<tomo::PathPool::PathId>(i)),
                expected.get(static_cast<tomo::PathPool::PathId>(i)));
    }
  }
}

TEST(MonitorCheckpoint, FileRoundtripAndMissingFile) {
  for (const CheckpointMode mode : kCheckpointModes) {
    SCOPED_TRACE(mode_name(mode));
    const ScenarioConfig config = shard_scenario(45, mode.regime);
    Scenario scenario(config);
    MonitorEngine source(scenario, monitor_options(mode.shards));
    source.run_until(6);

    const std::string path = ::testing::TempDir() + "ct_monitor_checkpoint_test.bin";
    source.checkpoint_to(path);
    EXPECT_EQ(source.stats().checkpoints_written, 1);

    MonitorEngine resumed(scenario, monitor_options(mode.shards));
    resumed.restore_from(path);
    EXPECT_EQ(resumed.watermark(), 6);
    std::remove(path.c_str());

    MonitorEngine cold(scenario, monitor_options(mode.shards));
    EXPECT_THROW(cold.restore_from(path), CheckpointError) << "missing file is a clean error";
  }
}

TEST(MonitorMemory, SegmentsDrainToZeroAndGaugeNeverUnderflows) {
  const ScenarioConfig config = shard_scenario(51);
  Scenario scenario(config);
  MonitorEngine monitor(scenario, monitor_options(3));
  monitor.run_all();
  const MonitorStats stats = monitor.stats();
  EXPECT_EQ(stats.retained_clauses_now, 0) << "every segment's raw clauses must be freed";
  EXPECT_EQ(stats.gauge_underflows, 0);
  EXPECT_GT(stats.retained_clauses_peak, 0);
  EXPECT_EQ(stats.watermark, config.platform.num_days);
  EXPECT_GT(stats.segments_ingested, 1);
}

TEST(MonitorStatsTest, SatLanesCappedAtHardwareThreads) {
  // Asking for more SAT lanes than the hardware has caps the pool at the
  // hardware, as the platform caps its workers: one arena per lane and
  // analysis pass.
  Scenario scenario(shard_scenario(53));
  MonitorOptions options = monitor_options(1);
  const unsigned hw = util::ThreadPool::hardware_threads();
  options.experiment.num_threads = hw + 2;
  const MonitorEngine monitor(scenario, options);
  EXPECT_EQ(monitor.stats().engine.arenas, 2 * hw);
}

// --- any-time snapshots -------------------------------------------------

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
    LiveCounts& counts = expected.counts;
    ++counts.cnfs;
    const auto cls = static_cast<std::size_t>(v.solution_class);
    ++counts.overall.count[cls];
    ++counts.by_url[v.key.url_id].count[cls];
    if (v.solution_class == 1) {
      for (const topo::AsId as : v.censors) ++counts.exact_censor_cnfs[as];
    } else if (v.solution_class == 2) {
      for (const topo::AsId as : v.potential_censors) ++counts.potential_censor_cnfs[as];
    }
  }
  return expected;
}

void expect_counts_equal(const LiveReport& actual, const LiveReport& expected) {
  EXPECT_EQ(actual.counts.cnfs, expected.counts.cnfs);
  EXPECT_EQ(actual.counts.overall, expected.counts.overall);
  EXPECT_EQ(actual.counts.by_url, expected.counts.by_url);
  EXPECT_EQ(actual.counts.exact_censor_cnfs, expected.counts.exact_censor_cnfs);
  EXPECT_EQ(actual.counts.potential_censor_cnfs, expected.counts.potential_censor_cnfs);
}

TEST(MonitorLive, EveryReportEqualsBatchOfSealedPrefix) {
  const std::uint64_t seed = 20170623;
  Scenario ref_scenario(shard_scenario(seed));
  const std::unique_ptr<PlatformSinks> ref_sinks = run_platform(ref_scenario, 1);
  const std::vector<tomo::TomoCnf> ref_cnfs =
      tomo::build_cnfs(ref_sinks->clause_builder.pool(), ref_sinks->clause_builder.clauses());
  tomo::AnalysisOptions analysis;
  analysis.resolve_counts = false;
  const std::vector<tomo::CnfVerdict> ref_verdicts = tomo::analyze_cnfs(ref_cnfs, analysis);

  // Churn reference: the same platform stream, recorded day by day.
  Scenario record_scenario(shard_scenario(seed));
  PathRecorder recorder(record_scenario.platform());
  record_scenario.platform().run(recorder);

  for (const unsigned shards : {1u, 4u}) {
    for (const util::Day segment_days : {7, 1}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " segment_days=" + std::to_string(segment_days));
      Scenario scenario(shard_scenario(seed));
      MonitorOptions options;
      options.experiment.num_platform_shards = shards;
      options.experiment.num_threads = 2;
      options.segment_days = segment_days;
      MonitorEngine monitor(scenario, options);
      const util::Day num_days = monitor.num_days();

      while (monitor.watermark() < num_days) {
        monitor.run_until(monitor.watermark() + segment_days);
        const auto report = monitor.reports().snapshot();
        ASSERT_NE(report, nullptr);
        SCOPED_TRACE("watermark " + std::to_string(report->watermark));
        EXPECT_EQ(report->watermark, monitor.watermark());
        expect_counts_equal(*report, prefix_counts(ref_cnfs, ref_verdicts, report->watermark));
        expect_churn_equal(report->churn,
                           recorder.prefix_churn(record_scenario, report->watermark));
        // One report per ingested segment: a per-day report inside a
        // segment would carry churn from days not yet drained.
        EXPECT_EQ(monitor.reports().published(),
                  static_cast<std::uint64_t>(monitor.stats().segments_ingested));
      }

      // The final report is the whole run: full verdict counts and the
      // batch Figure-3 stats.
      monitor.finalize();
      const auto final_report = monitor.reports().snapshot();
      ASSERT_NE(final_report, nullptr);
      EXPECT_EQ(final_report->watermark, num_days);
      expect_counts_equal(*final_report, prefix_counts(ref_cnfs, ref_verdicts,
                                                       num_days + util::kDaysPerYear));
      expect_churn_equal(final_report->churn, ref_sinks->churn_tracker.compute());
    }
  }
}

TEST(MonitorStatsTest, ClauseConservationAcrossResume) {
  // Load accounting survives a kill/resume: the resumed run's loads and
  // loaded clauses equal a straight run's exactly.
  const ScenarioConfig config = shard_scenario(52);
  Scenario scenario(config);
  auto monitor = std::make_unique<MonitorEngine>(scenario, monitor_options(1));
  monitor->run_until(10);
  const std::string bytes = monitor->checkpoint();
  monitor = std::make_unique<MonitorEngine>(scenario, monitor_options(1));
  monitor->restore(bytes);
  const ExperimentResult result = monitor->finalize();

  const tomo::EngineStats& engine = result.engine_stats;
  EXPECT_GT(engine.cnf_loads, 0u);
  EXPECT_GT(engine.fresh_clauses, 0u);
  // engine_stats is the main pass alone, across the resume too: every
  // main-pass CNF was counted once, in the closed-form slot.
  std::uint64_t served = 0;
  for (const sat::BackendCounters& b : engine.backends) served += b.served;
  EXPECT_EQ(engine.cnf_loads, static_cast<std::uint64_t>(result.total_cnfs));
  EXPECT_EQ(served, static_cast<std::uint64_t>(result.total_cnfs));
  // The monitor's own gauge still sums both passes.
  EXPECT_GT(monitor->stats().engine.cnf_loads, engine.cnf_loads);
  // Counters accumulate across the resume: the resumed run's loads
  // continue from the checkpointed base instead of restarting at zero.
  MonitorEngine straight(scenario, monitor_options(1));
  const ExperimentResult straight_result = straight.finalize();
  EXPECT_EQ(engine.cnf_loads, straight_result.engine_stats.cnf_loads);
  EXPECT_EQ(engine.fresh_clauses, straight_result.engine_stats.fresh_clauses);
}

TEST(LiveReportServerTest, CountersAndPeakReaders) {
  LiveReportServer server;
  EXPECT_EQ(server.snapshot(), nullptr);
  EXPECT_EQ(server.reads(), 1u);
  EXPECT_EQ(server.published(), 0u);

  auto report = std::make_shared<LiveReport>();
  report->watermark = 5;
  server.publish(std::move(report));
  EXPECT_EQ(server.published(), 1u);
  const auto snapshot = server.snapshot();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->watermark, 5);
  // Single-threaded reads never race a publish: no stale reads.
  EXPECT_EQ(server.stale_reads(), 0u);

  EXPECT_EQ(server.peak_readers(), 0u);
  {
    LiveReportServer::Reader outer(server);
    EXPECT_EQ(outer.snapshot()->watermark, 5);
    {
      LiveReportServer::Reader inner(server);
      EXPECT_EQ(server.peak_readers(), 2u);
    }
    EXPECT_EQ(server.peak_readers(), 2u) << "peak is a high-water mark";
  }
  EXPECT_EQ(server.peak_readers(), 2u);
  EXPECT_EQ(server.reads(), 3u);
}

}  // namespace
}  // namespace ct::analysis
