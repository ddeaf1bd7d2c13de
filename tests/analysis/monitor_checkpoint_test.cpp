// Crash-safety suite for the resident monitor (README "Resident
// monitor & checkpoints").
//
// The contract under test: MonitorEngine::finalize() reproduces
// run_experiment()'s report byte for byte (serialize_report() is the
// oracle), and that byte-identity survives ANY kill/resume sequence —
// the process may die at arbitrary watermarks, restore the last
// checkpoint into a freshly constructed monitor (under the same or a
// *different* execution mode), and still land on the identical report.
// The fuzz matrix drives 3 seeds x {serial, sharded} with random crash
// points; the envelope tests pin down the refusal behavior (unknown or
// older version, bad magic, truncation, trailing bytes, fingerprint
// mismatch, corrupt payload) as clean CheckpointErrors, never UB.
#include "analysis/monitor.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../support/fuzz_seed.h"
#include "analysis/checkpoint.h"
#include "analysis/experiment.h"
#include "analysis/scenario.h"
#include "censor/regime.h"
#include "sat/backend.h"
#include "shard_env.h"

namespace ct::analysis {
namespace {

using test::shard_scenario;

MonitorOptions monitor_options(unsigned shards) {
  MonitorOptions options;
  options.experiment.num_platform_shards = shards;
  options.experiment.num_threads = shards == 1 ? 1 : 4;
  options.segment_days = 5;  // several segments per run, partial last one
  return options;
}

/// monitor_options with every CNF pinned to the CDCL backend: a
/// different execution mode that must reach the same report.
MonitorOptions forced_cdcl_options(unsigned shards) {
  MonitorOptions options = monitor_options(shards);
  options.experiment.analysis.backend.mode = sat::BackendSelector::Mode::kCdcl;
  return options;
}

/// The batch pipeline's canonical report bytes for `config` — the
/// reference every monitor run must reproduce.
std::string batch_report(const ScenarioConfig& config) {
  Scenario scenario(config);
  ExperimentOptions options;  // default execution mode: the contract
  return serialize_report(run_experiment(scenario, options));
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
  // A checkpoint written under (serial, auto backend) resumes under
  // (sharded, forced CDCL) and back — the fingerprint excludes execution
  // knobs precisely because verdicts are pure functions of (CNF,
  // options) across all of them.
  const ScenarioConfig config = shard_scenario(31);
  const std::string expected = batch_report(config);
  EXPECT_EQ(crashy_report(config, monitor_options(1), {4, 9, 16},
                          {forced_cdcl_options(3), forced_cdcl_options(1),
                           monitor_options(3)}),
            expected);
}

TEST(MonitorCrashResume, EveryRegimeSurvivesKillResume) {
  // The crash-safety contract is regime-independent: under each scenario
  // regime, a monitor killed and resumed mid-run still reproduces the
  // batch pipeline's report byte for byte.
  for (const censor::ScenarioRegime regime : censor::all_regimes()) {
    SCOPED_TRACE(censor::to_string(regime));
    ScenarioConfig config = shard_scenario(61);
    config.regime.regime = regime;
    const std::string expected = batch_report(config);
    EXPECT_EQ(crashy_report(config, monitor_options(1), {6, 13}, {forced_cdcl_options(3)}),
              expected);
  }
}

TEST(MonitorCheckpoint, RefusesResumeUnderDifferentRegime) {
  // The regime (and its knobs) are part of the config fingerprint:
  // execution modes may change across a resume, the *world* may not.
  ScenarioConfig routing = shard_scenario(62);
  routing.regime.regime = censor::ScenarioRegime::kRoutingInduced;
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
  // The banner's churn gauges come from a probe engine replayed to the
  // watermark (ChurnEngine::advance_to) — a pure function of the seed,
  // so a resumed monitor must report the same failure/repair totals as a
  // straight run, under every regime, and the gauges must balance.
  for (const censor::ScenarioRegime regime :
       {censor::ScenarioRegime::kBaseline, censor::ScenarioRegime::kMultipath}) {
    SCOPED_TRACE(censor::to_string(regime));
    ScenarioConfig config = shard_scenario(63);
    config.regime.regime = regime;
    Scenario scenario(config);

    MonitorEngine straight(scenario, monitor_options(1));
    straight.run_until(12);
    const MonitorStats expected = straight.stats();
    EXPECT_GT(expected.churn_failures, 0);
    EXPECT_EQ(expected.churn_failures - expected.churn_repairs,
              static_cast<std::int64_t>(expected.churn_links_down));

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
  const ScenarioConfig config = shard_scenario(41);
  Scenario scenario(config);
  auto first = std::make_unique<MonitorEngine>(scenario, monitor_options(1));
  first->run_until(8);
  const std::string bytes = first->checkpoint();
  first.reset();

  MonitorEngine a(scenario, monitor_options(1));
  MonitorEngine b(scenario, monitor_options(1));
  a.restore(bytes);
  b.restore(bytes);
  EXPECT_EQ(a.checkpoint(), b.checkpoint());
  EXPECT_EQ(serialize_report(a.finalize()), serialize_report(b.finalize()));
}

TEST(MonitorCheckpoint, RestorePublishesSnapshotAndRefusesUsedMonitor) {
  const ScenarioConfig config = shard_scenario(42);
  Scenario scenario(config);
  MonitorEngine source(scenario, monitor_options(1));
  source.run_until(6);
  const std::string bytes = source.checkpoint();

  MonitorEngine resumed(scenario, monitor_options(1));
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

TEST(MonitorCheckpoint, EnvelopeRefusals) {
  const ScenarioConfig config = shard_scenario(43);
  Scenario scenario(config);
  MonitorEngine source(scenario, monitor_options(1));
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
  ScenarioConfig other_config = shard_scenario(44);
  Scenario other_scenario(other_config);
  MonitorEngine other(other_scenario, monitor_options(1));
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
    MonitorEngine resumed(scenario, monitor_options(1));
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
}

TEST(MonitorCheckpoint, FileRoundtripAndMissingFile) {
  const ScenarioConfig config = shard_scenario(45);
  Scenario scenario(config);
  MonitorEngine source(scenario, monitor_options(1));
  source.run_until(6);

  const std::string path = ::testing::TempDir() + "ct_monitor_checkpoint_test.bin";
  source.checkpoint_to(path);
  EXPECT_EQ(source.stats().checkpoints_written, 1);

  MonitorEngine resumed(scenario, monitor_options(1));
  resumed.restore_from(path);
  EXPECT_EQ(resumed.watermark(), 6);
  std::remove(path.c_str());

  MonitorEngine cold(scenario, monitor_options(1));
  EXPECT_THROW(cold.restore_from(path), CheckpointError) << "missing file is a clean error";
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
