// Crash-safe resident monitor on the any-time analysis pipeline, the
// one driver of the experiment: run_experiment() is a MonitorEngine run
// with the default segments and no checkpoint path.
//
// MonitorEngine runs the measurement platform as a *resident* loop:
// measurements are ingested continuously in day segments, each segment
// drains once — the CNFs of the windows it seals are analyzed as one
// batch per analysis pass (on persistent per-worker analyzers, each CNF
// on its own) — and every data product accumulates in
// ExperimentFolds (checkpoint.h's serialize_report() is the oracle).
//
// Segment pipeline: a segment's platform bundles are handed off as
// they are — each bundle's summary, truth tracker, stats and churn fold
// folded directly (the churn folds on a second thread), the bundles'
// clauses translated straight into the persistent pool
// (tomo::hand_off_clauses) — and freed.  Within one
// run_until() call, the next segment's platform run starts on its own
// thread right then, and runs beside this segment's grouping, strip,
// watermark advance, SAT passes, folds, CNF release, publish and
// cadence checkpoint.  It touches no monitor state, and the state
// changes in segment order, so reports, checkpoints and fingerprints
// are byte-identical to one-segment-at-a-time calls, which prefetch
// nothing.
//
// Crash safety: the monitor's persistent state — the interned path
// pool, the open window groups of both CNF builders, the ablation
// filter, the sealed churn fold, all four experiment folds, the dataset
// summary, the truth tracker, the clause-build stats, and the
// cumulative SAT counters — is one heap-held object built with its
// geometry, whose groupers and filter borrow its own pool.
// checkpoint() saves it into a versioned, fingerprinted envelope
// (analysis/checkpoint.h).  A process killed at any point can restore()
// the last checkpoint into a freshly constructed monitor and run to the
// *identical* final report: the
// platform replay is deterministic from any day boundary (schedule-keyed
// RNG), every fold is order-independent, and solver learnt state is
// never carried between CNFs at all, so a resumed monitor analyzes
// every remaining CNF exactly as a straight run would (verdicts are
// pure functions of (CNF, options); the ClosedFormOracle suite holds
// every verdict to the closed form).
//
// Memory: O(open windows + one segment), independent of run length.
// Each segment's raw clauses live only between its hand-off and its
// drain (tracked by an HwmGauge); at most one segment's clauses plus
// the next segment's platform sinks are held at once, since the next
// platform run starts only after the hand-off freed the bundles.  The
// window groups, churn fold, and folds are all watermark-sealed.  A
// 10-year replay holds a flat retained-clause peak — the CI smoke job
// asserts it.
//
// LiveReports are served to any number of concurrent readers through
// LiveReportServer: one atomic shared_ptr swap per ingested segment
// (plus one on restore() and one on finalize()), wait-free readers, with
// published/read/stale/peak-reader counters surfaced in EngineStats.
// A report is published only once the segment's churn windows are
// sealed, so its counts and churn both cover exactly the days below its
// watermark.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/live_report.h"
#include "analysis/platform_sinks.h"
#include "analysis/scenario.h"
#include "tomo/clause.h"
#include "tomo/cnf_builder.h"
#include "tomo/engine.h"
#include "util/hwm.h"
#include "util/thread_pool.h"

namespace ct::analysis {

/// Snapshot-swap server for LiveReports.  publish() (single writer: the
/// monitor loop) installs a new immutable snapshot with one atomic
/// shared_ptr store; snapshot() (any number of concurrent readers) is a
/// single atomic load — readers never block the writer and never see a
/// torn report, only a complete (possibly one-watermark-stale) one.
class LiveReportServer {
 public:
  /// RAII reader registration, for the reader-count instrumentation
  /// (attach on construction, detach on destruction).  Attaching is
  /// optional — snapshot() works unattached — but the monitor's
  /// peak-reader counter only sees attached readers.
  class Reader {
   public:
    explicit Reader(const LiveReportServer& server);
    ~Reader();
    Reader(const Reader&) = delete;
    Reader& operator=(const Reader&) = delete;

    std::shared_ptr<const LiveReport> snapshot() const { return server_->snapshot(); }

   private:
    const LiveReportServer* server_;
  };

  /// Installs `report` as the current snapshot (single writer).
  void publish(std::shared_ptr<const LiveReport> report);

  /// The current snapshot, or null before the first publish.  Wait-free
  /// with respect to the writer; a read racing a publish returns the
  /// previous complete snapshot (and counts as stale).
  std::shared_ptr<const LiveReport> snapshot() const;

  std::uint64_t published() const { return published_.load(std::memory_order_relaxed); }
  std::uint64_t reads() const { return reads_.load(std::memory_order_relaxed); }
  /// snapshot() calls that observed a report older than the latest
  /// published watermark (they raced a publish — still a valid report).
  std::uint64_t stale_reads() const { return stale_reads_.load(std::memory_order_relaxed); }
  std::uint64_t peak_readers() const {
    return static_cast<std::uint64_t>(peak_readers_.load(std::memory_order_relaxed));
  }

 private:
  std::atomic<std::shared_ptr<const LiveReport>> snapshot_;
  std::atomic<std::int32_t> latest_watermark_{-1};
  mutable std::atomic<std::uint64_t> published_{0};
  mutable std::atomic<std::uint64_t> reads_{0};
  mutable std::atomic<std::uint64_t> stale_reads_{0};
  mutable std::atomic<std::int64_t> active_readers_{0};
  mutable std::atomic<std::int64_t> peak_readers_{0};
};

struct MonitorOptions {
  /// Result-determining configuration (fingerprinted into checkpoints)
  /// plus the execution knobs (threads, shards — both
  /// checkpoint-compatible across changes).
  ExperimentOptions experiment;
  /// Ingest segment length in days: each segment is one platform replay
  /// (sharded per `experiment.num_platform_shards`), one drain (one
  /// watermark advance, one SAT batch per analysis pass) and one
  /// published LiveReport.  Inside one run_until() call the next
  /// segment's replay overlaps this segment's drain, starting once this
  /// segment's bundles are handed off.  Peak memory scales with this —
  /// one segment's clauses plus the next segment's platform sinks —
  /// not with the run length.
  util::Day segment_days = 28;
  /// Automatic checkpoint cadence in watermark days (0 = only explicit
  /// checkpoint() calls).  Checkpoints are written at segment
  /// boundaries — the monitor's quiescent points — so the cadence is
  /// rounded up to whole segments.
  util::Day checkpoint_every = 0;
  /// Target file for automatic checkpoints (empty = none); written
  /// atomically (tmp + rename), so a kill mid-write preserves the
  /// previous checkpoint.
  std::string checkpoint_path;
};

/// Point-in-time monitor gauges (distinct from the SAT EngineStats,
/// which `engine` embeds).
struct MonitorStats {
  util::Day watermark = 0;
  std::int64_t segments_ingested = 0;
  std::int64_t checkpoints_written = 0;
  /// O(open windows) state — these are the numbers that must stay flat
  /// over a multi-year run.
  std::int64_t open_main_windows = 0;
  std::int64_t open_ablation_windows = 0;
  std::int64_t churn_open_entries = 0;
  std::int64_t retained_clauses_now = 0;
  std::int64_t retained_clauses_peak = 0;
  std::int64_t gauge_underflows = 0;
  /// Churn-process counters at the last epoch below the watermark, read
  /// from the platform's churn trajectory (a pure function of the seed,
  /// so a resumed monitor reads the same).  failures - repairs ==
  /// links_down always; failures ~ repairs with few links down means a
  /// flapping population, a growing gap means links are dying.
  std::int64_t churn_failures = 0;
  std::int64_t churn_repairs = 0;
  std::int32_t churn_links_down = 0;
  /// Cumulative SAT counters of both analysis passes plus the
  /// snapshot-server counters, carried across resume via the checkpoint.
  tomo::EngineStats engine;
};

/// The resident monitor loop.  Singleton per scenario run; not
/// thread-safe itself (one driver thread), but its LiveReportServer is
/// safe for any number of concurrent readers.
class MonitorEngine {
 public:
  MonitorEngine(Scenario& scenario, MonitorOptions options);
  ~MonitorEngine();

  util::Day watermark() const { return watermark_; }
  util::Day num_days() const;
  std::uint64_t fingerprint() const { return fingerprint_; }

  /// Ingests and analyzes through `target` (exclusive watermark day),
  /// segment by segment, publishing a LiveReport at every completed
  /// segment and writing automatic checkpoints at the configured cadence.
  /// Each segment's platform run after the first overlaps the previous
  /// segment's drain; a call that covers one segment runs no platform
  /// ahead.
  void run_until(util::Day target);
  void run_all() { run_until(num_days()); }

  /// Serializes the monitor's complete persistent state into a sealed
  /// checkpoint envelope.  Valid between run_until() calls (the
  /// monitor's quiescent points).
  std::string checkpoint() const;
  /// checkpoint() + atomic file write; counts toward checkpoints_written.
  void checkpoint_to(const std::string& path);

  /// Restores a checkpoint into this *freshly constructed* monitor
  /// (same scenario + experiment config — the envelope fingerprint
  /// enforces it; execution knobs may differ).  Throws CheckpointError
  /// on any mismatch or corruption, std::logic_error if this monitor
  /// already ingested data.  All or nothing: the payload loads into a
  /// fresh state that replaces the monitor's only once it parsed whole,
  /// so a refused checkpoint leaves the monitor as constructed, free to
  /// run cold.
  void restore(const std::string& bytes);
  void restore_from(const std::string& path);

  /// Completes ingest (run_all), flushes the trailing partial windows,
  /// and derives the final ExperimentResult through
  /// finalize_experiment_result() — byte-identical (modulo engine_stats,
  /// the main pass's counters) for any segment length and any number
  /// of kill/resume cycles.
  ExperimentResult finalize();

  LiveReportServer& reports() { return server_; }
  const LiveReportServer& reports() const { return server_; }

  MonitorStats stats() const;

 private:
  /// The shard hand-off: translates the segment's clauses into the
  /// state's pool (returned in canonical serial order, counted as retained) and
  /// folds every bundle's other sinks into the persistent state,
  /// freeing the bundles.
  std::vector<tomo::PathClause> hand_off(std::vector<std::unique_ptr<PlatformSinks>> bundles);
  /// Groups one handed-off segment, advances the watermark to `d1`,
  /// analyzes and folds the sealed CNFs, seals the churn windows and
  /// publishes.
  void drain(std::vector<tomo::PathClause> clauses, util::Day d1);
  /// One SAT batch per pass; folds the verdicts.
  void analyze_and_fold(const std::vector<tomo::TomoCnf>& main_cnfs,
                        const std::vector<tomo::TomoCnf>& ablation_cnfs);
  void publish_report();
  void maybe_checkpoint();

  /// Everything a checkpoint's payload carries (defined in monitor.cpp).
  struct State;
  /// The SAT counters a checkpoint carries: one record per analysis
  /// pass and one for the snapshot server.
  struct Counters;
  /// The state's checkpointed counters plus the live analyzers and server.
  Counters counters_now() const;

  Scenario* scenario_;
  MonitorOptions options_;
  std::uint64_t fingerprint_;
  tomo::AnalysisOptions main_analysis_;
  tomo::AnalysisOptions ablation_analysis_;

  // Execution state (never checkpointed).
  // The analysis lanes, one CnfAnalyzer per lane and pass (each keeps
  // its scratch buffers across batches); the groupers borrow the lanes
  // too.
  util::ThreadPool analysis_pool_;
  std::vector<tomo::CnfAnalyzer> main_analyzers_;
  std::vector<tomo::CnfAnalyzer> ablation_analyzers_;
  LiveReportServer server_;
  util::HwmGauge retained_;

  util::Day watermark_ = 0;  // the checkpoint envelope carries it
  util::Day last_checkpoint_ = 0;
  std::int64_t checkpoints_written_ = 0;

  /// The persistent pipeline state: never null, replaced only whole.
  std::unique_ptr<State> state_;
};

}  // namespace ct::analysis
