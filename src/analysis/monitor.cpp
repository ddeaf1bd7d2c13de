#include "analysis/monitor.h"

#include <algorithm>
#include <future>
#include <stdexcept>
#include <utility>

#include "analysis/checkpoint.h"
#include "util/serde.h"

namespace ct::analysis {

// --- LiveReportServer ------------------------------------------------

LiveReportServer::Reader::Reader(const LiveReportServer& server) : server_(&server) {
  const std::int64_t now =
      server.active_readers_.fetch_add(1, std::memory_order_relaxed) + 1;
  std::int64_t peak = server.peak_readers_.load(std::memory_order_relaxed);
  while (now > peak &&
         !server.peak_readers_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
  }
}

LiveReportServer::Reader::~Reader() {
  server_->active_readers_.fetch_sub(1, std::memory_order_relaxed);
}

void LiveReportServer::publish(std::shared_ptr<const LiveReport> report) {
  // Watermark first: a reader racing the swap sees the old snapshot
  // against the new watermark and counts itself stale — which it is.
  latest_watermark_.store(report->watermark, std::memory_order_release);
  snapshot_.store(std::move(report), std::memory_order_release);
  published_.fetch_add(1, std::memory_order_relaxed);
}

std::shared_ptr<const LiveReport> LiveReportServer::snapshot() const {
  reads_.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<const LiveReport> report = snapshot_.load(std::memory_order_acquire);
  if (report != nullptr &&
      report->watermark < latest_watermark_.load(std::memory_order_acquire)) {
    stale_reads_.fetch_add(1, std::memory_order_relaxed);
  }
  return report;
}

// --- MonitorEngine ---------------------------------------------------

namespace {

/// One analysis pass's cumulative counters: its checkpointed base plus
/// its live analyzers.
tomo::EngineStats pass_stats(const tomo::EngineStats& base,
                             const std::vector<tomo::CnfAnalyzer>& analyzers) {
  tomo::EngineStats stats = base;
  for (const tomo::CnfAnalyzer& analyzer : analyzers) stats += analyzer.stats();
  return stats;
}

}  // namespace

struct MonitorEngine::Counters {
  tomo::EngineStats main;
  tomo::EngineStats ablation;
  tomo::EngineStats server;
};

struct MonitorEngine::State {
  State(const Scenario& scenario, const ExperimentOptions& options, util::ThreadPool& lanes)
      : num_ases(scenario.graph().num_ases()),
        num_urls(static_cast<std::int32_t>(scenario.platform().urls().size())),
        grouper(pool, num_urls, {.kept_granularities = options.fig1_granularities}, &lanes),
        strip(pool, num_ases, num_urls),
        churn_fold(scenario.graph(), scenario.platform().vantages(),
                   scenario.platform().dest_ases(), scenario.platform().config().num_days,
                   scenario.platform().config().epochs_per_day),
        folds(options),
        summary(scenario.graph(), num_urls),
        truth(scenario.registry(), scenario.platform()) {}
  // The grouper and the strip hold the address of `pool`.
  State(const State&) = delete;
  State& operator=(const State&) = delete;

  /// The checkpoint payload; `now` (the bases plus what ran since) is
  /// written where load() reads the bases.
  void save(util::ByteWriter& w, const Counters& now) const {
    pool.save(w);
    grouper.save(w);
    strip.save(w);
    churn_fold.save(w);
    folds.save(w);
    summary.save(w);
    truth.save(w);
    save_clause_stats(w, clause_stats);
    save_engine_stats(w, now.main);
    save_engine_stats(w, now.ablation);
    save_engine_stats(w, now.server);
    w.i64(segments);
  }

  /// Loads a payload into this fresh state; the pool first, which
  /// bounds the path ids of the grouper and the strip.
  void load(util::ByteReader& r) {
    pool.load(r, num_ases);
    grouper.load(r);
    strip.load(r);
    churn_fold.load(r);
    folds.load(r, num_ases);
    summary.load(r);
    truth.load(r);
    clause_stats = load_clause_stats(r);
    base.main = load_engine_stats(r);
    base.ablation = load_engine_stats(r);
    base.server = load_engine_stats(r);
    segments = r.i64();
    r.expect_end();
  }

  const std::int32_t num_ases;
  const std::int32_t num_urls;  // the platform's URL list
  tomo::PathPool pool;  // global canonical path ids
  /// Groups both analysis passes: the main CNFs, and Figure 4's from the
  /// entries `strip` keeps.
  tomo::StreamingCnfBuilder grouper;
  tomo::ChurnStripFilter strip;
  ChurnFold churn_fold;
  ExperimentFolds folds;
  iclab::DatasetSummary summary;
  TruthTracker truth;
  tomo::ClauseBuildStats clause_stats;
  /// Counters restored from the checkpoint (the live analyzers and server
  /// restart from zero on resume and accumulate on top of these).
  Counters base;
  std::int64_t segments = 0;
};

MonitorEngine::MonitorEngine(Scenario& scenario, MonitorOptions options)
    : scenario_(&scenario),
      options_(std::move(options)),
      fingerprint_(config_fingerprint(scenario, options_.experiment)),
      analysis_pool_(util::ThreadPool::workers_for(options_.experiment.num_threads)),
      main_analyzers_(analysis_pool_.size()),
      ablation_analyzers_(analysis_pool_.size()),
      state_(std::make_unique<State>(scenario, options_.experiment, analysis_pool_)) {
  if (options_.segment_days < 1) options_.segment_days = 1;
  main_analysis_ = options_.experiment.analysis;
  main_analysis_.resolve_counts = false;  // nothing downstream reads counts past the class
  ablation_analysis_ = options_.experiment.analysis;
  ablation_analysis_.resolve_counts = true;  // Figure 4 plots the histogram
}

MonitorEngine::~MonitorEngine() = default;

util::Day MonitorEngine::num_days() const {
  return scenario_->platform().config().num_days;
}

void MonitorEngine::run_until(util::Day target) {
  const util::Day end = std::min(target, num_days());
  if (watermark_ >= end) return;
  const unsigned shards = options_.experiment.num_platform_shards;
  const auto segment_end = [&](util::Day d0) {
    return std::min(end, d0 + options_.segment_days);
  };
  std::vector<std::unique_ptr<PlatformSinks>> bundles =
      run_platform_shards(*scenario_, shards, watermark_, segment_end(watermark_));
  for (;;) {
    const util::Day d1 = segment_end(watermark_);
    std::vector<tomo::PathClause> clauses = hand_off(std::move(bundles));
    // The next segment's platform run starts only now, once this
    // segment's bundles are freed, and runs beside this segment's
    // drain.  It touches no monitor state (each worker owns its sinks),
    // and the state still changes in segment order.  The future joins
    // on every exit path, exceptions included.
    std::future<std::vector<std::unique_ptr<PlatformSinks>>> next;
    if (d1 < end) {
      next = std::async(std::launch::async, [this, shards, d1, d2 = segment_end(d1)] {
        return run_platform_shards(*scenario_, shards, d1, d2);
      });
    }
    drain(std::move(clauses), d1);
    ++state_->segments;
    maybe_checkpoint();
    if (!next.valid()) return;
    bundles = next.get();
  }
}

std::vector<tomo::PathClause> MonitorEngine::hand_off(
    std::vector<std::unique_ptr<PlatformSinks>> bundles) {
  // The churn folds absorb on their own thread while the clauses
  // translate: the two read different sinks of each bundle and write
  // different monitor state.  The future joins on every exit path.
  State& state = *state_;
  std::future<void> churn = std::async(std::launch::async, [&state, &bundles] {
    for (const auto& bundle : bundles) {
      state.churn_fold.absorb_unsealed(bundle->churn_tracker.take_fold());
    }
  });

  // Translate every bundle's clauses straight into the persistent pool,
  // in canonical serial order (each distinct segment path interned
  // once, in global first-use order == the serial run's, so the CNFs
  // are bit-identical to build_cnfs over the whole stream).
  std::vector<const tomo::ClauseBuilder*> builders;
  builders.reserve(bundles.size());
  for (const auto& bundle : bundles) builders.push_back(&bundle->clause_builder);
  std::vector<tomo::PathClause> clauses = tomo::hand_off_clauses(builders, state.pool);
  retained_.add(static_cast<std::int64_t>(clauses.size()));
  churn.get();

  // Fold each bundle's other run-wide sink products into the persistent
  // state (every fold is order-independent), freeing it as it goes.
  for (std::unique_ptr<PlatformSinks>& bundle : bundles) {
    state.summary.merge(std::move(bundle->summary));
    state.truth.merge(std::move(bundle->truth_tracker));
    state.clause_stats += bundle->clause_builder.stats();
    bundle.reset();
  }
  return clauses;
}

void MonitorEngine::drain(std::vector<tomo::PathClause> clauses, util::Day d1) {
  // The strip marks, in stream order, the clauses Figure 4 keeps, and
  // the segment is grouped with those marks on the analysis lanes.  The
  // raw clauses live only until then — the retained gauge proves it.
  State& state = *state_;
  const auto retained = static_cast<std::int64_t>(clauses.size());
  std::vector<std::uint8_t> kept(clauses.size());
  for (std::size_t i = 0; i < clauses.size(); ++i) kept[i] = state.strip.keep(clauses[i]) ? 1 : 0;
  state.grouper.add(clauses, kept);
  clauses = {};
  retained_.sub(retained);

  watermark_ = d1;
  analyze_and_fold(state.grouper.advance_watermark(d1));
  // Seal the churn windows the segment completed; open entries stay
  // O(pairs x windows straddling the boundary).
  state.churn_fold.retire_before(d1);
  // Publish only now: the counts and the churn both cover exactly the
  // days below the watermark.
  publish_report();
}

void MonitorEngine::analyze_and_fold(const tomo::EmittedCnfs& cnfs) {
  // Same scheduling as tomo::analyze_cnfs: one task per CNF on the
  // worker's own analyzer, and out[i] slots keep the key-sorted batch
  // order, so the verdict vector is byte-identical for any lane count.
  const auto analyze = [this](std::vector<tomo::CnfAnalyzer>& analyzers,
                              const std::vector<tomo::TomoCnf>& batch,
                              const tomo::AnalysisOptions& options) {
    std::vector<tomo::CnfVerdict> out(batch.size());
    analysis_pool_.for_each_index(batch.size(), [&](unsigned worker, std::size_t i) {
      out[i] = analyzers[worker].analyze(batch[i], options);
    });
    return out;
  };
  const std::vector<tomo::CnfVerdict> main_verdicts =
      analyze(main_analyzers_, cnfs.main, main_analysis_);
  ExperimentFolds& folds = state_->folds;
  for (std::size_t k = 0; k < cnfs.main.size(); ++k) folds.add_main(cnfs.main[k], main_verdicts[k]);
  for (const tomo::CnfVerdict& v : analyze(ablation_analyzers_, cnfs.kept, ablation_analysis_)) {
    folds.fig4.add(v);
  }
}

void MonitorEngine::publish_report() {
  auto report = std::make_shared<LiveReport>();
  report->watermark = watermark_;
  report->counts = state_->folds.verdicts.counts();
  report->churn = state_->churn_fold.snapshot();
  server_.publish(std::move(report));
}

MonitorEngine::Counters MonitorEngine::counters_now() const {
  const Counters& base = state_->base;
  Counters now{pass_stats(base.main, main_analyzers_), pass_stats(base.ablation, ablation_analyzers_),
               base.server};
  now.server.snapshots_published += server_.published();
  now.server.snapshot_reads += server_.reads();
  now.server.snapshot_stale_reads += server_.stale_reads();
  now.server.snapshot_peak_readers =
      std::max(now.server.snapshot_peak_readers, server_.peak_readers());
  return now;
}

std::string MonitorEngine::checkpoint() const {
  util::ByteWriter w;
  state_->save(w, counters_now());
  return seal_checkpoint(fingerprint_, watermark_, w.take());
}

void MonitorEngine::checkpoint_to(const std::string& path) {
  write_checkpoint_file(path, checkpoint());
  last_checkpoint_ = watermark_;
  ++checkpoints_written_;
}

void MonitorEngine::maybe_checkpoint() {
  if (options_.checkpoint_path.empty() || options_.checkpoint_every <= 0) return;
  if (watermark_ - last_checkpoint_ < options_.checkpoint_every) return;
  checkpoint_to(options_.checkpoint_path);
}

void MonitorEngine::restore(const std::string& bytes) {
  if (watermark_ != 0 || state_->segments != 0) {
    throw std::logic_error(
        "MonitorEngine::restore: only a freshly constructed monitor may restore");
  }
  const OpenedCheckpoint opened = open_checkpoint(bytes, fingerprint_);
  // All or nothing: the payload loads into a fresh state, which replaces
  // this monitor's only once the whole payload parsed.
  auto state = std::make_unique<State>(*scenario_, options_.experiment, analysis_pool_);
  try {
    util::ByteReader r(opened.payload);
    state->load(r);
  } catch (const util::SerdeError& e) {
    throw CheckpointError(std::string("checkpoint payload: ") + e.what());
  }
  state_.swap(state);
  watermark_ = opened.watermark;
  last_checkpoint_ = opened.watermark;
  // Resumed readers get a valid snapshot immediately, before the next
  // ingested segment publishes a fresh one.
  if (watermark_ > 0) publish_report();
}

void MonitorEngine::restore_from(const std::string& path) {
  restore(read_checkpoint_file(path));
}

ExperimentResult MonitorEngine::finalize() {
  run_all();

  // Flush the trailing partial windows — exactly the complement of what
  // advance_watermark() emitted, so the emitted union equals the
  // build_cnfs() output over the whole stream.
  State& state = *state_;
  analyze_and_fold(state.grouper.flush());
  state.churn_fold.retire_before(num_days());
  publish_report();

  ExperimentResult result =
      finalize_experiment_result(*scenario_, options_.experiment, state.folds, state.summary,
                                 state.clause_stats, state.truth, state.churn_fold.snapshot());
  result.engine_stats = pass_stats(state.base.main, main_analyzers_);
  return result;
}

MonitorStats MonitorEngine::stats() const {
  MonitorStats stats;
  stats.watermark = watermark_;
  stats.segments_ingested = state_->segments;
  stats.checkpoints_written = checkpoints_written_;
  stats.open_main_windows = static_cast<std::int64_t>(state_->grouper.open_windows());
  stats.churn_open_entries = static_cast<std::int64_t>(state_->churn_fold.open_window_entries());
  stats.retained_clauses_now = retained_.current();
  stats.retained_clauses_peak = retained_.peak();
  stats.gauge_underflows = retained_.underflows();
  // The churn counters at the last ingested epoch.
  if (watermark_ > 0) {
    const iclab::Platform& platform = scenario_->platform();
    const bgp::ChurnTrajectory& churn = platform.churn_trajectory();
    const std::int64_t last_epoch =
        static_cast<std::int64_t>(watermark_) * platform.config().epochs_per_day - 1;
    stats.churn_failures = churn.total_failures(last_epoch);
    stats.churn_repairs = churn.total_repairs(last_epoch);
    stats.churn_links_down = churn.links_down(last_epoch);
  }
  const Counters now = counters_now();
  stats.engine = now.main;
  stats.engine += now.ablation;
  stats.engine += now.server;
  return stats;
}

}  // namespace ct::analysis
