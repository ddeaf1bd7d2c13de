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

tomo::CnfBuildOptions ablation_build_options(const ExperimentOptions& options) {
  tomo::CnfBuildOptions build;
  build.granularities = options.fig1_granularities;
  return build;
}

/// SAT worker lanes, under analyze_cnfs's thread budget: the requested
/// count (0 = one per hardware thread) capped at the hardware, divided
/// by the racing width so lanes x racers stay within the cores.
/// Verdicts do not depend on the lane count.
unsigned analysis_lanes(const ExperimentOptions& options) {
  const unsigned hw = util::ThreadPool::hardware_threads();
  const unsigned lanes = options.num_threads == 0 ? hw : std::min(options.num_threads, hw);
  return std::max(1u, lanes / options.analysis.backend.racing_width());
}

/// One analysis pass's cumulative counters: its checkpointed base plus
/// its live arenas.
tomo::EngineStats pass_stats(const tomo::EngineStats& base,
                             const std::vector<tomo::CnfAnalyzer>& arenas) {
  tomo::EngineStats stats = base;
  for (const tomo::CnfAnalyzer& arena : arenas) stats.add_arena(arena.session_stats());
  return stats;
}

}  // namespace

MonitorEngine::MonitorEngine(Scenario& scenario, MonitorOptions options)
    : scenario_(&scenario),
      options_(std::move(options)),
      fingerprint_(config_fingerprint(scenario, options_.experiment)),
      // The groupers only store the lane pool's address here; it is
      // constructed before their first use.
      grouper_(pool_, {}, &analysis_pool_),
      strip_(scenario.graph().num_ases(), scenario.platform().config().num_urls),
      ablation_grouper_(pool_, ablation_build_options(options_.experiment), &analysis_pool_),
      churn_fold_(scenario.graph(), scenario.platform().vantages(),
                  scenario.platform().dest_ases(), scenario.platform().config().num_days,
                  scenario.platform().config().epochs_per_day),
      folds_(options_.experiment),
      summary_(scenario.graph()),
      truth_(scenario.registry(), scenario.platform()),
      churn_probe_(scenario.graph(), scenario.platform().config().churn,
                   scenario.config().seed),
      analysis_pool_(analysis_lanes(options_.experiment)),
      main_arenas_(analysis_pool_.size()),
      ablation_arenas_(analysis_pool_.size()) {
  if (options_.segment_days < 1) options_.segment_days = 1;
  main_analysis_ = options_.experiment.analysis;
  main_analysis_.resolve_counts = false;  // nothing downstream reads counts past the class
  ablation_analysis_ = options_.experiment.analysis;
  ablation_analysis_.resolve_counts = true;  // Figure 4 plots the histogram
}

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
    // drain.  It touches no monitor state (each shard owns its sinks),
    // and the state still changes in segment order.  The future joins
    // on every exit path, exceptions included.
    std::future<std::vector<std::unique_ptr<PlatformSinks>>> next;
    if (d1 < end) {
      next = std::async(std::launch::async, [this, shards, d1, d2 = segment_end(d1)] {
        return run_platform_shards(*scenario_, shards, d1, d2);
      });
    }
    drain(std::move(clauses), d1);
    ++segments_;
    maybe_checkpoint();
    if (!next.valid()) return;
    bundles = next.get();
  }
}

std::vector<tomo::PathClause> MonitorEngine::hand_off(
    std::vector<std::unique_ptr<PlatformSinks>> bundles) {
  // Translate every shard's clauses straight into the persistent pool,
  // in canonical serial order (each distinct segment path interned
  // once, in global first-use order == the serial run's, so the CNFs
  // are bit-identical to build_cnfs over the whole stream).
  std::vector<const tomo::ClauseBuilder*> builders;
  builders.reserve(bundles.size());
  for (const auto& bundle : bundles) builders.push_back(&bundle->clause_builder);
  std::vector<tomo::PathClause> clauses = tomo::hand_off_clauses(builders, pool_);
  retained_.add(static_cast<std::int64_t>(clauses.size()));

  // Fold each bundle's run-wide sink products into the persistent
  // state (every fold is order-independent), freeing it as it goes.
  for (std::unique_ptr<PlatformSinks>& bundle : bundles) {
    summary_.merge(std::move(bundle->summary));
    truth_.merge(std::move(bundle->truth_tracker));
    clause_stats_ += bundle->clause_builder.stats();
    churn_fold_.absorb_unsealed(bundle->churn_tracker.take_fold());
    bundle.reset();
  }
  return clauses;
}

void MonitorEngine::drain(std::vector<tomo::PathClause> clauses, util::Day d1) {
  // Group the segment on the analysis lanes, then compact it in place
  // to the strip's survivors, in stream order, for the ablation
  // grouper.  The raw clauses live only until then — the retained
  // gauge proves it.
  const auto retained = static_cast<std::int64_t>(clauses.size());
  grouper_.add(clauses);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < clauses.size(); ++i) {
    if (strip_.keep(pool_, clauses[i])) clauses[kept++] = clauses[i];
  }
  clauses.resize(kept);
  ablation_grouper_.add(clauses);
  clauses = {};
  retained_.sub(retained);

  watermark_ = d1;
  analyze_and_fold(grouper_.advance_watermark(d1), ablation_grouper_.advance_watermark(d1));
  // Seal the churn windows the segment completed; open entries stay
  // O(pairs x windows straddling the boundary).
  churn_fold_.retire_before(d1);
  // Publish only now: the counts and the churn both cover exactly the
  // days below the watermark.
  publish_report();
}

void MonitorEngine::analyze_and_fold(const std::vector<tomo::TomoCnf>& main_cnfs,
                                     const std::vector<tomo::TomoCnf>& ablation_cnfs) {
  // Same scheduling as tomo::analyze_cnfs: one task per CNF on the
  // worker's own arena, and out[i] slots keep the key-sorted batch
  // order, so the verdict vector is byte-identical for any lane count.
  const auto analyze = [this](std::vector<tomo::CnfAnalyzer>& arenas,
                              const std::vector<tomo::TomoCnf>& cnfs,
                              const tomo::AnalysisOptions& options) {
    std::vector<tomo::CnfVerdict> out(cnfs.size());
    analysis_pool_.for_each_index(cnfs.size(), [&](unsigned worker, std::size_t i) {
      out[i] = arenas[worker].analyze(cnfs[i], options);
    });
    return out;
  };
  const std::vector<tomo::CnfVerdict> main_verdicts =
      analyze(main_arenas_, main_cnfs, main_analysis_);
  for (std::size_t k = 0; k < main_cnfs.size(); ++k) {
    folds_.add_main(main_cnfs[k], main_verdicts[k]);
  }
  for (const tomo::CnfVerdict& v : analyze(ablation_arenas_, ablation_cnfs, ablation_analysis_)) {
    folds_.fig4.add(v);
  }
}

void MonitorEngine::publish_report() {
  auto report = std::make_shared<LiveReport>();
  report->watermark = watermark_;
  report->counts = folds_.verdicts.counts();
  report->churn = churn_fold_.snapshot();
  server_.publish(std::move(report));
}

tomo::EngineStats MonitorEngine::server_stats() const {
  tomo::EngineStats stats = server_base_;
  stats.snapshots_published += server_.published();
  stats.snapshot_reads += server_.reads();
  stats.snapshot_stale_reads += server_.stale_reads();
  stats.snapshot_peak_readers =
      std::max(stats.snapshot_peak_readers, server_.peak_readers());
  return stats;
}

tomo::EngineStats MonitorEngine::engine_now() const {
  tomo::EngineStats stats = pass_stats(main_base_, main_arenas_);
  stats += pass_stats(ablation_base_, ablation_arenas_);
  stats += server_stats();
  return stats;
}

std::string MonitorEngine::checkpoint() const {
  util::ByteWriter w;
  pool_.save(w);
  grouper_.save(w);
  strip_.save(w);
  ablation_grouper_.save(w);
  churn_fold_.save(w);
  folds_.save(w);
  summary_.save(w);
  truth_.save(w);
  save_clause_stats(w, clause_stats_);
  save_engine_stats(w, pass_stats(main_base_, main_arenas_));
  save_engine_stats(w, pass_stats(ablation_base_, ablation_arenas_));
  save_engine_stats(w, server_stats());
  w.i64(segments_);
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
  if (watermark_ != 0 || segments_ != 0) {
    throw std::logic_error(
        "MonitorEngine::restore: only a freshly constructed monitor may restore");
  }
  const OpenedCheckpoint opened = open_checkpoint(bytes, fingerprint_);
  // All or nothing: every component loads into a copy of its fresh
  // member, and the members change only once the whole payload parsed,
  // so a refused checkpoint leaves this monitor as constructed (it may
  // still run cold).  The groupers' copies borrow the members' pools.
  tomo::PathPool pool = pool_;
  tomo::StreamingCnfBuilder grouper = grouper_;
  tomo::ChurnStripFilter strip = strip_;
  tomo::StreamingCnfBuilder ablation_grouper = ablation_grouper_;
  ChurnFold churn_fold = churn_fold_;
  ExperimentFolds folds = folds_;
  iclab::DatasetSummary summary = summary_;
  TruthTracker truth = truth_;
  tomo::ClauseBuildStats clause_stats;
  tomo::EngineStats main_base;
  tomo::EngineStats ablation_base;
  tomo::EngineStats server_base;
  std::int64_t segments = 0;
  try {
    util::ByteReader r(opened.payload);
    const std::int32_t num_ases = scenario_->graph().num_ases();
    pool.load(r, num_ases);
    // The groupers' copies borrow the member pool, not `pool`: bound
    // their path ids by the loaded pool's size.
    const std::int32_t num_urls = scenario_->platform().config().num_urls;
    grouper.load(r, num_urls, pool.size());
    strip.load(r, pool.size());
    ablation_grouper.load(r, num_urls, pool.size());
    churn_fold.load(r);
    folds.load(r, num_ases);
    summary.load(r, num_urls);
    truth.load(r);
    clause_stats = load_clause_stats(r);
    main_base = load_engine_stats(r);
    ablation_base = load_engine_stats(r);
    server_base = load_engine_stats(r);
    segments = r.i64();
    r.expect_end();
  } catch (const util::SerdeError& e) {
    throw CheckpointError(std::string("checkpoint payload: ") + e.what());
  }
  pool_ = std::move(pool);
  grouper_ = std::move(grouper);
  strip_ = std::move(strip);
  ablation_grouper_ = std::move(ablation_grouper);
  churn_fold_ = std::move(churn_fold);
  folds_ = std::move(folds);
  summary_ = std::move(summary);
  truth_ = std::move(truth);
  clause_stats_ = clause_stats;
  main_base_ = main_base;
  ablation_base_ = ablation_base;
  server_base_ = server_base;
  segments_ = segments;
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
  analyze_and_fold(grouper_.flush(), ablation_grouper_.flush());
  churn_fold_.retire_before(num_days());
  publish_report();

  ExperimentResult result =
      finalize_experiment_result(*scenario_, options_.experiment, folds_, summary_,
                                 clause_stats_, truth_, churn_fold_.snapshot());
  result.engine_stats = pass_stats(main_base_, main_arenas_);
  return result;
}

MonitorStats MonitorEngine::stats() const {
  MonitorStats stats;
  stats.watermark = watermark_;
  stats.segments_ingested = segments_;
  stats.checkpoints_written = checkpoints_written_;
  stats.open_main_windows = static_cast<std::int64_t>(grouper_.open_windows());
  stats.open_ablation_windows = static_cast<std::int64_t>(ablation_grouper_.open_windows());
  stats.churn_open_entries = static_cast<std::int64_t>(churn_fold_.open_window_entries());
  stats.retained_clauses_now = retained_.current();
  stats.retained_clauses_peak = retained_.peak();
  stats.gauge_underflows = retained_.underflows();
  // Replay the churn replica to the last ingested epoch (watermark only
  // grows, so the forward-only engine never needs to rewind).
  if (watermark_ > 0) {
    const std::int64_t epd = scenario_->platform().config().epochs_per_day;
    const std::int64_t last_epoch = static_cast<std::int64_t>(watermark_) * epd - 1;
    if (last_epoch > churn_probe_.epoch()) churn_probe_.advance_to(last_epoch);
  }
  stats.churn_failures = churn_probe_.total_failures();
  stats.churn_repairs = churn_probe_.total_repairs();
  stats.churn_links_down = churn_probe_.links_down();
  stats.engine = engine_now();
  return stats;
}

}  // namespace ct::analysis
