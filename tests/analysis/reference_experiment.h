// Phase-separated reference pipeline, independent of the monitor.
//
// run_experiment() is a MonitorEngine run, so comparing a monitor with
// run_experiment compares the monitor with itself.  This reference runs
// the pipeline's library calls one whole phase at a time instead:
// run_platform -> build_cnfs -> analyze_cnfs -> strip_path_churn ->
// build_cnfs -> analyze_cnfs -> PathChurnTracker::compute ->
// finalize_experiment_result.  No segment, watermark or streaming fold
// state is involved, so a monitor bug cannot hide in it.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/live_report.h"
#include "analysis/platform_sinks.h"
#include "analysis/scenario.h"
#include "tomo/clause.h"
#include "tomo/cnf_builder.h"
#include "tomo/engine.h"

namespace ct::analysis::test {

/// The whole experiment, phase by phase.  engine_stats holds the main
/// pass's counters, as run_experiment's does.
inline ExperimentResult reference_experiment(Scenario& scenario,
                                             const ExperimentOptions& options = {}) {
  const std::unique_ptr<PlatformSinks> sinks =
      run_platform(scenario, options.num_platform_shards);
  const tomo::PathPool& pool = sinks->clause_builder.pool();
  const std::vector<tomo::PathClause>& clauses = sinks->clause_builder.clauses();
  ExperimentFolds folds(options);

  // Main pass: counts are resolved only to the 0/1/2+ class.
  tomo::AnalysisOptions main_analysis = options.analysis;
  main_analysis.resolve_counts = false;
  main_analysis.num_threads = options.num_threads;
  tomo::EngineStats main_stats;
  const std::vector<tomo::TomoCnf> cnfs = tomo::build_cnfs(pool, clauses);
  const std::vector<tomo::CnfVerdict> verdicts =
      tomo::analyze_cnfs(cnfs, main_analysis, &main_stats);
  for (std::size_t i = 0; i < cnfs.size(); ++i) folds.add_main(cnfs[i], verdicts[i]);

  // Figure 4: strip churn, rebuild at the Figure-1 granularities, and
  // resolve counts for the histogram.
  tomo::CnfBuildOptions fig4_build;
  fig4_build.granularities = options.fig1_granularities;
  const std::vector<tomo::TomoCnf> fig4_cnfs =
      tomo::build_cnfs(pool, tomo::strip_path_churn(pool, clauses), fig4_build);
  tomo::AnalysisOptions fig4_analysis = options.analysis;
  fig4_analysis.resolve_counts = true;
  fig4_analysis.num_threads = options.num_threads;
  for (const tomo::CnfVerdict& v : tomo::analyze_cnfs(fig4_cnfs, fig4_analysis)) {
    folds.fig4.add(v);
  }

  ExperimentResult result = finalize_experiment_result(
      scenario, options, folds, sinks->summary, sinks->clause_builder.stats(),
      sinks->truth_tracker, sinks->churn_tracker.compute());
  result.engine_stats = main_stats;
  return result;
}

}  // namespace ct::analysis::test
