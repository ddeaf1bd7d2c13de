// Rendering of experiment results as the paper's tables and figures.
//
// Each render_* function returns the plain-text equivalent of one paper
// table or figure, with the paper's reference values alongside the
// measured ones where the paper reports concrete numbers.  Benchmarks
// print these; EXPERIMENTS.md archives them.
#pragma once

#include <string>
#include <vector>

#include "analysis/experiment.h"
#include "censor/regime.h"

namespace ct::analysis {

std::string render_table1(const ExperimentResult& result);
std::string render_fig1a(const ExperimentResult& result);
std::string render_fig1b(const ExperimentResult& result);
std::string render_fig2(const ExperimentResult& result);
std::string render_fig3(const ExperimentResult& result);
std::string render_fig4(const ExperimentResult& result);
std::string render_table2(const ExperimentResult& result, std::size_t top_n = 5);
std::string render_table3(const ExperimentResult& result, std::size_t top_n = 5);
std::string render_fig5(const ExperimentResult& result, std::size_t top_n = 15);
std::string render_headline(const ExperimentResult& result);
std::string render_score(const ExperimentResult& result, const Scenario& scenario);

/// One row of the per-regime localization accuracy table
/// (examples/accuracy_report; archived in EXPERIMENTS.md "Scenario
/// regimes"): does tomography still localize when the scenario breaks
/// one of the paper's assumptions?
struct RegimeAccuracyRow {
  censor::ScenarioRegime regime = censor::ScenarioRegime::kBaseline;
  std::int64_t ground_truth = 0;
  std::int64_t observable = 0;
  std::int64_t identified = 0;
  double precision = 0.0;
  double recall_all = 0.0;
  double recall_observable = 0.0;
  std::int64_t cnfs = 0;
};

/// Collapses one regime's run into its accuracy row.
RegimeAccuracyRow make_accuracy_row(const ExperimentResult& result, const Scenario& scenario);

/// The per-regime accuracy table (baseline first by convention).
std::string render_regime_accuracy(const std::vector<RegimeAccuracyRow>& rows);

/// Everything above, concatenated (used by the full-report example).
std::string render_all(const ExperimentResult& result, const Scenario& scenario);

}  // namespace ct::analysis
