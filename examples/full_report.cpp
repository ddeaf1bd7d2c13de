// Full evaluation report on the default (year-scale) scenario: every
// table and figure of the paper, plus ground-truth validation.  Also
// drops plot-ready CSV series for each figure.
//
//   $ [CT_SAT_BACKEND={auto,cdcl,count,unitprop}] \
//       [CT_SCENARIO={baseline,routing,multipath,adaptive,pathdiv}] \
//       ./full_report [seed] [csv-dir]
#include <cstdint>
#include <cstdlib>
#include <iostream>

#include "analysis/csv_export.h"
#include "analysis/experiment.h"
#include "analysis/report.h"
#include "censor/regime.h"
#include "sat/backend.h"

int main(int argc, char** argv) {
  ct::analysis::ScenarioConfig config = ct::analysis::default_scenario();
  if (argc > 1) config.seed = std::strtoull(argv[1], nullptr, 10);
  config.regime = ct::censor::RegimeConfig::from_env(config.regime);

  ct::analysis::ExperimentOptions options;
  options.analysis.backend = ct::sat::BackendSelector::from_env();

  std::cout << "churntomo full report: seed " << config.seed << ", scenario "
            << ct::censor::to_string(config.regime.regime) << ", "
            << config.topology.num_ases << " ASes, " << config.platform.num_vantages
            << " vantage ASes x " << config.platform.vp_nodes_per_as << " nodes, "
            << config.platform.num_urls << " URLs, " << config.platform.num_days
            << " days, SAT backend "
            << ct::sat::BackendSelector::to_string(options.analysis.backend.mode) << "\n\n";

  ct::analysis::Scenario scenario(config);
  const ct::analysis::ExperimentResult result =
      ct::analysis::run_experiment(scenario, options);
  std::cout << ct::analysis::render_all(result, scenario);

  const std::string csv_dir = argc > 2 ? argv[2] : "report_csv";
  const int files = ct::analysis::write_all_csv(csv_dir, result);
  std::cout << "\nwrote " << files << " CSV series to " << csv_dir << "/\n";
  return 0;
}
