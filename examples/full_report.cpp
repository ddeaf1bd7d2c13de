// Full evaluation report on the default (year-scale) scenario: every
// table and figure of the paper, plus ground-truth validation.  Also
// drops plot-ready CSV series for each figure.
//
//   $ ./full_report [--regime NAME] [seed] [csv-dir]
//
// NAME is one of baseline (default), routing, multipath, adaptive,
// pathdiv (README "Scenarios").
#include <iostream>
#include <string>
#include <vector>

#include "analysis/csv_export.h"
#include "analysis/experiment.h"
#include "analysis/report.h"
#include "censor/regime.h"
#include "cli.h"

int main(int argc, char** argv) {
  const ct::examples::Usage usage{argv[0], "[--regime NAME] [seed] [csv-dir]"};
  ct::analysis::ScenarioConfig config = ct::analysis::default_scenario();
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--regime") {
      config.regime.regime =
          ct::examples::parse_regime_flag(usage, ct::examples::flag_value(usage, argc, argv, i));
    } else if (arg.starts_with("-") || positional.size() == 2) {
      usage.fail("unexpected argument " + arg);
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (!positional.empty()) config.seed = ct::examples::parse_seed(usage, positional[0]);
  const std::string csv_dir = positional.size() > 1 ? positional[1] : "report_csv";

  std::cout << "churntomo full report: seed " << config.seed << ", scenario "
            << ct::censor::to_string(config.regime.regime) << ", "
            << config.topology.num_ases << " ASes, " << config.platform.num_vantages
            << " vantage ASes x " << config.platform.vp_nodes_per_as << " nodes, "
            << config.platform.num_urls << " URLs, " << config.platform.num_days << " days\n\n";

  ct::analysis::Scenario scenario(config);
  const ct::analysis::ExperimentResult result = ct::analysis::run_experiment(scenario);
  std::cout << ct::analysis::render_all(result, scenario);

  const int files = ct::analysis::write_all_csv(csv_dir, result);
  std::cout << "\nwrote " << files << " CSV series to " << csv_dir << "/\n";
  return 0;
}
