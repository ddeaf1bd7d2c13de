// Quickstart: run the whole censorship-localization pipeline on a small
// synthetic Internet and print the paper-style report.
//
//   $ ./quickstart [--regime {baseline,routing,multipath,adaptive,pathdiv}] [seed]
//
// Builds a topology, plants ground-truth censors, simulates two months
// of ICLab-style measurements, localizes censors with boolean network
// tomography, and prints every table/figure of the evaluation.
#include <iostream>
#include <string>

#include "analysis/experiment.h"
#include "analysis/report.h"
#include "censor/regime.h"
#include "cli.h"

int main(int argc, char** argv) {
  const ct::examples::Usage usage{argv[0], "[--regime NAME] [seed]"};
  ct::analysis::ScenarioConfig config = ct::analysis::small_scenario();
  bool seeded = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--regime") {
      config.regime.regime =
          ct::examples::parse_regime_flag(usage, ct::examples::flag_value(usage, argc, argv, i));
    } else if (arg.starts_with("-") || seeded) {
      usage.fail("unexpected argument " + arg);
    } else {
      config.seed = ct::examples::parse_seed(usage, argv[i]);
      seeded = true;
    }
  }

  std::cout << "churntomo quickstart: seed " << config.seed << ", scenario "
            << ct::censor::to_string(config.regime.regime) << ", "
            << config.topology.num_ases << " ASes, " << config.platform.num_vantages
            << " vantage points, " << config.platform.num_days << " days\n\n";

  ct::analysis::Scenario scenario(config);
  const ct::analysis::ExperimentResult result = ct::analysis::run_experiment(scenario);
  std::cout << ct::analysis::render_all(result, scenario);
  return 0;
}
