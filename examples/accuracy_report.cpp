// Per-regime localization accuracy (README "Scenarios"): runs the same
// world under every scenario regime — baseline, routing-induced
// censorship, ECMP multipath, adaptive censors, path-diversity
// inconsistency — and prints precision/recall of identified_censors vs
// ground truth for each.  This is the "does tomography still localize
// when the assumption breaks?" table archived in EXPERIMENTS.md.
//
//   $ [CT_SAT_BACKEND=...] [CT_PLATFORM_SHARDS=N] \
//       ./accuracy_report [--small] [seed]
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/report.h"
#include "censor/regime.h"
#include "sat/backend.h"

int main(int argc, char** argv) {
  ct::analysis::ScenarioConfig base = ct::analysis::default_scenario();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--small") {
      base = ct::analysis::small_scenario();
    } else {
      base.seed = std::strtoull(argv[i], nullptr, 10);
    }
  }

  ct::analysis::ExperimentOptions options;
  options.analysis.backend = ct::sat::BackendSelector::from_env();

  std::cout << "churntomo accuracy report: seed " << base.seed << ", "
            << base.topology.num_ases << " ASes, " << base.platform.num_days
            << " days per regime\n\n";

  std::vector<ct::analysis::RegimeAccuracyRow> rows;
  for (const ct::censor::ScenarioRegime regime : ct::censor::all_regimes()) {
    ct::analysis::ScenarioConfig config = base;
    config.regime.regime = regime;
    ct::analysis::Scenario scenario(config);
    const ct::analysis::ExperimentResult result =
        ct::analysis::run_experiment(scenario, options);
    rows.push_back(ct::analysis::make_accuracy_row(result, scenario));
    std::cout << ct::censor::to_string(regime) << ": done (" << result.total_cnfs
              << " CNFs)\n";
  }

  std::cout << "\n" << ct::analysis::render_regime_accuracy(rows);
  return 0;
}
