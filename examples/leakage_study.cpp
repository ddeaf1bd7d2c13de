// Censorship-leakage case study (paper §3.3 / Table 3 / Figure 5).
//
//   $ ./leakage_study [seed]
//
// Runs the pipeline on the small scenario and then walks one identified
// leaking censor end to end: its policies (ground truth), the CNF
// evidence that identified it, and the victim ASes/countries that
// inherited its filtering.
#include <iostream>
#include <string>

#include "analysis/experiment.h"
#include "analysis/report.h"
#include "cli.h"

int main(int argc, char** argv) {
  const ct::examples::Usage usage{argv[0], "[seed]"};
  if (argc > 2) usage.fail("unexpected argument " + std::string(argv[2]));
  // A mid-size world: big enough for transit censors with upstream
  // victims, small enough to run in a few seconds.
  ct::analysis::ScenarioConfig config = ct::analysis::small_scenario();
  config.topology.num_ases = 260;
  config.topology.num_transit = 50;
  config.topology.num_countries = 30;
  config.censors.num_censors = 22;
  config.platform.num_vantages = 30;
  config.platform.num_urls = 45;
  config.platform.num_dest_ases = 25;
  config.platform.num_days = 16 * ct::util::kDaysPerWeek;
  if (argc > 1) config.seed = ct::examples::parse_seed(usage, argv[1]);

  ct::analysis::Scenario scenario(config);
  const auto result = ct::analysis::run_experiment(scenario);
  const auto& graph = scenario.graph();

  std::cout << ct::analysis::render_table3(result) << "\n"
            << ct::analysis::render_fig5(result) << "\n";

  // Walk the biggest leaker in detail.
  const ct::tomo::CensorLeaks* biggest = nullptr;
  for (const auto& [censor, leaks] : result.leakage.by_censor) {
    if (!biggest || leaks.victim_ases.size() > biggest->victim_ases.size()) {
      biggest = &leaks;
    }
  }
  if (!biggest) {
    std::cout << "No leaking censor identified in this run; try another seed.\n";
    return 0;
  }

  const auto censor = biggest->censor;
  std::cout << "Case study: AS" << graph.as_info(censor).asn << " ("
            << graph.country_of(censor).code << ", "
            << ct::topo::to_string(graph.as_info(censor).tier) << ")\n";
  std::cout << "  ground-truth policies:\n";
  for (const auto& policy : scenario.registry().policies()) {
    if (policy.censor != censor) continue;
    std::cout << "    days [" << policy.active_from << ", " << policy.active_to << "):";
    for (const auto c : policy.categories) std::cout << " '" << ct::censor::to_string(c) << "'";
    std::cout << " via";
    for (const auto a : policy.anomalies) std::cout << " " << ct::censor::to_string(a);
    std::cout << "\n";
  }
  std::cout << "  victims (ASes whose traffic inherited the filtering):\n";
  for (const auto victim : biggest->victim_ases) {
    std::cout << "    AS" << graph.as_info(victim).asn << " ("
              << graph.country_of(victim).code << ")\n";
  }
  std::cout << "  victim countries: " << biggest->victim_countries.size() << "\n";
  return 0;
}
