// Shared helpers for the per-table / per-figure benchmark binaries.
//
// Every binary reproduces one table or figure of the paper on the
// default (year-scale) scenario and prints paper-vs-measured rows.
// Because the full run takes tens of seconds on a laptop core, binaries
// accept an optional first argument to shorten the simulated period:
//
//   ./table1_dataset            # full simulated year (default)
//   ./table1_dataset 84         # 84 simulated days (12 weeks)
//
// and an optional second argument to change the scenario seed.  Both
// are parsed strictly (examples/cli.h): junk, an out-of-range value or a
// third argument prints a usage line and exits 2.
#pragma once

#include <cstdint>
#include <iostream>
#include <limits>
#include <string>

#include "../examples/cli.h"
#include "analysis/experiment.h"
#include "analysis/report.h"

namespace ct::bench {

inline analysis::ScenarioConfig scenario_from_args(int argc, char** argv) {
  const examples::Usage usage{argv[0], "[days] [seed]"};
  if (argc > 3) usage.fail(std::string("unexpected argument ") + argv[3]);
  analysis::ScenarioConfig config = analysis::default_scenario();
  if (argc > 1) {
    config.platform.num_days = examples::parse_flag<util::Day>(
        usage, "days", argv[1], 1, std::numeric_limits<util::Day>::max());
  }
  if (argc > 2) config.seed = examples::parse_seed(usage, argv[2]);
  return config;
}

inline void print_banner(const std::string& what, const analysis::ScenarioConfig& config) {
  std::cout << "churntomo bench: " << what << "\n"
            << "scenario: " << config.topology.num_ases << " ASes, "
            << config.platform.num_vantages << " vantage ASes x "
            << config.platform.vp_nodes_per_as << " nodes, " << config.platform.num_urls
            << " URLs, " << config.platform.num_dest_ases << " destination ASes, "
            << config.platform.num_days << " days, seed " << config.seed << "\n\n";
}

}  // namespace ct::bench
