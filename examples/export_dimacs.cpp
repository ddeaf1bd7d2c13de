// Exports the tomography CNFs of a simulated run as DIMACS files, so
// they can be fed to any off-the-shelf SAT solver (the paper's workflow:
// "the clauses are converted to CNF and used as input to an
// off-the-shelf SAT solver").
//
//   $ ./export_dimacs [output-dir] [max-files]
//
// Writes one .cnf file per (URL, anomaly, window) with at least one
// positive clause, with a comment header mapping SAT variables back to
// AS numbers.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>

#include "analysis/scenario.h"
#include "cli.h"
#include "tomo/clause.h"
#include "tomo/cnf_builder.h"

int main(int argc, char** argv) {
  const ct::examples::Usage usage{argv[0], "[output-dir] [max-files]"};
  if (argc > 3) usage.fail("unexpected argument " + std::string(argv[3]));
  const std::filesystem::path out_dir = argc > 1 ? argv[1] : "dimacs_out";
  const std::size_t max_files =
      argc > 2 ? ct::examples::parse_flag<std::size_t>(usage, "max-files", argv[2], 0,
                                                        std::numeric_limits<std::size_t>::max())
               : 50;

  ct::analysis::ScenarioConfig config = ct::analysis::small_scenario();
  ct::analysis::Scenario scenario(config);

  ct::tomo::ClauseBuilder builder(scenario.ip2as());
  scenario.platform().run(builder);
  const auto cnfs = ct::tomo::build_cnfs(builder.pool(), builder.clauses());

  std::filesystem::create_directories(out_dir);
  std::size_t written = 0;
  for (const auto& tc : cnfs) {
    if (written >= max_files) break;
    std::vector<std::string> comments;
    comments.push_back("churntomo CNF: url=" + std::to_string(tc.key.url_id) +
                       " anomaly=" + ct::censor::to_string(tc.key.anomaly) +
                       " window=" + ct::util::window_label(tc.key.window, tc.key.granularity));
    for (std::size_t v = 0; v < tc.vars.size(); ++v) {
      comments.push_back("var " + std::to_string(v + 1) + " = AS" +
                         std::to_string(scenario.graph().as_info(tc.vars[v]).asn));
    }
    const std::string name = "url" + std::to_string(tc.key.url_id) + "_" +
                             ct::censor::short_label(tc.key.anomaly) + "_" +
                             std::string(ct::util::to_string(tc.key.granularity)) +
                             std::to_string(tc.key.window) + ".cnf";
    std::ofstream out(out_dir / name);
    ct::tomo::write_dimacs(out, ct::tomo::to_cnf(tc), comments);
    ++written;
  }
  std::cout << "wrote " << written << " DIMACS files (of " << cnfs.size()
            << " CNFs) to " << out_dir << "\n"
            << "solve one with any SAT solver, e.g.: minisat " << out_dir
            << "/<file>.cnf\n";
  return 0;
}
