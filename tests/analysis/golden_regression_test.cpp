// Golden regression test: the small scenario's headline numbers (Table 1
// counts and the Figure 1 overall solution split) are frozen in one
// checked-in golden file per scenario regime, so refactors cannot
// silently drift the paper's results.
//
// The suite is the execution matrix: every regime on a serial and a
// sharded platform, plus each forced SAT backend on the baseline world.  Each instance checks its regime's
// golden file, through the batch run and through the resident monitor,
// and checks that the run's serialize_report is byte-equal to the
// phase-separated reference's serial auto run of the same regime — so
// ExperimentTest's invariants, checked on that run, hold in every mode.
//
// To regenerate all five files after an *intentional* behavior change:
//   CT_UPDATE_GOLDEN=1 ./ct_analysis_tests --gtest_filter='*GoldenRegression*'
// and commit the rewritten files with an explanation of the drift.
#include <cstdlib>
#include <fstream>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/checkpoint.h"
#include "analysis/experiment.h"
#include "analysis/monitor.h"
#include "analysis/scenario.h"
#include "censor/regime.h"
#include "reference_experiment.h"
#include "sat/backend.h"

namespace ct::analysis {
namespace {

using censor::ScenarioRegime;
using Backend = sat::BackendSelector::Mode;

/// One execution mode: the world (regime) and how it is computed.
struct GoldenMode {
  ScenarioRegime regime;
  unsigned shards;
  Backend backend = Backend::kAuto;

  /// The serial auto run: the one that writes the golden file.
  bool is_reference() const { return shards == 1 && backend == Backend::kAuto; }
};

/// Every regime at shards {1, 4}, then each forced backend on the
/// baseline world: cdcl at both shard counts, unitprop sharded.
std::vector<GoldenMode> golden_modes() {
  std::vector<GoldenMode> modes;
  for (const ScenarioRegime regime : censor::all_regimes()) {
    for (const unsigned shards : {1u, 4u}) modes.push_back({regime, shards});
  }
  const ScenarioRegime base = ScenarioRegime::kBaseline;
  modes.push_back({base, 1, Backend::kCdcl});
  modes.push_back({base, 4, Backend::kCdcl});
  modes.push_back({base, 4, Backend::kUnitProp});
  return modes;
}

/// The instance name, e.g. routing_shards4_auto or baseline_shards1_cdcl.
std::string mode_name(const GoldenMode& mode) {
  return censor::to_string(mode.regime) + "_shards" + std::to_string(mode.shards) + "_" +
         sat::BackendSelector::to_string(mode.backend);
}

void PrintTo(const GoldenMode& mode, std::ostream* os) { *os << mode_name(mode); }

// One golden file per scenario regime: the baseline keeps its historic
// name, the stress regimes get a suffix (small_scenario_routing.txt,
// ...).
std::string golden_path(ScenarioRegime regime) {
  if (regime == ScenarioRegime::kBaseline) return CT_GOLDEN_DIR "/small_scenario.txt";
  return std::string(CT_GOLDEN_DIR "/small_scenario_") + censor::to_string(regime) + ".txt";
}

bool updating_golden() { return std::getenv("CT_UPDATE_GOLDEN") != nullptr; }

ScenarioConfig golden_scenario(ScenarioRegime regime) {
  ScenarioConfig config = small_scenario();
  config.regime.regime = regime;
  return config;
}

ExperimentOptions golden_options(const GoldenMode& mode) {
  ExperimentOptions options;
  options.num_platform_shards = mode.shards;
  options.analysis.backend.mode = mode.backend;
  return options;
}

/// The batch run, or the resident monitor stepped one weekly segment
/// per run_until call (as monitor_daemon drives it).
ExperimentResult run_mode(const GoldenMode& mode, bool through_monitor) {
  Scenario scenario(golden_scenario(mode.regime));
  if (!through_monitor) return run_experiment(scenario, golden_options(mode));
  MonitorOptions options;
  options.experiment = golden_options(mode);
  options.segment_days = util::kDaysPerWeek;
  MonitorEngine monitor(scenario, options);
  while (monitor.watermark() < monitor.num_days()) {
    monitor.run_until(monitor.watermark() + options.segment_days);
  }
  return monitor.finalize();
}

/// The phase-separated reference's serial auto report for `regime`.
std::string reference_report(ScenarioRegime regime) {
  Scenario scenario(golden_scenario(regime));
  return serialize_report(
      test::reference_experiment(scenario, golden_options({regime, /*shards=*/1})));
}

std::map<std::string, std::int64_t> headline_numbers(const ExperimentResult& r) {
  std::map<std::string, std::int64_t> kv;
  kv["table1.measurements"] = r.table1.measurements;
  kv["table1.unique_urls"] = r.table1.unique_urls;
  kv["table1.vantage_ases"] = r.table1.vantage_ases;
  kv["table1.dest_ases"] = r.table1.dest_ases;
  kv["table1.countries"] = r.table1.countries;
  kv["table1.unreachable"] = r.table1.unreachable;
  for (const censor::Anomaly a : censor::kAllAnomalies) {
    kv["table1.anomaly." + censor::to_string(a)] =
        r.table1.anomaly_counts[static_cast<std::size_t>(a)];
  }
  kv["table1.usable_measurements"] = r.table1.clause_stats.usable_measurements;
  kv["table1.dropped"] = r.table1.clause_stats.dropped_total();
  kv["table1.clauses"] = r.table1.clause_stats.clauses;
  kv["fig1.overall.0"] = r.fig1.overall.count[0];
  kv["fig1.overall.1"] = r.fig1.overall.count[1];
  kv["fig1.overall.2plus"] = r.fig1.overall.count[2];
  kv["total_cnfs"] = r.total_cnfs;
  kv["identified_censors"] = static_cast<std::int64_t>(r.identified_censors.size());
  kv["censor_countries"] = r.censor_countries;
  return kv;
}

std::map<std::string, std::int64_t> read_golden(ScenarioRegime regime) {
  const std::string path = golden_path(regime);
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing golden file " << path
                         << " (generate with CT_UPDATE_GOLDEN=1)";
  std::map<std::string, std::int64_t> expected;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto eq = line.find('=');
    EXPECT_NE(eq, std::string::npos) << "malformed golden line: " << line;
    if (eq == std::string::npos) continue;
    expected[line.substr(0, eq)] = std::stoll(line.substr(eq + 1));
  }
  return expected;
}

void write_golden(ScenarioRegime regime, const std::map<std::string, std::int64_t>& actual) {
  const std::string path = golden_path(regime);
  std::ofstream out(path);
  ASSERT_TRUE(out.good()) << "cannot write " << path;
  // The baseline file keeps its historic header, as it keeps its name.
  out << "# Headline numbers of analysis::small_scenario()";
  if (regime != ScenarioRegime::kBaseline) {
    out << " under the \"" << censor::to_string(regime) << "\" regime";
  }
  out << ", frozen by\n"
         "# golden_regression_test.cpp.  Regenerate with CT_UPDATE_GOLDEN=1\n"
         "# only for intentional behavior changes.\n";
  for (const auto& [key, value] : actual) out << key << "=" << value << "\n";
}

/// The regime's golden numbers, then the reference's report bytes.
void expect_matches_golden_and_reference(const GoldenMode& mode, const ExperimentResult& result) {
  const std::map<std::string, std::int64_t> actual = headline_numbers(result);
  const std::map<std::string, std::int64_t> expected = read_golden(mode.regime);
  EXPECT_EQ(actual.size(), expected.size());
  for (const auto& [key, value] : expected) {
    const auto it = actual.find(key);
    ASSERT_NE(it, actual.end()) << "golden key missing from run: " << key;
    EXPECT_EQ(it->second, value) << "headline number drifted: " << key;
  }
  EXPECT_EQ(serialize_report(result), reference_report(mode.regime))
      << "report diverged from the serial auto reference";
}

class GoldenRegression : public ::testing::TestWithParam<GoldenMode> {};

TEST_P(GoldenRegression, SmallScenarioHeadlineNumbers) {
  const GoldenMode& mode = GetParam();
  if (updating_golden()) {
    if (!mode.is_reference()) GTEST_SKIP() << "golden files are regenerated by serial auto runs";
    write_golden(mode.regime, headline_numbers(run_mode(mode, /*through_monitor=*/false)));
    GTEST_SKIP() << "golden file regenerated at " << golden_path(mode.regime);
  }
  expect_matches_golden_and_reference(mode, run_mode(mode, /*through_monitor=*/false));
}

// A drift here but not above means the segment-by-segment monitor run
// diverged from the batch path (see also monitor_checkpoint_test.cpp).
TEST_P(GoldenRegression, SmallScenarioHeadlineNumbersMonitor) {
  if (updating_golden()) GTEST_SKIP() << "golden files are regenerated by the batch test only";
  expect_matches_golden_and_reference(GetParam(), run_mode(GetParam(), /*through_monitor=*/true));
}

INSTANTIATE_TEST_SUITE_P(ExecutionModes, GoldenRegression, ::testing::ValuesIn(golden_modes()),
                         [](const auto& info) { return mode_name(info.param); });

}  // namespace
}  // namespace ct::analysis
