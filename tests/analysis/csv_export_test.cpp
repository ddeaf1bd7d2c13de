#include "analysis/csv_export.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <utility>

#include "analysis/experiment.h"
#include "analysis/monitor.h"
#include "analysis/scenario.h"
#include "reference_experiment.h"
#include "shard_scenario.h"

namespace ct::analysis {
namespace {

ExperimentResult sample_result() {
  ExperimentResult r;
  SolutionSplit split;
  split.count = {1, 8, 1};
  r.fig1.by_granularity[util::Granularity::kDay] = split;
  r.fig1.by_anomaly[censor::Anomaly::kRst] = split;
  r.fig2.reduction_percent = {90.0, 50.0, 75.0};
  util::BucketedCounts counts(4);
  counts.add(1, 7);
  counts.add(2, 3);
  r.fig3.distinct_paths.emplace(util::Granularity::kDay, counts);
  r.fig3.changed_fraction[util::Granularity::kDay] = 0.3;
  r.fig4.solution_counts.emplace(util::Granularity::kDay, counts);
  Table2Row t2;
  t2.country_code = "CN";
  t2.censor_asns = {4134, 4812};
  t2.anomalies = {censor::Anomaly::kDns};
  r.table2.push_back(t2);
  Table3Row t3;
  t3.asn = 4134;
  t3.country_code = "CN";
  t3.leaked_ases = 12;
  t3.leaked_countries = 8;
  r.table3.push_back(t3);
  Fig5Flow flow;
  flow.censor_country = "CN";
  flow.victim_country = "JP";
  flow.weight = 5;
  flow.same_region = true;
  r.fig5.flows.push_back(flow);
  return r;
}

TEST(CsvExport, Fig1aHasHeaderAndRows) {
  std::ostringstream out;
  write_fig1a_csv(out, sample_result());
  const std::string s = out.str();
  EXPECT_EQ(s.find("granularity,zero_solutions"), 0u);
  EXPECT_NE(s.find("day,0.1,0.8,0.1,10"), std::string::npos);
}

TEST(CsvExport, Fig2IsSortedCdf) {
  std::ostringstream out;
  write_fig2_csv(out, sample_result());
  const std::string s = out.str();
  const auto p50 = s.find("50,");
  const auto p75 = s.find("75,");
  const auto p90 = s.find("90,");
  EXPECT_NE(p50, std::string::npos);
  EXPECT_LT(p50, p75);
  EXPECT_LT(p75, p90);
  EXPECT_NE(s.find(",1\n"), std::string::npos);  // CDF reaches 1
}

TEST(CsvExport, Fig3FractionsPresent) {
  std::ostringstream out;
  write_fig3_csv(out, sample_result());
  EXPECT_NE(out.str().find("day,0.7,0.3,0,0,0,0.3"), std::string::npos);
}

TEST(CsvExport, Table2QuotesListFields) {
  std::ostringstream out;
  write_table2_csv(out, sample_result());
  EXPECT_NE(out.str().find("CN,2,AS4134;AS4812,dns"), std::string::npos);
}

TEST(CsvExport, Table3AndFig5Rows) {
  std::ostringstream t3, f5;
  write_table3_csv(t3, sample_result());
  write_fig5_csv(f5, sample_result());
  EXPECT_NE(t3.str().find("AS4134,CN,12,8"), std::string::npos);
  EXPECT_NE(f5.str().find("CN,JP,5,1"), std::string::npos);
}

TEST(CsvExport, WriteAllCreatesFiles) {
  const auto dir = std::filesystem::temp_directory_path() / "churntomo_csv_test";
  std::filesystem::remove_all(dir);
  EXPECT_EQ(write_all_csv(dir.string(), sample_result()), 8);
  for (const char* name : {"fig1a.csv", "fig1b.csv", "fig2_cdf.csv", "fig3.csv",
                           "fig4.csv", "table2.csv", "table3.csv", "fig5_flows.csv"}) {
    EXPECT_TRUE(std::filesystem::exists(dir / name)) << name;
    EXPECT_GT(std::filesystem::file_size(dir / name), 0u) << name;
  }
  std::filesystem::remove_all(dir);
}

// Monitor-vs-batch round-trip: every CSV series produced from a
// resident monitor run — whose results come entirely from the
// incremental folds, with no retained clause or verdict stream — must
// be byte-identical to the phase-separated batch reference's
// (reference_experiment.h).  The figure CSVs are the
// experiment's machine-readable products, so this is the end-to-end
// form of the fold equivalence contract.
TEST(CsvExport, MonitorRunCsvIsByteIdenticalToBatchRun) {
  Scenario batch_scenario(test::shard_scenario(20170623));
  ExperimentOptions batch_options;
  batch_options.num_platform_shards = 1;
  const ExperimentResult batch = test::reference_experiment(batch_scenario, batch_options);

  Scenario monitor_scenario(test::shard_scenario(20170623));
  MonitorOptions monitor_options;
  monitor_options.experiment.num_platform_shards = 2;
  monitor_options.segment_days = util::kDaysPerWeek;
  const ExperimentResult monitored = MonitorEngine(monitor_scenario, monitor_options).finalize();

  using Writer = void (*)(std::ostream&, const ExperimentResult&);
  const std::pair<const char*, Writer> series[] = {
      {"fig1a", &write_fig1a_csv},   {"fig1b", &write_fig1b_csv},
      {"fig2", &write_fig2_csv},     {"fig3", &write_fig3_csv},
      {"fig4", &write_fig4_csv},     {"table2", &write_table2_csv},
      {"table3", &write_table3_csv}, {"fig5", &write_fig5_csv},
  };
  for (const auto& [name, writer] : series) {
    SCOPED_TRACE(name);
    std::ostringstream batch_csv, monitor_csv;
    writer(batch_csv, batch);
    writer(monitor_csv, monitored);
    EXPECT_GT(batch_csv.str().size(), 0u);
    EXPECT_EQ(monitor_csv.str(), batch_csv.str());  // byte-identical
  }
}

TEST(CsvExport, QuotingEscapesCommasAndQuotes) {
  ExperimentResult r;
  Table2Row row;
  row.country_code = "XX";
  row.censor_asns = {1};
  r.table2.push_back(row);
  std::ostringstream out;
  write_table2_csv(out, r);
  EXPECT_NE(out.str().find("XX,1,AS1,"), std::string::npos);
}

}  // namespace
}  // namespace ct::analysis
