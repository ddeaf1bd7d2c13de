// Renderer robustness: every render_* function must produce sensible
// output even for degenerate results (empty runs, no censors, no leaks).
#include "analysis/report.h"

#include <gtest/gtest.h>

namespace ct::analysis {
namespace {

ExperimentResult empty_result() {
  ExperimentResult r;
  // Give the figure maps their expected keys with empty content.
  for (const auto g : {util::Granularity::kDay, util::Granularity::kWeek,
                       util::Granularity::kMonth}) {
    r.fig1.by_granularity[g];
    r.fig3.distinct_paths.emplace(g, util::BucketedCounts(4));
    r.fig3.changed_fraction[g] = 0.0;
    r.fig4.solution_counts.emplace(g, util::BucketedCounts(4));
  }
  r.fig3.distinct_paths.emplace(util::Granularity::kYear, util::BucketedCounts(4));
  r.fig3.changed_fraction[util::Granularity::kYear] = 0.0;
  for (const auto a : censor::kAllAnomalies) r.fig1.by_anomaly[a];
  return r;
}

TEST(Report, EmptyResultRendersWithoutCrashing) {
  const ExperimentResult r = empty_result();
  EXPECT_FALSE(render_table1(r).empty());
  EXPECT_FALSE(render_fig1a(r).empty());
  EXPECT_FALSE(render_fig1b(r).empty());
  EXPECT_NE(render_fig2(r).find("no multi-solution CNFs"), std::string::npos);
  EXPECT_FALSE(render_fig3(r).empty());
  EXPECT_FALSE(render_fig4(r).empty());
  EXPECT_FALSE(render_table2(r).empty());
  EXPECT_FALSE(render_table3(r).empty());
  EXPECT_FALSE(render_fig5(r).empty());
  EXPECT_FALSE(render_headline(r).empty());
}

TEST(Report, Table1ShowsPaperReferenceColumn) {
  const std::string s = render_table1(empty_result());
  EXPECT_NE(s.find("4,900,000"), std::string::npos);  // paper's measurement count
  EXPECT_NE(s.find("774"), std::string::npos);        // paper's URL count
}

TEST(Report, HeadlineShowsPaperNumbers) {
  const std::string s = render_headline(empty_result());
  EXPECT_NE(s.find("paper: ~92%"), std::string::npos);
  EXPECT_NE(s.find("paper: 65"), std::string::npos);
  EXPECT_NE(s.find("paper: 30"), std::string::npos);
  EXPECT_NE(s.find("paper: 32"), std::string::npos);
  EXPECT_NE(s.find("paper: 24"), std::string::npos);
}

TEST(Report, Table2RespectsTopN) {
  ExperimentResult r = empty_result();
  for (int i = 0; i < 10; ++i) {
    Table2Row row;
    row.country_code = "C";
    row.country_code += std::to_string(i);
    row.censor_asns = {1000 + i};
    r.table2.push_back(row);
  }
  const std::string top3 = render_table2(r, 3);
  EXPECT_NE(top3.find("C0"), std::string::npos);
  EXPECT_NE(top3.find("C2"), std::string::npos);
  EXPECT_EQ(top3.find("C3"), std::string::npos);
}

TEST(Report, Fig5ShowsAllAnomalyLabelForFullSets) {
  ExperimentResult r = empty_result();
  Table2Row row;
  row.country_code = "CN";
  row.censor_asns = {4134};
  row.anomalies.assign(censor::kAllAnomalies.begin(), censor::kAllAnomalies.end());
  r.table2.push_back(row);
  const std::string s = render_table2(r, 5);
  EXPECT_NE(s.find("All"), std::string::npos);
}

}  // namespace
}  // namespace ct::analysis
