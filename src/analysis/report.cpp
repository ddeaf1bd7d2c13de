#include "analysis/report.h"

#include <sstream>

#include "util/stats.h"
#include "util/table.h"

namespace ct::analysis {

using util::fmt;
using util::fmt_count;
using util::fmt_pct;

namespace {

std::string join_anomalies(const std::vector<censor::Anomaly>& anomalies) {
  if (anomalies.size() == censor::kNumAnomalies) return "All";
  std::string out;
  for (const censor::Anomaly a : anomalies) {
    if (!out.empty()) out += ", ";
    out += censor::to_string(a);
  }
  return out.empty() ? "-" : out;
}

std::string join_asns(const std::vector<std::int32_t>& asns) {
  std::string out;
  for (const std::int32_t asn : asns) {
    if (!out.empty()) out += ", ";
    out += "AS" + std::to_string(asn);
  }
  return out;
}

}  // namespace

std::string render_table1(const ExperimentResult& result) {
  const auto& t = result.table1;
  util::TextTable table({"Characteristic", "Paper (ICLab)", "Ours (simulated)"});
  table.add_row({"Unique URLs", "774", fmt_count(t.unique_urls)});
  table.add_row({"AS Vantage Points", "539", fmt_count(t.vantage_ases)});
  table.add_row({"Destination ASes", "620", fmt_count(t.dest_ases)});
  table.add_row({"Countries", "219", fmt_count(t.countries)});
  table.add_row({"Measurements", "4,900,000", fmt_count(t.measurements)});
  const auto anomaly_row = [&](censor::Anomaly a, const std::string& paper) {
    const auto count = t.anomaly_counts[static_cast<std::size_t>(a)];
    const double frac =
        t.measurements == 0 ? 0.0 : static_cast<double>(count) / static_cast<double>(t.measurements);
    table.add_row({"- w/" + censor::to_string(a) + " anomalies", paper,
                   fmt_count(count) + " (" + fmt_pct(frac, 2) + ")"});
  };
  anomaly_row(censor::Anomaly::kDns, "2.3K (0.05%)");
  anomaly_row(censor::Anomaly::kSeqno, "9.8K (0.20%)");
  anomaly_row(censor::Anomaly::kTtl, "17K (0.35%)");
  anomaly_row(censor::Anomaly::kRst, "8.4K (0.17%)");
  anomaly_row(censor::Anomaly::kBlockpage, "1.5K (0.03%)");

  std::ostringstream out;
  out << table.render("Table 1: dataset characteristics");
  const auto& cs = t.clause_stats;
  out << "\nClause formulation (paper SS3.1 eliminations):\n"
      << "  measurements processed : " << fmt_count(cs.measurements) << "\n"
      << "  dropped, no IP->AS map : " << fmt_count(cs.dropped_no_mapping) << "\n"
      << "  dropped, trace error   : " << fmt_count(cs.dropped_traceroute_error) << "\n"
      << "  dropped, ambiguous gap : " << fmt_count(cs.dropped_ambiguous_gap) << "\n"
      << "  dropped, divergent     : " << fmt_count(cs.dropped_divergent_paths) << "\n"
      << "  usable measurements    : " << fmt_count(cs.usable_measurements) << "\n"
      << "  clauses emitted        : " << fmt_count(cs.clauses) << "\n";
  return out.str();
}

std::string render_fig1a(const ExperimentResult& result) {
  util::TextTable table({"Granularity", "0 solutions", "1 solution", "2+ solutions", "CNFs"});
  for (const auto& [g, split] : result.fig1.by_granularity) {
    table.add_row({std::string(util::to_string(g)), fmt_pct(split.fraction(0)),
                   fmt_pct(split.fraction(1)), fmt_pct(split.fraction(2)),
                   fmt_count(split.total())});
  }
  std::ostringstream out;
  out << table.render("Figure 1a: number of solutions by CNF granularity");
  out << "(paper: solvability decreases as granularity coarsens; overall ~92% exactly one,\n"
         " <6% none, ~3% multiple)\n";
  return out.str();
}

std::string render_fig1b(const ExperimentResult& result) {
  util::TextTable table({"Anomaly", "0 solutions", "1 solution", "2+ solutions", "CNFs"});
  for (const auto& [a, split] : result.fig1.by_anomaly) {
    table.add_row({censor::short_label(a), fmt_pct(split.fraction(0)),
                   fmt_pct(split.fraction(1)), fmt_pct(split.fraction(2)),
                   fmt_count(split.total())});
  }
  std::ostringstream out;
  out << table.render("Figure 1b: number of solutions by anomaly type");
  out << "(paper: ~30% of RST-injection CNFs are unsolvable -- the noisiest detector)\n";
  return out.str();
}

std::string render_fig2(const ExperimentResult& result) {
  std::ostringstream out;
  const auto& f = result.fig2;
  out << "Figure 2: CDF of reduction in candidate censor set (CNFs with 2+ solutions)\n";
  if (f.reduction_percent.empty()) {
    out << "  (no multi-solution CNFs in this run)\n";
    return out.str();
  }
  util::Cdf cdf(f.reduction_percent);
  util::TextTable table({"Reduction >=", "Fraction of CNFs"});
  for (const double x : {0.0, 20.0, 40.0, 60.0, 80.0, 90.0, 95.0, 99.0}) {
    table.add_row({fmt(x, 0) + "%", fmt(1.0 - cdf.at(x - 1e-9), 3)});
  }
  out << table.render();
  out << "mean reduction            : " << fmt(f.mean_reduction_percent, 1)
      << "%   (paper: 95.2%)\n";
  out << "CNFs with no elimination  : " << fmt_pct(f.fraction_no_elimination, 1)
      << "   (paper: 20%)\n";
  out << "median reduction          : " << fmt(cdf.quantile(0.5), 1)
      << "%   (paper: ~50% of CNFs eliminate ~90% of ASes)\n";
  out << "multi-solution CNFs       : " << fmt_count(f.multi_solution_cnfs) << "\n";
  return out.str();
}

std::string render_fig3(const ExperimentResult& result) {
  std::ostringstream out;
  util::TextTable table({"Period", "1 path", "2", "3", "4", "5+", "changed (2+)"});
  for (const auto& [g, counts] : result.fig3.distinct_paths) {
    table.add_row({std::string(util::to_string(g)), fmt(counts.fraction(1), 3),
                   fmt(counts.fraction(2), 3), fmt(counts.fraction(3), 3),
                   fmt(counts.fraction(4), 3), fmt(counts.overflow_fraction(), 3),
                   fmt_pct(result.fig3.changed_fraction.at(g), 1)});
  }
  out << table.render("Figure 3: distinct paths per (src, dst) pair by period");
  out << "(paper: ~25% change per day, 30% per week, 38% per month, 67% per year;\n"
         " 35% of pairs see 5+ distinct paths over a year)\n\n";
  out << "Churn by destination AS class (year window) -- paper found no significant "
         "difference:\n";
  for (const auto& [cls, frac] : result.fig3.changed_by_dest_class) {
    out << "  " << topo::to_string(cls) << ": " << fmt_pct(frac, 1) << "\n";
  }
  return out.str();
}

std::string render_fig4(const ExperimentResult& result) {
  util::TextTable table({"Granularity", "0", "1", "2", "3", "4", "5+"});
  for (const auto& [g, counts] : result.fig4.solution_counts) {
    table.add_row({std::string(util::to_string(g)), fmt(counts.fraction(0), 3),
                   fmt(counts.fraction(1), 3), fmt(counts.fraction(2), 3),
                   fmt(counts.fraction(3), 3), fmt(counts.fraction(4), 3),
                   fmt(counts.overflow_fraction(), 3)});
  }
  std::ostringstream out;
  out << table.render("Figure 4: number of solutions WITHOUT path churn (first-path-only)");
  out << "fraction of CNFs with 5+ solutions: " << fmt_pct(result.fig4.fraction_five_plus, 1)
      << "   (paper: ~80%)\n";
  return out.str();
}

std::string render_table2(const ExperimentResult& result, std::size_t top_n) {
  util::TextTable table({"Region", "Censoring ASes", "Anomalies"});
  std::size_t shown = 0;
  for (const auto& row : result.table2) {
    if (shown++ >= top_n) break;
    table.add_row({row.country_code, join_asns(row.censor_asns),
                   join_anomalies(row.anomalies)});
  }
  std::ostringstream out;
  out << table.render("Table 2: regions with the most censoring ASes");
  out << "(paper: China 6, United Kingdom 6, Singapore 4, Poland 3, Cyprus 3; censors in\n"
         " China and Cyprus implement all measured anomaly types)\n";
  return out.str();
}

std::string render_table3(const ExperimentResult& result, std::size_t top_n) {
  util::TextTable table({"AS", "Region", "Leaks (AS)", "Leaks (Country)"});
  std::size_t shown = 0;
  for (const auto& row : result.table3) {
    if (row.leaked_countries == 0) continue;
    if (shown++ >= top_n) break;
    table.add_row({"AS" + std::to_string(row.asn), row.country_code,
                   fmt_count(row.leaked_ases), fmt_count(row.leaked_countries)});
  }
  std::ostringstream out;
  out << table.render("Table 3: censoring ASes with the most censorship leaks");
  out << "(paper: AS58461 CN 49/21, AS37963 CN 36/19, AS31621 PL 28/13, AS4812 CN 16/9,\n"
         " AS4134 CN 12/8)\n";
  return out.str();
}

std::string render_fig5(const ExperimentResult& result, std::size_t top_n) {
  std::ostringstream out;
  out << "Figure 5: flow of censorship (censor country -> victim country)\n";
  util::TextTable table({"From", "To", "Leaked (censor,victim-AS) pairs", "Same region"});
  std::size_t shown = 0;
  for (const auto& flow : result.fig5.flows) {
    if (shown++ >= top_n) break;
    table.add_row({flow.censor_country, flow.victim_country, fmt_count(flow.weight),
                   flow.same_region ? "yes" : "no"});
  }
  out << table.render();
  out << "censoring ASes per country (darker countries in the paper's map):\n  ";
  bool first = true;
  for (const auto& [code, count] : result.fig5.censors_per_country) {
    if (!first) out << ", ";
    out << code << ":" << count;
    first = false;
  }
  out << "\nsame-region fraction of non-CN leakage weight: "
      << fmt_pct(result.fig5.same_region_weight_fraction, 1)
      << "  (paper: leakage is mostly regional except China's)\n";
  return out.str();
}

std::string render_headline(const ExperimentResult& result) {
  std::ostringstream out;
  out << "Headline results (paper SS4):\n";
  out << "  CNFs analyzed                          : " << fmt_count(result.total_cnfs) << "\n";
  out << "  exactly one solution                   : " << fmt_pct(result.fig1.overall.fraction(1), 1)
      << "   (paper: ~92%)\n";
  out << "  no solution                            : " << fmt_pct(result.fig1.overall.fraction(0), 1)
      << "   (paper: <6%)\n";
  out << "  2+ solutions                           : " << fmt_pct(result.fig1.overall.fraction(2), 1)
      << "   (paper: ~3%)\n";
  out << "  censoring ASes exactly identified      : " << result.identified_censors.size()
      << "   (paper: 65)\n";
  out << "  countries with censoring ASes          : " << result.censor_countries
      << "   (paper: 30)\n";
  out << "  censors leaking to other ASes          : " << result.leakage.censors_leaking_to_ases()
      << "   (paper: 32)\n";
  out << "  censors leaking across borders         : "
      << result.leakage.censors_leaking_to_countries() << "   (paper: 24)\n";
  out << "  mean candidate-set reduction (2+ sols) : " << fmt(result.fig2.mean_reduction_percent, 1)
      << "%   (paper: 95.2%)\n";
  return out.str();
}

std::string render_score(const ExperimentResult& result, const Scenario& scenario) {
  std::ostringstream out;
  out << "Ground-truth validation (simulation-only; the paper had no ground truth):\n";
  out << "  ground-truth censor ASes    : " << scenario.registry().censor_ases().size() << "\n";
  out << "  observable (fired >= once)  : " << result.observable_censors.size() << "\n";
  out << "  identified                  : " << result.identified_censors.size() << "\n";
  out << "  precision                   : " << fmt(result.score_all.precision(), 3) << "\n";
  out << "  recall (vs all)             : " << fmt(result.score_all.recall(), 3) << "\n";
  out << "  recall (vs observable)      : " << fmt(result.score_observable.recall(), 3) << "\n";
  return out.str();
}

RegimeAccuracyRow make_accuracy_row(const ExperimentResult& result, const Scenario& scenario) {
  RegimeAccuracyRow row;
  row.regime = scenario.config().regime.regime;
  row.ground_truth = static_cast<std::int64_t>(scenario.registry().censor_ases().size());
  row.observable = static_cast<std::int64_t>(result.observable_censors.size());
  row.identified = static_cast<std::int64_t>(result.identified_censors.size());
  row.precision = result.score_all.precision();
  row.recall_all = result.score_all.recall();
  row.recall_observable = result.score_observable.recall();
  row.cnfs = result.total_cnfs;
  return row;
}

std::string render_regime_accuracy(const std::vector<RegimeAccuracyRow>& rows) {
  util::TextTable table({"Scenario", "Truth", "Observable", "Identified", "Precision",
                         "Recall(all)", "Recall(obs)", "CNFs"});
  for (const RegimeAccuracyRow& row : rows) {
    table.add_row({censor::to_string(row.regime), fmt_count(row.ground_truth),
                   fmt_count(row.observable), fmt_count(row.identified), fmt(row.precision, 3),
                   fmt(row.recall_all, 3), fmt(row.recall_observable, 3), fmt_count(row.cnfs)});
  }
  std::ostringstream out;
  out << table.render("Localization accuracy by scenario regime");
  out << "  Truth = ground-truth censor ASes; Observable = fired on >= 1 measured path;\n"
         "  precision/recall of identified_censors vs ground truth (min-support rule).\n";
  return out.str();
}

std::string render_all(const ExperimentResult& result, const Scenario& scenario) {
  std::ostringstream out;
  out << render_headline(result) << "\n"
      << render_table1(result) << "\n"
      << render_fig1a(result) << "\n"
      << render_fig1b(result) << "\n"
      << render_fig2(result) << "\n"
      << render_fig3(result) << "\n"
      << render_fig4(result) << "\n"
      << render_table2(result) << "\n"
      << render_table3(result) << "\n"
      << render_fig5(result) << "\n"
      << render_score(result, scenario);
  return out.str();
}

}  // namespace ct::analysis
