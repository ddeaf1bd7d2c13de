#include "analysis/experiment.h"

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "analysis/live_report.h"
#include "analysis/monitor.h"

namespace ct::analysis {

namespace {

std::vector<Table2Row> make_table2(const topo::AsGraph& graph,
                                   const std::vector<topo::AsId>& censors,
                                   const std::map<topo::AsId, std::set<censor::Anomaly>>&
                                       censor_anomalies) {
  std::map<std::string, Table2Row> by_country;
  for (const topo::AsId as : censors) {
    const std::string code = graph.country_of(as).code;
    Table2Row& row = by_country[code];
    row.country_code = code;
    row.censor_asns.push_back(graph.as_info(as).asn);
    if (const auto it = censor_anomalies.find(as); it != censor_anomalies.end()) {
      for (const censor::Anomaly a : it->second) {
        if (std::find(row.anomalies.begin(), row.anomalies.end(), a) == row.anomalies.end()) {
          row.anomalies.push_back(a);
        }
      }
    }
  }
  std::vector<Table2Row> rows;
  for (auto& [code, row] : by_country) {
    std::sort(row.censor_asns.begin(), row.censor_asns.end());
    std::sort(row.anomalies.begin(), row.anomalies.end(),
              [](censor::Anomaly a, censor::Anomaly b) {
                return static_cast<int>(a) < static_cast<int>(b);
              });
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(), [](const Table2Row& a, const Table2Row& b) {
    if (a.censor_asns.size() != b.censor_asns.size()) {
      return a.censor_asns.size() > b.censor_asns.size();
    }
    return a.country_code < b.country_code;
  });
  return rows;
}

std::vector<Table3Row> make_table3(const topo::AsGraph& graph,
                                   const tomo::LeakageReport& leakage) {
  std::vector<Table3Row> rows;
  for (const auto& [censor, leaks] : leakage.by_censor) {
    Table3Row row;
    row.asn = graph.as_info(censor).asn;
    row.country_code = graph.country_of(censor).code;
    row.leaked_ases = static_cast<std::int64_t>(leaks.victim_ases.size());
    row.leaked_countries = static_cast<std::int64_t>(leaks.victim_countries.size());
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(), [](const Table3Row& a, const Table3Row& b) {
    if (a.leaked_ases != b.leaked_ases) return a.leaked_ases > b.leaked_ases;
    if (a.leaked_countries != b.leaked_countries) return a.leaked_countries > b.leaked_countries;
    return a.asn < b.asn;
  });
  return rows;
}

Fig5Data make_fig5(const topo::AsGraph& graph, const std::vector<topo::AsId>& censors,
                   const tomo::LeakageReport& leakage) {
  Fig5Data fig5;
  for (const topo::AsId as : censors) {
    ++fig5.censors_per_country[graph.country_of(as).code];
  }
  std::int64_t same_region_weight = 0;
  std::int64_t regional_total = 0;
  for (const auto& [pair, weight] : leakage.country_flow) {
    const auto& censor_country = graph.country(pair.first);
    const auto& victim_country = graph.country(pair.second);
    Fig5Flow flow;
    flow.censor_country = censor_country.code;
    flow.victim_country = victim_country.code;
    flow.weight = weight;
    flow.same_region = censor_country.region == victim_country.region;
    // The paper notes that leakage is mostly regional *except* for
    // China's; measure the regional fraction excluding CN sources.
    if (flow.censor_country != "CN") {
      regional_total += weight;
      same_region_weight += flow.same_region ? weight : 0;
    }
    fig5.flows.push_back(std::move(flow));
  }
  std::sort(fig5.flows.begin(), fig5.flows.end(), [](const Fig5Flow& a, const Fig5Flow& b) {
    if (a.weight != b.weight) return a.weight > b.weight;
    if (a.censor_country != b.censor_country) return a.censor_country < b.censor_country;
    return a.victim_country < b.victim_country;
  });
  fig5.same_region_weight_fraction =
      regional_total == 0 ? 0.0
                          : static_cast<double>(same_region_weight) /
                                static_cast<double>(regional_total);
  return fig5;
}

}  // namespace

ExperimentResult run_experiment(Scenario& scenario, const ExperimentOptions& options) {
  MonitorOptions monitor_options;
  monitor_options.experiment = options;
  return MonitorEngine(scenario, std::move(monitor_options)).finalize();
}

ExperimentResult finalize_experiment_result(Scenario& scenario,
                                            const ExperimentOptions& options,
                                            const ExperimentFolds& folds,
                                            const iclab::DatasetSummary& summary,
                                            const tomo::ClauseBuildStats& clause_stats,
                                            const TruthTracker& truth_tracker,
                                            ChurnStats fig3) {
  const auto& graph = scenario.graph();
  const iclab::Platform& platform = scenario.platform();
  ExperimentResult result;

  // --- Table 1 ---
  result.table1.measurements = summary.measurements();
  result.table1.unique_urls = summary.distinct_urls();
  result.table1.vantage_ases = summary.distinct_vantages();
  result.table1.dest_ases = static_cast<std::int64_t>(platform.dest_ases().size());
  result.table1.countries = summary.distinct_countries();
  result.table1.unreachable = summary.unreachable();
  for (const censor::Anomaly a : censor::kAllAnomalies) {
    result.table1.anomaly_counts[static_cast<std::size_t>(a)] = summary.anomaly_count(a);
  }
  result.table1.clause_stats = clause_stats;

  // --- figures from the folds ---
  result.total_cnfs = folds.verdicts.total();
  result.fig1 = folds.verdicts.fig1();
  result.fig2 = folds.verdicts.fig2();
  result.fig3 = std::move(fig3);
  result.fig4 = folds.fig4.finalize();

  // --- censors, leakage ---
  result.identified_censors = folds.support.identified(options.min_support);
  const std::set<topo::AsId> identified(result.identified_censors.begin(),
                                        result.identified_censors.end());
  const std::map<topo::AsId, std::set<censor::Anomaly>> censor_anomalies =
      folds.support.anomalies(identified);
  std::set<topo::CountryId> countries;
  for (const topo::AsId as : result.identified_censors) {
    countries.insert(graph.as_info(as).country);
  }
  result.censor_countries = static_cast<std::int32_t>(countries.size());
  result.leakage = folds.leakage.finalize(graph, result.identified_censors);

  result.table2 = make_table2(graph, result.identified_censors, censor_anomalies);
  result.table3 = make_table3(graph, result.leakage);
  result.fig5 = make_fig5(graph, result.identified_censors, result.leakage);

  // --- ground-truth scoring ---
  result.observable_censors = truth_tracker.observable();
  result.score_all =
      tomo::score_censors(result.identified_censors, scenario.registry().censor_ases());
  result.score_observable =
      tomo::score_censors(result.identified_censors, result.observable_censors);
  return result;
}

}  // namespace ct::analysis
