// Future-work extension (paper §5): localizing the ASes that block
// access to Tor bridges.
//
//   $ ./tor_bridge_study [seed]
//
// Bridges are modeled as URLs in the 'Circumvention' category hosted in
// ordinary content ASes; bridge-blocking censors drop/reset connections
// to them (RST + SEQNO signatures).  The unchanged tomography pipeline
// then localizes the blocking ASes — demonstrating that the method
// carries over from web censorship to circumvention-infrastructure
// blocking exactly as the paper projects.
#include <iostream>
#include <set>
#include <string>

#include "analysis/experiment.h"
#include "analysis/report.h"
#include "cli.h"

int main(int argc, char** argv) {
  const ct::examples::Usage usage{argv[0], "[seed]"};
  if (argc > 2) usage.fail("unexpected argument " + std::string(argv[2]));
  ct::analysis::ScenarioConfig config = ct::analysis::small_scenario();
  config.topology.num_ases = 260;
  config.topology.num_transit = 50;
  config.topology.num_countries = 30;
  config.platform.num_vantages = 30;
  config.platform.num_urls = 40;
  config.platform.num_dest_ases = 20;
  config.platform.num_days = 12 * ct::util::kDaysPerWeek;
  if (argc > 1) config.seed = ct::examples::parse_seed(usage, argv[1]);

  // Every censor blocks circumvention infrastructure via connection
  // resets / sequence tampering — the signatures bridge blocking shows.
  config.censors.num_censors = 0;  // replaced by explicit policies below
  ct::analysis::Scenario probe(config);  // topology + endpoints only

  // Hand-plant bridge blockers on transit ASes of the topology.
  ct::censor::CensorConfig censors;
  censors.num_censors = 14;
  censors.transit_censor_fraction = 1.0;
  censors.extra_category_prob = 0.0;  // exactly one category...
  censors.extra_anomaly_prob = 0.5;
  auto registry = ct::censor::generate_censors(probe.graph(), censors, config.seed + 1);
  std::vector<ct::censor::CensorPolicy> policies;
  for (auto policy : registry.policies()) {
    policy.categories = {ct::censor::UrlCategory::kCircumvention};
    policy.anomalies = {ct::censor::Anomaly::kRst, ct::censor::Anomaly::kSeqno};
    policies.push_back(std::move(policy));
  }
  const ct::censor::CensorRegistry bridge_blockers(probe.graph().num_ases(),
                                                   std::move(policies));

  // Bridges: rebrand the URL list as bridge endpoints, all in the
  // circumvention category.
  ct::iclab::Endpoints endpoints =
      ct::iclab::choose_endpoints(probe.graph(), config.platform, config.seed);
  for (auto& url : endpoints.urls) {
    url.category = ct::censor::UrlCategory::kCircumvention;
    url.name = "bridge-" + std::to_string(url.id) + ".onion-ish";
  }

  ct::iclab::Platform platform(probe.graph(), bridge_blockers, probe.plan(),
                               config.platform, config.seed, endpoints);
  ct::tomo::ClauseBuilder builder(probe.ip2as());
  platform.run(builder);
  const auto cnfs = ct::tomo::build_cnfs(builder.pool(), builder.clauses());
  const auto verdicts = ct::tomo::analyze_cnfs(cnfs);
  const auto identified = ct::tomo::identified_censors(verdicts, 2);

  const auto truth = bridge_blockers.censor_ases();
  const auto score = ct::tomo::score_censors(identified, truth);
  std::cout << "Tor-bridge blocking localization (future-work extension)\n"
            << "  bridges monitored        : " << endpoints.urls.size() << "\n"
            << "  planted bridge blockers  : " << truth.size() << "\n"
            << "  CNFs analyzed            : " << cnfs.size() << "\n"
            << "  blockers identified      : " << identified.size() << "\n"
            << "  precision                : " << score.precision() << "\n"
            << "  recall                   : " << score.recall() << "\n\n";
  std::cout << "identified blocking ASes:\n";
  const std::set<ct::topo::AsId> truth_set(truth.begin(), truth.end());
  for (const auto as : identified) {
    std::cout << "  AS" << probe.graph().as_info(as).asn << " ("
              << probe.graph().country_of(as).code << ") "
              << (truth_set.count(as) ? "[true blocker]" : "[FALSE POSITIVE]") << "\n";
  }
  return 0;
}
