#include "tomo/leakage.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/serde.h"

namespace ct::tomo {

std::int32_t LeakageReport::censors_leaking_to_ases() const {
  std::int32_t n = 0;
  for (const auto& [censor, leaks] : by_censor) n += leaks.victim_ases.empty() ? 0 : 1;
  return n;
}

std::int32_t LeakageReport::censors_leaking_to_countries() const {
  std::int32_t n = 0;
  for (const auto& [censor, leaks] : by_censor) n += leaks.victim_countries.empty() ? 0 : 1;
  return n;
}

void LeakageFold::add(const TomoCnf& cnf, const CnfVerdict& verdict) {
  if (verdict.solution_class != 1 || verdict.censors.empty()) return;
  // The path slices are read only if their layout holds together.
  std::uint32_t previous = 0;
  for (const std::uint32_t end : cnf.path_ends) {
    if (end < previous || end > cnf.path_ases.size()) {
      throw std::invalid_argument("LeakageFold::add: inconsistent path layout");
    }
    previous = end;
  }
  Evidence evidence;
  evidence.censors = verdict.censors;
  evidence.paths.reserve(cnf.num_positive_paths());
  for (std::size_t i = 0; i < cnf.num_positive_paths(); ++i) {
    evidence.paths.push_back(paths_.intern(cnf.positive_path(i)));
  }
  evidence_.push_back(std::move(evidence));
}

void LeakageFold::save(util::ByteWriter& w) const {
  paths_.save(w);
  util::save_vec(w, evidence_, [](util::ByteWriter& w, const Evidence& e) {
    util::save_vec(w, e.censors, [](util::ByteWriter& w, topo::AsId as) { w.i32(as); });
    util::save_vec(w, e.paths, [](util::ByteWriter& w, PathPool::PathId id) { w.i32(id); });
  });
}

void LeakageFold::load(util::ByteReader& r, std::int32_t num_ases) {
  PathPool paths;
  paths.load(r, num_ases);
  std::vector<Evidence> evidence;
  util::load_vec(r, evidence, [&](util::ByteReader& r) {
    Evidence e;
    util::load_vec(r, e.censors, [&](util::ByteReader& r) {
      return util::load_id(r, num_ases, "LeakageFold::load: AS id");
    });
    util::load_vec(r, e.paths, [&](util::ByteReader& r) {
      return util::load_id(r, static_cast<std::int64_t>(paths.size()),
                           "LeakageFold::load: path id");
    });
    return e;
  });
  paths_ = std::move(paths);
  evidence_ = std::move(evidence);
}

LeakageReport LeakageFold::finalize(const topo::AsGraph& graph,
                                    const std::vector<topo::AsId>& supported_censors) const {
  LeakageReport report;
  report.censors = supported_censors;
  const std::set<topo::AsId> supported(supported_censors.begin(), supported_censors.end());

  // (censor, victim) pairs already attributed, for country_flow dedup.
  std::set<std::pair<topo::AsId, topo::AsId>> counted_pairs;

  for (const Evidence& evidence : evidence_) {
    std::set<topo::AsId> censors;
    for (const topo::AsId as : evidence.censors) {
      if (supported.count(as)) censors.insert(as);
    }
    if (censors.empty()) continue;

    for (const PathPool::PathId path_id : evidence.paths) {
      const std::vector<topo::AsId>& path = paths_.get(path_id);
      // First censor along the path (vantage side first).
      std::size_t censor_index = path.size();
      for (std::size_t k = 0; k < path.size(); ++k) {
        if (censors.count(path[k])) {
          censor_index = k;
          break;
        }
      }
      if (censor_index == path.size()) continue;  // no identified censor here
      const topo::AsId censor = path[censor_index];
      const topo::CountryId censor_country = graph.as_info(censor).country;

      // Everything strictly upstream (closer to the vantage) inherited
      // the censorship; it is assigned False in the unique model by
      // construction (only `censors` are True).
      for (std::size_t k = 0; k < censor_index; ++k) {
        const topo::AsId victim = path[k];
        if (censors.count(victim)) continue;
        CensorLeaks& leaks = report.by_censor[censor];
        leaks.censor = censor;
        leaks.victim_ases.insert(victim);
        const topo::CountryId victim_country = graph.as_info(victim).country;
        if (victim_country != censor_country) {
          leaks.victim_countries.insert(victim_country);
          if (counted_pairs.emplace(censor, victim).second) {
            ++report.country_flow[{censor_country, victim_country}];
          }
        }
      }
    }
  }
  return report;
}

LeakageReport analyze_leakage(const topo::AsGraph& graph, const std::vector<TomoCnf>& cnfs,
                              const std::vector<CnfVerdict>& verdicts,
                              std::int32_t min_support) {
  if (cnfs.size() != verdicts.size()) {
    throw std::invalid_argument("analyze_leakage: cnfs/verdicts size mismatch");
  }
  LeakageFold fold;
  for (std::size_t i = 0; i < cnfs.size(); ++i) fold.add(cnfs[i], verdicts[i]);
  return fold.finalize(graph, identified_censors(verdicts, min_support));
}

}  // namespace ct::tomo
