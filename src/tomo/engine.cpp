#include "tomo/engine.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "util/serde.h"
#include "util/thread_pool.h"

namespace ct::tomo {

CnfVerdict CnfAnalyzer::analyze(const TomoCnf& tc, const AnalysisOptions& options) {
  CnfVerdict verdict;
  verdict.key = tc.key;
  verdict.num_vars = tc.vars.size();

  // The one load this verdict is allowed; the selector routes the CNF
  // to a backend by its shape.
  session_.load(tc.cnf, options.backend.pick(sat::shape_of(tc.cnf)));

  // Class first: at most two models enumerated.  Counts beyond 2 are
  // resolved lazily — class-0/1 CNFs already have their exact count, and
  // class-2 CNFs only pay for the full cap when a caller (Figure 4)
  // actually reads the histogram.
  const sat::SolutionClassification cls = session_.classify();
  verdict.solution_class = cls.solution_class;
  if (options.resolve_counts && verdict.solution_class == 2 && options.count_cap > 2) {
    verdict.capped_count = session_.count_models_capped(options.count_cap);
  } else {
    // Classification already counted exactly up to 2 (count_cap = 0
    // keeps the historical "always 0" result).
    verdict.capped_count = std::min<std::uint64_t>(
        static_cast<std::uint64_t>(verdict.solution_class), options.count_cap);
  }

  // Each AS list is sized once: its length is known before it is filled.
  const auto as_of = [&tc](sat::Var v) { return tc.vars[static_cast<std::size_t>(v)]; };
  if (verdict.solution_class == 1) {
    const std::vector<sat::Lit>& model = *cls.unique_model;
    verdict.censors.reserve(static_cast<std::size_t>(
        std::count_if(model.begin(), model.end(), [](sat::Lit l) { return !l.negated(); })));
    for (const sat::Lit l : model) {
      if (!l.negated()) verdict.censors.push_back(as_of(l.var()));
    }
    std::sort(verdict.censors.begin(), verdict.censors.end());
  } else if (verdict.solution_class == 2) {
    const sat::PotentialTrueResult split = session_.potential_true_vars();
    verdict.potential_censors.reserve(split.potential_true.size());
    for (const sat::Var v : split.potential_true) verdict.potential_censors.push_back(as_of(v));
    verdict.definite_noncensors.reserve(split.always_false.size());
    for (const sat::Var v : split.always_false) verdict.definite_noncensors.push_back(as_of(v));
    std::sort(verdict.potential_censors.begin(), verdict.potential_censors.end());
    std::sort(verdict.definite_noncensors.begin(), verdict.definite_noncensors.end());
    verdict.reduction_fraction =
        verdict.num_vars == 0
            ? 0.0
            : static_cast<double>(verdict.definite_noncensors.size()) /
                  static_cast<double>(verdict.num_vars);
  }
  return verdict;
}

CnfVerdict analyze_cnf(const TomoCnf& tc, const AnalysisOptions& options) {
  CnfAnalyzer arena;
  return arena.analyze(tc, options);
}

void EngineStats::add_arena(const sat::SessionStats& s) {
  cnf_loads += s.cnf_loads;
  solve_calls += s.solve_calls;
  models_found += s.models_found;
  fresh_clauses += s.fresh_clauses;
  for (std::size_t k = 0; k < sat::kNumBackendKinds; ++k) {
    backends[k].selected += s.backends[k].selected;
    backends[k].served += s.backends[k].served;
    backends[k].escalated += s.backends[k].escalated;
  }
  ++arenas;
}

EngineStats& EngineStats::operator+=(const EngineStats& other) {
  cnf_loads += other.cnf_loads;
  solve_calls += other.solve_calls;
  models_found += other.models_found;
  delta_loads += other.delta_loads;
  fresh_clauses += other.fresh_clauses;
  arenas += other.arenas;
  snapshots_published += other.snapshots_published;
  snapshot_reads += other.snapshot_reads;
  snapshot_stale_reads += other.snapshot_stale_reads;
  snapshot_peak_readers = std::max(snapshot_peak_readers, other.snapshot_peak_readers);
  for (std::size_t k = 0; k < sat::kNumBackendKinds; ++k) {
    backends[k].selected += other.backends[k].selected;
    backends[k].served += other.backends[k].served;
    backends[k].escalated += other.backends[k].escalated;
  }
  return *this;
}

namespace {

void accumulate(EngineStats* stats, const sat::SessionStats& s) {
  if (stats == nullptr) return;
  stats->add_arena(s);
}

}  // namespace

std::vector<CnfVerdict> analyze_cnfs(const std::vector<TomoCnf>& cnfs,
                                     const AnalysisOptions& options,
                                     EngineStats* stats) {
  if (stats != nullptr) *stats = EngineStats{};
  std::vector<CnfVerdict> out(cnfs.size());

  const auto threads = static_cast<unsigned>(
      std::min<std::size_t>(util::ThreadPool::workers_for(options.num_threads),
                            std::max<std::size_t>(cnfs.size(), 1)));

  if (threads <= 1) {
    CnfAnalyzer arena;
    for (std::size_t i = 0; i < cnfs.size(); ++i) out[i] = arena.analyze(cnfs[i], options);
    accumulate(stats, arena.session_stats());
    return out;
  }

  util::ThreadPool pool(threads);
  std::vector<CnfAnalyzer> arenas(pool.size());
  pool.for_each_index(cnfs.size(), [&](unsigned worker, std::size_t i) {
    out[i] = arenas[worker].analyze(cnfs[i], options);
  });
  for (const CnfAnalyzer& arena : arenas) accumulate(stats, arena.session_stats());
  return out;
}

void CensorSupport::add(const CnfVerdict& verdict) {
  if (verdict.solution_class != 1) return;
  for (const topo::AsId as : verdict.censors) {
    support_[as].emplace(verdict.key.url_id, verdict.key.anomaly);
  }
}

std::vector<topo::AsId> CensorSupport::identified(std::int32_t min_support) const {
  std::vector<topo::AsId> out;
  for (const auto& [as, evidence] : support_) {
    if (static_cast<std::int32_t>(evidence.size()) >= min_support) out.push_back(as);
  }
  return out;
}

std::map<topo::AsId, std::set<censor::Anomaly>> CensorSupport::anomalies(
    const std::set<topo::AsId>& within) const {
  std::map<topo::AsId, std::set<censor::Anomaly>> out;
  for (const auto& [as, evidence] : support_) {
    if (!within.count(as)) continue;
    for (const auto& [url, anomaly] : evidence) out[as].insert(anomaly);
  }
  return out;
}

void CensorSupport::save(util::ByteWriter& w) const {
  util::save_map(
      w, support_, [](util::ByteWriter& w, topo::AsId as) { w.i32(as); },
      [](util::ByteWriter& w, const std::set<std::pair<std::int32_t, censor::Anomaly>>& ev) {
        util::save_set(w, ev,
                       [](util::ByteWriter& w, const std::pair<std::int32_t, censor::Anomaly>& e) {
                         w.i32(e.first);
                         w.u8(static_cast<std::uint8_t>(e.second));
                       });
      });
}

void CensorSupport::load(util::ByteReader& r, std::int32_t num_ases) {
  util::load_map(
      r, support_,
      [num_ases](util::ByteReader& r) {
        return util::load_id(r, num_ases, "CensorSupport::load: AS id");
      },
      [](util::ByteReader& r) {
        std::set<std::pair<std::int32_t, censor::Anomaly>> ev;
        util::load_set(r, ev, [](util::ByteReader& r) {
          const std::int32_t url = r.i32();
          const auto anomaly = util::load_enum<censor::Anomaly>(r, censor::kNumAnomalies);
          return std::make_pair(url, anomaly);
        });
        return ev;
      });
}

std::vector<topo::AsId> identified_censors(const std::vector<CnfVerdict>& verdicts,
                                           std::int32_t min_support) {
  CensorSupport support;
  for (const CnfVerdict& v : verdicts) support.add(v);
  return support.identified(min_support);
}

CensorScore score_censors(const std::vector<topo::AsId>& identified,
                          const std::vector<topo::AsId>& ground_truth) {
  const std::set<topo::AsId> truth(ground_truth.begin(), ground_truth.end());
  const std::set<topo::AsId> found(identified.begin(), identified.end());
  CensorScore score;
  for (const topo::AsId as : found) {
    if (truth.count(as)) {
      ++score.true_positives;
    } else {
      ++score.false_positives;
      score.false_positive_ases.push_back(as);
    }
  }
  for (const topo::AsId as : truth) {
    if (!found.count(as)) {
      ++score.false_negatives;
      score.false_negative_ases.push_back(as);
    }
  }
  return score;
}

}  // namespace ct::tomo
