#include "tomo/engine.h"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <utility>

#include "util/serde.h"
#include "util/thread_pool.h"

namespace ct::tomo {

// The closed form.  build_group emits two kinds of clause only: a
// negative unit for each AS seen on a clean path, and an all-positive
// clause for each censored path.  Let C be the ASes with a negative
// unit, P_i each censored path's clause, and R_i = P_i \ C.
//
//   * Every model sets the ASes in C false, so a model must set some
//     member of each R_i true: the CNF is UNSAT iff some R_i is empty.
//     Otherwise setting every AS outside C true is a model, so every AS
//     outside C is a potential censor and every AS in C a definite
//     non-censor.
//   * The sole member of an R_i is true in every model (forced).  An
//     unforced AS u outside C can be set false in the all-true model,
//     since every R_i that holds u has another member.  So the model is
//     unique iff every AS outside C is forced, and the censors are then
//     exactly the ASes outside C.
//   * The models are the forced ASes true, C false, and any set of the
//     unforced ASes that hits every R_i no forced AS already hits: the
//     count is the number of such hitting sets, capped at count_cap.
//
// This is exact for the encoding build_group implements; any other
// clause shape is refused.

CnfVerdict CnfAnalyzer::analyze(const TomoCnf& tc, const AnalysisOptions& options) {
  const auto n = static_cast<std::size_t>(tc.cnf.num_vars);
  const auto is_clean_unit = [](const std::vector<sat::Lit>& clause) {
    return clause.size() == 1 && clause[0].negated();
  };

  // C, and the shape check.
  value_.assign(n, 0);
  std::size_t num_clean = 0;
  for (const std::vector<sat::Lit>& clause : tc.cnf.clauses) {
    if (is_clean_unit(clause)) {
      std::int8_t& x = value_[static_cast<std::size_t>(clause[0].var())];
      num_clean += x == 0 ? 1 : 0;
      x = -1;
    } else if (std::any_of(clause.begin(), clause.end(),
                           [](sat::Lit l) { return l.negated(); })) {
      throw std::invalid_argument(
          "analyze_cnf: a clause is neither a negative unit nor all-positive");
    }
  }
  ++cnfs_;
  clauses_ += tc.cnf.clauses.size();

  CnfVerdict verdict;
  verdict.key = tc.key;
  verdict.num_vars = tc.vars.size();

  // The R_i, the UNSAT test and the sole-member rule.
  residue_vars_.clear();
  residue_ends_.clear();
  for (const std::vector<sat::Lit>& clause : tc.cnf.clauses) {
    if (is_clean_unit(clause)) continue;
    const std::size_t begin = residue_vars_.size();
    for (const sat::Lit l : clause) {
      if (value_[static_cast<std::size_t>(l.var())] != -1) residue_vars_.push_back(l.var());
    }
    if (residue_vars_.size() == begin) return verdict;  // class 0
    const sat::Var first = residue_vars_[begin];
    if (std::all_of(residue_vars_.begin() + static_cast<std::ptrdiff_t>(begin),
                    residue_vars_.end(), [first](sat::Var v) { return v == first; })) {
      value_[static_cast<std::size_t>(first)] = 1;
    }
    residue_ends_.push_back(residue_vars_.size());
  }

  const auto unforced = static_cast<std::int64_t>(std::count(value_.begin(), value_.end(), 0));
  verdict.solution_class = unforced == 0 ? 1 : 2;
  if (options.resolve_counts && verdict.solution_class == 2 && options.count_cap > 2) {
    open_.clear();
    std::size_t begin = 0;
    for (const std::size_t end : residue_ends_) {
      const std::span<const sat::Var> r(residue_vars_.data() + begin, end - begin);
      if (std::none_of(r.begin(), r.end(),
                       [this](sat::Var v) { return value_[static_cast<std::size_t>(v)] == 1; })) {
        open_.push_back(r);
      }
      begin = end;
    }
    verdict.capped_count = count_hitting_sets(unforced, options.count_cap);
  } else {
    // The class is the exact count up to 2 (count_cap = 0 keeps the
    // historical "always 0" result).
    verdict.capped_count = std::min<std::uint64_t>(
        static_cast<std::uint64_t>(verdict.solution_class), options.count_cap);
  }

  // Each AS list is sized once: its length is known before it is filled.
  std::vector<topo::AsId>& outside_c =
      verdict.solution_class == 1 ? verdict.censors : verdict.potential_censors;
  outside_c.reserve(n - num_clean);
  if (verdict.solution_class == 2) verdict.definite_noncensors.reserve(num_clean);
  for (std::size_t x = 0; x < n; ++x) {
    if (value_[x] != -1) {
      outside_c.push_back(tc.vars[x]);
    } else if (verdict.solution_class == 2) {
      verdict.definite_noncensors.push_back(tc.vars[x]);
    }
  }
  std::sort(outside_c.begin(), outside_c.end());
  if (verdict.solution_class == 2) {
    std::sort(verdict.definite_noncensors.begin(), verdict.definite_noncensors.end());
    verdict.reduction_fraction =
        verdict.num_vars == 0
            ? 0.0
            : static_cast<double>(verdict.definite_noncensors.size()) /
                  static_cast<double>(verdict.num_vars);
  }
  return verdict;
}

// The subsets of the free ASes (value 0) that hit every open residue,
// given that ASes of value 1 are true and of value -1 false, counted up
// to `cap` (> 0).  Branches on the first residue not yet hit by which of
// its free members is the first true one, so the branches partition the
// hitting sets.  A branch with a residue it can no longer hit is cut at
// once, so every branch taken holds a model and at most `cap` leaves
// are reached.  Leaves value_ as it found it.
std::uint64_t CnfAnalyzer::count_hitting_sets(std::int64_t unassigned, std::uint64_t cap) {
  const std::span<const sat::Var>* branch = nullptr;
  for (const std::span<const sat::Var>& r : open_) {
    bool hit = false;
    bool hittable = false;
    for (const sat::Var v : r) {
      hit = hit || value_[static_cast<std::size_t>(v)] == 1;
      hittable = hittable || value_[static_cast<std::size_t>(v)] == 0;
    }
    if (hit) continue;
    if (!hittable) return 0;
    if (branch == nullptr) branch = &r;
  }
  if (branch == nullptr) {
    return unassigned >= 62 ? cap : std::min(std::uint64_t{1} << unassigned, cap);
  }
  const std::size_t mark = branched_false_.size();
  std::uint64_t total = 0;
  for (const sat::Var v : *branch) {
    std::int8_t& x = value_[static_cast<std::size_t>(v)];
    if (x != 0) continue;  // a repeat of a member already branched on
    x = 1;
    const auto set_false = static_cast<std::int64_t>(branched_false_.size() - mark);
    total += count_hitting_sets(unassigned - 1 - set_false, cap - total);
    x = -1;
    branched_false_.push_back(v);
    if (total >= cap) break;
  }
  for (std::size_t i = mark; i < branched_false_.size(); ++i) {
    value_[static_cast<std::size_t>(branched_false_[i])] = 0;
  }
  branched_false_.resize(mark);
  return std::min(total, cap);
}

EngineStats CnfAnalyzer::stats() const {
  EngineStats s;
  s.cnf_loads = cnfs_;
  s.fresh_clauses = clauses_;
  s.backends[EngineStats::kClosedFormSlot].served = cnfs_;
  s.arenas = 1;
  return s;
}

CnfVerdict analyze_cnf(const TomoCnf& tc, const AnalysisOptions& options) {
  CnfAnalyzer analyzer;
  return analyzer.analyze(tc, options);
}

EngineStats& EngineStats::operator+=(const EngineStats& other) {
  cnf_loads += other.cnf_loads;
  solve_calls += other.solve_calls;
  delta_loads += other.delta_loads;
  fresh_clauses += other.fresh_clauses;
  arenas += other.arenas;
  snapshots_published += other.snapshots_published;
  snapshot_reads += other.snapshot_reads;
  snapshot_stale_reads += other.snapshot_stale_reads;
  snapshot_peak_readers = std::max(snapshot_peak_readers, other.snapshot_peak_readers);
  for (std::size_t k = 0; k < sat::kNumBackendKinds; ++k) {
    backends[k].served += other.backends[k].served;
    backends[k].escalated += other.backends[k].escalated;
  }
  return *this;
}

std::vector<CnfVerdict> analyze_cnfs(const std::vector<TomoCnf>& cnfs,
                                     const AnalysisOptions& options,
                                     EngineStats* stats) {
  if (stats != nullptr) *stats = EngineStats{};
  std::vector<CnfVerdict> out(cnfs.size());

  const auto threads = static_cast<unsigned>(
      std::min<std::size_t>(util::ThreadPool::workers_for(options.num_threads),
                            std::max<std::size_t>(cnfs.size(), 1)));

  if (threads <= 1) {
    CnfAnalyzer analyzer;
    for (std::size_t i = 0; i < cnfs.size(); ++i) out[i] = analyzer.analyze(cnfs[i], options);
    if (stats != nullptr) *stats += analyzer.stats();
    return out;
  }

  util::ThreadPool pool(threads);
  std::vector<CnfAnalyzer> analyzers(pool.size());
  pool.for_each_index(cnfs.size(), [&](unsigned worker, std::size_t i) {
    out[i] = analyzers[worker].analyze(cnfs[i], options);
  });
  if (stats != nullptr) {
    for (const CnfAnalyzer& analyzer : analyzers) *stats += analyzer.stats();
  }
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
