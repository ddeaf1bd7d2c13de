// Censorship-leakage identification (paper §3.3).
//
// A censoring AS leaks its policy when traffic of *other* networks
// transits it and inherits the filtering.  From every single-solution
// CNF: for each anomaly-observed path, every AS upstream of the first
// identified censor (closer to the vantage point) and assigned False is
// a victim; when the victim sits in a different country, the leak
// crosses a border (the paper's Table 3 / Figure 5).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "tomo/engine.h"
#include "topo/as_graph.h"

namespace ct::tomo {

/// Per-censor leak aggregation.
struct CensorLeaks {
  topo::AsId censor = topo::kInvalidAs;
  /// ASes (any country) that inherited this censor's policy.
  std::set<topo::AsId> victim_ases;
  /// Victim countries other than the censor's own.
  std::set<topo::CountryId> victim_countries;
};

struct LeakageReport {
  /// All exactly-identified censors (single-solution CNFs), ascending.
  std::vector<topo::AsId> censors;
  /// Leak details per censor (only censors with >= 1 victim appear).
  std::map<topo::AsId, CensorLeaks> by_censor;
  /// (censor country, victim country) -> number of distinct
  /// (censor, victim-AS) pairs crossing that border.
  std::map<std::pair<topo::CountryId, topo::CountryId>, std::int64_t> country_flow;

  /// Censors leaking to at least one other AS.
  std::int32_t censors_leaking_to_ases() const;
  /// Censors leaking into at least one other country.
  std::int32_t censors_leaking_to_countries() const;
};

/// Incremental leakage fold: consumes (CNF, verdict) pairs one at a
/// time and retains only the class-1 *evidence* — the verdict's censor
/// set plus its anomaly-observed paths, interned in a private pool — so
/// a monitor run never holds the full CNF/verdict stream for the
/// post-hoc leakage pass.  finalize() applies the min-support censor
/// filter (only known once the run ends) and replays the evidence; the
/// report is a pure function of the evidence *set* (victim sets and
/// border-crossing pair counts are all unions / exactly-once counts),
/// so the result is independent of add() order and byte-identical to
/// the batch pass — analyze_leakage() below runs on this fold.
class LeakageFold {
 public:
  /// Folds one analyzed CNF; non-class-1 verdicts (and verdicts naming
  /// no censor) are no-ops.  Throws std::invalid_argument, folding
  /// nothing, when the CNF's path ends descend or run past path_ases.
  void add(const TomoCnf& cnf, const CnfVerdict& verdict);

  /// Builds the report, attributing leaks only to `supported_censors`
  /// (as returned by identified_censors()).
  LeakageReport finalize(const topo::AsGraph& graph,
                         const std::vector<topo::AsId>& supported_censors) const;

  std::size_t evidence_count() const { return evidence_.size(); }

  /// Checkpoint support (analysis/checkpoint.h): persists the private
  /// path pool and the evidence list.  load() throws util::SerdeError
  /// for an AS id outside [0, num_ases) or an evidence path id outside
  /// the loaded pool.
  void save(util::ByteWriter& w) const;
  void load(util::ByteReader& r, std::int32_t num_ases);

 private:
  struct Evidence {
    std::vector<topo::AsId> censors;            // the verdict's exact censors
    std::vector<PathPool::PathId> paths;        // its positive paths, interned
  };

  PathPool paths_;
  std::vector<Evidence> evidence_;
};

/// Runs the leakage analysis over analyzed CNFs.  `cnfs` and `verdicts`
/// must be parallel arrays (as produced by build_cnfs + analyze_cnfs).
/// `min_support` is forwarded to identified_censors(); only supported
/// censors generate leaks.  Implemented as a LeakageFold over the
/// arrays, so batch and the monitor share one leakage implementation.
LeakageReport analyze_leakage(const topo::AsGraph& graph, const std::vector<TomoCnf>& cnfs,
                              const std::vector<CnfVerdict>& verdicts,
                              std::int32_t min_support = 1);

}  // namespace ct::tomo
