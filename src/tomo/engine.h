// SAT-based analysis of tomography CNFs (paper §3.2).
//
// Each CNF is classified by its number of satisfying assignments:
//   0  — unsolvable (measurement noise or a policy change inside the
//        window),
//   1  — the ideal case: the True variables are exactly the censoring
//        ASes,
//   2+ — underconstrained: every AS that is True in at least one model
//        is a *potential* censor; ASes False in every model are
//        *definite non-censors* (the paper's >95% reduction).
//
// Architecture note (session + batching model): every verdict is
// computed on a sat::SolverSession that loads the CNF exactly once and
// serves classification, lazy capped counting, and backbone probes from
// the same route — the session picks CDCL or the unit-prop presolve
// per CNF from its shape (sat/backend.h).  The route never changes a
// verdict, only how it is computed.
// Each CNF is solved on its own, as in the paper: no solver state
// carries over from one window to the next.  A CnfAnalyzer
// is the per-worker "session arena": it owns one session and reuses it
// across CNFs via load(), so its cumulative SessionStats expose the
// one-load-per-verdict invariant.  analyze_cnfs schedules a batch by
// index across a util::ThreadPool (work stealing, one arena per
// worker) and writes verdict i into slot i, so the output vector is
// byte-identical for any num_threads — including num_threads == 1,
// which runs inline on the calling thread with no threads spawned.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "censor/policy.h"
#include "sat/backend.h"
#include "sat/session.h"
#include "tomo/cnf_builder.h"

namespace ct::tomo {

struct AnalysisOptions {
  /// Models are enumerated up to this cap; Figure 4 plots 0..5+ so the
  /// default resolves counts up to 6.
  std::uint64_t count_cap = 6;
  /// When false, enumeration stops as soon as the 0/1/2+ class is known
  /// and `capped_count` is only exact up to 2 (min(count, 2, count_cap)).
  /// Callers that never read counts beyond the class (Figures 1/2,
  /// censor identification, leakage) should clear this; only Figure 4
  /// needs the full histogram.
  bool resolve_counts = true;
  /// Worker threads for analyze_cnfs: 1 = serial on the calling thread
  /// (exact old behavior), 0 = hardware concurrency; a larger request is
  /// capped at the hardware (util::ThreadPool::workers_for).  Verdicts
  /// are independent of this value.
  unsigned num_threads = 1;
};

struct CnfVerdict {
  CnfKey key;
  std::size_t num_vars = 0;
  /// 0, 1, or 2 (= two or more solutions).
  int solution_class = 0;
  /// Exact model count up to the cap (== cap means "cap or more"); see
  /// AnalysisOptions::resolve_counts for the lazy variant.
  std::uint64_t capped_count = 0;
  /// solution_class == 1: exactly identified censoring ASes.
  std::vector<topo::AsId> censors;
  /// solution_class == 2: ASes True in >= 1 model.
  std::vector<topo::AsId> potential_censors;
  /// solution_class == 2: ASes False in every model.
  std::vector<topo::AsId> definite_noncensors;
  /// solution_class == 2: |definite_noncensors| / num_vars.
  double reduction_fraction = 0.0;

  bool operator==(const CnfVerdict&) const = default;
};

/// Aggregate counters for a batch analysis (summed over all arenas).
struct EngineStats {
  /// Solver loads; one per CNF analyzed.
  std::uint64_t cnf_loads = 0;
  std::uint64_t solve_calls = 0;
  std::uint64_t models_found = 0;
  /// Always 0: every CNF is one fresh load.  Kept only because perfbench
  /// reads it (sat.delta_loads); a `[benchmark]` PR drops both.
  std::uint64_t delta_loads = 0;
  /// Problem clauses loaded: the sum of |cnf.clauses| over the analyzed
  /// batch, for every execution mode.
  std::uint64_t fresh_clauses = 0;
  unsigned arenas = 0;  // worker sessions used
  /// LiveReport snapshot-server counters (analysis::LiveReportServer,
  /// monitor runs only): snapshots published, reader snapshot() calls,
  /// calls that observed a snapshot older than the latest published
  /// watermark, and the peak number of concurrently attached readers.
  std::uint64_t snapshots_published = 0;
  std::uint64_t snapshot_reads = 0;
  std::uint64_t snapshot_stale_reads = 0;
  std::uint64_t snapshot_peak_readers = 0;
  /// Per-route selected/served/escalated counts, indexed by
  /// sat::BackendKind; sum of `selected` (and of `served`) equals
  /// cnf_loads, and unit-prop's selected = served + escalated.
  std::array<sat::BackendCounters, sat::kNumBackendKinds> backends{};
  /// Always 0: no backend races.  Kept only because perfbench reads it
  /// (sat.portfolio_races); a `[benchmark]` PR drops both.
  struct {
    std::uint64_t races = 0;
  } portfolio;

  /// Sums one arena's cumulative SessionStats into these counters and
  /// bumps `arenas` — the one aggregation path shared by analyze_cnfs
  /// and the resident monitor.
  void add_arena(const sat::SessionStats& s);
  /// Field-wise merge of another aggregate (peaks by max), for callers
  /// that keep one aggregate per analysis pass.
  EngineStats& operator+=(const EngineStats& other);
};

/// Per-worker session arena: one reusable SolverSession, loaded once
/// per analyzed CNF.
class CnfAnalyzer {
 public:
  CnfVerdict analyze(const TomoCnf& tc, const AnalysisOptions& options = {});
  /// Counters summed over every CNF this arena analyzed.
  const sat::SessionStats& session_stats() const { return session_.stats(); }

 private:
  sat::SolverSession session_;
};

/// Analyzes one CNF on a throwaway arena.
CnfVerdict analyze_cnf(const TomoCnf& tc, const AnalysisOptions& options = {});

/// Analyzes a batch, possibly in parallel (options.num_threads); the
/// result order matches `cnfs` and is independent of the thread count.
/// When `stats` is non-null it receives counters summed over all worker
/// arenas (stats->cnf_loads == cnfs.size() always holds).
std::vector<CnfVerdict> analyze_cnfs(const std::vector<TomoCnf>& cnfs,
                                     const AnalysisOptions& options = {},
                                     EngineStats* stats = nullptr);

/// Incremental censor-evidence fold: consumes verdicts one at a time
/// (any order — all state is set unions) and answers the
/// identified-censor query at any point.  The batch identified_censors()
/// below runs on this fold, so the batch run and the resident monitor
/// share one implementation and cannot diverge.
class CensorSupport {
 public:
  /// Folds one verdict; non-class-1 verdicts are no-ops.
  void add(const CnfVerdict& verdict);

  /// ASes identified by >= min_support distinct (URL, anomaly) pairs,
  /// sorted ascending.
  std::vector<topo::AsId> identified(std::int32_t min_support = 1) const;

  /// Anomaly types evidenced per AS (class-1 verdicts only), restricted
  /// to `within` — the Table-2 anomaly column.
  std::map<topo::AsId, std::set<censor::Anomaly>> anomalies(
      const std::set<topo::AsId>& within) const;

  /// Checkpoint support (analysis/checkpoint.h).  load() throws
  /// util::SerdeError for an AS id outside [0, num_ases) or an anomaly
  /// byte outside censor::Anomaly.
  void save(util::ByteWriter& w) const;
  void load(util::ByteReader& r, std::int32_t num_ases);

 private:
  /// Support = distinct (URL, anomaly) pairs with a unique-solution CNF
  /// naming the AS.
  std::map<topo::AsId, std::set<std::pair<std::int32_t, censor::Anomaly>>> support_;
};

/// Union of exactly-identified censors across single-solution verdicts,
/// sorted ascending.
///
/// `min_support` requires an AS to be identified by CNFs of at least
/// that many distinct (URL, anomaly) pairs.  A transient detector false
/// positive corrupts exactly one (URL, anomaly); real censorship covers
/// whole URL categories, so min_support = 2 filters one-off noise while
/// keeping true censors (see EXPERIMENTS.md for the precision impact).
/// Implemented as a CensorSupport fold over `verdicts`.
std::vector<topo::AsId> identified_censors(const std::vector<CnfVerdict>& verdicts,
                                           std::int32_t min_support = 1);

/// Precision/recall of identified censors against ground truth (only
/// available in simulation — the paper could not compute this).
struct CensorScore {
  std::int32_t true_positives = 0;
  std::int32_t false_positives = 0;
  std::int32_t false_negatives = 0;
  std::vector<topo::AsId> false_positive_ases;
  std::vector<topo::AsId> false_negative_ases;

  double precision() const {
    const auto d = true_positives + false_positives;
    return d == 0 ? 0.0 : static_cast<double>(true_positives) / d;
  }
  double recall() const {
    const auto d = true_positives + false_negatives;
    return d == 0 ? 0.0 : static_cast<double>(true_positives) / d;
  }
};

CensorScore score_censors(const std::vector<topo::AsId>& identified,
                          const std::vector<topo::AsId>& ground_truth);

}  // namespace ct::tomo
