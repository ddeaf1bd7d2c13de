// Verdicts of the tomography CNFs (paper §3.2).
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
// The CNFs StreamingCnfBuilder::build_group emits are monotone: a
// negative unit per AS on a clean path and an all-positive clause per
// censored path.  Such a CNF's verdict has a closed form (engine.cpp
// gives the argument), so a verdict is one pass over the clauses and no
// SAT search; analyze_cnf refuses any other clause shape.  Each CNF is
// analyzed on its own, as in the paper: nothing carries over from one
// window to the next.  A CnfAnalyzer is one worker's scratch, reused
// across CNFs.  analyze_cnfs schedules a batch by index across a
// util::ThreadPool (work stealing, one analyzer per worker) and writes
// verdict i into slot i, so the output vector is byte-identical for any
// num_threads — including num_threads == 1, which runs inline on the
// calling thread with no threads spawned.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "censor/policy.h"
#include "sat/backend.h"
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

/// Aggregate counters for a batch analysis (summed over all analyzers).
struct EngineStats {
  /// One per CNF analyzed.
  std::uint64_t cnf_loads = 0;
  /// Always 0: no verdict searches.  Kept only because perfbench reads
  /// it (sat.solve_calls); a `[benchmark]` PR drops both.
  std::uint64_t solve_calls = 0;
  /// Always 0: every CNF is one fresh load.  Kept only because perfbench
  /// reads it (sat.delta_loads); a `[benchmark]` PR drops both.
  std::uint64_t delta_loads = 0;
  /// Problem clauses analyzed: the sum of |cnf.clauses| over the
  /// analyzed batch, for every execution mode.
  std::uint64_t fresh_clauses = 0;
  unsigned arenas = 0;  // analyzers (workers) used
  /// LiveReport snapshot-server counters (analysis::LiveReportServer,
  /// monitor runs only): snapshots published, reader snapshot() calls,
  /// calls that observed a snapshot older than the latest published
  /// watermark, and the peak number of concurrently attached readers.
  std::uint64_t snapshots_published = 0;
  std::uint64_t snapshot_reads = 0;
  std::uint64_t snapshot_stale_reads = 0;
  std::uint64_t snapshot_peak_readers = 0;
  /// The slot of `backends` that serves every verdict: perfbench prints
  /// it as sat.served.unitprop, the search-free route.
  static constexpr std::size_t kClosedFormSlot = 2;
  /// Per-slot served/escalated counts: backends[kClosedFormSlot].served
  /// equals cnf_loads; every other count reads 0.  Kept only because
  /// perfbench reads all five slots (sat.served.*, sat.escalated); a
  /// `[benchmark]` PR drops them.
  std::array<sat::BackendCounters, sat::kNumBackendKinds> backends{};
  /// Always 0: no backend races.  Kept only because perfbench reads it
  /// (sat.portfolio_races); a `[benchmark]` PR drops both.
  struct {
    std::uint64_t races = 0;
  } portfolio;

  /// Field-wise merge of another aggregate (peaks by max): how
  /// analyze_cnfs and the resident monitor sum their analyzers, and how
  /// callers keep one aggregate per analysis pass.
  EngineStats& operator+=(const EngineStats& other);
};

/// One worker's analyzer: computes each verdict in closed form and keeps
/// its scratch buffers across CNFs, so a worker that reuses it stops
/// allocating once it has seen its largest CNF.
class CnfAnalyzer {
 public:
  /// Throws std::invalid_argument unless every clause of tc.cnf is a
  /// negative unit or all-positive.
  CnfVerdict analyze(const TomoCnf& tc, const AnalysisOptions& options = {});
  /// Counters over every CNF this analyzer analyzed, as one arena.
  EngineStats stats() const;

 private:
  std::uint64_t count_hitting_sets(std::int64_t unassigned, std::uint64_t cap);

  // Per-CNF scratch, kept for its capacity.  value_[x] is -1 for a clean
  // AS (and, while counting, for one branched false), 1 for a forced AS
  // (and one branched true) and 0 for a free one.
  std::vector<std::int8_t> value_;
  std::vector<sat::Var> residue_vars_;     // the residues R_i, back to back
  std::vector<std::size_t> residue_ends_;  // where each R_i ends
  std::vector<std::span<const sat::Var>> open_;  // the R_i no forced AS hits
  std::vector<sat::Var> branched_false_;   // count_hitting_sets' undo stack
  std::uint64_t cnfs_ = 0;
  std::uint64_t clauses_ = 0;
};

/// Analyzes one CNF on a throwaway analyzer.
CnfVerdict analyze_cnf(const TomoCnf& tc, const AnalysisOptions& options = {});

/// Analyzes a batch, possibly in parallel (options.num_threads); the
/// result order matches `cnfs` and is independent of the thread count.
/// When `stats` is non-null it receives counters summed over all worker
/// analyzers (stats->cnf_loads == cnfs.size() always holds).
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
