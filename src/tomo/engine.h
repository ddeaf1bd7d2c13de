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
// the same solver backend — chosen per CNF by AnalysisOptions::backend
// (CDCL, exact-count, or the unit-prop presolve fast path; see
// sat/backend.h).  Backend choice never changes a verdict, only how it
// is computed.  Each CNF is solved on its own, as in the paper: no
// solver state carries over from one window to the next.  A CnfAnalyzer
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
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "censor/policy.h"
#include "sat/backend.h"
#include "sat/session.h"
#include "tomo/cnf_builder.h"
#include "util/bounded_queue.h"

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
  /// (exact old behavior), 0 = hardware concurrency.  Verdicts are
  /// independent of this value.
  unsigned num_threads = 1;
  /// Per-CNF SAT backend selection (README "Solver backends"): auto
  /// picks CDCL / exact-count / unit-prop by formula shape and the
  /// count_cap/resolve_counts workload; forced modes pin one backend
  /// (CT_SAT_BACKEND via sat::BackendSelector::from_env).  Verdicts are
  /// byte-identical for every mode — the backend equivalence suite
  /// enforces it.
  sat::BackendSelector backend;
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
  /// Always 0: every CNF is one fresh load.  Kept only because the
  /// benchmark's sat.delta_loads metric reads it; a benchmark change
  /// drops both.
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
  /// Per-backend selected/served/escalated counts, indexed by
  /// sat::BackendKind; sum of `selected` (and of `served`) equals
  /// cnf_loads.
  std::array<sat::BackendCounters, sat::kNumBackendKinds> backends{};
  /// Portfolio racing counters (README "Portfolio racing"), summed over
  /// all arenas: races run/won per member, probe decisions, winner vs.
  /// wasted conflicts, and loser cancellation latency.
  sat::PortfolioStats portfolio;

  /// Sums one arena's cumulative SessionStats into these counters and
  /// bumps `arenas` — the one aggregation path shared by analyze_cnfs,
  /// the streaming analyzer, and the resident monitor.
  void add_arena(const sat::SessionStats& s);
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

/// A window-complete CNF tagged with its global emission sequence
/// number (assigned by the producer in emitted-CNF order, 0-based and
/// gapless).  The sequence drives StreamingAnalyzer's ordered any-time
/// verdict release; it never influences the verdict itself.
struct EmittedCnf {
  std::uint64_t seq = 0;
  TomoCnf cnf;
};

struct StreamingAnalyzerOptions {
  AnalysisOptions analysis;
  /// Keep every (CNF, verdict) pair for finish().  Clear it when a
  /// verdict callback consumes the stream and nothing re-reads the
  /// batch — finish() then returns empty vectors (stats still summed)
  /// and the analyzer retains O(in-flight) CNFs instead of O(run).
  bool retain_results = true;
  /// Any-time verdict stream: called exactly once per analyzed CNF,
  /// serialized (never concurrently with itself).  With `ordered`, calls
  /// are released in emission-sequence order — the order the producer
  /// emitted the CNFs, i.e. watermark order — buffering at most the
  /// in-flight window; otherwise calls fire in completion order.
  std::function<void(std::uint64_t seq, const TomoCnf&, const CnfVerdict&)> on_verdict;
  bool ordered = true;
};

/// Streamed work intake for the analyzer pool: dedicated worker threads
/// pop window-complete CNFs from a BoundedQueue *while producers are
/// still pushing*, each worker reusing one CnfAnalyzer session arena —
/// so SAT analysis overlaps measurement ingest instead of waiting for
/// the full batch (README "Streaming ingest").
///
/// Determinism contract: a verdict depends only on its CNF and
/// `options` (never on which worker analyzed it or in what order), and
/// finish() sorts the collected (CNF, verdict) pairs by CnfKey — so the
/// result is byte-identical to analyze_cnfs() over the same CNFs sorted
/// by key, for any worker count and any queue interleaving.  The
/// ordered verdict callback sees the same pairs in emission order,
/// which is likewise independent of workers and interleaving.
class StreamingAnalyzer {
 public:
  struct Result {
    std::vector<TomoCnf> cnfs;         // sorted by key (empty if !retain_results)
    std::vector<CnfVerdict> verdicts;  // verdicts[i] is cnfs[i]'s
    EngineStats stats;                 // summed over worker arenas
  };

  /// Starts options.analysis.num_threads workers (0 = hardware
  /// concurrency) consuming `queue` immediately.  The queue must
  /// outlive finish().
  StreamingAnalyzer(util::BoundedQueue<EmittedCnf>& queue, StreamingAnalyzerOptions options);
  /// Result-retaining convenience, as before the any-time API.
  StreamingAnalyzer(util::BoundedQueue<EmittedCnf>& queue, const AnalysisOptions& options);
  /// Joins the workers (the queue must already be closed) if finish()
  /// was never called.
  ~StreamingAnalyzer();

  StreamingAnalyzer(const StreamingAnalyzer&) = delete;
  StreamingAnalyzer& operator=(const StreamingAnalyzer&) = delete;

  unsigned num_workers() const { return static_cast<unsigned>(workers_.size()); }

  /// Blocks until the queue is closed and drained, joins the workers,
  /// and returns every analyzed CNF with its verdict, key-sorted.
  /// Rethrows the first exception any worker hit.  Call at most once.
  Result finish();

 private:
  struct Worker {
    CnfAnalyzer arena;
    std::exception_ptr error;
    std::thread thread;
  };

  void join_all();
  void deliver(EmittedCnf&& item, CnfVerdict&& verdict);
  void release_locked(const TomoCnf& cnf, const CnfVerdict& verdict, std::uint64_t seq);

  util::BoundedQueue<EmittedCnf>& queue_;
  StreamingAnalyzerOptions options_;
  std::vector<std::unique_ptr<Worker>> workers_;

  /// Release state: guards the verdict callback (serialized), the
  /// ordered reorder buffer, and the retained results.
  std::mutex release_mutex_;
  std::uint64_t next_seq_ = 0;  // ordered mode: next emission to release
  std::map<std::uint64_t, std::pair<TomoCnf, CnfVerdict>> pending_;
  std::vector<std::pair<TomoCnf, CnfVerdict>> released_;  // retained results
};

/// Incremental censor-evidence fold: consumes verdicts one at a time
/// (any order — all state is set unions) and answers the
/// identified-censor query at any point.  The batch identified_censors()
/// below runs on this fold, so streaming and batch identification share
/// one implementation and cannot diverge.
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

  /// Checkpoint support (analysis/checkpoint.h).
  void save(util::ByteWriter& w) const;
  void load(util::ByteReader& r);

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
