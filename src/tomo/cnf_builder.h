// Time- and URL-based splitting of path clauses into CNFs (paper §3.1).
//
// One CNF is built per (URL, anomaly type, time window) at each of the
// four granularities (day / week / month / year).  Within a CNF:
//   * every AS observed in any member clause becomes a SAT variable,
//   * a positive clause contributes the disjunction of its path's
//     variables,
//   * a negative clause contributes a negative unit clause for each AS
//     on its path ("this AS was observed censorship-free").
// Duplicate constraints are deduplicated.  CNFs with no positive clause
// are skipped: they are trivially uniquely satisfied by the all-False
// assignment and identify no censors (see DESIGN.md §5).
//
// Two construction modes share one grouping implementation:
//   * build_cnfs() — the batch path: group a fully materialized clause
//     stream, return every CNF sorted by key.
//   * StreamingCnfBuilder — the incremental path: feed clauses in
//     stream order as measurements arrive, and advance_watermark(day)
//     emits exactly the CNFs whose windows closed, so the resident
//     monitor analyzes each window as soon as it seals (README
//     "Resident monitor & checkpoints").
//
// Layout.  Groups live per *chain* — one (URL, anomaly) pair, at dense
// index url_id * kNumAnomalies + anomaly — and each chain keeps one
// window-ordered vector of open groups per granularity, each group two
// plain path-id vectors (positives in first-occurrence order, negatives
// in any order).  Dedupe is a per-chain open-addressing table keyed by
// (path id, observed) whose entry stamps, per granularity, the last
// window that already holds the pair: a clause is new to its window
// exactly when the stamp differs from that window.  That relies on the
// one ordering precondition — within a chain, clauses arrive in
// non-decreasing day order (the canonical stream is day-major, and
// windows nest: 7 | 28 | 364) — so a chain's current window at each
// granularity is the back of its vector.  Cost per clause: one vector
// index, one hash probe, and per granularity one compare plus at most
// one push_back.  Each finished CNF is built with dense per-AS scratch
// arrays (indexed by AsId).  Emission visits chains in index order,
// granularities in enum order and windows in time order, which is
// CnfKey order.
//
// Fan-out.  A chain owns all of its state, so chains are grouped on
// every core with no locking: the builder borrows a util::ThreadPool
// (as it borrows the PathPool) and splits the chain table into
// contiguous index ranges, at most one per lane.  A batch add() has each
// range's worker scan the whole clause span and file, in stream order,
// only the clauses of its own chains; emission has each worker close its
// own range with its own build_group scratch, and the range outputs are
// concatenated in range order.  Chain index order is CnfKey order (the
// key orders by url_id first), so the result is the same, CNF for CNF,
// for any thread count — one lane, or no pool, runs inline.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "sat/types.h"
#include "tomo/clause.h"

namespace ct::util {
class ThreadPool;
}  // namespace ct::util

namespace ct::tomo {

struct CnfKey {
  std::int32_t url_id = 0;
  censor::Anomaly anomaly = censor::Anomaly::kDns;
  util::Granularity granularity = util::Granularity::kDay;
  std::int32_t window = 0;

  auto operator<=>(const CnfKey&) const = default;
};

/// A fully formed tomography SAT instance.
struct TomoCnf {
  CnfKey key;
  /// Variable index -> AS id.
  std::vector<topo::AsId> vars;
  sat::Cnf cnf;
  /// Deduplicated positive (anomaly-observed) paths, vantage first;
  /// retained for the leakage analysis.
  std::vector<std::vector<topo::AsId>> positive_paths;
  std::int32_t num_positive_clauses = 0;
  std::int32_t num_negative_units = 0;

  /// Variable of an AS, or -1 if the AS does not occur.
  sat::Var var_of(topo::AsId as) const;
};

struct CnfBuildOptions {
  /// Granularities to build (all four by default).
  std::vector<util::Granularity> granularities{util::Granularity::kDay,
                                               util::Granularity::kWeek,
                                               util::Granularity::kMonth,
                                               util::Granularity::kYear};
};

/// Incremental per-window CNF construction.
///
/// Clauses must be added in canonical stream order (ClauseBuilder's
/// serial emission order — ascending Measurement::seq); each clause is
/// filed into one open (URL, anomaly, window) group per configured
/// granularity.  advance_watermark(day) declares every measurement with
/// m.day < day delivered, closes the windows that end at or before the
/// watermark, and returns their finished CNFs; flush() closes the rest.
///
/// Ordering precondition: within one chain (URL, anomaly), clauses
/// arrive in non-decreasing day order.  Different chains are
/// independent — one may start at an earlier day than another has
/// reached.  A clause that moves a chain back to an earlier window at
/// any configured granularity throws std::logic_error, as does a late
/// clause below the watermark.
///
/// Determinism contract: each call returns its batch sorted by CnfKey,
/// a window never reopens once emitted (a late add() throws), and the
/// concatenation of all emitted batches is, as a set, exactly what
/// build_cnfs() returns on the same stream — bit-identical CNFs, since
/// both run this class.  None of it depends on the borrowed thread
/// pool's size.
///
/// Memory: a chain's dedupe stamps are dropped as soon as it has no
/// open group, so incremental state stays O(open windows).
class StreamingCnfBuilder {
 public:
  /// Every clause add() takes resolves its path id in `pool`, whose ids
  /// are canonical (equal id <=> equal path), so clauses are filed by id
  /// with no re-intern: build_cnfs borrows its caller's pool, and the
  /// resident monitor interns each segment's clauses into one persistent
  /// pool and borrows that.  `threads`, if given, runs filing and
  /// emission over chain ranges on its lanes; null or one lane runs
  /// inline.  Both borrowed objects must outlive the builder (appending
  /// to the pool is fine; renumbering is not), and the builder must be
  /// the thread pool's only user while one of its calls runs.
  explicit StreamingCnfBuilder(const PathPool& pool, CnfBuildOptions options = {},
                               util::ThreadPool* threads = nullptr);

  /// Files `clauses`, in span order within each chain, into their open
  /// window groups.  Throws std::logic_error before touching any state
  /// if a clause precedes the watermark (its window has already been
  /// emitted) or carries an invalid path id, URL or anomaly.  A clause
  /// that moves its chain back to an earlier window (the ordering
  /// precondition) throws too; it is not filed, but other clauses of the
  /// batch may have been.
  void add(std::span<const PathClause> clauses);
  /// One clause: a span of one, filed inline.
  void add(const PathClause& clause) { add(std::span<const PathClause>(&clause, 1)); }

  /// Raises the watermark to `complete_before` (no-op if not an
  /// increase) and emits the now-complete CNFs, sorted by key.  A window
  /// [start, start+len) is complete when start+len <= complete_before.
  std::vector<TomoCnf> advance_watermark(util::Day complete_before);

  /// Emits every still-open window, sorted by key, and raises the
  /// watermark past every representable day.  The result is exactly the
  /// complement of what advance_watermark() calls emitted.
  std::vector<TomoCnf> flush();

  /// Lowest day a new clause may still carry.
  util::Day watermark() const { return watermark_; }
  std::size_t open_windows() const;

  /// Checkpoint support (analysis/checkpoint.h): persists the open
  /// window groups in key order, each as its key, its positive path ids
  /// in first-occurrence order and its sorted negative path ids, then
  /// the watermark — NOT the options or the borrowed pools, which are
  /// construction-time config the restoring caller must recreate (the
  /// checkpoint envelope's config fingerprint guards the options; the
  /// thread count never changes the bytes).  The path ids resolve in the
  /// borrowed pool, so the caller must save/load that pool alongside.
  /// load() throws util::SerdeError for a window whose url_id is not
  /// below `num_urls` (the chain table is sized by the largest url_id,
  /// so an unbounded id would allocate in proportion to it), and for a
  /// path id outside [0, num_paths): the size of the pool the caller
  /// loaded alongside, which the builder need not borrow yet.
  void save(util::ByteWriter& w) const;
  void load(util::ByteReader& r, std::int32_t num_urls, std::size_t num_paths);

 private:
  static constexpr std::size_t kNumGranularities = util::kAllGranularities.size();

  /// One open (chain, granularity, window) group: deduplicated path ids
  /// in first-occurrence order (positives keep it for the leakage
  /// analysis; negatives only feed an AS union).
  struct Group {
    std::int32_t window = 0;
    std::vector<PathPool::PathId> positive_ids;
    std::vector<PathPool::PathId> negative_ids;
  };

  /// A chain's dedupe table: open addressing with linear probing, keyed
  /// by path_id << 1 | observed.  Each entry stamps, per granularity
  /// (enum value), the last window that already holds the pair.
  class StampTable {
   public:
    using Windows = std::array<std::int32_t, kNumGranularities>;

    /// The entry of `key`, inserted with every stamp at -1 (no window)
    /// on first sight.
    Windows& find_or_insert(std::uint32_t key);

   private:
    /// add() rejects negative path ids, and no pool could hold
    /// INT32_MAX paths, so no real key is all ones.
    static constexpr std::uint32_t kEmpty = 0xffffffffu;
    struct Slot {
      std::uint32_t key = kEmpty;
      Windows windows{};
    };
    void grow();

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
    int bits_ = 0;  // slots_.size() == 1 << bits_ once allocated
  };

  struct Chain {
    /// Open groups per granularity (enum value), window-ascending.
    std::array<std::vector<Group>, kNumGranularities> groups;
    StampTable stamps;
  };

  /// build_group's dense per-AS scratch; `mark == generation` means the
  /// slot belongs to the CNF being built, so nothing is cleared per CNF.
  struct AsSlot {
    std::uint32_t mark = 0;
    bool clean = false;
    sat::Var var = -1;
  };

  /// One lane's emission scratch: the AS slots (indexed by AsId) and the
  /// ASes of the CNF being built.  Cache-line aligned, so lanes writing
  /// their own scratch do not share a line.
  struct alignas(64) EmitScratch {
    std::vector<AsSlot> as_slots;
    std::vector<topo::AsId> as_list;
    std::uint32_t generation = 0;

    AsSlot& touch(topo::AsId as);
  };

  /// fn(worker, range, begin, end) for one contiguous chain range
  /// [begin, end).
  using RangeFn = std::function<void(unsigned, std::size_t, std::size_t, std::size_t)>;

  static std::size_t open_groups(const Chain& chain);
  static std::size_t chain_index(std::int32_t url_id, censor::Anomaly anomaly);
  /// Inverse of the chain index: a key with url_id and anomaly set.
  static CnfKey chain_key(std::size_t index);
  /// The chain of (url_id, anomaly), growing the table to hold it.
  Chain& chain_at(std::int32_t url_id, censor::Anomaly anomaly);
  /// Splits the chain table into `ranges` contiguous ranges and runs fn
  /// on each, on the borrowed lanes when there are two or more.
  void for_each_range(std::size_t ranges, const RangeFn& fn);
  /// The borrowed pool's lane count, 1 without one.
  std::size_t lanes() const;
  /// How many ranges to split into: one per lane, at most `max_ranges`
  /// and one per chain, and at least one.
  std::size_t num_ranges(std::size_t max_ranges) const;
  /// The window of `day` at every granularity (enum value order).
  static StampTable::Windows windows_of(util::Day day);
  /// Files one validated clause, whose day has `windows`, into its
  /// chain's open groups.
  void file(Chain& chain, const PathClause& clause, const StampTable::Windows& windows) const;
  /// Emits (in key order) and drops every group ending at or before
  /// `complete_before`, releasing the stamps of chains left empty.
  std::vector<TomoCnf> close_before(util::Day complete_before);
  /// close_before for one chain, appending to `out`.
  void close_chain(std::size_t index, util::Day complete_before, EmitScratch& scratch,
                   std::vector<TomoCnf>& out);
  TomoCnf build_group(const CnfKey& key, const Group& group, EmitScratch& scratch) const;

  /// The configured granularities, sorted by enum value with duplicates
  /// removed (a duplicate granularity files into the same group).
  std::vector<util::Granularity> granularities_;
  /// Never null; a pointer so the builder stays copy-assignable.
  const PathPool* pool_;
  util::ThreadPool* threads_ = nullptr;
  /// Indexed by chain_index(url_id, anomaly).
  std::vector<Chain> chains_;
  util::Day watermark_ = 0;
  /// Indexed by worker; grown to the lane count on first emission.
  std::vector<EmitScratch> scratch_;
};

/// Groups clauses into per-(URL, anomaly, window) CNFs.  Output is
/// sorted by key, deterministic, and independent of the thread count.
/// Implemented as a StreamingCnfBuilder fed with the whole stream as one
/// batch and flushed once, on `threads` — or, if null, on a local pool of
/// one lane per hardware thread.
std::vector<TomoCnf> build_cnfs(const PathPool& pool, const std::vector<PathClause>& clauses,
                                const CnfBuildOptions& options = {},
                                util::ThreadPool* threads = nullptr);

/// Incremental form of Figure 4's churn ablation: keeps, per
/// (vantage, URL), only the clauses whose path equals the first path
/// observed for that pair — i.e., erases the effect of path churn.
/// Clauses must arrive in canonical stream order and resolve in one
/// interned pool (equal id <=> equal path; ids may only be appended, so
/// the recorded first-path ids stay valid).  Both the batch
/// strip_path_churn() and the resident monitor's Figure-4 pass run on
/// this filter.
///
/// The first-path ids sit in a dense vantage x URL table of PathId,
/// -1 meaning unseen: one lookup per clause, and a pool lookup only for
/// a pair's first clauses (to refuse empty paths).
class ChurnStripFilter {
 public:
  /// A table for vantage ids in [0, num_vantages) (AS ids: the graph's
  /// num_ases() covers every vantage) and URL ids in [0, num_urls).
  ChurnStripFilter(std::int32_t num_vantages, std::int32_t num_urls);

  /// True iff `clause` survives the ablation.  Empty paths never do
  /// (and never become a pair's first path).  A vantage or URL past the
  /// table widens it; a negative one throws std::out_of_range.
  bool keep(const PathPool& pool, const PathClause& clause);

  /// Checkpoint support: persists the recorded first-path ids (which
  /// resolve in the caller's pool — save/load that pool alongside) as a
  /// count and then (vantage, URL, path id) entries in (vantage, URL)
  /// order.  load() throws util::SerdeError, leaving the filter as it
  /// was, for a vantage or URL outside the table, a path id outside
  /// [0, num_paths) (the size of the pool loaded alongside), or a key
  /// that repeats or is out of order.
  void save(util::ByteWriter& w) const;
  void load(util::ByteReader& r, std::size_t num_paths);

 private:
  static constexpr PathPool::PathId kUnseen = -1;

  bool in_table(std::int64_t vantage, std::int64_t url_id) const;
  std::size_t slot(topo::AsId vantage, std::int32_t url_id) const;
  /// Grows the table to hold the non-negative (vantage, url_id),
  /// keeping every entry.
  void widen(topo::AsId vantage, std::int32_t url_id);

  std::size_t num_vantages_;
  std::size_t num_urls_;
  /// Indexed by vantage * num_urls_ + url_id.
  std::vector<PathPool::PathId> first_path_;
};

/// Figure 4's ablation filter: keeps, per (vantage, URL), only the
/// clauses whose path equals the first path observed for that pair —
/// i.e., erases the effect of path churn.  Two serial passes: the first
/// runs a ChurnStripFilter over the stream and counts the survivors, the
/// second copies them, in stream order, into an output of exactly that
/// size.
std::vector<PathClause> strip_path_churn(const PathPool& pool,
                                         const std::vector<PathClause>& clauses);

}  // namespace ct::tomo
