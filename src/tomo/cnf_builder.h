// Time- and URL-based splitting of path clauses into CNFs (paper §3.1).
//
// One CNF is built per (URL, anomaly type, time window) at each of the
// four granularities (day / week / month / year).  Within a CNF:
//   * every AS observed in any member clause becomes a SAT variable,
//   * a positive clause contributes the disjunction of its path's
//     variables,
//   * a negative clause contributes a negative unit clause for each AS
//     on its path ("this AS was observed censorship-free").
// Duplicate constraints are deduplicated.  By default, CNFs with no
// positive clause are skipped: they are trivially uniquely satisfied by
// the all-False assignment and identify no censors (see DESIGN.md §5).
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
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "sat/types.h"
#include "tomo/clause.h"

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
  /// Skip CNFs containing no positive clause.
  bool require_positive = true;
  /// Granularities to build (all four by default).
  std::vector<util::Granularity> granularities{util::Granularity::kDay,
                                               util::Granularity::kWeek,
                                               util::Granularity::kMonth,
                                               util::Granularity::kYear};
};

/// Incremental per-window CNF construction.
///
/// Clauses must be added in canonical stream order (ClauseBuilder's
/// serial emission order — ascending Measurement::seq); each add() files
/// the clause into one open (URL, anomaly, window) group per configured
/// granularity.  advance_watermark(day) declares every measurement with
/// m.day < day delivered, closes the windows that end at or before the
/// watermark, and returns their finished CNFs; flush() closes the rest.
///
/// Ordering precondition: within one chain (URL, anomaly), clauses
/// arrive in non-decreasing day order.  Different chains are
/// independent — one may start at an earlier day than another has
/// reached.  An add() that moves a chain back to an earlier window at
/// any configured granularity throws std::logic_error, as does a late
/// add() below the watermark.
///
/// Determinism contract: each call returns its batch sorted by CnfKey,
/// a window never reopens once emitted (a late add() throws), and the
/// concatenation of all emitted batches is, as a set, exactly what
/// build_cnfs() returns on the same stream — bit-identical CNFs, since
/// both run this class.  In its default mode the builder owns a private
/// PathPool, so it can ingest clauses from any caller pool without
/// coordinating path ids.
///
/// Memory: a chain's dedupe stamps are dropped as soon as it has no
/// open group, so incremental state stays O(open windows).
class StreamingCnfBuilder {
 public:
  explicit StreamingCnfBuilder(CnfBuildOptions options = {});

  /// Borrowed-pool mode: every add() will come from `*pool`, whose ids
  /// are already canonical (equal id <=> equal path), so clauses are
  /// filed with no per-clause re-intern.  The pool must outlive the
  /// builder (appending to it is fine; renumbering is not).  Every
  /// production caller uses this mode — build_cnfs and the resident
  /// monitor (which interns each segment's clauses into one persistent
  /// pool, then borrows it).  The default owned-pool mode re-interns
  /// per add() for callers whose source pool ids are not canonical or
  /// not stable.
  StreamingCnfBuilder(CnfBuildOptions options, const PathPool* pool);

  /// Files `clause` (whose path_id resolves in `pool`) into its open
  /// window groups.  Throws std::logic_error if clause.day precedes the
  /// watermark — that window has already been emitted — or if it moves
  /// its chain back to an earlier window (the ordering precondition).
  void add(const PathPool& pool, const PathClause& clause);

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
  std::int64_t emitted() const { return emitted_; }

  /// Checkpoint support (analysis/checkpoint.h): persists the open
  /// window groups, watermark, and emitted count — NOT the options or
  /// the borrowed-pool binding, which are construction-time config the
  /// restoring caller must recreate identically (the checkpoint
  /// envelope's config fingerprint guards this).  In borrowed-pool mode
  /// the group path ids resolve in the borrowed pool, so the caller must
  /// save/load that pool alongside.  load() throws util::SerdeError for
  /// a window whose url_id is not below `num_urls` (the chain table is
  /// sized by the largest url_id, so an unbounded id would allocate in
  /// proportion to it).
  void save(util::ByteWriter& w) const;
  void load(util::ByteReader& r, std::int32_t num_urls);

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

  static std::size_t open_groups(const Chain& chain);
  /// Inverse of the chain index: a key with url_id and anomaly set.
  static CnfKey chain_key(std::size_t index);
  Chain& chain_at(std::int32_t url_id, censor::Anomaly anomaly);
  /// Emits (in key order) and drops every group ending at or before
  /// `complete_before`, releasing the stamps of chains left empty.
  std::vector<TomoCnf> close_before(util::Day complete_before);
  TomoCnf build_group(const CnfKey& key, const Group& group);
  AsSlot& touch(topo::AsId as);
  const PathPool& pool() const { return borrowed_pool_ ? *borrowed_pool_ : pool_; }

  bool require_positive_ = true;
  /// The configured granularities, sorted by enum value with duplicates
  /// removed (a duplicate granularity files into the same group).
  std::vector<util::Granularity> granularities_;
  const PathPool* borrowed_pool_ = nullptr;
  PathPool pool_;  // used only when not borrowing
  /// Indexed by url_id * censor::kNumAnomalies + anomaly.
  std::vector<Chain> chains_;
  util::Day watermark_ = 0;
  std::int64_t emitted_ = 0;
  std::vector<AsSlot> as_slots_;
  std::vector<topo::AsId> as_list_;
  std::uint32_t generation_ = 0;
};

/// Groups clauses into per-(URL, anomaly, window) CNFs.  Output is
/// sorted by key, deterministic.  Implemented as a StreamingCnfBuilder
/// fed with the whole stream and flushed once.
std::vector<TomoCnf> build_cnfs(const PathPool& pool, const std::vector<PathClause>& clauses,
                                const CnfBuildOptions& options = {});

/// Incremental form of Figure 4's churn ablation: keeps, per
/// (vantage, URL), only the clauses whose path equals the first path
/// observed for that pair — i.e., erases the effect of path churn.
/// Clauses must arrive in canonical stream order and resolve in one
/// interned pool (equal id <=> equal path; ids may only be appended, so
/// the recorded first-path ids stay valid).  Stateful and O(pairs);
/// both the batch strip_path_churn() and the resident monitor's
/// Figure-4 pass run on this filter.
class ChurnStripFilter {
 public:
  /// True iff `clause` survives the ablation.  Empty paths never do
  /// (and never become a pair's first path).
  bool keep(const PathPool& pool, const PathClause& clause);

  /// Checkpoint support: persists the recorded first-path ids (which
  /// resolve in the caller's pool — save/load that pool alongside).
  void save(util::ByteWriter& w) const;
  void load(util::ByteReader& r);

 private:
  std::map<std::pair<topo::AsId, std::int32_t>, PathPool::PathId> first_path_;
};

/// Figure 4's ablation filter: keeps, per (vantage, URL), only the
/// clauses whose path equals the first path observed for that pair —
/// i.e., erases the effect of path churn.  One ChurnStripFilter pass.
std::vector<PathClause> strip_path_churn(const PathPool& pool,
                                         const std::vector<PathClause>& clauses);

}  // namespace ct::tomo
