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
// plain entry vectors (positives in first-occurrence order, negatives
// in any order); an entry is a path id shifted left by one, its low bit
// Figure 4's kept flag (below).  Dedupe is a per-chain open-addressing
// table keyed by (path id, observed) whose entry stamps, per
// granularity, the last window that already holds the pair: a clause
// is new to its window exactly when the stamp differs from that window.
// That relies on the one ordering precondition — within a chain,
// clauses arrive in non-decreasing day order (the canonical stream is
// day-major, and windows nest: 7 | 28 | 364) — so a chain's current
// window at each granularity is the back of its vector.  Cost per
// clause: one vector index, one hash probe, and per granularity one
// compare plus at most one push_back.  Each finished CNF is built with
// dense per-AS scratch arrays (indexed by AsId) into TomoCnf's flat
// layout: a handful of vectors per CNF, none per clause or path.
// Emission visits chains in index order, granularities in enum order
// and windows in time order, which is CnfKey order.
//
// Figure 4 from the same groups.  Figure 4's ablation keeps, per
// (vantage, URL), only the clauses on the pair's first path
// (ChurnStripFilter), and rebuilds each window from those alone, so its
// CNFs are subsets of the main groups.  add() takes an optional kept
// flag per clause; at the kept granularities the flag is OR-ed into the
// entry, over every clause the entry dedupes (the vantage is not part
// of the path, so a kept clause may repeat another vantage's unkept
// one).  A closing window then also emits the CNF of its kept entries,
// if one of them is positive: the CNF build_cnfs makes of the kept
// clauses alone, up to the order of its positive clauses (they keep
// the main group's first-occurrence order).
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
#include <iosfwd>
#include <span>
#include <string>
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

/// Checkpoint bytes of a key: URL, anomaly, granularity, window.
/// load_cnf_key() throws util::SerdeError for an anomaly or granularity
/// byte outside its enum.
void save_cnf_key(util::ByteWriter& w, const CnfKey& key);
CnfKey load_cnf_key(util::ByteReader& r);

/// A fully formed tomography SAT instance, in a flat layout that stands
/// on its own (it holds no pool ids, so it outlives the PathPool its
/// clauses were grouped from).  Variable v is AS vars[v].  The CNF is a
/// negative unit for every variable with clean[v] set (its AS lies on a
/// clean path of the window) and one all-positive clause per censored
/// path.  Positive clause i is clause_vars[clause_ends[i - 1],
/// clause_ends[i]) (from 0 for i = 0): the variables of censored path i,
/// each once, in path order.  The censored paths themselves, vantage
/// first and in first-occurrence order, are laid out the same way in
/// path_ases and path_ends.  to_cnf() rebuilds the sat::Cnf.
struct TomoCnf {
  CnfKey key;
  /// Variable index -> AS id, ascending.
  std::vector<topo::AsId> vars;
  /// One flag per variable: 1 iff it has a negative unit.
  std::vector<std::uint8_t> clean;
  std::vector<sat::Var> clause_vars;
  std::vector<std::uint32_t> clause_ends;
  /// The censored paths, retained for the leakage analysis.
  std::vector<topo::AsId> path_ases;
  std::vector<std::uint32_t> path_ends;
  /// The number of positive clauses and of clean flags set.
  std::int32_t num_positive_clauses = 0;
  std::int32_t num_negative_units = 0;

  /// Variable of an AS, or -1 if the AS does not occur.
  sat::Var var_of(topo::AsId as) const;
  /// Positive clause i.
  std::span<const sat::Var> clause(std::size_t i) const {
    return slice(clause_vars, clause_ends, i);
  }
  std::size_t num_positive_paths() const { return path_ends.size(); }
  /// Censored path i, vantage first.
  std::span<const topo::AsId> positive_path(std::size_t i) const {
    return slice(path_ases, path_ends, i);
  }

 private:
  template <typename T>
  static std::span<const T> slice(const std::vector<T>& items,
                                  const std::vector<std::uint32_t>& ends, std::size_t i) {
    const std::size_t begin = i == 0 ? 0 : ends[i - 1];
    return std::span<const T>(items.data() + begin, ends[i] - begin);
  }
};

/// The sat::Cnf of `tc`: its negative units in variable order, then its
/// positive clauses in order.  For DIMACS export and external referees;
/// the analyzer reads the flat layout.
sat::Cnf to_cnf(const TomoCnf& tc);

/// Writes `cnf` in DIMACS format, so CNFs can go to external SAT
/// tooling (the paper used an off-the-shelf solver).  `comments` lines
/// are emitted as "c <line>" before the problem line.
void write_dimacs(std::ostream& out, const sat::Cnf& cnf,
                  const std::vector<std::string>& comments = {});

/// write_dimacs into a string.
std::string to_dimacs_string(const sat::Cnf& cnf, const std::vector<std::string>& comments = {});

struct CnfBuildOptions {
  /// Granularities to build (all four by default).
  std::vector<util::Granularity> granularities{util::Granularity::kDay,
                                               util::Granularity::kWeek,
                                               util::Granularity::kMonth,
                                               util::Granularity::kYear};
  /// Granularities at which StreamingCnfBuilder also emits the CNF of
  /// each window's kept clauses (Figure 4's; none by default).  Each
  /// must be one of `granularities`.  build_cnfs() files no kept flags,
  /// so it builds the main CNFs only.
  std::vector<util::Granularity> kept_granularities;
};

/// What one StreamingCnfBuilder::advance_watermark() or flush() call
/// emits, each sorted by key.
struct EmittedCnfs {
  /// The CNF of every closed window with a positive clause.
  std::vector<TomoCnf> main;
  /// At the kept granularities, the CNF of every closed window's kept
  /// entries, if one of them is positive.
  std::vector<TomoCnf> kept;
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
/// Determinism contract: each call returns its batches sorted by CnfKey,
/// a window never reopens once emitted (a late add() throws), and the
/// concatenation of all emitted main batches is, as a set, exactly what
/// build_cnfs() returns on the same stream — bit-identical CNFs, since
/// both run this class.  The kept batches hold, key for key, the CNFs
/// build_cnfs() makes of the kept clauses at the kept granularities,
/// with the same variables, clean flags and positive clauses.  None of
/// it depends on the borrowed thread pool's size.
///
/// Memory: a chain's dedupe stamps are dropped as soon as it has no
/// open group, so incremental state stays O(open windows).
class StreamingCnfBuilder {
 public:
  /// Every clause add() takes resolves its path id in `pool`, whose ids
  /// are canonical (equal id <=> equal path), so clauses are filed by id
  /// with no re-intern: build_cnfs borrows its caller's pool, and the
  /// resident monitor interns each segment's clauses into one persistent
  /// pool and borrows that.  The chain table holds URL ids in
  /// [0, num_urls).  `threads`, if given, runs filing and emission over
  /// chain ranges on its lanes; null or one lane runs inline.  Both
  /// borrowed objects must outlive the builder (appending to the pool is
  /// fine; renumbering is not), and the builder must be the thread
  /// pool's only user while one of its calls runs.  Throws
  /// std::invalid_argument if a kept granularity is not a granularity.
  StreamingCnfBuilder(const PathPool& pool, std::int32_t num_urls, CnfBuildOptions options = {},
                      util::ThreadPool* threads = nullptr);

  /// Files `clauses`, in span order within each chain, into their open
  /// window groups.  `kept`, if not empty, holds one flag per clause:
  /// nonzero marks a clause Figure 4's ablation keeps.  Throws
  /// std::logic_error before touching any state if `kept` has another
  /// size, or a clause precedes the watermark (its window has already
  /// been emitted), or names no chain of the table or no path of the
  /// pool.  A clause that moves its chain back to an earlier window (the
  /// ordering precondition) throws too; it is not filed, but other
  /// clauses of the batch may have been.
  void add(std::span<const PathClause> clauses, std::span<const std::uint8_t> kept = {});
  /// One clause: a span of one, filed inline.
  void add(const PathClause& clause, bool kept = false) {
    const std::uint8_t flag = kept ? 1 : 0;
    add(std::span<const PathClause>(&clause, 1), std::span<const std::uint8_t>(&flag, 1));
  }

  /// Raises the watermark to `complete_before` (no-op if not an
  /// increase) and emits the now-complete CNFs, sorted by key.  A window
  /// [start, start+len) is complete when start+len <= complete_before.
  EmittedCnfs advance_watermark(util::Day complete_before);

  /// Emits every still-open window, sorted by key, and raises the
  /// watermark past every representable day.  The result is exactly the
  /// complement of what advance_watermark() calls emitted.
  EmittedCnfs flush();

  /// Lowest day a new clause may still carry.
  util::Day watermark() const { return watermark_; }
  std::size_t open_windows() const;

  /// Checkpoint support (analysis/checkpoint.h): persists the open
  /// window groups in key order, each as its key, its positive entries
  /// in first-occurrence order and its sorted negative entries (an
  /// entry is path id << 1 | kept, as a u32), then the watermark — NOT
  /// the options, the table size or the borrowed pools, which are
  /// construction-time config the restoring caller must recreate (the
  /// config fingerprint guards the options and URL count; the thread
  /// count never changes the bytes).  The path ids resolve in the
  /// borrowed pool, so load that pool first.  load() replaces every
  /// open group only once the whole section parsed, and throws
  /// util::SerdeError, changing nothing, for what add() cannot produce:
  /// no such chain or path, a path twice in one group's positives or
  /// negatives, a kept bit outside the kept granularities, a bad
  /// granularity, a negative window or an unordered key.
  void save(util::ByteWriter& w) const;
  void load(util::ByteReader& r);

 private:
  static constexpr std::size_t kNumGranularities = util::kAllGranularities.size();

  /// A group entry: path id << 1 | kept.  Path ids are non-negative
  /// int32s, so the shift loses nothing.
  using Entry = std::uint32_t;
  static Entry entry(PathPool::PathId id, Entry kept) {
    return (static_cast<Entry>(id) << 1) | kept;
  }
  static PathPool::PathId path_of(Entry e) { return static_cast<PathPool::PathId>(e >> 1); }

  /// One open (chain, granularity, window) group: deduplicated entries
  /// in first-occurrence order (positives keep it for the leakage
  /// analysis; negatives only feed an AS union).
  struct Group {
    std::int32_t window = 0;
    std::vector<Entry> positives;
    std::vector<Entry> negatives;
  };

  /// One window per granularity (enum value).
  using Windows = std::array<std::int32_t, kNumGranularities>;

  /// A pair's dedupe stamp: per granularity, the last window that
  /// already holds the pair (-1 for none), and, as bit `granularity` of
  /// `kept`, whether that window's entry is known to be kept (a clear
  /// bit only costs a scan that finds it kept).
  struct Stamp {
    Windows windows;
    std::uint8_t kept;
  };

  /// A chain's dedupe table: open addressing with linear probing, keyed
  /// by path_id << 1 | observed.
  class StampTable {
   public:
    /// The stamp of `key`, inserted with no window and nothing kept on
    /// first sight.
    Stamp& find_or_insert(std::uint32_t key);

   private:
    /// add() rejects negative path ids, and no pool could hold
    /// INT32_MAX paths, so no real key is all ones.
    static constexpr std::uint32_t kEmpty = 0xffffffffu;
    struct Slot {
      std::uint32_t key = kEmpty;
      Stamp stamp{};
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
  /// The validity rules add() and load() share.
  bool has_chain(std::int32_t url_id, censor::Anomaly anomaly) const;
  bool has_path(PathPool::PathId id) const;
  static std::size_t chain_index(std::int32_t url_id, censor::Anomaly anomaly);
  /// Inverse of the chain index: a key with url_id and anomaly set.
  static CnfKey chain_key(std::size_t index);
  /// Splits the chain table into `ranges` contiguous ranges and runs fn
  /// on each, on the borrowed lanes when there are two or more.
  void for_each_range(std::size_t ranges, const RangeFn& fn);
  /// The borrowed pool's lane count, 1 without one.
  std::size_t lanes() const;
  /// How many ranges to split into: one per lane, at most `max_ranges`
  /// and one per chain, and at least one.
  std::size_t num_ranges(std::size_t max_ranges) const;
  /// The window of `day` at every granularity (enum value order).
  static Windows windows_of(util::Day day);
  /// Files one validated clause, whose day has `windows`, into its
  /// chain's open groups, OR-ing `kept` into its entries at the kept
  /// granularities.
  void file(Chain& chain, const PathClause& clause, bool kept, const Windows& windows) const;
  /// Sets the kept bit of path `id`'s entry, which `entries` holds.
  static void mark_kept(std::vector<Entry>& entries, PathPool::PathId id);
  /// Emits (in key order) and drops every group ending at or before
  /// `complete_before`, releasing the stamps of chains left empty.
  EmittedCnfs close_before(util::Day complete_before);
  /// close_before for one chain, appending to `out`.
  void close_chain(std::size_t index, util::Day complete_before, EmitScratch& scratch,
                   EmittedCnfs& out);
  /// The CNF of the group's entries that have every bit of `need` set:
  /// all of them for 0, the kept ones for 1.
  TomoCnf build_group(const CnfKey& key, const Group& group, Entry need,
                      EmitScratch& scratch) const;

  /// The configured granularities, sorted by enum value with duplicates
  /// removed (a duplicate granularity files into the same group).
  std::vector<util::Granularity> granularities_;
  /// Bit `granularity` set for each kept granularity.
  std::uint8_t kept_mask_ = 0;
  /// Never null; a pointer so the builder stays copy-assignable.
  const PathPool* pool_;
  util::ThreadPool* threads_ = nullptr;
  /// Indexed by chain_index(url_id, anomaly); sized at construction.
  std::vector<Chain> chains_;
  util::Day watermark_ = 0;
  /// Indexed by worker; grown to the lane count on first emission.
  std::vector<EmitScratch> scratch_;
};

/// Groups clauses into per-(URL, anomaly, window) CNFs.  Output is
/// sorted by key, deterministic, and independent of the thread count.
/// Implemented as a StreamingCnfBuilder sized by the largest URL id, fed
/// the whole stream as one batch and flushed once, on `threads` — or,
/// if null, on a local pool of one lane per hardware thread.
std::vector<TomoCnf> build_cnfs(const PathPool& pool, const std::vector<PathClause>& clauses,
                                const CnfBuildOptions& options = {},
                                util::ThreadPool* threads = nullptr);

/// Incremental form of Figure 4's churn ablation: keeps, per
/// (vantage, URL), only the clauses whose path equals the first path
/// observed for that pair — i.e., erases the effect of path churn.
/// Clauses must arrive in canonical stream order and resolve in the
/// borrowed interned pool (equal id <=> equal path; ids may only be
/// appended, so the recorded first-path ids stay valid).  Both the batch
/// strip_path_churn() and the resident monitor's kept flags
/// (StreamingCnfBuilder::add) come from this filter.
///
/// The first-path ids sit in a dense vantage x URL table of PathId,
/// -1 meaning unseen: one lookup per clause, and a pool lookup only for
/// a pair's first clauses (to refuse empty paths).
class ChurnStripFilter {
 public:
  /// A table for vantage ids in [0, num_vantages) (AS ids: the graph's
  /// num_ases() covers every vantage) and URL ids in [0, num_urls).
  ChurnStripFilter(const PathPool& pool, std::int32_t num_vantages, std::int32_t num_urls);

  /// True iff `clause` survives the ablation.  Empty paths never do
  /// (and never become a pair's first path).  Throws std::out_of_range,
  /// changing nothing, for a vantage or URL outside the table or a path
  /// id outside the pool.
  bool keep(const PathClause& clause);

  /// Checkpoint support: persists the recorded first-path ids (which
  /// resolve in the borrowed pool — load that pool first) as a count and
  /// then (vantage, URL, path id) entries in (vantage, URL) order.
  /// load() throws util::SerdeError, leaving the filter as it was, for
  /// an entry keep() would refuse or a repeated or unordered key.
  void save(util::ByteWriter& w) const;
  void load(util::ByteReader& r);

 private:
  static constexpr PathPool::PathId kUnseen = -1;

  /// The one validity rule keep() and load() share.
  bool accepts(std::int64_t vantage, std::int64_t url_id, PathPool::PathId id) const;
  std::size_t slot(topo::AsId vantage, std::int32_t url_id) const;

  const PathPool* pool_;
  std::size_t num_vantages_;
  std::size_t num_urls_;
  /// Indexed by vantage * num_urls_ + url_id.
  std::vector<PathPool::PathId> first_path_;
};

/// Figure 4's ablation filter: keeps, per (vantage, URL), only the
/// clauses whose path equals the first path observed for that pair —
/// i.e., erases the effect of path churn.  Serial passes: one sizes a
/// ChurnStripFilter by the largest ids, one runs it and counts the
/// survivors, one copies them, in stream order, into an exact output.
std::vector<PathClause> strip_path_churn(const PathPool& pool,
                                         const std::vector<PathClause>& clauses);

}  // namespace ct::tomo
