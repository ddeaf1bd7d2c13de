// Clause formulation (paper §3.1).
//
// Each usable measurement yields, per anomaly type, a boolean constraint
// over the ASes of its (inferred) path: a positive clause
// (X1 ∨ ... ∨ Xk) = True when the anomaly was detected, or the negative
// form (¬X1 ∧ ... ∧ ¬Xk) when it was not.  Records are eliminated under
// the paper's four conditions, implemented in net::infer_as_path; this
// layer runs the inference, tracks elimination statistics, and retains
// the clause stream for CNF construction.
//
// Paths are interned in a PathPool: a year-long run emits millions of
// clauses over a few thousand distinct AS paths, so clauses store a
// 4-byte path id instead of a vector.  Moving clauses between pools
// (the shard hand-off into a merged builder or the monitor's persistent
// pool) goes through a PathRemap, which interns each distinct source
// path once and then translates ids by table lookup, linear in clauses.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "censor/policy.h"
#include "iclab/platform.h"
#include "net/traceroute.h"
#include "util/timewin.h"

namespace ct::util {
class ByteWriter;
class ByteReader;
}  // namespace ct::util

namespace ct::tomo {

/// Deduplicating store of AS-level paths.
class PathPool {
 public:
  using PathId = std::int32_t;

  /// Returns the id of `path`, interning it on first sight.
  PathId intern(std::span<const topo::AsId> path);
  PathId intern(std::initializer_list<topo::AsId> path) {
    return intern(std::span<const topo::AsId>(path.begin(), path.size()));
  }
  const std::vector<topo::AsId>& get(PathId id) const {
    return paths_.at(static_cast<std::size_t>(id));
  }
  std::size_t size() const { return paths_.size(); }

  /// Checkpoint support (analysis/checkpoint.h).  save() emits the
  /// interned paths in id order; load() replaces the pool wholesale and
  /// rebuilds the dedup index, so ids survive a save/load round trip.
  /// load() throws util::SerdeError, leaving the pool untouched, when a
  /// path appears twice (intern() could not give back both ids) or holds
  /// an AS id outside [0, num_ases) (CNF emission sizes per-AS scratch
  /// by the largest id).
  void save(util::ByteWriter& w) const;
  void load(util::ByteReader& r, std::int32_t num_ases);

 private:
  /// The slot of `path` in slots_: its id's slot, or the empty slot
  /// where it would go.  slots_ must not be empty.
  std::size_t find_slot(std::span<const topo::AsId> path, std::uint64_t hash) const;
  /// Doubles slots_ (from 16) and re-inserts every id by its hash.
  void grow();

  std::vector<std::vector<topo::AsId>> paths_;
  std::vector<std::uint64_t> hashes_;  // parallel to paths_
  /// Dedup index: open addressing with linear probing over path ids,
  /// kEmpty where free, at most half full.  It stores no path copies.
  std::vector<PathId> slots_;
  static constexpr PathId kEmpty = -1;
};

/// Lazy id translation from one pool into another: a source path is
/// interned into the target on its first translation only.  Translating
/// a clause stream in order therefore grows the target exactly as
/// interning every clause's path would — same ids, same pool order —
/// at one PathPool::intern per distinct path instead of per clause.
/// Both pools must outlive the remap, and the source must not grow.
class PathRemap {
 public:
  PathRemap(const PathPool& from, PathPool& to)
      : from_(&from), to_(&to), ids_(from.size(), -1) {}

  PathPool::PathId operator()(PathPool::PathId id) {
    PathPool::PathId& mapped = ids_.at(static_cast<std::size_t>(id));
    if (mapped < 0) mapped = to_->intern(from_->get(id));
    return mapped;
  }

 private:
  const PathPool* from_;
  PathPool* to_;
  std::vector<PathPool::PathId> ids_;  // -1 = not yet interned
};

/// One boolean path constraint (20 bytes).
struct PathClause {
  PathPool::PathId path_id = -1;
  std::int32_t url_id = 0;
  /// The measuring vantage AS.  Bookkeeping only (e.g., the Figure-4
  /// churn ablation groups by vantage): the vantage AS is typically NOT
  /// a literal of the clause because its own traceroute hops are
  /// private, unmappable addresses.
  topo::AsId vantage = topo::kInvalidAs;
  util::Day day = 0;
  censor::Anomaly anomaly = censor::Anomaly::kDns;
  bool observed = false;  // anomaly detected on this measurement

  bool operator==(const PathClause&) const = default;
};

struct ClauseBuildStats {
  std::int64_t measurements = 0;
  std::int64_t dropped_no_mapping = 0;
  std::int64_t dropped_traceroute_error = 0;
  std::int64_t dropped_ambiguous_gap = 0;
  std::int64_t dropped_divergent_paths = 0;
  std::int64_t usable_measurements = 0;
  std::int64_t clauses = 0;

  std::int64_t dropped_total() const {
    return dropped_no_mapping + dropped_traceroute_error + dropped_ambiguous_gap +
           dropped_divergent_paths;
  }

  ClauseBuildStats& operator+=(const ClauseBuildStats& other) {
    measurements += other.measurements;
    dropped_no_mapping += other.dropped_no_mapping;
    dropped_traceroute_error += other.dropped_traceroute_error;
    dropped_ambiguous_gap += other.dropped_ambiguous_gap;
    dropped_divergent_paths += other.dropped_divergent_paths;
    usable_measurements += other.usable_measurements;
    clauses += other.clauses;
    return *this;
  }

  bool operator==(const ClauseBuildStats&) const = default;
};

/// Measurement sink: converts measurements to clauses as they arrive.
///
/// The stream holds each same-day clause once.  A scheduled session
/// measures every URL from every node in every epoch of its day, so
/// most derived clauses repeat an earlier one of the same day exactly
/// (same vantage, URL, path, anomaly and observed flag; on the default
/// year 61% of them).  A repeat changes nothing downstream: every
/// grouping window is a union of whole days, so its (path, observed)
/// pair already sits in each window it would be filed into; the churn
/// strip's first path per (vantage, URL) is set by the original; and
/// the original already fixed its path's first use in the pool.  So
/// on_measurement appends a clause only on its key's first sight that
/// day, and clauses()/seqs() hold those first occurrences.
/// stats().clauses still counts every derived clause, kNumAnomalies per
/// usable measurement (the report's "clauses emitted").
///
/// The dedupe is tiling-invariant: its key holds the day and the
/// vantage, and iclab::Platform::run_days streams each task, a day range
/// times a vantage range, whole into one sink, so all repeats of a key
/// meet in one builder and any split keeps what a serial run keeps.
class ClauseBuilder : public iclab::MeasurementSink {
 public:
  /// The database must outlive the builder.
  explicit ClauseBuilder(const net::Ip2AsDb& db) : db_(db) {}

  void on_measurement(const iclab::Measurement& m) override;

  /// Appends the hand-off of `shards` (hand_off_clauses) to this
  /// builder's stream, interning into its own pool, and sums their
  /// stats.  A fresh builder that absorbs any tiling of the schedule
  /// then holds exactly what a serial Platform::run would have left:
  /// pool(), clauses(), seqs() and stats() bit-identical.
  void absorb(std::span<const ClauseBuilder* const> shards);

  const PathPool& pool() const { return pool_; }
  const std::vector<PathClause>& clauses() const { return clauses_; }
  /// Schedule position of each clause (parallel to clauses(); the
  /// clauses one measurement kept share a value).
  const std::vector<std::int64_t>& seqs() const { return seqs_; }
  const ClauseBuildStats& stats() const { return stats_; }

 private:
  /// The (vantage, URL, path id) keys met on the current day, each with
  /// one seen-bit per (anomaly, observed) pair: open addressing with
  /// linear probing over the full key, at most half full.  A slot
  /// stamped with an older generation is free, so a new day costs one
  /// increment, not a clear.
  class DayKeys {
   public:
    using Seen = std::uint16_t;
    static_assert(2 * censor::kNumAnomalies <= 8 * sizeof(Seen));

    /// Forgets every key.
    void next_day();
    /// The seen-bits of the key, all clear on its first sight this day.
    Seen& find_or_insert(topo::AsId vantage, std::int32_t url_id, PathPool::PathId path_id);

   private:
    struct Slot {
      std::uint32_t generation = 0;  // never a live generation
      topo::AsId vantage = 0;
      std::int32_t url_id = 0;
      PathPool::PathId path_id = 0;
      Seen seen = 0;
    };
    /// Doubles slots_ (from 64), keeping the current day's keys.
    void grow();

    std::vector<Slot> slots_;
    std::size_t size_ = 0;  // keys of the current generation
    std::uint32_t generation_ = 1;
  };

  const net::Ip2AsDb& db_;
  /// net::infer_as_path_into's buffers, reused by every measurement.
  std::array<std::vector<topo::AsId>, 3> infer_scratch_;
  PathPool pool_;
  std::vector<PathClause> clauses_;
  std::vector<std::int64_t> seqs_;
  ClauseBuildStats stats_;
  /// The day day_keys_ describes (it starts empty, so any value works).
  util::Day day_ = 0;
  DayKeys day_keys_;
};

/// The shard hand-off: the union of shard-local clause streams in
/// canonical serial order, with path ids translated into `pool` (each
/// distinct path interned once, in first-use order of that stream).
/// The result, and what it adds to `pool`, equal what one serial
/// ClauseBuilder interning into `pool` would have produced.  When the
/// shards, in the given order, are already in schedule order — day
/// ranges in day order — their streams are concatenated; otherwise
/// (interleaved day claims, vantage chunks, or any other order) they
/// are k-way merged by seqs().  Clauses of equal seq keep their order, earlier
/// shards first.  When `seqs` is given, the result's seqs are appended
/// to it.  Each shard's own stream must be in schedule order, as
/// Platform::run_shard emits it; throws std::invalid_argument
/// otherwise, interning nothing.  Both the sharded platform driver and
/// the resident monitor's segments move their clauses through this one
/// function.
std::vector<PathClause> hand_off_clauses(std::span<const ClauseBuilder* const> shards,
                                         PathPool& pool,
                                         std::vector<std::int64_t>* seqs = nullptr);

}  // namespace ct::tomo
