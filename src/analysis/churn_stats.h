// Path-churn measurement (paper Figure 3).
//
// PathChurnTracker attaches to the platform as a sink and records a
// compact signature of the BGP path for every (vantage, destination)
// pair at every routing epoch.  From those it computes, per time
// granularity, the distribution of the number of distinct paths a pair
// exhibits inside one window — the paper's Figure 3 — plus the
// churn-by-destination-class breakdown (the paper's null result).
//
// The tracker is an *incremental fold* (ChurnFold) over a dense layout.
// Each pair owns a small table of the distinct signatures it has shown
// (a few per pair: at most 16 over the default year), and a signature's
// position in that table is its local id.  Each granularity keeps a
// window-indexed deque of open windows; a window is one dense cell per
// pair, a bitmask over local ids.  An observation is one scan of the
// pair's table plus one OR per granularity.  Cells start one 64-bit
// word wide and all widen by a word when any pair passes the current
// width, so counts stay exact for any number of distinct paths.
// retire_before() seals every window the watermark has closed into
// fixed-size accumulators (histogram / sample / changed counters) by
// popcount and drops its cells — so the resident monitor retains
// O(pairs x open windows), not O(pairs x epochs of the whole run).
// snapshot()/compute() are valid at any point and equal the batch
// computation over exactly the observations folded so far, sealed or
// not.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "iclab/platform.h"
#include "topo/as_graph.h"
#include "util/stats.h"
#include "util/timewin.h"

namespace ct::util {
class ByteWriter;
class ByteReader;
}  // namespace ct::util

namespace ct::analysis {

struct ChurnStats {
  /// Per granularity: histogram of distinct-path counts per
  /// (pair, window) sample — buckets 1..4 plus "5+".
  std::map<util::Granularity, util::BucketedCounts> distinct_paths;
  /// Per granularity: fraction of samples with >= 2 distinct paths.
  std::map<util::Granularity, double> changed_fraction;
  /// Year-window changed fraction split by destination AS class.
  std::map<topo::AsClass, double> changed_by_dest_class;
};

/// Collision-resistant signature of an AS path; 0 is reserved for
/// "no path" (unreachable) and never returned for a non-empty path.
std::uint64_t path_signature(const std::vector<topo::AsId>& path);

/// The incremental Figure-3 fold.  Observations are (pair, day,
/// signature) triples; windows at all four granularities accumulate
/// per-(pair, window) distinct-signature bitmasks, and retire_before()
/// seals every window ending at or before the watermark into scalar
/// accumulators (dropping the cells).  All statistics are sums and set
/// unions, so the result is independent of observation order, of the
/// local ids each side assigned, and of where the seal points fall —
/// snapshot() after any retire_before() interleaving equals the batch
/// fold of the same observations.
class ChurnFold {
 public:
  ChurnFold(const topo::AsGraph& graph, std::vector<topo::AsId> vantages,
            std::vector<topo::AsId> dests, util::Day num_days,
            std::int32_t epochs_per_day);

  std::size_t num_pairs() const { return vantages_.size() * dests_.size(); }
  std::size_t pair_index(std::size_t vi, std::size_t di) const {
    return vi * dests_.size() + di;
  }

  /// Records one non-empty-path signature for `pair` on `day`.  Throws
  /// std::logic_error if the day's windows were already sealed, and
  /// std::out_of_range for a pair or day outside the geometry or a zero
  /// ("no path") signature.
  void observe(std::size_t pair, util::Day day, std::uint64_t signature);

  /// Seals every window ending at or before `complete_before` into the
  /// fixed-size accumulators and frees its cells.  Only a fold that
  /// sees the *whole* observation stream (the resident monitor's global
  /// fold) may seal mid-run: a sealed fold cannot be absorbed (a
  /// shard-local fold must stay unsealed so absorb_unsealed() can union
  /// windows that straddle shard boundaries).
  void retire_before(util::Day complete_before);
  util::Day retired_before() const { return retired_before_; }

  /// Folds a still-unsealed fold into this possibly sealed fold: each
  /// pair's signatures are remapped into this fold's local ids once,
  /// then the cells are ORed.  Between unsealed folds (the shard merge)
  /// it is associative and commutative.  Into a sealed fold (the
  /// resident monitor's segment absorption) it is sound because an
  /// ingest segment's observations all land on days at or after this
  /// fold's seal point, so every window they touch is still open here.
  /// Throws std::invalid_argument on geometry mismatch, std::logic_error
  /// if `other` has sealed windows or carries an observation in a window
  /// this fold already sealed (checked before anything is folded).
  void absorb_unsealed(ChurnFold&& other);

  /// The Figure-3 statistics over everything observed so far (sealed
  /// accumulators plus still-open windows).
  ChurnStats snapshot() const;

  /// Distinct signatures seen for one pair over the whole run so far.
  std::int64_t distinct_of_pair(std::size_t pair) const {
    return static_cast<std::int64_t>(sigs_.at(pair).size());
  }

  bool same_geometry(const ChurnFold& other) const {
    return vantages_ == other.vantages_ && dests_ == other.dests_ &&
           num_days_ == other.num_days_ && epochs_per_day_ == other.epochs_per_day_;
  }

  const std::vector<topo::AsId>& vantages() const { return vantages_; }
  const std::vector<topo::AsId>& dests() const { return dests_; }
  util::Day num_days() const { return num_days_; }
  std::int32_t epochs_per_day() const { return epochs_per_day_; }

  /// Observed unsealed (pair, window) cells across all granularities —
  /// the fold's only run-length-sensitive state, O(pairs x open windows)
  /// once retire_before() tracks the watermark.  Counts cells that saw
  /// an observation, not allocated ones.
  std::size_t open_window_entries() const;

  /// Checkpoint support (analysis/checkpoint.h): persists everything
  /// except the graph pointer, geometry included.  The open cells are
  /// written as (window, pair) entries in key order, each with its
  /// sorted signature list, then each pair's sorted run-wide signature
  /// list (checkpoint format v3), so the bytes do not depend on local
  /// id order.  load()
  /// requires this fold to have been constructed with the saved
  /// geometry — the graph reference is reconstruction-time config the
  /// checkpoint envelope fingerprints — and throws util::SerdeError,
  /// before allocating any cell and leaving this fold untouched, on a
  /// geometry mismatch, a pair or window outside it, a window already
  /// sealed by the saved watermark, out-of-order entries, or a
  /// signature that is zero or absent from its pair's run-wide list.
  void save(util::ByteWriter& w) const;
  void load(util::ByteReader& r);

 private:
  /// Sealed scalar accumulators + open windows, per granularity.
  /// open[i] holds window `base + i`: num_pairs() cells of `words_`
  /// words each, or nothing until the window's first observation.  A
  /// cell is a bitmask over its pair's local ids; nonzero = observed.
  struct GranState {
    util::BucketedCounts counts{4};  // buckets 0..4 + "5+"; 0 never used
    std::int64_t samples = 0;
    std::int64_t changed = 0;
    std::int32_t base = 0;  // window of open.front(); stale while empty
    std::deque<std::vector<std::uint64_t>> open;
  };

  /// The cells of window `window` in `gran`, allocated (zeroed) on
  /// first use; grows the deque at either end.
  std::vector<std::uint64_t>& slot(GranState& gran, std::int32_t window);
  /// `pair`'s local id for `signature`, appending it (and widening
  /// every cell if the pair outgrows them) on first sight.
  std::size_t local_id(std::size_t pair, std::uint64_t signature);
  /// Re-lays every allocated cell out at `words` words (> words_).
  void widen(std::size_t words);
  /// Distinct signatures in one pair's cell.
  std::int64_t popcount(const std::vector<std::uint64_t>& cells, std::size_t pair) const;
  /// Adds one window's observed cells to the Figure-3 accumulators.
  void tally(const std::vector<std::uint64_t>& cells, util::BucketedCounts& counts,
             std::int64_t& samples, std::int64_t& changed) const;
  /// Observed cells over a granularity's open windows.
  std::size_t observed_cells(const GranState& gran) const;
  /// absorb_unsealed() after its checks: remaps `other`'s local ids
  /// into ours, pair by pair, then ORs every open cell in.
  void union_with(const ChurnFold& other);

  const topo::AsGraph* graph_;
  std::vector<topo::AsId> vantages_;
  std::vector<topo::AsId> dests_;
  util::Day num_days_ = 0;
  std::int32_t epochs_per_day_ = 0;
  std::array<GranState, util::kAllGranularities.size()> grans_;
  /// Per pair: local id -> signature, in first-seen order.  Its size is
  /// the pair's distinct paths over the whole run (the Figure-3
  /// destination-class breakdown and distinct_paths_of_pair); bounded
  /// by the pair's distinct paths, not by run length.
  std::vector<std::vector<std::uint64_t>> sigs_;
  std::size_t words_ = 1;  // 64-bit words per cell
  util::Day retired_before_ = 0;
};

class PathChurnTracker : public iclab::MeasurementSink {
 public:
  PathChurnTracker(const topo::AsGraph& graph, std::vector<topo::AsId> vantages,
                   std::vector<topo::AsId> dests, util::Day num_days,
                   std::int32_t epochs_per_day);

  void on_measurement(const iclab::Measurement&) override {}
  void on_path(util::Day day, std::int32_t epoch, topo::AsId vantage, topo::AsId dest,
               const std::vector<topo::AsId>& path) override;

  /// Folds a shard-local tracker into this one.  Both trackers must
  /// share geometry (vantages, destinations, days, epochs) and be
  /// unsealed; per-window signature cells are unioned, so the result is
  /// associative and commutative, with a fresh tracker as identity.
  void merge(PathChurnTracker&& other);

  /// Moves the fold out (the tracker is spent afterwards) — the
  /// resident monitor absorbs each merged segment tracker's fold into
  /// its global sealed fold via ChurnFold::absorb_unsealed().
  ChurnFold take_fold() { return std::move(fold_); }

  /// Computes the Figure-3 statistics from everything recorded so far.
  ChurnStats compute() const { return fold_.snapshot(); }

  /// Distinct (non-empty) paths for one pair over the whole run.
  std::int64_t distinct_paths_of_pair(topo::AsId vantage, topo::AsId dest) const;

  const ChurnFold& fold() const { return fold_; }

 private:
  /// AsId -> position in fold().vantages() / dests(), -1 if untracked.
  std::vector<std::int32_t> vantage_index_;
  std::vector<std::int32_t> dest_index_;
  ChurnFold fold_;
};

}  // namespace ct::analysis
