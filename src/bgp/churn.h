// Network-level path churn: the link failure/repair process.
//
// The paper's key enabler is that BGP paths between a fixed (vantage,
// destination) pair change over time, exposing different AS sets to the
// same measurement.  We model the root cause directly: links go down and
// come back, and route recomputation does the rest.  Links come in two
// stability classes (assigned by the topology generator); the mix of a
// mostly-quiet stable class and a lively volatile class reproduces the
// shape of the paper's Figure 3 (fast initial churn, slow saturation,
// and a tail of pairs whose paths never change).
//
// The process advances in *epochs* (sub-day steps); the measurement
// platform runs several epochs per day so that intraday path changes —
// which the paper observes for ~25% of pairs — exist in the simulation.
//
// The trajectory is a pure function of the seed, so ChurnTrajectory
// records it once — the links each epoch flips, plus the running
// counts — and any epoch's state is then a replay of recorded flips
// rather than of the process's random draws.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "topo/as_graph.h"
#include "util/rng.h"

namespace ct::bgp {

struct ChurnConfig {
  /// Per-epoch failure probability of an up link, by stability class.
  /// Volatile links flap near-daily (matching the paper's observation
  /// that the pairs that change within a day are largely the same pairs
  /// that change within a week); stable links fail rarely, supplying the
  /// slow year-scale growth of Figure 3.
  double volatile_fail_prob = 0.25;
  double stable_fail_prob = 0.00016;
  /// Per-epoch repair probability of a down link.
  double repair_prob = 0.6;
};

class ChurnEngine {
 public:
  ChurnEngine(const topo::AsGraph& graph, const ChurnConfig& config, std::uint64_t seed);

  /// Advances the process by one epoch and returns the epoch index now
  /// in effect.  Epoch 0 (pristine, all links up) is the state before
  /// the first call.
  std::int64_t advance();

  /// Replays the process forward until epoch() == target_epoch.  The
  /// link-state trajectory is a deterministic function of the seed, so a
  /// freshly constructed engine advanced to epoch e is bit-identical to
  /// one that arrived there one advance() at a time — this is how the
  /// adaptive regime (analysis/regime.cpp) reads the link state at its
  /// re-optimization points.  Throws std::invalid_argument when
  /// target_epoch is behind the current epoch (the process cannot
  /// rewind).
  void advance_to(std::int64_t target_epoch);

  std::int64_t epoch() const { return epoch_; }
  const std::vector<bool>& link_up() const { return up_; }
  std::int32_t links_down() const { return links_down_; }

  /// Total up->down transitions so far (a churn intensity metric).
  std::int64_t total_failures() const { return total_failures_; }

  /// Total down->up transitions.  Together with total_failures() this
  /// distinguishes a flapping link population (failures ~ repairs, few
  /// links down) from a dying one (failures >> repairs); the invariant
  /// total_failures() - total_repairs() == links_down() always holds.
  std::int64_t total_repairs() const { return total_repairs_; }

 private:
  const topo::AsGraph& graph_;
  ChurnConfig config_;
  util::Rng rng_;
  std::vector<bool> up_;
  std::int64_t epoch_ = 0;
  std::int32_t links_down_ = 0;
  std::int64_t total_failures_ = 0;
  std::int64_t total_repairs_ = 0;
};

/// Epochs [0, num_epochs) of ChurnEngine(graph, config, seed), recorded
/// once.  Its state at epoch e — link states and counts — equals that
/// engine's after e advance() calls.  Immutable once built, so any
/// number of threads may read it.
class ChurnTrajectory {
 public:
  /// Throws std::invalid_argument when num_epochs < 1.
  ChurnTrajectory(const topo::AsGraph& graph, const ChurnConfig& config, std::uint64_t seed,
                  std::int64_t num_epochs);

  std::int64_t num_epochs() const { return static_cast<std::int64_t>(failures_.size()); }

  /// Links whose state flips entering `epoch` (none at epoch 0).
  std::span<const topo::LinkId> flips(std::int64_t epoch) const;

  /// Writes the link state at `epoch` into `up`: the nearest stored
  /// state at or before it, then at most kStateStride - 1 epochs of
  /// flips.
  void link_state_at(std::int64_t epoch, std::vector<bool>& up) const;

  /// Moves `up` from the link state at epoch - 1 to the state at
  /// `epoch` by applying that epoch's flips.
  void step(std::int64_t epoch, std::vector<bool>& up) const;

  /// The engine's counters at `epoch`.
  std::int64_t total_failures(std::int64_t epoch) const;
  std::int64_t total_repairs(std::int64_t epoch) const;
  std::int32_t links_down(std::int64_t epoch) const;

  /// Epochs between stored link states.
  static constexpr std::int64_t kStateStride = 64;

 private:
  /// Throws std::out_of_range for an epoch outside [0, num_epochs).
  std::size_t index(std::int64_t epoch) const;

  /// Epoch e's flips are flips_[offsets_[e], offsets_[e + 1]).
  std::vector<std::size_t> offsets_;
  std::vector<topo::LinkId> flips_;
  /// Cumulative counters at each epoch.
  std::vector<std::int64_t> failures_;
  std::vector<std::int64_t> repairs_;
  /// The link state at every kStateStride-th epoch.
  std::vector<std::vector<bool>> states_;
};

}  // namespace ct::bgp
