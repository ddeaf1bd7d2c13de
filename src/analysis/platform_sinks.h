// The four consumers of one platform run (or of one shard of it),
// bundled with their fanout and fold, and run_platform_shards, the one
// driver of the platform.  The resident monitor, the platform-shard
// benchmark, and the equivalence tests all drive exactly this bundle,
// so adding a sink or changing merge requirements happens in one place.
#pragma once

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "analysis/churn_stats.h"
#include "analysis/scenario.h"
#include "analysis/truth_tracker.h"
#include "iclab/platform.h"
#include "tomo/clause.h"
#include "util/timewin.h"

namespace ct::analysis {

/// Heap-allocate and never move: the fanout holds pointers into the
/// owning object.
struct PlatformSinks {
  iclab::DatasetSummary summary;
  tomo::ClauseBuilder clause_builder;
  PathChurnTracker churn_tracker;
  TruthTracker truth_tracker;
  iclab::SinkFanout fanout;

  explicit PlatformSinks(Scenario& scenario)
      : summary(scenario.graph(),
                static_cast<std::int32_t>(scenario.platform().urls().size())),
        clause_builder(scenario.ip2as()),
        churn_tracker(scenario.graph(), scenario.platform().vantages(),
                      scenario.platform().dest_ases(),
                      scenario.platform().config().num_days,
                      scenario.platform().config().epochs_per_day),
        truth_tracker(scenario.registry(), scenario.platform()) {
    fanout.add(&summary);
    fanout.add(&clause_builder);
    fanout.add(&churn_tracker);
    fanout.add(&truth_tracker);
  }

  /// Folds shard-local bundles into this one: the clauses through the
  /// shard hand-off (tomo::hand_off_clauses), the other sinks through
  /// their order-independent merges.  A fresh bundle that absorbs any
  /// tiling of a day range holds exactly what one serial run over that
  /// range would have left.
  void absorb(std::span<const std::unique_ptr<PlatformSinks>> shards) {
    std::vector<const tomo::ClauseBuilder*> builders;
    builders.reserve(shards.size());
    for (const auto& shard : shards) builders.push_back(&shard->clause_builder);
    clause_builder.absorb(builders);
    for (const auto& shard : shards) {
      summary.merge(std::move(shard->summary));
      churn_tracker.merge(std::move(shard->churn_tracker));
      truth_tracker.merge(std::move(shard->truth_tracker));
    }
  }
};

/// Runs days [day_begin, day_end) of the measurement platform through
/// all sinks on num_shards workers (0 = one per hardware thread; capped
/// at the hardware) in one iclab::Platform::run_days call, one bundle
/// per sink, returned unmerged.  Platform::num_run_days_sinks sets the
/// bundle count for the range and the workers, and with it whether
/// run_days has the bundles claim whole days in ascending order (so
/// which days a bundle holds depends on timing) or gives each bundle
/// one vantage chunk of the whole range (one bundle is one serial run
/// of it).  Every bundle's stream ascends, and absorbing or handing off
/// the bundles gives the serial run's contents.  This is the only code
/// that drives the platform: the resident monitor (and so
/// run_experiment) hands each segment's bundles straight to its
/// persistent state, and run_platform absorbs them into one.
std::vector<std::unique_ptr<PlatformSinks>> run_platform_shards(Scenario& scenario,
                                                                unsigned num_shards,
                                                                util::Day day_begin,
                                                                util::Day day_end);

/// run_platform_shards absorbed into one bundle: its contents are
/// bit-identical to a serial run's over the range, for any shard count
/// (the equivalence tests hold this to the letter).
std::unique_ptr<PlatformSinks> run_platform(Scenario& scenario, unsigned num_shards,
                                            util::Day day_begin, util::Day day_end);

/// run_platform over the whole schedule.
inline std::unique_ptr<PlatformSinks> run_platform(Scenario& scenario, unsigned num_shards) {
  return run_platform(scenario, num_shards, 0, scenario.platform().config().num_days);
}

}  // namespace ct::analysis
