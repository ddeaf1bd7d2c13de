#include "analysis/platform_sinks.h"

#include <algorithm>
#include <vector>

#include "bgp/route_cache.h"
#include "util/thread_pool.h"

namespace ct::analysis {

std::unique_ptr<PlatformSinks> run_platform(Scenario& scenario, unsigned num_shards) {
  iclab::Platform& platform = scenario.platform();
  const unsigned shards =
      num_shards == 0 ? util::ThreadPool::hardware_threads() : num_shards;
  if (shards <= 1) {
    auto sinks = std::make_unique<PlatformSinks>(scenario);
    platform.run(sinks->fanout);
    return sinks;
  }

  const std::vector<iclab::ShardRange> ranges =
      iclab::plan_shards(platform.config().num_days,
                         static_cast<std::int32_t>(platform.vantages().size()),
                         static_cast<std::int32_t>(shards));
  std::vector<std::unique_ptr<PlatformSinks>> sinks;
  std::vector<iclab::MeasurementSink*> targets;
  sinks.reserve(ranges.size());
  targets.reserve(ranges.size());
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    sinks.push_back(std::make_unique<PlatformSinks>(scenario));
    targets.push_back(&sinks.back()->fanout);
  }
  // Pre-planned cache: vantage-split shards share each epoch's
  // bgp::RouteTableSet instead of recomputing it per column, and
  // day-split shards share their boundary-priming views.
  bgp::EpochRouteCache route_cache;
  iclab::expect_shard_epochs(route_cache, ranges, platform.config().epochs_per_day);
  const unsigned workers = std::min(shards, util::ThreadPool::hardware_threads());
  platform.run_shards(ranges, targets, workers, &route_cache);
  return merge_shard_sinks(std::move(sinks));
}

std::unique_ptr<PlatformSinks> merge_shard_sinks(
    std::vector<std::unique_ptr<PlatformSinks>> shard_sinks) {
  // Fold shards in plan order, then restore canonical clause order —
  // after this the contents are indistinguishable from a serial run's.
  std::size_t clauses = 0;
  for (const auto& sinks : shard_sinks) clauses += sinks->clause_builder.clauses().size();
  shard_sinks[0]->clause_builder.reserve(clauses);
  for (std::size_t i = 1; i < shard_sinks.size(); ++i) {
    shard_sinks[0]->merge(std::move(*shard_sinks[i]));
    shard_sinks[i].reset();  // cap peak memory at ~2x the serial run
  }
  shard_sinks[0]->clause_builder.canonicalize();
  return std::move(shard_sinks[0]);
}

}  // namespace ct::analysis
