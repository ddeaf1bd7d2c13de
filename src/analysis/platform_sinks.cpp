#include "analysis/platform_sinks.h"

#include <algorithm>
#include <vector>

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

  ShardPlan plan = plan_shard_sinks(scenario, shards);
  std::vector<iclab::MeasurementSink*> targets;
  targets.reserve(plan.sinks.size());
  for (const auto& sinks : plan.sinks) targets.push_back(&sinks->fanout);
  platform.run_shards(plan.ranges, targets, plan.workers, plan.route_cache.get());
  return merge_shard_sinks(std::move(plan.sinks));
}

ShardPlan plan_shard_sinks(Scenario& scenario, unsigned num_shards, bool attach_churn) {
  const iclab::Platform& platform = scenario.platform();
  ShardPlan plan;
  plan.ranges = iclab::plan_shards(platform.config().num_days,
                                   static_cast<std::int32_t>(platform.vantages().size()),
                                   static_cast<std::int32_t>(num_shards));
  plan.sinks.reserve(plan.ranges.size());
  for (std::size_t i = 0; i < plan.ranges.size(); ++i) {
    plan.sinks.push_back(std::make_unique<PlatformSinks>(scenario, attach_churn));
  }
  plan.workers = std::min(num_shards, util::ThreadPool::hardware_threads());
  plan.route_cache = std::make_shared<bgp::EpochRouteCache>();
  iclab::expect_shard_epochs(*plan.route_cache, plan.ranges,
                             platform.config().epochs_per_day);
  return plan;
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
