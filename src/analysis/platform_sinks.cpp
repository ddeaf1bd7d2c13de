#include "analysis/platform_sinks.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "util/thread_pool.h"

namespace ct::analysis {

namespace {

/// Folds shard-local sink bundles (in plan order) into shard_sinks[0],
/// canonicalizes the merged clause stream, and returns it; consumed
/// bundles are freed as they fold, capping peak memory at ~2x the
/// serial run.  A single bundle is returned untouched: one shard's
/// stream is already in canonical order.
std::unique_ptr<PlatformSinks> merge_shard_sinks(
    std::vector<std::unique_ptr<PlatformSinks>> shard_sinks) {
  if (shard_sinks.size() == 1) return std::move(shard_sinks[0]);
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

}  // namespace

std::unique_ptr<PlatformSinks> run_platform(Scenario& scenario, unsigned num_shards,
                                            util::Day day_begin, util::Day day_end) {
  const iclab::Platform& platform = scenario.platform();
  if (day_begin < 0 || day_begin >= day_end || day_end > platform.config().num_days) {
    throw std::invalid_argument("run_platform: day range outside the schedule");
  }
  const unsigned shards =
      num_shards == 0 ? util::ThreadPool::hardware_threads() : num_shards;

  // Plan the range's rectangle as a schedule of its own, then shift the
  // day ranges to its offset.
  std::vector<iclab::ShardRange> ranges =
      iclab::plan_shards(day_end - day_begin,
                         static_cast<std::int32_t>(platform.vantages().size()),
                         static_cast<std::int32_t>(shards));
  for (iclab::ShardRange& range : ranges) {
    range.day_begin += day_begin;
    range.day_end += day_begin;
  }
  std::vector<std::unique_ptr<PlatformSinks>> sinks;
  std::vector<iclab::MeasurementSink*> targets;
  sinks.reserve(ranges.size());
  targets.reserve(ranges.size());
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    sinks.push_back(std::make_unique<PlatformSinks>(scenario));
    targets.push_back(&sinks.back()->fanout);
  }
  platform.run_shards(ranges, targets, std::min(shards, util::ThreadPool::hardware_threads()));
  return merge_shard_sinks(std::move(sinks));
}

}  // namespace ct::analysis
