#include "analysis/platform_sinks.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "util/thread_pool.h"

namespace ct::analysis {

std::vector<std::unique_ptr<PlatformSinks>> run_platform_shards(Scenario& scenario,
                                                                unsigned num_shards,
                                                                util::Day day_begin,
                                                                util::Day day_end) {
  const iclab::Platform& platform = scenario.platform();
  if (day_begin < 0 || day_begin >= day_end || day_end > platform.config().num_days) {
    throw std::invalid_argument("run_platform_shards: day range outside the schedule");
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
  return sinks;
}

std::unique_ptr<PlatformSinks> run_platform(Scenario& scenario, unsigned num_shards,
                                            util::Day day_begin, util::Day day_end) {
  std::vector<std::unique_ptr<PlatformSinks>> shards =
      run_platform_shards(scenario, num_shards, day_begin, day_end);
  // One shard's stream is already the serial one.
  if (shards.size() == 1) return std::move(shards[0]);
  auto merged = std::make_unique<PlatformSinks>(scenario);
  merged->absorb(shards);
  return merged;
}

}  // namespace ct::analysis
