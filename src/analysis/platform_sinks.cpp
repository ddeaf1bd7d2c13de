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
  const unsigned workers =
      std::min(num_shards == 0 ? util::ThreadPool::hardware_threads() : num_shards,
               util::ThreadPool::hardware_threads());
  const util::Day days = day_end - day_begin;
  const auto num_vantages = static_cast<std::int32_t>(platform.vantages().size());
  std::vector<std::unique_ptr<PlatformSinks>> sinks;
  std::vector<iclab::MeasurementSink*> targets;
  const auto add_sinks = [&](std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      sinks.push_back(std::make_unique<PlatformSinks>(scenario));
      targets.push_back(&sinks.back()->fanout);
    }
  };

  if (workers == 1) {
    // One worker runs the range as one task.
    add_sinks(1);
    platform.run_shard(*targets[0], iclab::ShardRange{day_begin, day_end, 0, num_vantages});
  } else if (days >= static_cast<util::Day>(workers)) {
    // Whole-day tasks, claimed in ascending order, one bundle per worker.
    add_sinks(workers);
    platform.run_days(day_begin, day_end, targets);
  } else {
    // Fewer days than workers: plan the range's rectangle as a schedule
    // of its own, which splits the vantage dimension, shift the day
    // ranges to its offset, and run one bundle per task.
    std::vector<iclab::ShardRange> ranges =
        iclab::plan_shards(days, num_vantages, static_cast<std::int32_t>(workers));
    for (iclab::ShardRange& range : ranges) {
      range.day_begin += day_begin;
      range.day_end += day_begin;
    }
    add_sinks(ranges.size());
    platform.run_shards(ranges, targets, workers);
  }
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
