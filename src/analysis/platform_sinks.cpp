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
  const std::size_t bundles = platform.num_run_days_sinks(day_end - day_begin, workers);
  std::vector<std::unique_ptr<PlatformSinks>> sinks;
  std::vector<iclab::MeasurementSink*> targets;
  for (std::size_t i = 0; i < bundles; ++i) {
    sinks.push_back(std::make_unique<PlatformSinks>(scenario));
    targets.push_back(&sinks.back()->fanout);
  }
  platform.run_days(day_begin, day_end, targets);
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
