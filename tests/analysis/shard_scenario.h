// The equivalence suites' scenario: small, but long enough (3 weeks)
// that day/week windows close mid-run and shard plans have room.  The
// suites pass the regime and the shard count themselves; nothing here
// reads the environment.
#pragma once

#include <cstdint>

#include "analysis/scenario.h"
#include "censor/regime.h"
#include "util/timewin.h"

namespace ct::analysis::test {

inline ScenarioConfig shard_scenario(
    std::uint64_t seed, censor::ScenarioRegime regime = censor::ScenarioRegime::kBaseline) {
  ScenarioConfig cfg = small_scenario();
  cfg.platform.num_days = 3 * util::kDaysPerWeek;
  cfg.seed = seed;
  cfg.regime.regime = regime;
  return cfg;
}

}  // namespace ct::analysis::test
