// Shared test helpers for the execution-mode contracts.
//
// CI runs the suite across a matrix of execution modes; results must be
// identical in every configuration:
//   * CT_PLATFORM_SHARDS — serial (1, the default) vs sharded platform,
//   * CT_STREAMING — batch (0, the default) vs streaming pipeline
//     (README "Streaming ingest"),
//   * CT_SAT_BACKEND — per-CNF backend selection: auto (the default)
//     or one forced backend for every CNF (README "Solver backends"),
//   * CT_SCENARIO — scenario regime: baseline (the default) or one of
//     the stress regimes (README "Scenarios").  Unlike the knobs above
//     this changes the *world*, not the execution strategy — but within
//     one regime every execution mode must still agree byte for byte.
// Tests that run the full experiment read both knobs from here, so the
// env contract lives in exactly one place; the equivalence suites
// (experiment_shard_test.cpp, streaming_equivalence_test.cpp) share
// shard_scenario() for the same reason.
#pragma once

#include <cstdint>
#include <cstdlib>

#include "analysis/experiment.h"
#include "analysis/scenario.h"
#include "censor/regime.h"
#include "sat/backend.h"
#include "util/timewin.h"

namespace ct::analysis::test {

inline unsigned shards_from_env() {
  const char* env = std::getenv("CT_PLATFORM_SHARDS");
  return env == nullptr ? 1 : static_cast<unsigned>(std::strtoul(env, nullptr, 10));
}

inline bool streaming_from_env() {
  const char* env = std::getenv("CT_STREAMING");
  return env != nullptr && std::strtoul(env, nullptr, 10) != 0;
}

/// Applies the env knobs to an options struct.
inline void apply_env(ExperimentOptions& options) {
  options.num_platform_shards = shards_from_env();
  options.streaming = streaming_from_env();
  options.analysis.backend = sat::BackendSelector::from_env();
}

/// Applies the CT_SCENARIO regime knob to a scenario config, so every
/// suite built on these helpers runs under CI's scenario matrix.
inline void apply_env(ScenarioConfig& config) {
  config.regime = censor::RegimeConfig::from_env(config.regime);
}

/// The equivalence suites' scenario: small, but long enough (3 weeks)
/// that day/week windows close mid-run and shard plans have room.
/// Ignores CT_SCENARIO, for tests that pin the regime themselves.
inline ScenarioConfig pinned_shard_scenario(std::uint64_t seed) {
  ScenarioConfig cfg = small_scenario();
  cfg.platform.num_days = 3 * util::kDaysPerWeek;
  cfg.seed = seed;
  return cfg;
}

/// pinned_shard_scenario under the CT_SCENARIO regime.
inline ScenarioConfig shard_scenario(std::uint64_t seed) {
  ScenarioConfig cfg = pinned_shard_scenario(seed);
  apply_env(cfg);
  return cfg;
}

}  // namespace ct::analysis::test
