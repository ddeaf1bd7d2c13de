// Scenario: one fully wired simulated world.
//
// A ScenarioConfig aggregates every substrate's configuration plus one
// master seed; Scenario materializes the topology, ground-truth censors,
// address plan, IP-to-AS database, and measurement platform in the right
// order.  All benchmarks and examples run against a scenario, and
// EXPERIMENTS.md records which config produced which numbers.
#pragma once

#include <cstdint>

#include "censor/policy.h"
#include "censor/regime.h"
#include "iclab/platform.h"
#include "net/ip2as.h"
#include "topo/generator.h"

namespace ct::analysis {

struct ScenarioConfig {
  topo::TopologyConfig topology;
  net::AddressPlanConfig addressing;
  censor::CensorConfig censors;
  /// Scenario regime (README "Scenarios"): which of the paper's
  /// assumptions this run stresses.  Part of the checkpoint config
  /// fingerprint.
  censor::RegimeConfig regime;
  iclab::PlatformConfig platform;
  std::uint64_t seed = 20170623;  // arXiv submission date of the paper
};

/// The default evaluation scenario: a laptop-scale stand-in for the
/// paper's year of ICLab measurements, calibrated so the *shapes* of the
/// evaluation results match (see EXPERIMENTS.md).
ScenarioConfig default_scenario();

/// A small scenario for tests and the quickstart example (~seconds).
ScenarioConfig small_scenario();

class Scenario {
 public:
  explicit Scenario(const ScenarioConfig& config);

  const ScenarioConfig& config() const { return config_; }
  const topo::AsGraph& graph() const { return graph_; }
  const censor::CensorRegistry& registry() const { return registry_; }
  const net::AddressPlan& plan() const { return plan_; }
  const net::Ip2AsDb& ip2as() const { return ip2as_; }
  iclab::Platform& platform() { return platform_; }
  const iclab::Platform& platform() const { return platform_; }

 private:
  ScenarioConfig config_;
  topo::AsGraph graph_;
  iclab::Endpoints endpoints_;
  censor::CensorRegistry registry_;
  net::AddressPlan plan_;
  net::Ip2AsDb ip2as_;
  iclab::Platform platform_;
};

}  // namespace ct::analysis
