// Ground-truth observability tracking (simulation-only superpower).
//
// TruthTracker attaches to the platform as a sink and records which
// ground-truth censors actually produced at least one detected anomaly
// during the run ("observable" censors: the best any inference could
// do).  The experiment scores identified censors against both the full
// ground truth and this observable subset.
#pragma once

#include <set>
#include <vector>

#include "censor/policy.h"
#include "iclab/platform.h"
#include "topo/as_graph.h"

namespace ct::util {
class ByteWriter;
class ByteReader;
}  // namespace ct::util

namespace ct::analysis {

class TruthTracker : public iclab::MeasurementSink {
 public:
  /// The registry and platform must outlive the tracker.
  TruthTracker(const censor::CensorRegistry& registry, const iclab::Platform& platform)
      : registry_(&registry), platform_(&platform) {}

  /// Throws std::out_of_range, changing nothing, for a URL id outside
  /// the platform's URLs.
  void on_measurement(const iclab::Measurement& m) override;

  /// Folds a shard-local tracker into this one (set union).
  /// Associative and commutative, with a fresh tracker as identity.
  void merge(TruthTracker&& other);

  /// Sorted observable censor ASes.
  std::vector<topo::AsId> observable() const {
    return {observable_.begin(), observable_.end()};
  }

  /// Checkpoint support (analysis/checkpoint.h): persists the
  /// observable set; the registry/platform references are
  /// reconstruction-time wiring.  load() throws util::SerdeError for an
  /// AS that is not a censor of the registry.
  void save(util::ByteWriter& w) const;
  void load(util::ByteReader& r);

 private:
  // Pointers, so trackers are assignable.
  const censor::CensorRegistry* registry_;
  const iclab::Platform* platform_;
  std::set<topo::AsId> observable_;
};

}  // namespace ct::analysis
