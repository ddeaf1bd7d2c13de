#include "analysis/truth_tracker.h"

#include <array>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/serde.h"

namespace ct::analysis {

void TruthTracker::on_measurement(const iclab::Measurement& m) {
  const std::vector<iclab::Url>& urls = platform_->urls();
  if (m.url_id < 0 || static_cast<std::size_t>(m.url_id) >= urls.size()) {
    throw std::out_of_range("TruthTracker: URL id outside the platform's URLs");
  }
  if (m.unreachable) return;
  bool any_detected_censored = false;
  for (std::size_t ai = 0; ai < censor::kNumAnomalies; ++ai) {
    any_detected_censored |= m.truth_censored[ai] && m.detected[ai];
  }
  if (!any_detected_censored) return;
  const iclab::Url& url = urls[static_cast<std::size_t>(m.url_id)];
  const std::array<topo::AsId, censor::kNumAnomalies> censors =
      registry_->first_censors_on_path(m.truth_path, url.category, m.day);
  for (std::size_t ai = 0; ai < censor::kNumAnomalies; ++ai) {
    if (m.truth_censored[ai] && m.detected[ai] && censors[ai] != topo::kInvalidAs) {
      observable_.insert(censors[ai]);
    }
  }
}

void TruthTracker::merge(TruthTracker&& other) {
  observable_.insert(other.observable_.begin(), other.observable_.end());
}

void TruthTracker::save(util::ByteWriter& w) const {
  util::save_set(w, observable_, [](util::ByteWriter& w, topo::AsId as) { w.i32(as); });
}

void TruthTracker::load(util::ByteReader& r) {
  util::load_set(r, observable_, [this](util::ByteReader& r) {
    const topo::AsId as = r.i32();
    if (!registry_->is_censor(as)) {
      throw util::SerdeError("TruthTracker::load: AS " + std::to_string(as) + " is no censor");
    }
    return as;
  });
}

}  // namespace ct::analysis
