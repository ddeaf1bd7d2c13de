#include "analysis/truth_tracker.h"

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
  const iclab::Url& url = urls[static_cast<std::size_t>(m.url_id)];
  for (const censor::Anomaly a : censor::kAllAnomalies) {
    const auto ai = static_cast<std::size_t>(a);
    if (!m.truth_censored[ai] || !m.detected[ai]) continue;
    const topo::AsId censor =
        registry_->first_censor_on_path(m.truth_path, url.category, a, m.day);
    if (censor != topo::kInvalidAs) observable_.insert(censor);
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
