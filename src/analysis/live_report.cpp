#include "analysis/live_report.h"

#include <algorithm>

#include "util/serde.h"

namespace ct::analysis {

namespace {

void save_split(util::ByteWriter& w, const SolutionSplit& split) {
  for (const std::int64_t c : split.count) w.i64(c);
}

SolutionSplit load_split(util::ByteReader& r) {
  SolutionSplit split;
  for (std::int64_t& c : split.count) c = r.i64();
  return split;
}

void save_as_counts(util::ByteWriter& w, const std::map<topo::AsId, std::int64_t>& m) {
  util::save_map(
      w, m, [](util::ByteWriter& w, topo::AsId as) { w.i32(as); },
      [](util::ByteWriter& w, std::int64_t n) { w.i64(n); });
}

util::Granularity load_granularity(util::ByteReader& r) {
  return util::load_enum<util::Granularity>(r, util::kAllGranularities.size());
}

/// A map's keys, in key order.
template <typename K, typename V>
std::vector<K> keys_of(const std::map<K, V>& m) {
  std::vector<K> keys;
  keys.reserve(m.size());
  for (const auto& [k, v] : m) keys.push_back(k);
  return keys;
}

void load_as_counts(util::ByteReader& r, std::map<topo::AsId, std::int64_t>& m) {
  util::load_map(
      r, m, [](util::ByteReader& r) { return topo::AsId{r.i32()}; },
      [](util::ByteReader& r) { return r.i64(); });
}

}  // namespace

void LiveCounts::add(const tomo::CnfVerdict& v) {
  ++cnfs;
  const auto cls = static_cast<std::size_t>(v.solution_class);
  ++overall.count[cls];
  ++by_url[v.key.url_id].count[cls];
  if (v.solution_class == 1) {
    for (const topo::AsId as : v.censors) ++exact_censor_cnfs[as];
  } else if (v.solution_class == 2) {
    for (const topo::AsId as : v.potential_censors) ++potential_censor_cnfs[as];
  }
}

void LiveCounts::save(util::ByteWriter& w) const {
  w.i64(cnfs);
  save_split(w, overall);
  util::save_map(
      w, by_url, [](util::ByteWriter& w, std::int32_t url) { w.i32(url); }, save_split);
  save_as_counts(w, exact_censor_cnfs);
  save_as_counts(w, potential_censor_cnfs);
}

void LiveCounts::load(util::ByteReader& r) {
  cnfs = r.i64();
  overall = load_split(r);
  util::load_map(
      r, by_url, [](util::ByteReader& r) { return r.i32(); }, load_split);
  load_as_counts(r, exact_censor_cnfs);
  load_as_counts(r, potential_censor_cnfs);
}

VerdictFold::VerdictFold(std::vector<util::Granularity> fig1_granularities) {
  for (const util::Granularity g : fig1_granularities) fig1_.by_granularity[g];  // fixed order
  for (const censor::Anomaly a : censor::kAllAnomalies) fig1_.by_anomaly[a];
}

void VerdictFold::add(const tomo::CnfVerdict& v) {
  counts_.add(v);
  const auto cls = static_cast<std::size_t>(v.solution_class);
  ++fig1_.by_anomaly[v.key.anomaly].count[cls];
  const auto it = fig1_.by_granularity.find(v.key.granularity);
  if (it != fig1_.by_granularity.end()) ++it->second.count[cls];

  if (v.solution_class == 2) {
    fig2_samples_.emplace_back(v.key, 100.0 * v.reduction_fraction);
    fig2_no_elimination_ += v.definite_noncensors.empty() ? 1 : 0;
  }
}

Fig1Data VerdictFold::fig1() const {
  Fig1Data fig1 = fig1_;
  fig1.overall = counts_.overall;
  return fig1;
}

Fig2Data VerdictFold::fig2() const {
  Fig2Data fig2;
  fig2.multi_solution_cnfs = static_cast<std::int64_t>(fig2_samples_.size());
  std::vector<std::pair<tomo::CnfKey, double>> samples = fig2_samples_;
  // CnfKeys are unique per run, so this is a total order — the batch
  // path's verdict order.
  std::sort(samples.begin(), samples.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  double sum = 0.0;
  fig2.reduction_percent.reserve(samples.size());
  for (const auto& [key, pct] : samples) {
    fig2.reduction_percent.push_back(pct);
    sum += pct;
  }
  if (fig2.multi_solution_cnfs > 0) {
    fig2.mean_reduction_percent = sum / static_cast<double>(fig2.multi_solution_cnfs);
    fig2.fraction_no_elimination = static_cast<double>(fig2_no_elimination_) /
                                   static_cast<double>(fig2.multi_solution_cnfs);
  }
  return fig2;
}

void VerdictFold::save(util::ByteWriter& w) const {
  counts_.save(w);
  util::save_map(
      w, fig1_.by_granularity,
      [](util::ByteWriter& w, util::Granularity g) { w.u8(static_cast<std::uint8_t>(g)); },
      save_split);
  util::save_map(
      w, fig1_.by_anomaly,
      [](util::ByteWriter& w, censor::Anomaly a) { w.u8(static_cast<std::uint8_t>(a)); },
      save_split);
  util::save_vec(w, fig2_samples_,
                 [](util::ByteWriter& w, const std::pair<tomo::CnfKey, double>& s) {
                   tomo::save_cnf_key(w, s.first);
                   w.f64(s.second);
                 });
  w.i64(fig2_no_elimination_);
}

void VerdictFold::load(util::ByteReader& r) {
  const std::vector<util::Granularity> expected_grans = keys_of(fig1_.by_granularity);
  const std::vector<censor::Anomaly> expected_anomalies = keys_of(fig1_.by_anomaly);
  counts_.load(r);
  util::load_map(r, fig1_.by_granularity, load_granularity, load_split);
  util::load_map(
      r, fig1_.by_anomaly,
      [](util::ByteReader& r) {
        return util::load_enum<censor::Anomaly>(r, censor::kNumAnomalies);
      },
      load_split);
  if (keys_of(fig1_.by_granularity) != expected_grans) {
    throw util::SerdeError("VerdictFold::load: fig1 granularity set mismatch");
  }
  if (keys_of(fig1_.by_anomaly) != expected_anomalies) {
    throw util::SerdeError("VerdictFold::load: fig1 anomaly set mismatch");
  }
  util::load_vec(r, fig2_samples_, [](util::ByteReader& r) {
    const tomo::CnfKey key = tomo::load_cnf_key(r);
    const double pct = r.f64();
    return std::make_pair(key, pct);
  });
  fig2_no_elimination_ = r.i64();
}

Fig4Fold::Fig4Fold(const std::vector<util::Granularity>& granularities) {
  for (const util::Granularity g : granularities) {
    fig4_.solution_counts.emplace(g, util::BucketedCounts(4));
  }
}

void Fig4Fold::add(const tomo::CnfVerdict& v) {
  const auto it = fig4_.solution_counts.find(v.key.granularity);
  if (it == fig4_.solution_counts.end()) return;
  it->second.add(static_cast<std::int64_t>(v.capped_count));
  ++total_;
  five_plus_ += v.capped_count >= 5 ? 1 : 0;
}

void Fig4Fold::save(util::ByteWriter& w) const {
  util::save_map(
      w, fig4_.solution_counts,
      [](util::ByteWriter& w, util::Granularity g) { w.u8(static_cast<std::uint8_t>(g)); },
      [](util::ByteWriter& w, const util::BucketedCounts& counts) { counts.save(w); });
  w.i64(five_plus_);
  w.i64(total_);
}

void Fig4Fold::load(util::ByteReader& r) {
  const std::vector<util::Granularity> expected_grans = keys_of(fig4_.solution_counts);
  util::load_map(r, fig4_.solution_counts, load_granularity, [](util::ByteReader& r) {
    util::BucketedCounts counts(4);
    counts.load(r);
    return counts;
  });
  if (keys_of(fig4_.solution_counts) != expected_grans) {
    throw util::SerdeError("Fig4Fold::load: granularity set mismatch");
  }
  five_plus_ = r.i64();
  total_ = r.i64();
}

Fig4Data Fig4Fold::finalize() const {
  Fig4Data fig4 = fig4_;
  fig4.fraction_five_plus =
      total_ == 0 ? 0.0 : static_cast<double>(five_plus_) / static_cast<double>(total_);
  return fig4;
}

void ExperimentFolds::save(util::ByteWriter& w) const {
  verdicts.save(w);
  support.save(w);
  leakage.save(w);
  fig4.save(w);
}

void ExperimentFolds::load(util::ByteReader& r, std::int32_t num_ases) {
  verdicts.load(r);
  support.load(r);
  leakage.load(r, num_ases);
  fig4.load(r);
}

}  // namespace ct::analysis
