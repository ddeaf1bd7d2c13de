#include "bgp/churn.h"

#include <stdexcept>

namespace ct::bgp {

ChurnEngine::ChurnEngine(const topo::AsGraph& graph, const ChurnConfig& config,
                         std::uint64_t seed)
    : graph_(graph),
      config_(config),
      rng_(util::mix64(seed, 0xC0FFEE)),
      up_(static_cast<std::size_t>(graph.num_links()), true) {}

std::int64_t ChurnEngine::advance() {
  for (const auto& link : graph_.links()) {
    const auto i = static_cast<std::size_t>(link.id);
    if (up_[i]) {
      const double p =
          link.is_volatile ? config_.volatile_fail_prob : config_.stable_fail_prob;
      if (rng_.bernoulli(p)) {
        up_[i] = false;
        ++links_down_;
        ++total_failures_;
      }
    } else if (rng_.bernoulli(config_.repair_prob)) {
      up_[i] = true;
      --links_down_;
      ++total_repairs_;
    }
  }
  return ++epoch_;
}

void ChurnEngine::advance_to(std::int64_t target_epoch) {
  if (target_epoch < epoch_) {
    throw std::invalid_argument("ChurnEngine::advance_to: cannot rewind");
  }
  while (epoch_ < target_epoch) advance();
}

ChurnTrajectory::ChurnTrajectory(const topo::AsGraph& graph, const ChurnConfig& config,
                                 std::uint64_t seed, std::int64_t num_epochs) {
  if (num_epochs < 1) throw std::invalid_argument("ChurnTrajectory: num_epochs < 1");
  const auto epochs = static_cast<std::size_t>(num_epochs);
  offsets_.reserve(epochs + 1);
  failures_.reserve(epochs);
  repairs_.reserve(epochs);
  ChurnEngine engine(graph, config, seed);
  std::vector<bool> before = engine.link_up();
  offsets_.assign(2, 0);  // epoch 0 flips nothing
  failures_.push_back(0);
  repairs_.push_back(0);
  states_.push_back(before);
  for (std::int64_t e = 1; e < num_epochs; ++e) {
    engine.advance();
    const std::vector<bool>& up = engine.link_up();
    for (std::size_t i = 0; i < up.size(); ++i) {
      if (up[i] != before[i]) flips_.push_back(static_cast<topo::LinkId>(i));
    }
    offsets_.push_back(flips_.size());
    failures_.push_back(engine.total_failures());
    repairs_.push_back(engine.total_repairs());
    if (e % kStateStride == 0) states_.push_back(up);
    before = up;
  }
}

std::size_t ChurnTrajectory::index(std::int64_t epoch) const {
  if (epoch < 0 || epoch >= num_epochs()) {
    throw std::out_of_range("ChurnTrajectory: epoch outside the recording");
  }
  return static_cast<std::size_t>(epoch);
}

std::span<const topo::LinkId> ChurnTrajectory::flips(std::int64_t epoch) const {
  const std::size_t e = index(epoch);
  return std::span<const topo::LinkId>(flips_).subspan(offsets_[e], offsets_[e + 1] - offsets_[e]);
}

void ChurnTrajectory::link_state_at(std::int64_t epoch, std::vector<bool>& up) const {
  const std::int64_t base = static_cast<std::int64_t>(index(epoch)) / kStateStride;
  up = states_[static_cast<std::size_t>(base)];
  for (std::int64_t e = base * kStateStride + 1; e <= epoch; ++e) step(e, up);
}

void ChurnTrajectory::step(std::int64_t epoch, std::vector<bool>& up) const {
  for (const topo::LinkId link : flips(epoch)) up[static_cast<std::size_t>(link)].flip();
}

std::int64_t ChurnTrajectory::total_failures(std::int64_t epoch) const {
  return failures_[index(epoch)];
}

std::int64_t ChurnTrajectory::total_repairs(std::int64_t epoch) const {
  return repairs_[index(epoch)];
}

std::int32_t ChurnTrajectory::links_down(std::int64_t epoch) const {
  const std::size_t e = index(epoch);
  return static_cast<std::int32_t>(failures_[e] - repairs_[e]);
}

}  // namespace ct::bgp
