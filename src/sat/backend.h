// Per-slot verdict counters, kept only for the benchmark.
//
// Every tomography verdict is computed in closed form (tomo/engine.h),
// with no SAT search, and is counted as served in slot
// tomo::EngineStats::kClosedFormSlot.  perfbench reads five slots
// (sat.served.{cdcl,count,unitprop,ipasir,portfolio}) and the
// escalation counts (sat.escalated), so the array keeps that shape; a
// `[benchmark]` PR drops both.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ct::sat {

/// Slots of the per-slot counter arrays.
inline constexpr std::size_t kNumBackendKinds = 5;

struct BackendCounters {
  std::uint64_t served = 0;     // CNFs whose verdict this slot computed
  std::uint64_t escalated = 0;  // always 0

  bool operator==(const BackendCounters&) const = default;
};

}  // namespace ct::sat
