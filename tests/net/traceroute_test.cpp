#include "net/traceroute.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <stdexcept>

#include "topo/generator.h"

namespace ct::net {
namespace {

/// A tiny manual world: 4 ASes with one /16 each, plus an unmapped pool.
struct MiniNet {
  AddressPlan plan;
  Ip2AsDb db;

  MiniNet() {
    plan.prefixes.resize(4);
    for (std::uint32_t as = 0; as < 4; ++as) {
      plan.prefixes[as].push_back(Prefix::make((10u << 24) | (as << 16), 16));
    }
    plan.unmapped_pool.push_back(Prefix::make((10u << 24) | (200u << 16), 16));
    db = build_ip2as(plan);
  }

  Ip4 addr(std::uint32_t as, std::uint32_t host = 1) const {
    return (10u << 24) | (as << 16) | host;
  }
  Ip4 unmapped_addr() const { return (10u << 24) | (200u << 16) | 1u; }
};

TracerouteConfig noiseless() {
  TracerouteConfig cfg;
  cfg.error_prob = 0.0;
  cfg.unresponsive_prob = 0.0;
  cfg.unmapped_prob = 0.0;
  cfg.vantage_hops_private = true;
  return cfg;
}

TEST(TracerouteEngine, ValidatesConfig) {
  MiniNet net;
  TracerouteConfig bad = noiseless();
  bad.min_hops_per_as = 0;
  EXPECT_THROW(TracerouteEngine(net.plan, bad), std::invalid_argument);
  bad = noiseless();
  bad.max_hops_per_as = 0;
  EXPECT_THROW(TracerouteEngine(net.plan, bad), std::invalid_argument);
}

TEST(TracerouteEngine, EmptyPathErrors) {
  MiniNet net;
  TracerouteEngine engine(net.plan, noiseless());
  util::Rng rng(1);
  EXPECT_TRUE(engine.trace({}, rng).error);
}

TEST(TracerouteEngine, RejectsAsOutsideThePlan) {
  // Every hop of a non-vantage AS, and the destination's final hop, is
  // drawn from that AS's prefixes: an AS id past either end of the plan
  // is out of range, and an AS that owns no prefix is a logic error.
  MiniNet net;
  net.plan.prefixes.emplace_back();  // AS 4 owns nothing
  const TracerouteEngine engine(net.plan, noiseless());
  for (const topo::AsId as : {-1, -7, 5, 1000}) {
    util::Rng rng(3);
    EXPECT_THROW(engine.trace({0, as}, rng), std::out_of_range) << "AS " << as;
  }
  util::Rng rng(3);
  try {
    engine.trace({0, 4}, rng);
    ADD_FAILURE() << "an AS without prefixes rendered a hop";
  } catch (const std::out_of_range&) {
    ADD_FAILURE() << "an AS inside the plan was refused as out of range";
  } catch (const std::logic_error&) {
  }
  EXPECT_FALSE(engine.trace({0, 3}, rng).error);
}

TEST(TracerouteEngine, NoiselessTraceInfersTailPath) {
  MiniNet net;
  TracerouteEngine engine(net.plan, noiseless());
  util::Rng rng(2);
  const std::vector<topo::AsId> path{0, 1, 2, 3};
  for (int i = 0; i < 20; ++i) {
    const Traceroute t = engine.trace(path, rng);
    ASSERT_FALSE(t.error);
    const InferenceResult r = infer_single(t, net.db);
    ASSERT_EQ(r.drop, InferenceDrop::kNone);
    // The vantage AS's hops are private, so inference starts at AS 1.
    EXPECT_EQ(r.as_path, (std::vector<topo::AsId>{1, 2, 3}));
  }
}

TEST(TracerouteEngine, PublicVantageHopsIncludeVantage) {
  MiniNet net;
  TracerouteConfig cfg = noiseless();
  cfg.vantage_hops_private = false;
  TracerouteEngine engine(net.plan, cfg);
  util::Rng rng(3);
  const Traceroute t = engine.trace({0, 1, 2}, rng);
  const InferenceResult r = infer_single(t, net.db);
  ASSERT_EQ(r.drop, InferenceDrop::kNone);
  EXPECT_EQ(r.as_path, (std::vector<topo::AsId>{0, 1, 2}));
}

TEST(TracerouteEngine, ErrorProbabilityOne) {
  MiniNet net;
  TracerouteConfig cfg = noiseless();
  cfg.error_prob = 1.0;
  TracerouteEngine engine(net.plan, cfg);
  util::Rng rng(4);
  EXPECT_TRUE(engine.trace({0, 1}, rng).error);
}

TEST(TracerouteEngine, TripleFlutterCreatesDivergence) {
  MiniNet net;
  TracerouteEngine engine(net.plan, noiseless());
  util::Rng rng(5);
  const std::vector<topo::AsId> primary{0, 1, 3};
  const std::vector<topo::AsId> alternate{0, 2, 3};
  // flutter_prob = 1: exactly one of the three follows the alternate.
  const auto triple = engine.trace_triple(primary, alternate, 1.0, rng);
  const InferenceResult r = infer_as_path(triple, net.db);
  EXPECT_EQ(r.drop, InferenceDrop::kDivergentPaths);
}

TEST(TracerouteEngine, TripleWithoutFlutterAgrees) {
  MiniNet net;
  TracerouteEngine engine(net.plan, noiseless());
  util::Rng rng(6);
  const std::vector<topo::AsId> primary{0, 1, 3};
  const auto triple = engine.trace_triple(primary, {}, 1.0, rng);
  const InferenceResult r = infer_as_path(triple, net.db);
  ASSERT_EQ(r.drop, InferenceDrop::kNone);
  EXPECT_EQ(r.as_path, (std::vector<topo::AsId>{1, 3}));
}

// ---- inference rules on hand-crafted traceroutes ----

Traceroute make_trace(std::vector<Hop> hops) {
  Traceroute t;
  t.hops = std::move(hops);
  return t;
}

TEST(Inference, Rule1NoMapping) {
  MiniNet net;
  const Traceroute t = make_trace({std::nullopt, net.unmapped_addr(), std::nullopt});
  EXPECT_EQ(infer_single(t, net.db).drop, InferenceDrop::kNoMapping);
}

TEST(Inference, Rule2TracerouteError) {
  MiniNet net;
  Traceroute t;
  t.error = true;
  EXPECT_EQ(infer_single(t, net.db).drop, InferenceDrop::kTracerouteError);
  std::array<Traceroute, 3> triple{make_trace({net.addr(1)}), t, make_trace({net.addr(1)})};
  EXPECT_EQ(infer_as_path(triple, net.db).drop, InferenceDrop::kTracerouteError);
}

TEST(Inference, Rule3GapBetweenDifferentAses) {
  MiniNet net;
  const Traceroute t =
      make_trace({net.addr(1), std::nullopt, net.addr(2)});
  EXPECT_EQ(infer_single(t, net.db).drop, InferenceDrop::kAmbiguousGap);
}

TEST(Inference, Rule3UnmappedHopAlsoAmbiguous) {
  MiniNet net;
  const Traceroute t = make_trace({net.addr(1), net.unmapped_addr(), net.addr(2)});
  EXPECT_EQ(infer_single(t, net.db).drop, InferenceDrop::kAmbiguousGap);
}

TEST(Inference, GapInsideOneAsIsBenign) {
  MiniNet net;
  const Traceroute t =
      make_trace({net.addr(1, 1), std::nullopt, net.addr(1, 2), net.addr(2)});
  const InferenceResult r = infer_single(t, net.db);
  ASSERT_EQ(r.drop, InferenceDrop::kNone);
  EXPECT_EQ(r.as_path, (std::vector<topo::AsId>{1, 2}));
}

TEST(Inference, LeadingGapIsBenign) {
  MiniNet net;
  const Traceroute t = make_trace({std::nullopt, std::nullopt, net.addr(2), net.addr(3)});
  const InferenceResult r = infer_single(t, net.db);
  ASSERT_EQ(r.drop, InferenceDrop::kNone);
  EXPECT_EQ(r.as_path, (std::vector<topo::AsId>{2, 3}));
}

TEST(Inference, TrailingGapIsBenign) {
  MiniNet net;
  const Traceroute t = make_trace({net.addr(2), net.addr(3), std::nullopt});
  const InferenceResult r = infer_single(t, net.db);
  ASSERT_EQ(r.drop, InferenceDrop::kNone);
  EXPECT_EQ(r.as_path, (std::vector<topo::AsId>{2, 3}));
}

TEST(Inference, ConsecutiveSameAsHopsCollapse) {
  MiniNet net;
  const Traceroute t =
      make_trace({net.addr(1, 1), net.addr(1, 2), net.addr(1, 3), net.addr(2, 1)});
  const InferenceResult r = infer_single(t, net.db);
  ASSERT_EQ(r.drop, InferenceDrop::kNone);
  EXPECT_EQ(r.as_path, (std::vector<topo::AsId>{1, 2}));
}

TEST(Inference, Rule4DivergentTriple) {
  MiniNet net;
  std::array<Traceroute, 3> triple{
      make_trace({net.addr(1), net.addr(3)}),
      make_trace({net.addr(1), net.addr(3)}),
      make_trace({net.addr(2), net.addr(3)}),
  };
  EXPECT_EQ(infer_as_path(triple, net.db).drop, InferenceDrop::kDivergentPaths);
}

TEST(Inference, AgreeingTripleSucceeds) {
  MiniNet net;
  std::array<Traceroute, 3> triple{
      make_trace({net.addr(1), net.addr(3)}),
      make_trace({net.addr(1, 9), net.addr(3, 8)}),
      make_trace({net.addr(1, 7), net.addr(3, 6)}),
  };
  const InferenceResult r = infer_as_path(triple, net.db);
  ASSERT_EQ(r.drop, InferenceDrop::kNone);
  EXPECT_EQ(r.as_path, (std::vector<topo::AsId>{1, 3}));
}

TEST(Inference, DropLabels) {
  EXPECT_EQ(to_string(InferenceDrop::kNone), "ok");
  EXPECT_EQ(to_string(InferenceDrop::kNoMapping), "no-ip-to-as-mapping");
  EXPECT_EQ(to_string(InferenceDrop::kTracerouteError), "traceroute-error");
  EXPECT_EQ(to_string(InferenceDrop::kAmbiguousGap), "ambiguous-gap");
  EXPECT_EQ(to_string(InferenceDrop::kDivergentPaths), "divergent-paths");
}

// Property: with hop noise but no errors/flutter, inference either drops
// the record or returns exactly the tail of the true path (never a wrong
// path).
class InferenceProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(InferenceProperty, NeverInfersAWrongPath) {
  MiniNet net;
  TracerouteConfig cfg;
  cfg.error_prob = 0.0;
  cfg.unresponsive_prob = 0.1;
  cfg.unmapped_prob = 0.05;
  TracerouteEngine engine(net.plan, cfg);
  util::Rng rng(GetParam());
  const std::vector<topo::AsId> path{0, 1, 2, 3};
  const std::vector<topo::AsId> expected_tail{1, 2, 3};
  for (int i = 0; i < 200; ++i) {
    const auto triple = engine.trace_triple(path, {}, 0.0, rng);
    const InferenceResult r = infer_as_path(triple, net.db);
    if (r.drop != InferenceDrop::kNone) continue;
    // The inferred path must be a contiguous suffix-fragment of the true
    // tail (noise can only hide leading/trailing ASes, never invent or
    // reorder them).
    ASSERT_FALSE(r.as_path.empty());
    auto it = std::search(expected_tail.begin(), expected_tail.end(), r.as_path.begin(),
                          r.as_path.end());
    EXPECT_NE(it, expected_tail.end()) << "inferred a path that is not a fragment";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InferenceProperty, ::testing::Range<std::uint64_t>(1, 11));

}  // namespace
}  // namespace ct::net
