// Randomized agreement of both SAT routes with a brute-force truth
// table: on random small CNFs, SolverSession's queries (decided by unit
// propagation or escalated to CDCL enumeration) and the standalone
// UnitPropPresolver's outcomes must match the referee.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "../support/fuzz_seed.h"
#include "sat/backend.h"
#include "sat/session.h"
#include "util/rng.h"

namespace ct::sat {
namespace {

Lit pos(Var v) { return Lit(v, false); }
Lit neg(Var v) { return Lit(v, true); }

bool clause_satisfied(const std::vector<Lit>& clause, std::uint32_t assignment) {
  for (const Lit l : clause) {
    const bool value = (assignment >> l.var()) & 1u;
    if (value != l.negated()) return true;
  }
  return false;
}

/// Ground truth by exhausting all 2^num_vars assignments.
struct Oracle {
  std::uint64_t count = 0;
  std::uint32_t ever_true = 0;  // bitmask of vars true in some model
  std::uint32_t last_model = 0;  // the model, when count == 1

  explicit Oracle(const Cnf& cnf) {
    for (std::uint32_t a = 0; a < (1u << cnf.num_vars); ++a) {
      bool sat = true;
      for (const auto& clause : cnf.clauses) {
        if (!clause_satisfied(clause, a)) {
          sat = false;
          break;
        }
      }
      if (sat) {
        ++count;
        ever_true |= a;
        last_model = a;
      }
    }
  }
};

/// A model (one literal per variable) as a bitmask of its True vars.
std::uint32_t model_bits(const std::vector<Lit>& model) {
  std::uint32_t bits = 0;
  for (const Lit l : model) {
    if (!l.negated()) bits |= 1u << l.var();
  }
  return bits;
}

/// Tomography-shaped random CNF (positive disjunctions + negative
/// units + a few mixed clauses), as the engine's CNFs look.
Cnf random_cnf(util::Rng& rng, std::int32_t num_vars) {
  Cnf cnf;
  cnf.num_vars = num_vars;
  const std::int64_t positives = rng.uniform_int(1, 4);
  for (std::int64_t i = 0; i < positives; ++i) {
    std::vector<Lit> clause;
    const std::int64_t width = rng.uniform_int(1, 4);
    for (std::int64_t k = 0; k < width; ++k) {
      clause.push_back(pos(static_cast<Var>(rng.index(static_cast<std::size_t>(num_vars)))));
    }
    cnf.add_clause(std::move(clause));
  }
  const std::int64_t negatives = rng.uniform_int(0, num_vars);
  for (std::int64_t i = 0; i < negatives; ++i) {
    cnf.add_clause({neg(static_cast<Var>(rng.index(static_cast<std::size_t>(num_vars))))});
  }
  const std::int64_t mixed = rng.uniform_int(0, 2);
  for (std::int64_t i = 0; i < mixed; ++i) {
    std::vector<Lit> clause;
    const std::int64_t width = rng.uniform_int(1, 3);
    for (std::int64_t k = 0; k < width; ++k) {
      clause.emplace_back(static_cast<Var>(rng.index(static_cast<std::size_t>(num_vars))),
                          rng.bernoulli(0.5));
    }
    cnf.add_clause(std::move(clause));
  }
  return cnf;
}

TEST(BackendFuzz, CounterSessionAndUnitPropAgreeOnRandomCnfs) {
  const std::uint64_t seed = ct::test::fuzz_seed(20260730);
  SCOPED_TRACE(ct::test::fuzz_trace(seed));
  util::Rng rng(seed);
  std::int64_t presolve_decided = 0;
  std::int64_t escalated = 0;

  for (int round = 0; round < 200; ++round) {
    SCOPED_TRACE("round=" + std::to_string(round));
    const auto num_vars = static_cast<std::int32_t>(rng.uniform_int(2, 10));
    const Cnf cnf = random_cnf(rng, num_vars);
    const Oracle oracle(cnf);

    // The session on whichever route the CNF takes: a decided presolve,
    // or CDCL enumeration after an escalation.
    SolverSession session(cnf);
    (session.presolved() ? presolve_decided : escalated) += 1;
    const SolutionClassification cls = session.classify();
    EXPECT_EQ(cls.solution_class, static_cast<int>(std::min<std::uint64_t>(oracle.count, 2)));
    if (oracle.count == 1) {
      ASSERT_TRUE(cls.unique_model.has_value());
      EXPECT_EQ(model_bits(*cls.unique_model), oracle.last_model);
    }
    EXPECT_EQ(session.count_models_capped(3), std::min<std::uint64_t>(oracle.count, 3));
    EXPECT_EQ(session.count_models_capped(0), oracle.count);
    const PotentialTrueResult split = session.potential_true_vars();
    EXPECT_EQ(split.satisfiable, oracle.count > 0);
    std::uint32_t ever_true = 0;
    for (const Var v : split.potential_true) ever_true |= 1u << v;
    EXPECT_EQ(ever_true, oracle.ever_true);
    EXPECT_EQ(split.potential_true.size() + split.always_false.size(),
              split.satisfiable ? static_cast<std::size_t>(num_vars) : 0u);

    // The presolver on its own: a decided outcome is oracle-exact, and
    // it decides exactly the CNFs the session served without search.
    UnitPropPresolver presolver;
    const Presolve* outcome = presolver.presolve(cnf);
    EXPECT_EQ(outcome != nullptr, session.presolved());
    if (outcome != nullptr) {
      EXPECT_EQ(outcome->solution_class,
                static_cast<int>(std::min<std::uint64_t>(oracle.count, 2)));
      if (outcome->solution_class > 0) {
        EXPECT_EQ(std::uint64_t{1} << outcome->free_vars, oracle.count);
        for (Var v = 0; v < num_vars; ++v) {
          const bool can_be_true = (oracle.ever_true >> v) & 1u;
          EXPECT_EQ(outcome->values[static_cast<std::size_t>(v)] != LBool::kFalse,
                    can_be_true)
              << "var " << v;
        }
      }
    }
  }

  // The generator must exercise both routes, or the suite proves nothing.
  EXPECT_GT(presolve_decided, 0) << "no CNF was decided by unit propagation";
  EXPECT_GT(escalated, 0) << "no CNF escalated to CDCL";
}

}  // namespace
}  // namespace ct::sat
