// The flat-C IPASIR seam (sat/ipasir_shim.h): the ct_sat_* surface
// obeys the IPASIR contract (DIMACS literal streams, per-solve
// assumptions, 10/20 answers, val semantics), and the IpasirBackend
// adapter built on nothing but that surface serves every session query
// identically to the direct CDCL backend.
#include "sat/ipasir_shim.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "sat/session.h"
#include "util/rng.h"

namespace ct::sat {
namespace {

Cnf random_3sat(int num_vars, int num_clauses, std::uint64_t seed) {
  util::Rng rng(seed);
  Cnf cnf;
  cnf.num_vars = num_vars;
  for (int c = 0; c < num_clauses; ++c) {
    std::vector<Lit> clause;
    while (clause.size() < 3) {
      const auto v = static_cast<Var>(rng.index(static_cast<std::size_t>(num_vars)));
      bool dup = false;
      for (const Lit l : clause) dup = dup || l.var() == v;
      if (!dup) clause.emplace_back(v, rng.bernoulli(0.5));
    }
    cnf.add_clause(std::move(clause));
  }
  return cnf;
}

bool model_satisfies(const SolverBackend& backend, const Cnf& cnf) {
  for (const auto& clause : cnf.clauses) {
    bool sat = false;
    for (const Lit l : clause) {
      const LBool v = backend.model_value(l.var());
      sat = sat || (l.negated() ? v == LBool::kFalse : v == LBool::kTrue);
    }
    if (!sat) return false;
  }
  return true;
}

/// Owns a raw shim solver for the C-surface tests.
struct ShimHandle {
  ShimHandle() : solver(ct_sat_init()) {}
  ~ShimHandle() { ct_sat_release(solver); }
  void add_clause(std::initializer_list<int> lits) {
    for (const int l : lits) ct_sat_add(solver, l);
    ct_sat_add(solver, 0);
  }
  void* solver;
};

TEST(IpasirShim, SignatureIsNonEmpty) {
  const char* sig = ct_sat_signature();
  ASSERT_NE(sig, nullptr);
  EXPECT_GT(std::strlen(sig), 0u);
}

TEST(IpasirShim, ReleaseOfNullIsANoOp) { ct_sat_release(nullptr); }

TEST(IpasirShim, SolveAndValFollowTheIpasirContract) {
  ShimHandle s;
  // (1 v 2) & (-1): forces 1 false, 2 true.
  s.add_clause({1, 2});
  s.add_clause({-1});
  ASSERT_EQ(ct_sat_solve(s.solver), 10);
  EXPECT_EQ(ct_sat_val(s.solver, 1), -1) << "val returns -lit for a falsified literal";
  EXPECT_EQ(ct_sat_val(s.solver, -1), -1) << "a satisfied literal returns itself";
  EXPECT_EQ(ct_sat_val(s.solver, 2), 2);
  EXPECT_EQ(ct_sat_val(s.solver, -2), 2) << "a falsified literal returns its negation";
}

TEST(IpasirShim, AssumptionsApplyToExactlyOneSolve) {
  ShimHandle s;
  s.add_clause({1, 2});
  s.add_clause({-1});
  ct_sat_assume(s.solver, -2);  // contradicts the forced 2
  EXPECT_EQ(ct_sat_solve(s.solver), 20);
  // Per IPASIR the assumption is gone now: the formula itself is SAT.
  EXPECT_EQ(ct_sat_solve(s.solver), 10);
}

TEST(IpasirShim, PermanentClausesAccumulateToUnsat) {
  ShimHandle s;
  s.add_clause({2});
  s.add_clause({-2});
  EXPECT_EQ(ct_sat_solve(s.solver), 20);
  EXPECT_EQ(ct_sat_solve(s.solver), 20) << "clause-level UNSAT is permanent";
}

TEST(IpasirShim, VariablesMaterializeOnFirstUse) {
  ShimHandle s;
  // Touching variable 50 directly must not require declaring 1..49.
  s.add_clause({50});
  ASSERT_EQ(ct_sat_solve(s.solver), 10);
  EXPECT_EQ(ct_sat_val(s.solver, 50), 50);
  // A materialized but unconstrained variable may land either way in
  // the model (or stay unassigned) — but never crash or misreport.
  const int v7 = ct_sat_val(s.solver, 7);
  EXPECT_TRUE(v7 == 0 || v7 == 7 || v7 == -7) << v7;
  // A variable the solver has never seen at all is unassigned/free.
  EXPECT_EQ(ct_sat_val(s.solver, 99), 0);
}

TEST(IpasirBackendTest, MatchesCdclOnRandomInstances) {
  for (const std::uint64_t seed : {3ULL, 4ULL, 5ULL, 6ULL}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const Cnf cnf = random_3sat(50, 210, seed);
    CdclBackend reference;
    reference.load(cnf);
    const SolveResult expected = reference.solve({});

    IpasirBackend ipasir;
    ipasir.load(cnf);
    EXPECT_EQ(ipasir.solve({}), expected);
    if (expected == SolveResult::kSat) {
      EXPECT_TRUE(model_satisfies(ipasir, cnf));
    }
  }
}

TEST(IpasirBackendTest, AssumptionSolvesMatchCdcl) {
  const Cnf cnf = random_3sat(40, 150, 9);
  CdclBackend reference;
  IpasirBackend ipasir;
  reference.load(cnf);
  ipasir.load(cnf);
  util::Rng rng(90);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Lit> assumptions;
    for (int k = 0; k < 3; ++k) {
      assumptions.emplace_back(static_cast<Var>(rng.index(40)), rng.bernoulli(0.5));
    }
    EXPECT_EQ(ipasir.solve(assumptions), reference.solve(assumptions));
  }
}

TEST(IpasirBackendTest, SessionQueriesMatchCdclThroughTheFlatCSeam) {
  BackendPlan plan;
  plan.primary = BackendKind::kIpasir;
  plan.fallback = BackendKind::kIpasir;
  for (const std::uint64_t seed : {13ULL, 14ULL, 15ULL}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const Cnf cnf = random_3sat(30, 110, seed);

    SolverSession reference(cnf);
    SolverSession session(cnf, plan);
    ASSERT_EQ(session.active_backend(), BackendKind::kIpasir);

    const auto ref_class = reference.classify();
    const auto got_class = session.classify();
    EXPECT_EQ(got_class.solution_class, ref_class.solution_class);
    EXPECT_EQ(got_class.unique_model, ref_class.unique_model);
    EXPECT_EQ(session.count_models_capped(8), reference.count_models_capped(8));

    const auto ref_potential = reference.potential_true_vars();
    const auto got_potential = session.potential_true_vars();
    EXPECT_EQ(got_potential.satisfiable, ref_potential.satisfiable);
    EXPECT_EQ(got_potential.potential_true, ref_potential.potential_true);
    EXPECT_EQ(got_potential.always_false, ref_potential.always_false);
  }
}

}  // namespace
}  // namespace ct::sat
