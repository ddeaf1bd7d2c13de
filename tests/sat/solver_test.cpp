#include "sat/solver.h"

#include <gtest/gtest.h>

#include "sat/types.h"

namespace ct::sat {
namespace {

Lit pos(Var v) { return Lit(v, false); }
Lit neg(Var v) { return Lit(v, true); }

TEST(Solver, EmptyFormulaIsSat) {
  Solver s;
  EXPECT_EQ(s.solve(), SolveResult::kSat);
}

TEST(Solver, SingleUnitClause) {
  Solver s;
  s.ensure_vars(1);
  ASSERT_TRUE(s.add_clause({pos(0)}));
  ASSERT_EQ(s.solve(), SolveResult::kSat);
  EXPECT_EQ(s.model_value(0), LBool::kTrue);
}

TEST(Solver, ContradictoryUnitsAreUnsat) {
  Solver s;
  s.ensure_vars(1);
  EXPECT_TRUE(s.add_clause({pos(0)}));
  EXPECT_FALSE(s.add_clause({neg(0)}));
  EXPECT_TRUE(s.is_inconsistent());
  EXPECT_EQ(s.solve(), SolveResult::kUnsat);
}

TEST(Solver, TautologyIsIgnored) {
  Solver s;
  s.ensure_vars(1);
  EXPECT_TRUE(s.add_clause({pos(0), neg(0)}));
  EXPECT_EQ(s.solve(), SolveResult::kSat);
}

TEST(Solver, DuplicateLiteralsDeduped) {
  Solver s;
  s.ensure_vars(2);
  EXPECT_TRUE(s.add_clause({pos(0), pos(0), pos(1)}));
  EXPECT_EQ(s.solve(), SolveResult::kSat);
}

TEST(Solver, SimpleImplicationChain) {
  // x0, x0->x1, x1->x2  =>  all true.
  Solver s;
  s.ensure_vars(3);
  ASSERT_TRUE(s.add_clause({pos(0)}));
  ASSERT_TRUE(s.add_clause({neg(0), pos(1)}));
  ASSERT_TRUE(s.add_clause({neg(1), pos(2)}));
  ASSERT_EQ(s.solve(), SolveResult::kSat);
  EXPECT_EQ(s.model_value(0), LBool::kTrue);
  EXPECT_EQ(s.model_value(1), LBool::kTrue);
  EXPECT_EQ(s.model_value(2), LBool::kTrue);
}

TEST(Solver, UnsatTriangle) {
  // (x0 v x1) (x0 v ~x1) (~x0 v x1) (~x0 v ~x1) is UNSAT.
  Solver s;
  s.ensure_vars(2);
  s.add_clause({pos(0), pos(1)});
  s.add_clause({pos(0), neg(1)});
  s.add_clause({neg(0), pos(1)});
  s.add_clause({neg(0), neg(1)});
  EXPECT_EQ(s.solve(), SolveResult::kUnsat);
}

TEST(Solver, ModelSatisfiesAllClauses) {
  // A formula with some structure; verify the returned model directly.
  Solver s;
  s.ensure_vars(6);
  const std::vector<std::vector<Lit>> clauses = {
      {pos(0), pos(1), pos(2)}, {neg(0), pos(3)},          {neg(1), pos(4)},
      {neg(2), pos(5)},         {neg(3), neg(4), neg(5)},  {pos(1), neg(5)},
  };
  for (const auto& c : clauses) ASSERT_TRUE(s.add_clause(c));
  ASSERT_EQ(s.solve(), SolveResult::kSat);
  for (const auto& c : clauses) {
    bool sat = false;
    for (const Lit l : c) {
      const LBool v = s.model_value(l.var());
      sat = sat || (l.negated() ? v == LBool::kFalse : v == LBool::kTrue);
    }
    EXPECT_TRUE(sat);
  }
}

// Pigeonhole principle PHP(n+1, n): n+1 pigeons in n holes, UNSAT.
// Exercises real conflict analysis, learning, and restarts.
Cnf pigeonhole(int pigeons, int holes) {
  Cnf cnf;
  cnf.num_vars = pigeons * holes;
  auto var = [holes](int p, int h) { return p * holes + h; };
  for (int p = 0; p < pigeons; ++p) {
    std::vector<Lit> c;
    for (int h = 0; h < holes; ++h) c.push_back(pos(var(p, h)));
    cnf.add_clause(c);
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        cnf.add_clause({neg(var(p1, h)), neg(var(p2, h))});
      }
    }
  }
  return cnf;
}

TEST(Solver, PigeonholeUnsat) {
  for (int n = 2; n <= 6; ++n) {
    Solver s;
    ASSERT_TRUE(s.add_cnf(pigeonhole(n + 1, n)));
    EXPECT_EQ(s.solve(), SolveResult::kUnsat) << "PHP(" << n + 1 << "," << n << ")";
  }
}

TEST(Solver, PigeonholeExactFitSat) {
  Solver s;
  ASSERT_TRUE(s.add_cnf(pigeonhole(4, 4)));
  EXPECT_EQ(s.solve(), SolveResult::kSat);
}

TEST(Solver, AssumptionsSatAndUnsat) {
  // (x0 v x1), ~x1 forced by assumption -> x0 true.
  Solver s;
  s.ensure_vars(2);
  ASSERT_TRUE(s.add_clause({pos(0), pos(1)}));
  ASSERT_EQ(s.solve({neg(1)}), SolveResult::kSat);
  EXPECT_EQ(s.model_value(0), LBool::kTrue);
  // Assuming both false is UNSAT.
  EXPECT_EQ(s.solve({neg(0), neg(1)}), SolveResult::kUnsat);
  EXPECT_FALSE(s.conflict_assumptions().empty());
  // Solver itself is still consistent.
  EXPECT_FALSE(s.is_inconsistent());
  EXPECT_EQ(s.solve(), SolveResult::kSat);
}

TEST(Solver, ConflictAssumptionsAreRelevant) {
  // x2 is irrelevant; the final conflict should only mention x0/x1.
  Solver s;
  s.ensure_vars(3);
  ASSERT_TRUE(s.add_clause({pos(0), pos(1)}));
  ASSERT_EQ(s.solve({neg(2), neg(0), neg(1)}), SolveResult::kUnsat);
  for (const Lit l : s.conflict_assumptions()) {
    EXPECT_NE(l.var(), 2);
  }
}

TEST(Solver, IncrementalAddAfterSolve) {
  Solver s;
  s.ensure_vars(2);
  ASSERT_TRUE(s.add_clause({pos(0), pos(1)}));
  ASSERT_EQ(s.solve(), SolveResult::kSat);
  ASSERT_TRUE(s.add_clause({neg(0)}));
  ASSERT_EQ(s.solve(), SolveResult::kSat);
  EXPECT_EQ(s.model_value(1), LBool::kTrue);
  ASSERT_FALSE(s.add_clause({neg(1)}) && !s.is_inconsistent());
  EXPECT_EQ(s.solve(), SolveResult::kUnsat);
}

TEST(Solver, AssumptionOnTrueLiteralStillSat) {
  Solver s;
  s.ensure_vars(1);
  ASSERT_TRUE(s.add_clause({pos(0)}));
  EXPECT_EQ(s.solve({pos(0)}), SolveResult::kSat);
  EXPECT_EQ(s.solve({neg(0)}), SolveResult::kUnsat);
}

TEST(Solver, StatsAccumulate) {
  Solver s;
  s.add_cnf(pigeonhole(6, 5));
  ASSERT_EQ(s.solve(), SolveResult::kUnsat);
  EXPECT_GT(s.stats().conflicts, 0u);
  EXPECT_GT(s.stats().decisions, 0u);
  EXPECT_GT(s.stats().propagations, 0u);
}

TEST(Solver, ManyVariablesLargeChain) {
  // Long implication chain; checks trail/watch scaling.
  constexpr int kN = 2000;
  Solver s;
  s.ensure_vars(kN);
  ASSERT_TRUE(s.add_clause({pos(0)}));
  for (int i = 0; i + 1 < kN; ++i) {
    ASSERT_TRUE(s.add_clause({neg(i), pos(i + 1)}));
  }
  ASSERT_EQ(s.solve(), SolveResult::kSat);
  EXPECT_EQ(s.model_value(kN - 1), LBool::kTrue);
}

TEST(Solver, PaperStyleCnf) {
  // Paper example: path X->Y->Z saw DNS censorship; later measurements on
  // churned paths eliminate X and Y, pinning Z as the censor.
  Solver s;
  s.ensure_vars(3);  // 0=X, 1=Y, 2=Z
  ASSERT_TRUE(s.add_clause({pos(0), pos(1), pos(2)}));  // anomaly observed
  ASSERT_TRUE(s.add_clause({neg(0)}));                  // clean path through X
  ASSERT_TRUE(s.add_clause({neg(1)}));                  // clean path through Y
  ASSERT_EQ(s.solve(), SolveResult::kSat);
  EXPECT_EQ(s.model_value(2), LBool::kTrue);
  EXPECT_EQ(s.model_value(0), LBool::kFalse);
  EXPECT_EQ(s.model_value(1), LBool::kFalse);
}

}  // namespace
}  // namespace ct::sat
