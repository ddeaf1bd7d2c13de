#include <gtest/gtest.h>

#include <sstream>

#include "../support/dimacs_reader.h"
#include "tomo/cnf_builder.h"

namespace ct::sat {
namespace {

using test::from_dimacs_string;
using tomo::to_dimacs_string;

Lit pos(Var v) { return Lit(v, false); }
Lit neg(Var v) { return Lit(v, true); }

TEST(Dimacs, WriteBasic) {
  Cnf cnf;
  cnf.num_vars = 3;
  cnf.add_clause({pos(0), neg(1)});
  cnf.add_clause({pos(2)});
  const std::string s = to_dimacs_string(cnf, {"a comment"});
  EXPECT_NE(s.find("c a comment"), std::string::npos);
  EXPECT_NE(s.find("p cnf 3 2"), std::string::npos);
  EXPECT_NE(s.find("1 -2 0"), std::string::npos);
  EXPECT_NE(s.find("3 0"), std::string::npos);
}

TEST(Dimacs, RoundTrip) {
  Cnf cnf;
  cnf.num_vars = 4;
  cnf.add_clause({pos(0), neg(1), pos(3)});
  cnf.add_clause({neg(0)});
  cnf.add_clause({pos(1), pos(2)});
  const Cnf back = from_dimacs_string(to_dimacs_string(cnf));
  ASSERT_EQ(back.num_vars, cnf.num_vars);
  ASSERT_EQ(back.clauses.size(), cnf.clauses.size());
  for (std::size_t i = 0; i < cnf.clauses.size(); ++i) {
    EXPECT_EQ(back.clauses[i], cnf.clauses[i]);
  }
}

TEST(Dimacs, ReadIgnoresComments) {
  const Cnf cnf = from_dimacs_string("c hello\nc world\np cnf 2 1\n1 2 0\n");
  EXPECT_EQ(cnf.num_vars, 2);
  ASSERT_EQ(cnf.clauses.size(), 1u);
  EXPECT_EQ(cnf.clauses[0].size(), 2u);
}

TEST(Dimacs, ReadMultipleClausesPerLine) {
  const Cnf cnf = from_dimacs_string("p cnf 2 2\n1 0 -2 0\n");
  ASSERT_EQ(cnf.clauses.size(), 2u);
  EXPECT_EQ(cnf.clauses[0][0].to_dimacs(), 1);
  EXPECT_EQ(cnf.clauses[1][0].to_dimacs(), -2);
}

TEST(Dimacs, NegativeLiteralsParse) {
  const Cnf cnf = from_dimacs_string("p cnf 3 1\n-1 -2 -3 0\n");
  for (const Lit l : cnf.clauses[0]) EXPECT_TRUE(l.negated());
}

TEST(Dimacs, ErrorMissingHeader) {
  EXPECT_THROW(from_dimacs_string("1 2 0\n"), std::runtime_error);
  EXPECT_THROW(from_dimacs_string(""), std::runtime_error);
}

TEST(Dimacs, ErrorLiteralOutOfRange) {
  EXPECT_THROW(from_dimacs_string("p cnf 2 1\n3 0\n"), std::runtime_error);
}

TEST(Dimacs, ErrorUnterminatedClause) {
  EXPECT_THROW(from_dimacs_string("p cnf 2 1\n1 2\n"), std::runtime_error);
}

TEST(Dimacs, ErrorMalformedProblemLine) {
  EXPECT_THROW(from_dimacs_string("p sat 2 1\n1 0\n"), std::runtime_error);
  EXPECT_THROW(from_dimacs_string("p cnf -2 1\n1 0\n"), std::runtime_error);
}

TEST(Dimacs, ErrorSecondProblemLine) {
  // The second header would shrink num_vars below the parsed literal 40,
  // which the solver would then index out of range.
  EXPECT_THROW(from_dimacs_string("p cnf 40 1\n40 0\np cnf 1 1\n"), std::runtime_error);
  EXPECT_THROW(from_dimacs_string("p cnf 2 1\np cnf 2 1\n1 0\n"), std::runtime_error);
}

TEST(Dimacs, ErrorVarCountBeyondLitRange) {
  // Variable 1500000000 would overflow Lit's 2 * v encoding.
  EXPECT_THROW(from_dimacs_string("p cnf 2000000000 1\n1500000000 0\n"), std::runtime_error);
  EXPECT_THROW(from_dimacs_string("p cnf 1073741825 0\n"), std::runtime_error);
  // kMaxVars itself is fine: its last variable has the largest code.
  const Cnf edge = from_dimacs_string("p cnf 1073741824 1\n-1073741824 0\n");
  EXPECT_EQ(edge.num_vars, kMaxVars);
  ASSERT_EQ(edge.clauses.size(), 1u);
  EXPECT_EQ(edge.clauses[0][0].var(), kMaxVars - 1);
  EXPECT_EQ(edge.clauses[0][0].to_dimacs(), -1073741824);
}

TEST(Dimacs, LitDimacsConversionRoundTrip) {
  for (std::int32_t d : {1, -1, 5, -5, 100, -100}) {
    EXPECT_EQ(Lit::from_dimacs(d).to_dimacs(), d);
  }
}

}  // namespace
}  // namespace ct::sat
