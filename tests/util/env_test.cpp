// Fail-fast environment parsing (util/env.h): unset -> fallback, a
// recognized value -> parsed, an unrecognized value -> EnvParseError
// naming the variable.  The execution-mode knobs (CT_SAT_BACKEND,
// CT_SAT_PORTFOLIO) select between configurations that must produce
// identical results, so a typo'd value silently falling back would test
// the wrong configuration while passing — the bug this layer fixes.
#include "util/env.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>

namespace ct::util {
namespace {

constexpr const char* kVar = "CT_ENV_TEST_VAR";

class EnvTest : public ::testing::Test {
 protected:
  void TearDown() override { unsetenv(kVar); }
};

TEST_F(EnvTest, EnvStringDistinguishesUnsetFromEmpty) {
  unsetenv(kVar);
  EXPECT_FALSE(env_string(kVar).has_value());
  ASSERT_EQ(setenv(kVar, "", 1), 0);
  ASSERT_TRUE(env_string(kVar).has_value());
  EXPECT_EQ(*env_string(kVar), "");
  ASSERT_EQ(setenv(kVar, "x", 1), 0);
  EXPECT_EQ(*env_string(kVar), "x");
}

TEST_F(EnvTest, ParseBoolAcceptsCanonicalSpellings) {
  for (const char* on : {"1", "true", "on"}) {
    EXPECT_EQ(parse_bool(on), std::optional<bool>(true)) << on;
  }
  for (const char* off : {"0", "false", "off"}) {
    EXPECT_EQ(parse_bool(off), std::optional<bool>(false)) << off;
  }
  for (const char* bad : {"", "2", "yes", "no", "TRUE", "noo", " 1"}) {
    EXPECT_FALSE(parse_bool(bad).has_value()) << bad;
  }
}

TEST_F(EnvTest, EnvParseBoolUnsetYieldsFallback) {
  unsetenv(kVar);
  EXPECT_TRUE(env_parse_bool(kVar, true));
  EXPECT_FALSE(env_parse_bool(kVar, false));
}

TEST_F(EnvTest, EnvParseBoolSetOverridesFallback) {
  ASSERT_EQ(setenv(kVar, "0", 1), 0);
  EXPECT_FALSE(env_parse_bool(kVar, true));
  ASSERT_EQ(setenv(kVar, "on", 1), 0);
  EXPECT_TRUE(env_parse_bool(kVar, false));
}

TEST_F(EnvTest, EnvParseBoolRejectsGarbageInsteadOfFallingBack) {
  ASSERT_EQ(setenv(kVar, "noo", 1), 0);
  EXPECT_THROW(env_parse_bool(kVar, true), EnvParseError);
  // An empty value counts as set — and fails the strict parser.
  ASSERT_EQ(setenv(kVar, "", 1), 0);
  EXPECT_THROW(env_parse_bool(kVar, false), EnvParseError);
}

TEST_F(EnvTest, ErrorNamesVariableAndValue) {
  ASSERT_EQ(setenv(kVar, "bogus", 1), 0);
  try {
    env_parse_bool(kVar, true);
    FAIL() << "expected EnvParseError";
  } catch (const EnvParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(kVar), std::string::npos) << what;
    EXPECT_NE(what.find("bogus"), std::string::npos) << what;
  }
}

TEST_F(EnvTest, ErrorListsAcceptedValuesWhenProvided) {
  // The fix should be in the message, not a grep through the README:
  // env_parse_bool always lists the canonical spellings...
  ASSERT_EQ(setenv(kVar, "bogus", 1), 0);
  try {
    env_parse_bool(kVar, true);
    FAIL() << "expected EnvParseError";
  } catch (const EnvParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("accepted:"), std::string::npos) << what;
    EXPECT_NE(what.find("0/false/off"), std::string::npos) << what;
    EXPECT_NE(what.find("1/true/on"), std::string::npos) << what;
  }
  // ...and generic env_parse relays whatever the caller declares.
  const auto parse_digit = [](std::string_view v) -> std::optional<int> {
    if (v.size() == 1 && v[0] >= '0' && v[0] <= '9') return v[0] - '0';
    return std::nullopt;
  };
  try {
    env_parse(kVar, 7, parse_digit, "a single digit 0..9");
    FAIL() << "expected EnvParseError";
  } catch (const EnvParseError& e) {
    EXPECT_NE(std::string(e.what()).find("a single digit 0..9"), std::string::npos)
        << e.what();
  }
}

TEST_F(EnvTest, ErrorOmitsAcceptedClauseWhenNoneDeclared) {
  ASSERT_EQ(setenv(kVar, "33", 1), 0);
  const auto parse_digit = [](std::string_view v) -> std::optional<int> {
    if (v.size() == 1 && v[0] >= '0' && v[0] <= '9') return v[0] - '0';
    return std::nullopt;
  };
  try {
    env_parse(kVar, 7, parse_digit);
    FAIL() << "expected EnvParseError";
  } catch (const EnvParseError& e) {
    EXPECT_EQ(std::string(e.what()).find("accepted"), std::string::npos) << e.what();
  }
}

TEST_F(EnvTest, EnvParseGenericParserAndFallback) {
  const auto parse_digit = [](std::string_view v) -> std::optional<int> {
    if (v.size() == 1 && v[0] >= '0' && v[0] <= '9') return v[0] - '0';
    return std::nullopt;
  };
  unsetenv(kVar);
  EXPECT_EQ(env_parse(kVar, 7, parse_digit), 7);
  ASSERT_EQ(setenv(kVar, "3", 1), 0);
  EXPECT_EQ(env_parse(kVar, 7, parse_digit), 3);
  ASSERT_EQ(setenv(kVar, "33", 1), 0);
  EXPECT_THROW(env_parse(kVar, 7, parse_digit), EnvParseError);
}

}  // namespace
}  // namespace ct::util
