//===- tests/serialize/NumberParseTest.cpp ---------------------------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
//
// Reader::f() and Reader::u64() against the strtod/strtoull rules they
// are defined by: a token is a double when strtod consumes all of it,
// and an unsigned integer when it does not start with a sign and
// strtoull consumes all of it without a range error. Every token of the
// seven golden models and a list of edge tokens must be accepted or
// rejected exactly as the reference says, and an accepted value must
// have the reference's bits.
//
//===----------------------------------------------------------------------===//

#include "serialize/TextFormat.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace pbt;
using namespace pbt::serialize;

namespace {

struct RefDouble {
  bool Ok;
  double V;
};

RefDouble strtodReference(const std::string &Tok) {
  char *End = nullptr;
  double V = std::strtod(Tok.c_str(), &End);
  return {End == Tok.c_str() + Tok.size(), V};
}

struct RefU64 {
  bool Ok;
  uint64_t V;
};

RefU64 strtoullReference(const std::string &Tok) {
  if (Tok[0] == '-' || Tok[0] == '+')
    return {false, 0};
  errno = 0;
  char *End = nullptr;
  unsigned long long V = std::strtoull(Tok.c_str(), &End, 10);
  return {errno == 0 && End == Tok.c_str() + Tok.size(), V};
}

uint64_t bitsOf(double V) {
  uint64_t B;
  std::memcpy(&B, &V, sizeof(B));
  return B;
}

/// Parses \p Tok as the one number of a line, through the Reader.
void expectMatchesReference(const std::string &Tok) {
  SCOPED_TRACE("token '" + Tok + "'");
  {
    Reader R("k " + Tok + "\n");
    ASSERT_EQ(R.nextKey(), "k");
    double Got = R.f();
    RefDouble Want = strtodReference(Tok);
    ASSERT_EQ(R.ok(), Want.Ok) << R.error();
    if (Want.Ok) {
      EXPECT_EQ(bitsOf(Got), bitsOf(Want.V));
      EXPECT_TRUE(R.endLine());
    }
  }
  {
    Reader R("k " + Tok + "\n");
    ASSERT_EQ(R.nextKey(), "k");
    uint64_t Got = R.u64();
    RefU64 Want = strtoullReference(Tok);
    ASSERT_EQ(R.ok(), Want.Ok) << R.error();
    if (Want.Ok) {
      EXPECT_EQ(Got, Want.V);
    }
  }
}

TEST(NumberParseTest, EdgeTokensMatchStrtodAndStrtoull) {
  const std::vector<std::string> Edge = {
      "+1", "-0", ".5", "5.", "007", "1e", "1e999", "-1e999", "1e-400",
      "4.9e-324", "2.4703282292062327e-324", "2.2250738585072014e-308",
      "1.7976931348623157e308", "1.7976931348623159e308", "inf", "-inf",
      "INFINITY", "nan", "-nan", "nan(123)", "0x1p3", "0x10", "\t1.5",
      "\t-5", "\t7", "18446744073709551615", "18446744073709551616",
      "-1", "0", "00", "1e+", "1e-", "-", ".", "+", "e5", "1.5e3x",
      "0.1", "0.30000000000000004", "123456789012345678901234567890",
      "9007199254740993", "1e23", "1E23", "-.5e-3", "1,5"};
  for (const std::string &Tok : Edge)
    expectMatchesReference(Tok);
}

TEST(NumberParseTest, GoldenTokensMatchStrtodAndStrtoull) {
  size_t Tokens = 0;
  for (const char *Family : {"binpacking", "clustering1", "clustering2",
                             "helmholtz3d", "poisson2d", "sort1", "svd"}) {
    std::ifstream In(std::string(PBT_GOLDEN_DIR) + "/" + Family + ".pbt");
    ASSERT_TRUE(In) << Family;
    std::string Line;
    while (std::getline(In, Line)) {
      std::istringstream Words(Line);
      std::string Tok;
      Words >> Tok; // the line's key
      while (Words >> Tok) {
        expectMatchesReference(Tok);
        ++Tokens;
      }
    }
  }
  EXPECT_GT(Tokens, 10000u);
}

} // namespace
