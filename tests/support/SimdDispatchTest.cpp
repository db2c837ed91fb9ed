//===- tests/support/SimdDispatchTest.cpp ------------------------------------=//
//
// The host ISA tier that benchmark host records name: every tier has a
// stable, distinct lowercase name, and the cached active tier is the
// detected one.
//
//===----------------------------------------------------------------------===//

#include "support/SimdDispatch.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

using namespace pbt;
using support::SimdTier;

namespace {

TEST(SimdDispatchTest, TierNamesAreStableAndDistinct) {
  EXPECT_STREQ(support::simdTierName(SimdTier::Scalar), "scalar");
  EXPECT_STREQ(support::simdTierName(SimdTier::Sse42), "sse42");
  EXPECT_STREQ(support::simdTierName(SimdTier::Avx2), "avx2");
  std::set<std::string> Names;
  for (SimdTier Tier : {SimdTier::Scalar, SimdTier::Sse42, SimdTier::Avx2})
    Names.insert(support::simdTierName(Tier));
  EXPECT_EQ(Names.size(), 3u);
  EXPECT_EQ(support::activeSimdTier(), support::detectSimdTier());
}

} // namespace
