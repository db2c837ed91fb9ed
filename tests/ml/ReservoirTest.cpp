//===- tests/ml/ReservoirTest.cpp --------------------------------------------=//
//
// The stream sampler feeding the adaptive retrain loop: it must be
// exactly the last-Capacity sliding window (arrival order), and reset()
// must restart the ring so a refill reproduces the same samples.
//
//===----------------------------------------------------------------------===//

#include "ml/Reservoir.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

using namespace pbt;
using namespace pbt::ml;

namespace {

TEST(ReservoirTest, RecentPolicyKeepsLastCapacityInArrivalOrder) {
  Reservoir R(4);
  EXPECT_EQ(R.sample(), std::vector<size_t>());
  for (size_t I = 0; I != 3; ++I)
    R.add(I);
  EXPECT_FALSE(R.full());
  EXPECT_EQ(R.sample(), (std::vector<size_t>{0, 1, 2}));
  for (size_t I = 3; I != 10; ++I)
    R.add(I);
  EXPECT_TRUE(R.full());
  EXPECT_EQ(R.seen(), 10u);
  EXPECT_EQ(R.sample(), (std::vector<size_t>{6, 7, 8, 9}));
}

TEST(ReservoirTest, RecentPolicyAfterShiftHoldsOnlyPostShiftTraffic) {
  // The property the adaptation loop relies on: once the window length
  // has passed since a regime change, nothing pre-change remains.
  Reservoir R(8);
  for (size_t I = 0; I != 100; ++I)
    R.add(1); // old regime
  for (size_t I = 0; I != 8; ++I)
    R.add(2); // new regime
  std::vector<size_t> S = R.sample();
  EXPECT_EQ(S.size(), 8u);
  EXPECT_TRUE(std::all_of(S.begin(), S.end(),
                          [](size_t V) { return V == 2; }));
  EXPECT_EQ(R.distinctCount(), 1u);
}

TEST(ReservoirTest, ResetRestartsTheDeterministicState) {
  // 203 adds leave the ring cursor mid-buffer; a reset must rewind it,
  // or the refill below would unroll from a stale cursor.
  Reservoir A(8);
  std::vector<std::vector<size_t>> First;
  for (size_t I = 0; I != 203; ++I) {
    A.add(I);
    First.push_back(A.sample());
  }
  ASSERT_EQ(First.back(),
            (std::vector<size_t>{195, 196, 197, 198, 199, 200, 201, 202}));
  A.reset();
  EXPECT_EQ(A.size(), 0u);
  EXPECT_EQ(A.seen(), 0u);
  EXPECT_EQ(A.sample(), std::vector<size_t>());
  for (size_t I = 0; I != 203; ++I) {
    A.add(I);
    EXPECT_EQ(A.sample(), First[I]) << "after " << I + 1 << " adds";
  }
}

TEST(ReservoirTest, DistinctCountAndZeroCapacity) {
  Reservoir R(6);
  for (size_t V : {3u, 1u, 3u, 2u, 1u, 3u})
    R.add(V);
  EXPECT_EQ(R.distinctCount(), 3u);

  Reservoir Zero(0);
  Zero.add(1);
  EXPECT_EQ(Zero.size(), 0u);
  EXPECT_EQ(Zero.seen(), 0u);
}

TEST(ReservoirTest, SampleIntoMatchesSampleAndReusesTheBuffer) {
  Reservoir R(4);
  std::vector<size_t> Buf;
  for (size_t V = 0; V != 11; ++V) {
    R.add(V);
    R.sampleInto(Buf);
    EXPECT_EQ(Buf, R.sample()) << "after " << V + 1 << " adds";
  }
  // The buffer keeps its capacity across rounds (the adaptive loop's
  // allocation-churn fix); refills never grow past the reservoir.
  size_t Cap = Buf.capacity();
  R.sampleInto(Buf);
  EXPECT_EQ(Buf.capacity(), Cap);
}

} // namespace
