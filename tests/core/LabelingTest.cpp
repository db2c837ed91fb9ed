//===- tests/core/LabelingTest.cpp -------------------------------------------=//

#include "core/Labeling.h"

#include <gtest/gtest.h>

using namespace pbt;
using namespace pbt::core;
using runtime::AccuracySpec;

namespace {

/// 3 inputs x 3 landmarks with handcrafted time/accuracy values.
struct Tables {
  linalg::Matrix Time{3, 3};
  linalg::Matrix Acc{3, 3};
};

Tables makeTables() {
  Tables T;
  // Times: row i has minimum at column i.
  double Times[3][3] = {{1, 5, 9}, {7, 2, 9}, {8, 6, 3}};
  // Accuracy: landmark 0 fails on input 0; all pass elsewhere.
  double Accs[3][3] = {{0.5, 0.99, 0.99}, {0.99, 0.99, 0.99},
                       {0.99, 0.99, 0.99}};
  for (size_t I = 0; I != 3; ++I)
    for (size_t J = 0; J != 3; ++J) {
      T.Time.at(I, J) = Times[I][J];
      T.Acc.at(I, J) = Accs[I][J];
    }
  return T;
}

TEST(LabelingTest, TimeOnlyPicksArgmin) {
  Tables T = makeTables();
  EXPECT_EQ(bestLandmark(T.Time, T.Acc, 0, std::nullopt), 0u);
  EXPECT_EQ(bestLandmark(T.Time, T.Acc, 1, std::nullopt), 1u);
  EXPECT_EQ(bestLandmark(T.Time, T.Acc, 2, std::nullopt), 2u);
}

TEST(LabelingTest, AccuracyRuleSkipsFailingLandmark) {
  Tables T = makeTables();
  AccuracySpec Spec{0.9, 0.95};
  // Input 0: landmark 0 is fastest but fails accuracy -> landmark 1.
  EXPECT_EQ(bestLandmark(T.Time, T.Acc, 0, Spec), 1u);
}

TEST(LabelingTest, FallsBackToMostAccurateWhenNoneMeets) {
  linalg::Matrix Time(1, 3), Acc(1, 3);
  Time.at(0, 0) = 1;
  Time.at(0, 1) = 2;
  Time.at(0, 2) = 3;
  Acc.at(0, 0) = 0.2;
  Acc.at(0, 1) = 0.8;
  Acc.at(0, 2) = 0.5;
  AccuracySpec Spec{0.9, 0.95};
  EXPECT_EQ(bestLandmark(Time, Acc, 0, Spec), 1u);
}

TEST(LabelingTest, FallbackTieBreaksByTime) {
  linalg::Matrix Time(1, 2), Acc(1, 2);
  Time.at(0, 0) = 9;
  Time.at(0, 1) = 2;
  Acc.at(0, 0) = 0.5;
  Acc.at(0, 1) = 0.5;
  AccuracySpec Spec{0.9, 0.95};
  EXPECT_EQ(bestLandmark(Time, Acc, 0, Spec), 1u);
}

TEST(LabelingTest, BestLandmarkWithinSubset) {
  Tables T = makeTables();
  EXPECT_EQ(bestLandmarkWithin(T.Time, T.Acc, 0, {1, 2}, std::nullopt), 1u);
  EXPECT_EQ(bestLandmarkWithin(T.Time, T.Acc, 2, {0, 1}, std::nullopt), 1u);
}

TEST(LabelingTest, LabelRowsMapsEveryRow) {
  Tables T = makeTables();
  std::vector<unsigned> L = labelAllRows(T.Time, T.Acc, std::nullopt);
  EXPECT_EQ(L, (std::vector<unsigned>{0, 1, 2}));
}

TEST(LabelingTest, SatisfactionCountsMeetingRows) {
  Tables T = makeTables();
  AccuracySpec Spec{0.9, 0.95};
  EXPECT_NEAR(satisfactionOf(T.Acc, {0, 1, 2}, 0, Spec), 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(satisfactionOf(T.Acc, {0, 1, 2}, 1, Spec), 1.0);
  EXPECT_DOUBLE_EQ(satisfactionOf(T.Acc, {0, 1, 2}, 1, std::nullopt), 1.0);
}

TEST(LabelingTest, StaticOracleMinimisesTotalTimeWithoutAccuracy) {
  Tables T = makeTables();
  // Totals: L0 = 16, L1 = 13, L2 = 21.
  EXPECT_EQ(selectStaticOracle(T.Time, T.Acc, {0, 1, 2}, std::nullopt), 1u);
}

TEST(LabelingTest, StaticOracleRespectsSatisfactionThreshold) {
  Tables T = makeTables();
  AccuracySpec Spec{0.9, 0.95};
  // Landmark 0 fails on 1/3 of inputs (satisfaction 0.67 < 0.95); even
  // though its total time beats landmark 2, only 1 and 2 qualify.
  EXPECT_EQ(selectStaticOracle(T.Time, T.Acc, {0, 1, 2}, Spec), 1u);
}

TEST(LabelingTest, StaticOracleFallsBackToHighestSatisfaction) {
  linalg::Matrix Time(2, 2), Acc(2, 2);
  Time.at(0, 0) = 1;
  Time.at(0, 1) = 2;
  Time.at(1, 0) = 1;
  Time.at(1, 1) = 2;
  Acc.at(0, 0) = 0.0;
  Acc.at(0, 1) = 0.99;
  Acc.at(1, 0) = 0.0;
  Acc.at(1, 1) = 0.0;
  AccuracySpec Spec{0.9, 0.95};
  // Neither reaches 95% satisfaction; landmark 1 satisfies half, landmark
  // 0 none.
  EXPECT_EQ(selectStaticOracle(Time, Acc, {0, 1}, Spec), 1u);
}

} // namespace
