//===- tests/ml/DecisionTreeTest.cpp -----------------------------------------=//

#include "ml/DecisionTree.h"

#include <gtest/gtest.h>

#include <set>

using namespace pbt;
using namespace pbt::ml;

namespace {

/// Simple threshold dataset: class = x0 > 5.
void thresholdData(linalg::Matrix &X, std::vector<unsigned> &Y, size_t N,
                   support::Rng &Rng) {
  X = linalg::Matrix(N, 2);
  Y.resize(N);
  for (size_t I = 0; I != N; ++I) {
    X.at(I, 0) = Rng.uniform(0, 10);
    X.at(I, 1) = Rng.uniform(0, 10); // irrelevant feature
    Y[I] = X.at(I, 0) > 5.0 ? 1 : 0;
  }
}

TEST(DecisionTreeTest, PureDataYieldsSingleLeaf) {
  linalg::Matrix X(5, 1, 1.0);
  std::vector<unsigned> Y(5, 2);
  DecisionTree T;
  T.fit(X, Y, 3);
  EXPECT_EQ(T.numNodes(), 1u);
  EXPECT_EQ(T.predict({0.0}), 2u);
}

TEST(DecisionTreeTest, LearnsThresholdSplit) {
  support::Rng Rng(1);
  linalg::Matrix X;
  std::vector<unsigned> Y;
  thresholdData(X, Y, 200, Rng);
  DecisionTree T;
  T.fit(X, Y, 2);
  size_t Correct = 0;
  for (size_t I = 0; I != X.rows(); ++I)
    if (T.predict({X.at(I, 0), X.at(I, 1)}) == Y[I])
      ++Correct;
  EXPECT_EQ(Correct, X.rows());
}

TEST(DecisionTreeTest, GeneralisesOnThresholdData) {
  support::Rng Rng(2);
  linalg::Matrix X;
  std::vector<unsigned> Y;
  thresholdData(X, Y, 400, Rng);
  DecisionTree T;
  T.fit(X, Y, 2);
  // Fresh points.
  size_t Correct = 0, Total = 200;
  for (size_t I = 0; I != Total; ++I) {
    double X0 = Rng.uniform(0, 10), X1 = Rng.uniform(0, 10);
    unsigned Label = X0 > 5.0 ? 1 : 0;
    // Skip points too close to the boundary to be fair.
    if (std::abs(X0 - 5.0) < 0.2) {
      ++Correct;
      continue;
    }
    if (T.predict({X0, X1}) == Label)
      ++Correct;
  }
  EXPECT_GT(Correct, Total * 95 / 100);
}

TEST(DecisionTreeTest, LearnsXorWithDepth) {
  support::Rng Rng(3);
  linalg::Matrix X(400, 2);
  std::vector<unsigned> Y(400);
  for (size_t I = 0; I != 400; ++I) {
    X.at(I, 0) = Rng.uniform(0, 1);
    X.at(I, 1) = Rng.uniform(0, 1);
    Y[I] = (X.at(I, 0) > 0.5) != (X.at(I, 1) > 0.5) ? 1 : 0;
  }
  DecisionTree T;
  DecisionTreeOptions O;
  O.MaxDepth = 6;
  T.fit(X, Y, 2, O);
  size_t Correct = 0;
  for (size_t I = 0; I != 400; ++I)
    if (T.predict({X.at(I, 0), X.at(I, 1)}) == Y[I])
      ++Correct;
  EXPECT_GT(Correct, 380u);
}

TEST(DecisionTreeTest, RespectsAllowedFeatures) {
  support::Rng Rng(4);
  linalg::Matrix X;
  std::vector<unsigned> Y;
  thresholdData(X, Y, 200, Rng);
  DecisionTree T;
  DecisionTreeOptions O;
  O.AllowedFeatures = {1}; // only the irrelevant feature
  T.fit(X, Y, 2, O);
  for (unsigned F : T.usedFeatures())
    EXPECT_EQ(F, 1u);
}

TEST(DecisionTreeTest, UsedFeaturesReportsSplitFeatures) {
  support::Rng Rng(5);
  linalg::Matrix X;
  std::vector<unsigned> Y;
  thresholdData(X, Y, 200, Rng);
  DecisionTree T;
  T.fit(X, Y, 2);
  std::vector<unsigned> Used = T.usedFeatures();
  ASSERT_FALSE(Used.empty());
  // Feature 0 fully determines the label; the root must split on it.
  EXPECT_EQ(Used[0], 0u);
}

TEST(DecisionTreeTest, DepthCapRespected) {
  support::Rng Rng(6);
  linalg::Matrix X(300, 1);
  std::vector<unsigned> Y(300);
  for (size_t I = 0; I != 300; ++I) {
    X.at(I, 0) = Rng.uniform(0, 1);
    Y[I] = static_cast<unsigned>(I % 7); // noisy labels force deep growth
  }
  DecisionTree T;
  DecisionTreeOptions O;
  O.MaxDepth = 3;
  T.fit(X, Y, 7, O);
  EXPECT_LE(T.depth(), 4u); // depth counts nodes; MaxDepth counts splits
}

TEST(DecisionTreeTest, CostMatrixChangesLeafLabels) {
  // 70 samples of class 0, 30 of class 1, indistinguishable features.
  linalg::Matrix X(100, 1, 1.0);
  std::vector<unsigned> Y(100, 0);
  for (size_t I = 70; I != 100; ++I)
    Y[I] = 1;

  DecisionTree Plain;
  Plain.fit(X, Y, 2);
  EXPECT_EQ(Plain.predict({1.0}), 0u) << "majority label without costs";

  // Make predicting 0 for a true 1 catastrophically expensive.
  CostMatrix C(2);
  C.at(1, 0) = 100.0;
  C.at(0, 1) = 1.0;
  DecisionTree Sensitive;
  DecisionTreeOptions O;
  O.Costs = &C;
  Sensitive.fit(X, Y, 2, O);
  EXPECT_EQ(Sensitive.predict({1.0}), 1u) << "cost-aware label flips";
}

TEST(DecisionTreeTest, PredictLazyMatchesDenseAndTouchesOnlyPath) {
  support::Rng Rng(7);
  linalg::Matrix X;
  std::vector<unsigned> Y;
  thresholdData(X, Y, 300, Rng);
  DecisionTree T;
  T.fit(X, Y, 2);
  for (size_t I = 0; I != 50; ++I) {
    std::vector<double> Row{Rng.uniform(0, 10), Rng.uniform(0, 10)};
    std::set<unsigned> Touched;
    unsigned Lazy = T.predictWith([&](unsigned F) {
      Touched.insert(F);
      return Row[F];
    });
    EXPECT_EQ(Lazy, T.predict(Row));
    // The irrelevant feature should rarely (ideally never) be touched.
    EXPECT_TRUE(Touched.count(0) == 1 || !Touched.empty());
  }
}

TEST(DecisionTreeTest, TrainOnSubsetOfRows) {
  support::Rng Rng(8);
  linalg::Matrix X;
  std::vector<unsigned> Y;
  thresholdData(X, Y, 100, Rng);
  // Poison the rows outside the sample: if the tree read them, accuracy
  // on the sample would collapse.
  std::vector<size_t> Sample;
  for (size_t I = 0; I != 50; ++I)
    Sample.push_back(I);
  for (size_t I = 50; I != 100; ++I)
    Y[I] = 1 - Y[I];
  DecisionTree T;
  T.fit(X, Y, 2, {}, Sample);
  size_t Correct = 0;
  for (size_t I : Sample)
    if (T.predict({X.at(I, 0), X.at(I, 1)}) == Y[I])
      ++Correct;
  EXPECT_EQ(Correct, Sample.size());
}

TEST(DecisionTreeTest, MinSamplesLeafPreventsTinyLeaves) {
  support::Rng Rng(9);
  linalg::Matrix X;
  std::vector<unsigned> Y;
  thresholdData(X, Y, 40, Rng);
  DecisionTree T;
  DecisionTreeOptions O;
  O.MinSamplesLeaf = 20;
  O.MinSamplesSplit = 40;
  T.fit(X, Y, 2, O);
  EXPECT_LE(T.numNodes(), 3u);
}

} // namespace
