//===- tests/ml/IncrementalBayesTest.cpp -------------------------------------=//

#include "ml/IncrementalBayes.h"

#include <gtest/gtest.h>

#include <set>

using namespace pbt;
using namespace pbt::ml;

namespace {

/// Feature 0 separates the classes perfectly; feature 1 is noise.
void separableData(linalg::Matrix &X, std::vector<unsigned> &Y, size_t N,
                   support::Rng &Rng) {
  X = linalg::Matrix(N, 2);
  Y.resize(N);
  for (size_t I = 0; I != N; ++I) {
    bool ClassOne = Rng.chance(0.5);
    X.at(I, 0) = ClassOne ? Rng.uniform(10, 20) : Rng.uniform(0, 5);
    X.at(I, 1) = Rng.uniform(0, 1);
    Y[I] = ClassOne ? 1 : 0;
  }
}

TEST(IncrementalBayesTest, ClassifiesSeparableData) {
  support::Rng Rng(1);
  linalg::Matrix X;
  std::vector<unsigned> Y;
  separableData(X, Y, 300, Rng);
  IncrementalBayes B;
  B.fit(X, Y, 2, {0, 1});
  size_t Correct = 0;
  for (size_t I = 0; I != X.rows(); ++I)
    if (B.predict({X.at(I, 0), X.at(I, 1)}).Label == Y[I])
      ++Correct;
  EXPECT_GT(Correct, X.rows() * 95 / 100);
}

TEST(IncrementalBayesTest, StopsEarlyWhenFirstFeatureDecisive) {
  support::Rng Rng(2);
  linalg::Matrix X;
  std::vector<unsigned> Y;
  separableData(X, Y, 300, Rng);
  IncrementalBayes B;
  IncrementalBayesOptions O;
  O.PosteriorThreshold = 0.7;
  B.fit(X, Y, 2, {0, 1}, O);
  // A point deep inside class 1 territory should commit after feature 0.
  IncrementalPrediction P = B.predict({15.0, 0.5});
  EXPECT_EQ(P.Label, 1u);
  EXPECT_EQ(P.FeaturesUsed, 1u);
  EXPECT_GT(P.Confidence, 0.7);
}

TEST(IncrementalBayesTest, AcquiresMoreFeaturesWhenUncertain) {
  support::Rng Rng(3);
  // Feature 0 is pure noise; feature 1 separates.
  linalg::Matrix X(300, 2);
  std::vector<unsigned> Y(300);
  for (size_t I = 0; I != 300; ++I) {
    bool ClassOne = Rng.chance(0.5);
    X.at(I, 0) = Rng.uniform(0, 1);
    X.at(I, 1) = ClassOne ? Rng.uniform(10, 20) : Rng.uniform(0, 5);
    Y[I] = ClassOne ? 1 : 0;
  }
  IncrementalBayes B;
  IncrementalBayesOptions O;
  O.PosteriorThreshold = 0.9;
  B.fit(X, Y, 2, {0, 1}, O);
  IncrementalPrediction P = B.predict({0.5, 15.0});
  EXPECT_EQ(P.Label, 1u);
  EXPECT_EQ(P.FeaturesUsed, 2u) << "noise feature alone cannot reach 0.9";
}

TEST(IncrementalBayesTest, LazyAccessOnlyTouchesExaminedFeatures) {
  support::Rng Rng(4);
  linalg::Matrix X;
  std::vector<unsigned> Y;
  separableData(X, Y, 300, Rng);
  IncrementalBayes B;
  IncrementalBayesOptions O;
  O.PosteriorThreshold = 0.7;
  B.fit(X, Y, 2, {0, 1}, O);
  std::set<unsigned> Touched;
  B.predictWith([&](unsigned F) {
    Touched.insert(F);
    return F == 0 ? 15.0 : 0.5;
  });
  EXPECT_EQ(Touched.size(), 1u);
  EXPECT_TRUE(Touched.count(0));
}

TEST(IncrementalBayesTest, RespectsFeatureOrder) {
  support::Rng Rng(5);
  linalg::Matrix X;
  std::vector<unsigned> Y;
  separableData(X, Y, 200, Rng);
  IncrementalBayes B;
  B.fit(X, Y, 2, {1, 0});
  std::vector<unsigned> Accessed;
  B.predictWith([&](unsigned F) {
    Accessed.push_back(F);
    return F == 0 ? 15.0 : 0.5;
  });
  ASSERT_FALSE(Accessed.empty());
  EXPECT_EQ(Accessed[0], 1u) << "first examined feature must follow order";
}

TEST(IncrementalBayesTest, HighThresholdExaminesAllFeatures) {
  support::Rng Rng(6);
  linalg::Matrix X;
  std::vector<unsigned> Y;
  separableData(X, Y, 200, Rng);
  IncrementalBayes B;
  IncrementalBayesOptions O;
  O.PosteriorThreshold = 1.0; // unreachable
  B.fit(X, Y, 2, {0, 1}, O);
  IncrementalPrediction P = B.predict({15.0, 0.5});
  EXPECT_EQ(P.FeaturesUsed, 2u);
  EXPECT_EQ(P.Label, 1u);
}

TEST(IncrementalBayesTest, TrainOnRowSubset) {
  support::Rng Rng(7);
  linalg::Matrix X;
  std::vector<unsigned> Y;
  separableData(X, Y, 100, Rng);
  std::vector<size_t> Sample{0, 1, 2, 3, 4, 5, 6, 7, 8, 9,
                             10, 11, 12, 13, 14, 15};
  IncrementalBayes B;
  B.fit(X, Y, 2, {0, 1}, {}, Sample);
  // Still classifies clear-cut points.
  EXPECT_EQ(B.predict({15.0, 0.5}).Label, 1u);
  EXPECT_EQ(B.predict({1.0, 0.5}).Label, 0u);
}

} // namespace
