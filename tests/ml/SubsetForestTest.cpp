//===- tests/ml/SubsetForestTest.cpp -----------------------------------------=//
//
// DecisionTree::fitSubsets grows a whole feature-subset zoo together; its
// contract is that every subset's tree is exactly the independent
// row-major fit over the same rows with the subset as AllowedFeatures.
// It is Level 2's only tree grower (the zoo and the production retrain
// alike), so that fit is the reference it answers to. The tables here are
// built to stress the tie rules that contract rests on: feature values
// from a tiny alphabet (long equal-value runs), duplicated rows,
// duplicated feature columns (equal gains on different features, so the
// subset's feature order decides), and subsets listed out of order.
//
//===----------------------------------------------------------------------===//

#include "core/LevelTwo.h"
#include "ml/Dataset.h"
#include "ml/DecisionTree.h"
#include "runtime/TunableProgram.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <string>
#include <vector>

using namespace pbt;
using namespace pbt::ml;

namespace {

struct Table {
  linalg::Matrix Features, Costs, Time, Acc;
  std::vector<unsigned> Y;
};

Table makeTable(size_t N, unsigned M, unsigned K, support::Rng &Rng) {
  Table T;
  T.Features = linalg::Matrix(N, M);
  T.Costs = linalg::Matrix(N, M, 1.0);
  T.Time = linalg::Matrix(N, K, 1.0);
  T.Acc = linalg::Matrix(N, K, 1.0);
  T.Y.resize(N);
  for (size_t R = 0; R != N; ++R) {
    for (unsigned F = 0; F != M; ++F)
      T.Features.at(R, F) = static_cast<double>(Rng.index(3));
    T.Y[R] = static_cast<unsigned>(Rng.index(K));
  }
  // Duplicate rows: a later row copies an earlier one, label included
  // or not (the same point with two labels is the worst tie of all).
  for (size_t R = 1; R != N; ++R)
    if (Rng.chance(0.25)) {
      size_t Src = Rng.index(R);
      for (unsigned F = 0; F != M; ++F)
        T.Features.at(R, F) = T.Features.at(Src, F);
      if (Rng.chance(0.5))
        T.Y[R] = T.Y[Src];
    }
  // A duplicated column: its splits tie the original's gain exactly.
  if (M >= 3) {
    unsigned Src = static_cast<unsigned>(Rng.index(M - 1));
    for (size_t R = 0; R != N; ++R)
      T.Features.at(R, M - 1) = T.Features.at(R, Src);
  }
  return T;
}

/// Every non-empty subset of \p M features in ascending order, a few of
/// them reversed, plus the empty subset (= all features).
std::vector<std::vector<unsigned>> makeSubsets(unsigned M, support::Rng &Rng) {
  std::vector<std::vector<unsigned>> Out;
  for (unsigned Mask = 1; Mask != (1u << M); ++Mask) {
    std::vector<unsigned> S;
    for (unsigned F = 0; F != M; ++F)
      if (Mask & (1u << F))
        S.push_back(F);
    if (S.size() > 1 && Rng.chance(0.3))
      std::reverse(S.begin(), S.end());
    Out.push_back(std::move(S));
  }
  Out.push_back({});
  return Out;
}

TEST(SubsetForestTest, SharedGrowthMatchesIndependentRowMajorFits) {
  support::Rng Rng(2024);
  size_t Checked = 0;
  for (unsigned Trial = 0; Trial != 40; ++Trial) {
    size_t N = 6 + Rng.index(30);
    unsigned M = 2 + static_cast<unsigned>(Rng.index(4));
    unsigned K = 2 + static_cast<unsigned>(Rng.index(3));
    Table T = makeTable(N, M, K, Rng);
    Dataset D(T.Features, T.Costs, T.Time, T.Acc, std::nullopt);
    std::vector<std::vector<unsigned>> Subsets = makeSubsets(M, Rng);

    CostMatrix Costs(K);
    for (unsigned I = 0; I != K; ++I)
      for (unsigned J = 0; J != K; ++J)
        Costs.at(I, J) = I == J ? 0.0 : static_cast<double>(Rng.index(4));
    DecisionTreeOptions Opts;
    Opts.MaxDepth = 1 + static_cast<unsigned>(Rng.index(6));
    Opts.MinSamplesLeaf = static_cast<unsigned>(Rng.index(3));
    Opts.MinSamplesSplit = 2 + static_cast<unsigned>(Rng.index(3));
    if (Rng.chance(0.5))
      Opts.Costs = &Costs;

    // A few row sets per table, like the folds of one zoo.
    for (unsigned Fold = 0; Fold != 3; ++Fold) {
      std::vector<size_t> Rows;
      for (size_t R = 0; R != N; ++R)
        if (Rows.empty() || Rng.chance(0.7))
          Rows.push_back(R);
      PresortedBase Base(D, Rows);
      SubsetForest Forest =
          DecisionTree::fitSubsets(D, T.Y, K, Opts, Base, Subsets);
      ASSERT_EQ(Forest.TreeOf.size(), Subsets.size());

      std::set<std::string> DistinctKeys;
      for (const DecisionTree &Tree : Forest.Trees)
        DistinctKeys.insert(Tree.structuralKey());
      EXPECT_EQ(DistinctKeys.size(), Forest.Trees.size())
          << "subsets with identical trees share one";

      for (size_t SI = 0; SI != Subsets.size(); ++SI) {
        ASSERT_LT(Forest.TreeOf[SI], Forest.Trees.size());
        DecisionTreeOptions SubOpts = Opts;
        SubOpts.AllowedFeatures = Subsets[SI];
        DecisionTree Independent;
        Independent.fit(T.Features, T.Y, K, SubOpts, Rows);
        EXPECT_EQ(Forest.Trees[Forest.TreeOf[SI]].structuralKey(),
                  Independent.structuralKey())
            << "trial " << Trial << " fold " << Fold << " subset " << SI
            << " (N=" << Rows.size() << ", M=" << M << ", K=" << K << ")";
        ++Checked;
      }
    }
  }
  EXPECT_GT(Checked, 1000u);
}

TEST(SubsetForestTest, ZooShapedIndexMatchesIndependentFits) {
  // Level 2's own zoo: the 255 per-property subsets of a 4-property x
  // 3-level index, deep trees and leaf minimums of 3 over 19-row folds
  // with duplicate rows. Classes of identical trees split below a node's
  // left child here, so a class created mid-subtree must still patch the
  // Right child of every split node it copied from its parent class.
  runtime::FeatureIndex Index(
      {{"deviation", 3}, {"duplication", 3}, {"sortedness", 3},
       {"testsort", 3}});
  std::vector<std::vector<unsigned>> Subsets =
      core::enumerateFeatureSubsets(Index);
  ASSERT_EQ(Subsets.size(), 255u);
  support::Rng Rng(2026);
  size_t Checked = 0, MaxTrees = 0;
  for (unsigned Trial = 0; Trial != 12; ++Trial) {
    unsigned K = 2 + static_cast<unsigned>(Rng.index(3));
    Table T = makeTable(24, Index.numFlat(), K, Rng);
    Dataset D(T.Features, T.Costs, T.Time, T.Acc, std::nullopt);
    CostMatrix Costs(K);
    for (unsigned I = 0; I != K; ++I)
      for (unsigned J = 0; J != K; ++J)
        Costs.at(I, J) = I == J ? 0.0 : static_cast<double>(1 + Rng.index(4));
    DecisionTreeOptions Opts;
    Opts.MaxDepth = 8;
    Opts.MinSamplesLeaf = 3;
    if (Trial % 2)
      Opts.Costs = &Costs;

    for (unsigned Fold = 0; Fold != 3; ++Fold) {
      std::vector<size_t> Rows(24);
      std::iota(Rows.begin(), Rows.end(), 0);
      for (size_t I = 0; I != 5; ++I) // drop 5 rows: a 19-row fold
        Rows.erase(Rows.begin() + static_cast<long>(Rng.index(Rows.size())));
      PresortedBase Base(D, Rows);
      SubsetForest Forest =
          DecisionTree::fitSubsets(D, T.Y, K, Opts, Base, Subsets);
      ASSERT_EQ(Forest.TreeOf.size(), Subsets.size());
      MaxTrees = std::max(MaxTrees, Forest.Trees.size());
      for (size_t SI = 0; SI != Subsets.size(); ++SI) {
        DecisionTreeOptions SubOpts = Opts;
        SubOpts.AllowedFeatures = Subsets[SI];
        DecisionTree Independent;
        Independent.fit(T.Features, T.Y, K, SubOpts, Rows);
        EXPECT_EQ(Forest.Trees[Forest.TreeOf[SI]].structuralKey(),
                  Independent.structuralKey())
            << "trial " << Trial << " fold " << Fold << " subset " << SI;
        ++Checked;
      }
    }
  }
  EXPECT_EQ(Checked, 12u * 3u * 255u);
  EXPECT_GT(MaxTrees, 10u) << "the zoo must grow many distinct trees";
}

TEST(SubsetForestTest, TreesAreOrderedByFirstSubsetAndFullyUsed) {
  support::Rng Rng(7);
  Table T = makeTable(24, 4, 3, Rng);
  Dataset D(T.Features, T.Costs, T.Time, T.Acc, std::nullopt);
  std::vector<size_t> Rows(24);
  std::iota(Rows.begin(), Rows.end(), 0);
  PresortedBase Base(D, Rows);
  std::vector<std::vector<unsigned>> Subsets = makeSubsets(4, Rng);
  SubsetForest Forest = DecisionTree::fitSubsets(D, T.Y, 3, {}, Base, Subsets);
  unsigned Next = 0;
  for (unsigned Tree : Forest.TreeOf) {
    EXPECT_LE(Tree, Next) << "a new tree appears only at its first subset";
    if (Tree == Next)
      ++Next;
  }
  EXPECT_EQ(Next, Forest.Trees.size());
}

} // namespace
