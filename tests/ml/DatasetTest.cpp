//===- tests/ml/DatasetTest.cpp ----------------------------------------------=//
//
// The columnar training substrate's contract: a Dataset is a pure
// reorganisation of the evidence tables (columns mirror the matrices,
// the presorted index matches a naive per-column sort, meets bits match
// the threshold predicate), presorted bases filter correctly, and -- the
// load-bearing claim -- a DecisionTree fit over a PresortedBase is
// structurally identical to the row-major reference fit.

#include "ml/Dataset.h"
#include "ml/DecisionTree.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

using namespace pbt;
using namespace pbt::ml;

namespace {

struct Tables {
  linalg::Matrix Features, Costs, Time, Acc;
};

/// Random evidence tables with deliberate duplicate feature values (ties
/// exercise the presorted index ordering and the tree's boundary rules).
Tables makeTables(size_t N, unsigned M, unsigned K, uint64_t Seed) {
  support::Rng Rng(Seed);
  Tables T{linalg::Matrix(N, M), linalg::Matrix(N, M), linalg::Matrix(N, K),
           linalg::Matrix(N, K)};
  for (size_t R = 0; R != N; ++R) {
    for (unsigned F = 0; F != M; ++F) {
      T.Features.at(R, F) = static_cast<double>(Rng.index(8)); // many ties
      T.Costs.at(R, F) = Rng.uniform(0.1, 3.0);
    }
    for (unsigned L = 0; L != K; ++L) {
      T.Time.at(R, L) = Rng.uniform(1.0, 100.0);
      T.Acc.at(R, L) = Rng.uniform(0.0, 1.0);
    }
  }
  return T;
}

TEST(DatasetTest, ColumnsMirrorTheTables) {
  Tables T = makeTables(37, 5, 3, 11);
  Dataset D(T.Features, T.Costs, T.Time, T.Acc, 0.5);
  ASSERT_EQ(D.numRows(), 37u);
  ASSERT_EQ(D.numFeatures(), 5u);
  ASSERT_EQ(D.numCandidates(), 3u);
  for (size_t R = 0; R != D.numRows(); ++R) {
    for (unsigned F = 0; F != D.numFeatures(); ++F) {
      EXPECT_EQ(D.feature(R, F), T.Features.at(R, F));
      EXPECT_EQ(D.cost(R, F), T.Costs.at(R, F));
    }
    for (unsigned L = 0; L != D.numCandidates(); ++L) {
      EXPECT_EQ(D.time(R, L), T.Time.at(R, L));
      EXPECT_EQ(D.meets(R, L), T.Acc.at(R, L) >= 0.5);
    }
  }
}

TEST(DatasetTest, NoThresholdMeansEveryRowMeets) {
  Tables T = makeTables(12, 2, 2, 12);
  Dataset D(T.Features, T.Costs, T.Time, T.Acc, std::nullopt);
  for (size_t R = 0; R != D.numRows(); ++R)
    for (unsigned L = 0; L != D.numCandidates(); ++L)
      EXPECT_TRUE(D.meets(R, L));
}

TEST(DatasetTest, PresortedIndexMatchesNaiveSortPerColumn) {
  Tables T = makeTables(64, 4, 2, 13);
  Dataset D(T.Features, T.Costs, T.Time, T.Acc, std::nullopt);
  for (unsigned F = 0; F != D.numFeatures(); ++F) {
    std::vector<uint32_t> Naive(D.numRows());
    std::iota(Naive.begin(), Naive.end(), 0u);
    std::sort(Naive.begin(), Naive.end(), [&](uint32_t A, uint32_t B) {
      if (T.Features.at(A, F) != T.Features.at(B, F))
        return T.Features.at(A, F) < T.Features.at(B, F);
      return A < B;
    });
    const uint32_t *Idx = D.sortedRows(F);
    for (size_t I = 0; I != D.numRows(); ++I)
      EXPECT_EQ(Idx[I], Naive[I]) << "feature " << F << " position " << I;
  }
}

TEST(DatasetTest, LabelColumnRoundTrips) {
  Tables T = makeTables(9, 2, 3, 14);
  Dataset D(T.Features, T.Costs, T.Time, T.Acc, std::nullopt);
  EXPECT_FALSE(D.hasLabels());
  std::vector<unsigned> Labels(9);
  for (size_t R = 0; R != 9; ++R)
    Labels[R] = static_cast<unsigned>(R % 3);
  D.setLabels(Labels);
  ASSERT_TRUE(D.hasLabels());
  for (size_t R = 0; R != 9; ++R)
    EXPECT_EQ(D.label(R), Labels[R]);
}

TEST(DatasetTest, PresortedBaseFiltersTheGlobalIndex) {
  Tables T = makeTables(40, 3, 2, 16);
  Dataset D(T.Features, T.Costs, T.Time, T.Acc, std::nullopt);
  std::vector<size_t> Rows{1, 4, 9, 16, 25, 36, 39};
  PresortedBase Base(D, Rows);
  ASSERT_EQ(Base.size(), Rows.size());
  for (unsigned F = 0; F != D.numFeatures(); ++F) {
    const uint32_t *Col = Base.column(F);
    // Sorted by (value, row id) and exactly the subset.
    std::vector<uint32_t> Seen(Col, Col + Base.size());
    for (size_t I = 0; I + 1 < Base.size(); ++I) {
      double Va = D.feature(Col[I], F), Vb = D.feature(Col[I + 1], F);
      EXPECT_TRUE(Va < Vb || (Va == Vb && Col[I] < Col[I + 1]));
    }
    std::sort(Seen.begin(), Seen.end());
    std::vector<uint32_t> Expect(Rows.begin(), Rows.end());
    EXPECT_EQ(Seen, Expect);
  }
}

/// The exactness claim the Level-2 rewrite rests on: presorted fits
/// produce the very tree the row-major fit would, across random tables,
/// subset choices, and tree shapes.
TEST(DatasetTest, PresortedTreeFitMatchesRowMajorFit) {
  support::Rng Rng(99);
  for (unsigned Trial = 0; Trial != 30; ++Trial) {
    size_t N = 12 + Rng.index(60);
    unsigned M = 2 + static_cast<unsigned>(Rng.index(5));
    unsigned K = 2 + static_cast<unsigned>(Rng.index(4));
    Tables T = makeTables(N, M, K, 1000 + Trial);
    Dataset D(T.Features, T.Costs, T.Time, T.Acc, std::nullopt);

    std::vector<unsigned> Y(N);
    for (size_t R = 0; R != N; ++R)
      Y[R] = static_cast<unsigned>(Rng.index(K));

    // A random row subset (at least 4 rows) and a random feature subset.
    std::vector<size_t> Rows;
    for (size_t R = 0; R != N; ++R)
      if (Rows.size() < 4 || Rng.chance(0.7))
        Rows.push_back(R);
    std::vector<unsigned> Feats;
    for (unsigned F = 0; F != M; ++F)
      if (Rng.chance(0.6))
        Feats.push_back(F);

    DecisionTreeOptions Opts;
    Opts.MaxDepth = 1 + static_cast<unsigned>(Rng.index(8));
    Opts.MinSamplesLeaf = 1 + static_cast<unsigned>(Rng.index(3));
    Opts.MinSamplesSplit = 2 + static_cast<unsigned>(Rng.index(4));
    Opts.AllowedFeatures = Feats;

    DecisionTree RowMajor;
    RowMajor.fit(T.Features, Y, K, Opts, Rows);

    PresortedBase Base(D, Rows);
    SubsetForest Presorted =
        DecisionTree::fitSubsets(D, Y, K, Opts, Base, {Feats});
    ASSERT_EQ(Presorted.Trees.size(), 1u);

    EXPECT_EQ(Presorted.Trees[0].structuralKey(), RowMajor.structuralKey())
        << "trial " << Trial << " (N=" << N << ", M=" << M << ", K=" << K
        << ")";
  }
}

} // namespace
