//===- ml/Dataset.cpp -------------------------------------------------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//

#include "ml/Dataset.h"

#include <algorithm>
#include <numeric>

using namespace pbt;
using namespace pbt::ml;

Dataset::Dataset(const linalg::Matrix &Features,
                 const linalg::Matrix &ExtractCosts,
                 const linalg::Matrix &Time, const linalg::Matrix &Acc,
                 std::optional<double> AccuracyThreshold) {
  assert(Features.rows() == ExtractCosts.rows() &&
         Features.cols() == ExtractCosts.cols() &&
         "feature/cost table mismatch");
  assert(Time.rows() == Features.rows() && Acc.rows() == Time.rows() &&
         Acc.cols() == Time.cols() && "time/acc table mismatch");
  Rows = Features.rows();
  NumF = static_cast<unsigned>(Features.cols());
  NumC = static_cast<unsigned>(Time.cols());

  FeatCols.resize(static_cast<size_t>(NumF) * Rows);
  CostCols.resize(static_cast<size_t>(NumF) * Rows);
  for (unsigned F = 0; F != NumF; ++F) {
    double *FC = FeatCols.data() + static_cast<size_t>(F) * Rows;
    double *CC = CostCols.data() + static_cast<size_t>(F) * Rows;
    for (size_t R = 0; R != Rows; ++R) {
      FC[R] = Features.at(R, F);
      CC[R] = ExtractCosts.at(R, F);
    }
  }
  TimeCols.resize(static_cast<size_t>(NumC) * Rows);
  MeetsBits.resize(static_cast<size_t>(NumC) * Rows);
  for (unsigned L = 0; L != NumC; ++L) {
    double *TC = TimeCols.data() + static_cast<size_t>(L) * Rows;
    uint8_t *MB = MeetsBits.data() + static_cast<size_t>(L) * Rows;
    for (size_t R = 0; R != Rows; ++R) {
      TC[R] = Time.at(R, L);
      MB[R] = !AccuracyThreshold || Acc.at(R, L) >= *AccuracyThreshold ? 1 : 0;
    }
  }

  // The global presorted-feature index: each column argsorted once, ties
  // by row id (a total order, so the index is unique and reproducible).
  SortedIdx.resize(static_cast<size_t>(NumF) * Rows);
  for (unsigned F = 0; F != NumF; ++F) {
    uint32_t *Idx = SortedIdx.data() + static_cast<size_t>(F) * Rows;
    std::iota(Idx, Idx + Rows, 0u);
    const double *FC = featureCol(F);
    std::sort(Idx, Idx + Rows, [FC](uint32_t A, uint32_t B) {
      if (FC[A] != FC[B])
        return FC[A] < FC[B];
      return A < B;
    });
  }
}

PresortedBase::PresortedBase(const Dataset &D,
                             const std::vector<size_t> &RowIds)
    : D(&D), N(RowIds.size()) {
  // Membership stamp over the full table, then one filtering pass of the
  // global presorted index per feature: the subset's rows come out in
  // (value, row-id) order without any sorting.
  size_t Total = D.numRows();
  unsigned M = D.numFeatures();
  std::vector<uint8_t> InSet(Total, 0);
  for (size_t R : RowIds) {
    assert(R < Total && "row id out of range");
    InSet[R] = 1;
  }
  Cols.resize(static_cast<size_t>(M) * N);
  for (unsigned F = 0; F != M; ++F) {
    const uint32_t *Global = D.sortedRows(F);
    uint32_t *Out = Cols.data() + static_cast<size_t>(F) * N;
    size_t W = 0;
    for (size_t I = 0; I != Total; ++I) {
      uint32_t R = Global[I];
      if (InSet[R])
        Out[W++] = R;
    }
    assert(W == N && "membership filter lost rows (duplicate row ids?)");
    (void)W;
  }
}
