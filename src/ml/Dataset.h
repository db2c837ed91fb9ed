//===- ml/Dataset.h - Columnar training substrate ---------------------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The columnar training substrate of the two-level pipeline. A Dataset is
/// extracted exactly once per training run from the Level-1 evidence
/// tables and then threaded through labelling, the Level-2 classifier
/// zoo, cross-validation and tree building as lightweight row-index
/// views, replacing the old pattern where every (fold x subset x tree
/// node x feature) re-gathered rows, re-read the row-major matrices and
/// re-sorted indices:
///
///   * struct-of-arrays columns: one contiguous array per ML feature, per
///     feature-extraction cost, and per candidate (landmark) time
///     column, so the inner training loops stream one column instead of
///     striding a row-major table;
///   * a precomputed meets-accuracy bit per (row, candidate), the
///     satisfaction predicate every scorer re-derived from Acc and the
///     accuracy threshold;
///   * the label column (best-landmark labelling, computed once by
///     core/Labeling and attached here);
///   * a global presorted-feature index: each feature column argsorted
///     once (ties by row id). Tree builds walk rank-filtered copies of
///     this index SPRINT-style (PresortedBase below, consumed by
///     DecisionTree::fitSubsets) instead of sorting inside every node.
///
/// Everything a Dataset serves is a pure reorganisation of the evidence
/// tables: consumers produce bit-identical results to reading the
/// row-major matrices (pinned by DatasetTest and the golden retrain
/// suite).
///
//===----------------------------------------------------------------------===//

#ifndef PBT_ML_DATASET_H
#define PBT_ML_DATASET_H

#include "linalg/Matrix.h"

#include <cassert>
#include <cstdint>
#include <optional>
#include <vector>

namespace pbt {
namespace ml {

class Dataset {
public:
  Dataset() = default;

  /// Columnarizes the evidence once. \p Features / \p ExtractCosts are
  /// N x M (flat ML features), \p Time / \p Acc are N x K (candidate
  /// landmarks). \p AccuracyThreshold feeds the meets-accuracy bits
  /// (nullopt = exact program, every bit set).
  Dataset(const linalg::Matrix &Features, const linalg::Matrix &ExtractCosts,
          const linalg::Matrix &Time, const linalg::Matrix &Acc,
          std::optional<double> AccuracyThreshold);

  size_t numRows() const { return Rows; }
  unsigned numFeatures() const { return NumF; }
  unsigned numCandidates() const { return NumC; }

  const double *featureCol(unsigned F) const {
    assert(F < NumF && "feature out of range");
    return FeatCols.data() + static_cast<size_t>(F) * Rows;
  }
  const double *costCol(unsigned F) const {
    assert(F < NumF && "feature out of range");
    return CostCols.data() + static_cast<size_t>(F) * Rows;
  }
  const double *timeCol(unsigned L) const {
    assert(L < NumC && "candidate out of range");
    return TimeCols.data() + static_cast<size_t>(L) * Rows;
  }
  double feature(size_t Row, unsigned F) const { return featureCol(F)[Row]; }
  double cost(size_t Row, unsigned F) const { return costCol(F)[Row]; }
  double time(size_t Row, unsigned L) const { return timeCol(L)[Row]; }

  /// Whether row \p Row meets the accuracy threshold under candidate
  /// \p L (every consumer of the raw accuracy table wants exactly this
  /// predicate, so the accuracies themselves are not retained). Always
  /// true for exact programs.
  bool meets(size_t Row, unsigned L) const {
    return MeetsBits[static_cast<size_t>(L) * Rows + Row] != 0;
  }

  /// Global presorted-feature index: all row ids ordered by ascending
  /// value of feature \p F, ties by row id.
  const uint32_t *sortedRows(unsigned F) const {
    assert(F < NumF && "feature out of range");
    return SortedIdx.data() + static_cast<size_t>(F) * Rows;
  }

  /// Attaches the label column (one label per row; core/Labeling computes
  /// it so the labelling rule stays in one place).
  void setLabels(std::vector<unsigned> L) {
    assert(L.size() == Rows && "label column must cover every row");
    Labels = std::move(L);
  }
  bool hasLabels() const { return !Labels.empty(); }
  const std::vector<unsigned> &labels() const { return Labels; }
  unsigned label(size_t Row) const {
    assert(hasLabels() && Row < Rows && "missing labels or row out of range");
    return Labels[Row];
  }

private:
  size_t Rows = 0;
  unsigned NumF = 0;
  unsigned NumC = 0;
  std::vector<double> FeatCols;  // NumF x Rows
  std::vector<double> CostCols;  // NumF x Rows
  std::vector<double> TimeCols;  // NumC x Rows
  std::vector<uint8_t> MeetsBits; // NumC x Rows
  std::vector<uint32_t> SortedIdx; // NumF x Rows
  std::vector<unsigned> Labels;  // Rows (optional)
};

/// A lightweight row-subset view: an ordered list of global row ids bound
/// to its dataset. Views compose (a fold view is a subset of the train
/// view), which is how the pipeline's train split, CV folds and fold
/// train/test halves all address the one extracted Dataset.
class RowView {
public:
  RowView() = default;
  RowView(const Dataset &D, std::vector<uint32_t> RowIds)
      : D(&D), Ids(std::move(RowIds)) {
#ifndef NDEBUG
    for (uint32_t R : Ids)
      assert(R < D.numRows() && "row id out of range");
#endif
  }

  /// View of every dataset row, in order.
  static RowView all(const Dataset &D);
  /// View of the given global row ids (e.g. the pipeline's TrainRows).
  static RowView of(const Dataset &D, const std::vector<size_t> &RowIds);

  const Dataset &dataset() const {
    assert(D && "empty view");
    return *D;
  }
  size_t size() const { return Ids.size(); }
  uint32_t operator[](size_t I) const {
    assert(I < Ids.size() && "position out of range");
    return Ids[I];
  }
  const std::vector<uint32_t> &rows() const { return Ids; }

  /// Composition: the sub-view selecting \p Positions *of this view*
  /// (positions, not row ids) -- how a fold split over train positions
  /// becomes a view of global rows.
  RowView subset(const std::vector<size_t> &Positions) const;

private:
  const Dataset *D = nullptr;
  std::vector<uint32_t> Ids;
};

/// Every feature of one row subset in presorted (value, row-id) order,
/// built by rank-filtering the dataset's global presorted index in one
/// O(M x N_total) pass. One PresortedBase per cross-validation fold (and
/// one for the full training set) feeds every tree fit on that subset.
class PresortedBase {
public:
  PresortedBase(const Dataset &D, const std::vector<size_t> &RowIds);
  PresortedBase(const Dataset &D, const RowView &View);

  const Dataset &dataset() const { return *D; }
  /// Rows in the subset.
  size_t size() const { return N; }
  /// The subset's row ids ordered by ascending value of feature \p F.
  const uint32_t *column(unsigned F) const {
    assert(F < D->numFeatures() && "feature out of range");
    return Cols.data() + static_cast<size_t>(F) * N;
  }
  /// Every column, feature-major: column(F) == columns() + F * size().
  const uint32_t *columns() const { return Cols.data(); }

private:
  void build(const std::vector<uint32_t> &RowIds);

  const Dataset *D;
  size_t N = 0;
  std::vector<uint32_t> Cols; // numFeatures() x N
};

} // namespace ml
} // namespace pbt

#endif // PBT_ML_DATASET_H
