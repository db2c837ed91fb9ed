//===- core/LevelTwo.h - Level 2: refinement, zoo, selection ----------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Level 2 of the two-level learning framework (paper Section 3.2):
///
///   * Cluster refinement: re-label every training input with its best
///     landmark (measured, accuracy-aware) -- the second-level clustering.
///   * Cost matrix: C(i,j) = eta * Ca(i,j) * max_t Cp(i,t) + Cp(i,j),
///     blending the mean performance difference Cp with the accuracy
///     violation ratio Ca (eta = 0.5 by default, the paper's setting).
///   * Classifier zoo: max-a-priori; one decision tree per feature subset
///     (each property absent or at exactly one sampling level -- (z+1)^u
///     subsets, 256 for four 3-level properties, including all-features);
///     and incremental feature-examination classifiers (over all features
///     and over the best subset, cheapest-first).
///   * Candidate selection: cross-validated measured objective
///     R = mean(execution time + feature extraction time), subject to the
///     satisfaction threshold; the best valid candidate is retrained on
///     the full training set as the production classifier.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_CORE_LEVELTWO_H
#define PBT_CORE_LEVELTWO_H

#include "core/Classifiers.h"
#include "core/LevelOne.h"
#include "ml/CostMatrix.h"
#include "ml/IncrementalBayes.h"

#include <memory>
#include <string>
#include <vector>

namespace pbt {
namespace core {

struct LevelTwoOptions {
  /// Blend factor between accuracy penalty and performance penalty in the
  /// cost matrix (the paper tried 0.001..1 and settled on 0.5).
  double Eta = 0.5;
  unsigned CVFolds = 5;
  uint64_t Seed = 43;
  ml::DecisionTreeOptions Tree;
  ml::IncrementalBayesOptions Bayes;
};

/// Cross-validated evaluation of one candidate classifier.
struct CandidateScore {
  std::string Name;
  /// Mean(T(i, pred) + extraction cost actually paid) on held-out rows.
  double Objective = 0.0;
  /// Same without extraction cost.
  double ObjectiveNoFeat = 0.0;
  /// Fraction of held-out rows whose accuracy met the threshold.
  double Satisfaction = 1.0;
  bool Valid = true;
};

struct LevelTwoResult {
  /// Refined labels of the training rows (parallel to TrainRows).
  std::vector<unsigned> TrainLabels;
  ml::CostMatrix Costs;
  /// The selected production classifier (retrained on all training rows).
  std::unique_ptr<InputClassifier> Production;
  /// Scores of every zoo candidate, selection order preserved.
  std::vector<CandidateScore> Candidates;
  std::string SelectedName;
  /// Fraction of training inputs whose refined label differs from their
  /// Level-1 cluster's landmark (the paper reports 73.4% for kmeans).
  double RefinementMoveFraction = 0.0;
};

/// Builds the paper's cost matrix from measured evidence. \p Labels are
/// parallel to \p Rows.
ml::CostMatrix buildCostMatrix(const linalg::Matrix &Time,
                               const linalg::Matrix &Acc,
                               const std::vector<size_t> &Rows,
                               const std::vector<unsigned> &Labels,
                               unsigned NumLandmarks,
                               const std::optional<runtime::AccuracySpec> &Spec,
                               double Eta);

/// Enumerates the (z+1)^u - 1 non-empty per-property feature subsets.
std::vector<std::vector<unsigned>>
enumerateFeatureSubsets(const runtime::FeatureIndex &Index);

/// Runs Level 2 on top of a Level 1 result. It columnarizes the L1
/// evidence into an ml::Dataset (label column attached), which it alone
/// owns and drops on return, then runs its phases in order: refinement,
/// cost matrix, folds, zoo sweep, selection and retrain. Per fold, all
/// subset trees grow together over one presorted base
/// (ml::DecisionTree::fitSubsets) and each distinct tree is scored once
/// by direct-column reads. The sweep records how to refit each candidate
/// on all training rows, and the retrain follows that record; candidate
/// names are report labels only. \p Pool, when given, parallelises the
/// cross-validated subset-tree sweep ((z+1)^u - 1 candidates) over
/// folds; results are identical without it.
LevelTwoResult runLevelTwo(const runtime::TunableProgram &Program,
                           const LevelOneResult &L1,
                           const std::vector<size_t> &TrainRows,
                           const LevelTwoOptions &Options,
                           support::ThreadPool *Pool = nullptr);

} // namespace core
} // namespace pbt

#endif // PBT_CORE_LEVELTWO_H
