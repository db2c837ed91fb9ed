//===- core/LevelOne.h - Level 1: clustering, landmarks, measurement --------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Level 1 of the two-level learning framework (paper Section 3.1):
///
///   Step 1  Feature extraction: the feature vector of every input at
///           every sampling level, with extraction costs recorded.
///   Step 2  Input clustering: z-score normalisation, then K-means into
///           K1 clusters over the training inputs.
///   Step 3  Landmark creation: the evolutionary autotuner runs once per
///           cluster, on the training input nearest the centroid, giving
///           K1 landmark configurations.
///   Step 4  Performance measurement: every landmark configuration runs
///           on every input, recording execution time and accuracy.
///
/// Evidence tables (time and accuracy of every landmark on every input)
/// are computed for all inputs; Level 2 consumes the training rows and the
/// evaluation harness the test rows.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_CORE_LEVELONE_H
#define PBT_CORE_LEVELONE_H

#include "autotuner/EvolutionaryAutotuner.h"
#include "linalg/Matrix.h"
#include "ml/KMeans.h"
#include "ml/Normalizer.h"
#include "runtime/TunableProgram.h"
#include "support/ThreadPool.h"

#include <vector>

namespace pbt {
namespace core {

/// How the tuning representatives are chosen (paper Section 3.1 compares
/// K-means centroids against uniformly picked landmarks and reports a 41%
/// degradation for the latter at 5 configurations).
enum class LandmarkSelection {
  /// Tune on the training input nearest each K-means centroid (default).
  KMeansCentroids,
  /// Tune on uniformly random training inputs (the ablation baseline).
  UniformRandom,
};

struct LevelOneOptions {
  /// K1, the number of input clusters = landmark configurations.
  unsigned NumLandmarks = 12;
  uint64_t Seed = 42;
  autotuner::AutotunerOptions Tuner;
  LandmarkSelection Selection = LandmarkSelection::KMeansCentroids;
  /// How many cluster members (nearest the centroid) each landmark is
  /// tuned against. Values > 1 make variable-accuracy landmarks robust on
  /// unseen inputs of the same cluster (the tuner requires the accuracy
  /// target on the whole neighbourhood, not one exemplar).
  unsigned TuningNeighborhood = 3;
  /// Optional pool parallelising landmark tuning and the measurement
  /// sweep. Results are identical with or without it.
  support::ThreadPool *Pool = nullptr;
  /// Measure one sweep column per *distinct* landmark configuration and
  /// copy it to duplicates (clusters routinely converge to the same
  /// config; the duplicate runs would repeat bit-identically). Disabled
  /// by the `pbt-bench trainbench` pre-optimisation baseline.
  bool DedupMeasurementSweep = true;
  /// Step-1 tables the caller already holds: the flat feature values and
  /// extraction costs (N x M) extractAllFeatures would produce for the
  /// program. When set (both), Step 1 copies them instead of extracting.
  const linalg::Matrix *Features = nullptr;
  const linalg::Matrix *ExtractCosts = nullptr;
};

struct LevelOneResult {
  /// Flat feature values for every input (N x M).
  linalg::Matrix Features;
  /// Extraction cost of each flat feature for every input (N x M).
  linalg::Matrix ExtractCosts;
  /// Fitted on training rows.
  ml::Normalizer Norm;
  /// K-means over normalized training-row features. Assignment indices
  /// are positions in TrainRows, not global input ids.
  ml::KMeansResult Clusters;
  /// Global input id of each cluster's representative (nearest centroid).
  std::vector<size_t> Representatives;
  /// One tuned configuration per cluster.
  std::vector<runtime::Configuration> Landmarks;
  /// Measured execution time of every landmark on every input (N x K1).
  linalg::Matrix Time;
  /// Measured accuracy of every landmark on every input (N x K1).
  linalg::Matrix Acc;
};

/// Runs Level 1 for \p Program. \p TrainRows are the global input indices
/// available for training (clustering and tuning see only these).
LevelOneResult runLevelOne(const runtime::TunableProgram &Program,
                           const std::vector<size_t> &TrainRows,
                           const LevelOneOptions &Options);

/// Step 1 alone: extracts all flat features (values + costs) of every
/// input. Exposed for tests and the one-level baseline.
void extractAllFeatures(const runtime::TunableProgram &Program,
                        linalg::Matrix &Values, linalg::Matrix &Costs,
                        support::ThreadPool *Pool = nullptr);

} // namespace core
} // namespace pbt

#endif // PBT_CORE_LEVELONE_H
