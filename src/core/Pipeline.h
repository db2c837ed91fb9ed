//===- core/Pipeline.h - End-to-end two-level learning pipeline -------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The top-level entry point tying the reproduction together: split a
/// program's inputs into training and test halves (as the paper does),
/// run Level 1 and Level 2 on the training half, construct the baselines
/// (static oracle, one-level learning, dynamic oracle), and evaluate
/// everything on the test half -- producing exactly the quantities of the
/// paper's Table 1, Figure 6 and Figure 8.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_CORE_PIPELINE_H
#define PBT_CORE_PIPELINE_H

#include "core/LevelOne.h"
#include "core/LevelTwo.h"
#include "support/Statistics.h"

#include <memory>
#include <vector>

namespace pbt {
namespace core {

struct PipelineOptions {
  LevelOneOptions L1;
  LevelTwoOptions L2;
  double TrainFraction = 0.5;
  uint64_t SplitSeed = 97;
};

/// A fully trained system plus everything needed to evaluate it.
struct TrainedSystem {
  LevelOneResult L1;
  LevelTwoResult L2;
  std::vector<size_t> TrainRows;
  std::vector<size_t> TestRows;
  /// The landmark every method is measured against.
  unsigned StaticOracleLandmark = 0;
  /// The traditional one-level baseline classifier.
  std::unique_ptr<InputClassifier> OneLevel;
  /// Wall seconds trainSystem spent in Level 1 (runLevelOne) and in
  /// Level 2 (runLevelTwo, which columnarizes the evidence itself).
  /// Never serialized: zero on a loaded model.
  double Level1Seconds = 0.0;
  double Level2Seconds = 0.0;
};

/// Per-method evaluation summary on the test rows: the paper's Table 1
/// row for one benchmark.
struct EvaluationResult {
  /// Mean per-input speedups over the static oracle.
  double DynamicOracle = 1.0;
  double TwoLevelNoFeat = 1.0;
  double TwoLevelWithFeat = 1.0;
  double OneLevelNoFeat = 1.0;
  double OneLevelWithFeat = 1.0;
  /// Accuracy satisfaction rates (fraction of test inputs meeting the
  /// accuracy threshold under each method's chosen configurations).
  double TwoLevelSatisfaction = 1.0;
  double OneLevelSatisfaction = 1.0;
  double DynamicOracleSatisfaction = 1.0;
  double StaticOracleSatisfaction = 1.0;
  /// Per-test-input speedups of the two-level method including feature
  /// extraction time (Figure 6 series; unsorted, parallel to TestRows).
  std::vector<double> PerInputSpeedups;
};

/// Trains the full system for \p Program. \p Pool, when given,
/// parallelises every hot stage of training (Level-1 feature extraction,
/// landmark tuning, the measurement sweep, and the Level-2 classifier
/// zoo); results are identical with or without it.
TrainedSystem trainSystem(const runtime::TunableProgram &Program,
                          const PipelineOptions &Options,
                          support::ThreadPool *Pool = nullptr);

/// Evaluates a trained system on its test rows. It reads only what a
/// loaded model also carries (the row-major L1 tables and the
/// classifiers), so a fresh system and its model loaded from bytes
/// evaluate bit-identically. \p Pool, when given, parallelises the
/// per-test-row measurement; results are identical to the sequential
/// path.
EvaluationResult evaluateSystem(const runtime::TunableProgram &Program,
                                const TrainedSystem &System,
                                support::ThreadPool *Pool = nullptr);

/// One point of the Figure 8 sweep: the mean speedup over the static
/// oracle achievable with the best-in-subset rule over \p Subset of
/// landmarks, on the test rows.
double subsetSpeedup(const runtime::TunableProgram &Program,
                     const TrainedSystem &System,
                     const std::vector<unsigned> &Subset);

/// Figure 8: for each landmark count k, \p Trials random subsets are
/// drawn; the distribution of subsetSpeedup over trials is summarised.
struct LandmarkSweepPoint {
  unsigned NumLandmarks = 0;
  support::Summary Speedups;
};
std::vector<LandmarkSweepPoint>
landmarkCountSweep(const runtime::TunableProgram &Program,
                   const TrainedSystem &System,
                   const std::vector<unsigned> &Counts, unsigned Trials,
                   uint64_t Seed, support::ThreadPool *Pool = nullptr);

} // namespace core
} // namespace pbt

#endif // PBT_CORE_PIPELINE_H
