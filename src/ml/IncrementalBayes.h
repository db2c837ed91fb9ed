//===- ml/IncrementalBayes.h - Incremental feature examination --------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's classifier family (4): "Incremental Feature Examination".
/// Each feature is discretised into decision regions; class-conditional
/// region probabilities are estimated from training data. At prediction
/// time features are acquired one at a time (cheapest first, in the order
/// the caller supplies) and the class posterior is updated after each; as
/// soon as some class exceeds a posterior threshold the classifier commits.
/// This gives per-input variable feature-extraction cost.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_ML_INCREMENTALBAYES_H
#define PBT_ML_INCREMENTALBAYES_H

#include "linalg/Matrix.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

namespace pbt {
namespace serialize {
class Writer;
class Reader;
} // namespace serialize
namespace ml {

struct CompiledArena;
struct CompiledClassifier;

struct IncrementalBayesOptions {
  /// Number of decision regions (quantile bins) per feature.
  unsigned Bins = 8;
  /// Posterior confidence needed to stop acquiring features.
  double PosteriorThreshold = 0.75;
  /// Laplace smoothing constant for region counts.
  double Smoothing = 1.0;
};

/// Result of an incremental prediction.
struct IncrementalPrediction {
  unsigned Label = 0;
  /// How many features (in acquisition order) were actually extracted.
  unsigned FeaturesUsed = 0;
  /// Posterior of the chosen label at stopping time.
  double Confidence = 0.0;
};

/// Naive-Bayes-over-decision-regions classifier with sequential feature
/// acquisition.
class IncrementalBayes {
public:
  /// Trains on rows of \p X restricted to \p FeatureOrder (the acquisition
  /// order, typically cheapest-extraction-first). Labels in [0, NumClasses).
  void fit(const linalg::Matrix &X, const std::vector<unsigned> &Y,
           unsigned NumClasses, const std::vector<unsigned> &FeatureOrder,
           const IncrementalBayesOptions &Options = {},
           const std::vector<size_t> &SampleIndices = {});

  /// The model fit() trains over the same rows with acquisition order
  /// \p NewOrder, whose features must all be in featureOrder(). A
  /// feature's edges and log-probability table depend only on the feature
  /// and the training rows, not on its position, so they are copied.
  IncrementalBayes withOrder(const std::vector<unsigned> &NewOrder) const;

  /// Predicts with lazy feature access: \p GetFeature(F) returns the value
  /// of (original-space) feature F and is invoked only for features that
  /// are actually examined. This is the one implementation of the
  /// prediction arithmetic.
  template <class GetFn>
  IncrementalPrediction predictWith(GetFn &&GetFeature) const {
    assert(!Priors.empty() && "predict() before fit()");
    std::vector<double> LogPost(NumClasses);
    for (unsigned C = 0; C != NumClasses; ++C)
      LogPost[C] = std::log(std::max(Priors[C], 1e-300));

    IncrementalPrediction Out;
    for (size_t Pos = 0; Pos != Order.size(); ++Pos) {
      double Value = GetFeature(Order[Pos]);
      ++Out.FeaturesUsed;
      unsigned R = regionOf(static_cast<unsigned>(Pos), Value);
      for (unsigned C = 0; C != NumClasses; ++C)
        LogPost[C] += LogProb[Pos][static_cast<size_t>(C) * Bins + R];

      // Normalised posterior of the current best class (Equation 1).
      double MaxLog = *std::max_element(LogPost.begin(), LogPost.end());
      double Z = 0.0;
      for (double L : LogPost)
        Z += std::exp(L - MaxLog);
      unsigned Best = static_cast<unsigned>(std::distance(
          LogPost.begin(), std::max_element(LogPost.begin(), LogPost.end())));
      double Posterior = std::exp(LogPost[Best] - MaxLog) / Z;
      Out.Label = Best;
      Out.Confidence = Posterior;
      if (Posterior > PosteriorThreshold)
        return Out; // Enough evidence; stop acquiring features.
    }
    return Out;
  }

  /// Dense-row convenience wrapper.
  IncrementalPrediction predict(const std::vector<double> &Row) const;

  const std::vector<unsigned> &featureOrder() const { return Order; }
  unsigned numClasses() const { return NumClasses; }
  bool trained() const { return !Order.empty() || !Priors.empty(); }

  /// Serialization hooks for the model-persistence layer. loadFrom
  /// validates shapes (edges/log-prob tables sized by bins and classes)
  /// and that every acquired feature index is below \p NumFeatures.
  void saveTo(serialize::Writer &W) const;
  bool loadFrom(serialize::Reader &R, unsigned NumFeatures);

  /// Compile hook for the serving path: flattens the acquisition order,
  /// the per-position quantile edges, and the log-probability tables into
  /// \p A, pre-logging the priors so a decision needs no setup work.
  /// Decisions over the lowered form are bit-identical to predictWith().
  void compileInto(CompiledArena &A, CompiledClassifier &Out) const;

private:
  unsigned regionOf(unsigned OrderPos, double Value) const;

  std::vector<unsigned> Order;
  /// Bin edges per ordered feature: Edges[pos] has Bins-1 thresholds.
  std::vector<std::vector<double>> Edges;
  /// Log P(region | class) per ordered feature: LogProb[pos][class*Bins+r].
  std::vector<std::vector<double>> LogProb;
  std::vector<double> Priors; // P(class)
  unsigned NumClasses = 0;
  unsigned Bins = 0;
  double PosteriorThreshold = 0.75;
};

} // namespace ml
} // namespace pbt

#endif // PBT_ML_INCREMENTALBAYES_H
