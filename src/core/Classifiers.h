//===- core/Classifiers.h - Production input classifiers --------------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The candidate production classifiers of the paper's Level 2 (Section
/// 3.2): (1) max-a-priori, (2) decision trees over exhaustive per-property
/// feature subsets -- of which (3) the all-features classifier is one --
/// and (4) the incremental feature-examination classifier. All share the
/// InputClassifier interface: classify one input through a FeatureProbe,
/// paying extraction cost only for features actually examined.
///
/// The traditional one-level baseline (nearest centroid in normalized raw
/// feature space, all features extracted) implements the same interface,
/// so the evaluation harness treats every method uniformly. It is never
/// served: runtime::CompiledModel lowers only the four Level-2 kinds.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_CORE_CLASSIFIERS_H
#define PBT_CORE_CLASSIFIERS_H

#include "core/FeatureProbe.h"
#include "ml/DecisionTree.h"
#include "ml/IncrementalBayes.h"
#include "ml/KMeans.h"
#include "ml/MaxApriori.h"
#include "ml/Normalizer.h"

#include <memory>
#include <string>
#include <vector>

namespace pbt {
namespace core {

/// A trained classifier mapping an input (via its feature probe) to a
/// landmark configuration index.
class InputClassifier {
public:
  virtual ~InputClassifier();

  /// Predicts the landmark for one input. Feature extraction goes through
  /// \p Probe so the caller can account for its cost.
  virtual unsigned classify(FeatureProbe &Probe) const = 0;

  /// Flat features this classifier may reference (upper bound; the probe
  /// reports what was actually extracted per input).
  virtual std::vector<unsigned> referencedFeatures() const = 0;

  /// Human-readable description for reports.
  virtual std::string describe() const = 0;
};

/// (0) Constant: always predicts one fixed landmark, extracting no
/// features. Instantiated with the static-oracle landmark it is the
/// "no input adaptation" member of the zoo, guaranteeing a valid
/// candidate exists whenever the static oracle meets the satisfaction
/// threshold.
class ConstantClassifier : public InputClassifier {
public:
  explicit ConstantClassifier(unsigned Landmark) : Landmark(Landmark) {}

  unsigned classify(FeatureProbe &) const override { return Landmark; }
  std::vector<unsigned> referencedFeatures() const override { return {}; }
  std::string describe() const override { return "static-best"; }

  unsigned landmark() const { return Landmark; }

private:
  unsigned Landmark;
};

/// (1) Max-a-priori: predicts the modal training label, extracting no
/// features at all.
class MaxAprioriClassifier : public InputClassifier {
public:
  explicit MaxAprioriClassifier(ml::MaxApriori Model) : Model(std::move(Model)) {}

  unsigned classify(FeatureProbe &) const override { return Model.predict(); }
  std::vector<unsigned> referencedFeatures() const override { return {}; }
  std::string describe() const override { return "max-apriori"; }

  const ml::MaxApriori &model() const { return Model; }

private:
  ml::MaxApriori Model;
};

/// (2)/(3) Decision tree over a feature subset (one sampling level per
/// property, or the property absent). Prediction extracts only the
/// features on the root-to-leaf path.
class SubsetTreeClassifier : public InputClassifier {
public:
  SubsetTreeClassifier(ml::DecisionTree Tree, std::vector<unsigned> Subset,
                       std::string Name)
      : Tree(std::move(Tree)), Subset(std::move(Subset)),
        Name(std::move(Name)) {}

  unsigned classify(FeatureProbe &Probe) const override {
    return Tree.predictWith([&Probe](unsigned F) { return Probe.value(F); });
  }
  std::vector<unsigned> referencedFeatures() const override { return Subset; }
  std::string describe() const override { return Name; }

  const ml::DecisionTree &tree() const { return Tree; }
  const std::vector<unsigned> &subset() const { return Subset; }

private:
  ml::DecisionTree Tree;
  std::vector<unsigned> Subset;
  std::string Name;
};

/// (4) Incremental feature examination: acquires features cheapest-first
/// until the class posterior clears a threshold.
class IncrementalClassifier : public InputClassifier {
public:
  IncrementalClassifier(ml::IncrementalBayes Model, std::string Name)
      : Model(std::move(Model)), Name(std::move(Name)) {}

  unsigned classify(FeatureProbe &Probe) const override {
    return Model.predictWith([&Probe](unsigned F) { return Probe.value(F); })
        .Label;
  }
  std::vector<unsigned> referencedFeatures() const override {
    return Model.featureOrder();
  }
  std::string describe() const override { return Name; }

  const ml::IncrementalBayes &model() const { return Model; }

private:
  ml::IncrementalBayes Model;
  std::string Name;
};

/// The one-level baseline: nearest K-means centroid in normalized feature
/// space; extracts every feature unconditionally (no cost awareness, no
/// accuracy awareness), exactly the traditional approach the paper
/// compares against.
class OneLevelClassifier : public InputClassifier {
public:
  /// \p ClusterLandmark maps each centroid to its landmark index.
  OneLevelClassifier(linalg::Matrix Centroids, ml::Normalizer Norm,
                     std::vector<unsigned> ClusterLandmark)
      : Centroids(std::move(Centroids)), Norm(std::move(Norm)),
        ClusterLandmark(std::move(ClusterLandmark)) {}

  unsigned classify(FeatureProbe &Probe) const override {
    std::vector<double> Row(Probe.numFlat());
    for (unsigned F = 0; F != Probe.numFlat(); ++F)
      Row[F] = Probe.value(F);
    Norm.transformRow(Row);
    unsigned C = ml::nearestCentroid(Centroids, Row);
    return ClusterLandmark[C];
  }
  std::vector<unsigned> referencedFeatures() const override {
    std::vector<unsigned> All(Centroids.cols());
    for (unsigned F = 0; F != All.size(); ++F)
      All[F] = F;
    return All;
  }
  std::string describe() const override { return "one-level"; }

  const linalg::Matrix &centroids() const { return Centroids; }
  const ml::Normalizer &norm() const { return Norm; }
  const std::vector<unsigned> &clusterLandmark() const {
    return ClusterLandmark;
  }

private:
  linalg::Matrix Centroids;
  ml::Normalizer Norm;
  std::vector<unsigned> ClusterLandmark;
};

} // namespace core
} // namespace pbt

#endif // PBT_CORE_CLASSIFIERS_H
