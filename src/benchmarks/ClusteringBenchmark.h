//===- benchmarks/ClusteringBenchmark.h - The clustering benchmark ---------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's clustering benchmark: assign 2D points to clusters with a
/// k-means variant whose initial conditions (random / prefix / centerplus),
/// cluster count k and iteration budget are all set by the autotuner.
/// Accuracy is sum(d_canonical)/sum(d_ours) against a fixed canonical
/// clustering (threshold 0.8), so cheap configurations that under-cluster
/// an input fail the target on exactly the inputs that need more work.
/// The canonical clustering is ground truth for scoring a run only: it is
/// computed on the input's first run(), never at construction, so a
/// program that only serves decisions never pays for it.
///
/// Dataset flavours mirror clustering1/clustering2: LatticeMix synthesises
/// inputs shaped like the UCI Poker Hand data (low-cardinality discrete
/// attribute tuples -> lattice points with heavy multiplicity); the
/// synthetic mixture spans blobs, rings, noise and elongated clusters.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_BENCHMARKS_CLUSTERINGBENCHMARK_H
#define PBT_BENCHMARKS_CLUSTERINGBENCHMARK_H

#include "linalg/Matrix.h"
#include "ml/KMeans.h"
#include "runtime/TunableProgram.h"
#include "support/Random.h"

#include <mutex>
#include <string>
#include <vector>

namespace pbt {
namespace bench {

/// Input generator families for clustering.
enum class ClusterGen : unsigned {
  GaussianBlobs = 0,
  UniformNoise,
  Rings,
  Lattice,
  Elongated,
  BlobsPlusNoise,
};
inline constexpr unsigned NumClusterGens = 6;

const char *clusterGenName(ClusterGen G);

/// Generates an (N x 2) point set of the given family.
linalg::Matrix generateClusterInput(ClusterGen G, size_t N,
                                    support::Rng &Rng);

class ClusteringBenchmark : public runtime::TunableProgram {
public:
  enum class Dataset {
    LatticeMix,   ///< clustering1: poker-hand-like discrete inputs
    SyntheticMix, ///< clustering2: generator mixture
  };

  struct Options {
    Dataset Data = Dataset::SyntheticMix;
    size_t NumInputs = 300;
    size_t MinPoints = 200;
    size_t MaxPoints = 1200;
    uint64_t Seed = 3;
    double AccuracyThreshold = 0.8;
    double SatisfactionThreshold = 0.95;
    /// Canonical clustering parameters (ground truth for the accuracy
    /// metric).
    unsigned CanonicalK = 8;
    unsigned CanonicalIterations = 60;
  };

  explicit ClusteringBenchmark(const Options &Opts);

  std::string name() const override;
  const runtime::ConfigSpace &space() const override { return Space; }
  std::vector<runtime::FeatureInfo> features() const override;
  std::optional<runtime::AccuracySpec> accuracy() const override {
    return runtime::AccuracySpec{Opts.AccuracyThreshold,
                                 Opts.SatisfactionThreshold};
  }
  size_t numInputs() const override { return Inputs.size(); }
  double extractFeature(size_t Input, unsigned Feature, unsigned Level,
                        support::CostCounter &Cost) const override;
  runtime::RunResult run(size_t Input, const runtime::Configuration &Config,
                         support::CostCounter &Cost) const override;

  /// Decodes the k-means options a configuration selects.
  ml::KMeansOptions kmeansOptionsFor(const runtime::Configuration &Config) const;

  const linalg::Matrix &input(size_t I) const { return Inputs[I]; }
  const std::string &inputTag(size_t I) const { return Tags[I]; }
  /// Mean point-to-centre distance of input \p I's canonical clustering;
  /// computed on first use, once, then cached.
  double canonicalDistance(size_t I) const;

private:
  /// One input's canonical distance, filled once by its first use;
  /// call_once makes concurrent first runs from a training pool share
  /// one computation.
  struct GroundTruth {
    std::once_flag Once;
    double CanonicalDist = 0.0;
  };

  Options Opts;
  runtime::ConfigSpace Space;
  unsigned InitParam = 0;
  unsigned KParam = 0;
  unsigned ItersParam = 0;
  std::vector<linalg::Matrix> Inputs;
  std::vector<std::string> Tags;
  mutable std::vector<GroundTruth> Truths;
};

/// Mean Euclidean point-to-assigned-centroid distance of a clustering.
double meanPointToCenterDistance(const linalg::Matrix &Points,
                                 const ml::KMeansResult &Clustering);

} // namespace bench
} // namespace pbt

#endif // PBT_BENCHMARKS_CLUSTERINGBENCHMARK_H
