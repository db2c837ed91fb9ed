//===- benchmarks/Helmholtz3DBenchmark.h - The helmholtz3d benchmark -------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's helmholtz3d benchmark: solve the variable-coefficient 3D
/// Helmholtz equation alpha u - div(beta grad u) = f with an autotuned
/// solver. Same accuracy metric family as poisson2d (log10 error
/// reduction against a converged reference, threshold 7). Inputs vary in
/// right-hand-side character, coefficient contrast and the alpha/beta
/// balance, which shifts the best solver and multigrid cycle shape.
/// Features: residual measure, deviation, zeros count of the input.
///
/// The reference solution is ground truth for scoring a run only: it is
/// computed on the input's first run(), never at construction, so a
/// program that only serves decisions never pays for it.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_BENCHMARKS_HELMHOLTZ3DBENCHMARK_H
#define PBT_BENCHMARKS_HELMHOLTZ3DBENCHMARK_H

#include "benchmarks/PDEConfig.h"
#include "pde/Helmholtz3D.h"
#include "runtime/TunableProgram.h"
#include "support/Random.h"

#include <mutex>
#include <string>
#include <vector>

namespace pbt {
namespace bench {

/// Right-hand-side families for helmholtz3d.
enum class HelmholtzGen : unsigned {
  SmoothModes = 0,
  HighFrequency,
  RandomNoise,
  PointSources,
  SparseSmooth,
};
inline constexpr unsigned NumHelmholtzGens = 5;

/// Coefficient-field families.
enum class BetaGen : unsigned {
  Constant = 0,
  SmoothContrast,
  Layered,
  LogNormal,
};
inline constexpr unsigned NumBetaGens = 4;

const char *helmholtzGenName(HelmholtzGen G);
const char *betaGenName(BetaGen G);

/// Generates a right-hand side on an N^3 grid.
pde::Grid3D generateHelmholtzRHS(HelmholtzGen G, size_t N, support::Rng &Rng);
/// Generates a strictly positive coefficient field on an N^3 grid.
pde::Grid3D generateBetaField(BetaGen G, size_t N, support::Rng &Rng);

class Helmholtz3DBenchmark : public runtime::TunableProgram {
public:
  struct Options {
    size_t NumInputs = 200;
    size_t GridN = 9; ///< must be 2^l + 1
    uint64_t Seed = 6;
    double AccuracyThreshold = 7.0;
    double SatisfactionThreshold = 0.95;
  };

  explicit Helmholtz3DBenchmark(const Options &Opts);

  std::string name() const override { return "helmholtz3d"; }
  const runtime::ConfigSpace &space() const override { return Space; }
  std::vector<runtime::FeatureInfo> features() const override;
  std::optional<runtime::AccuracySpec> accuracy() const override {
    return runtime::AccuracySpec{Opts.AccuracyThreshold,
                                 Opts.SatisfactionThreshold};
  }
  size_t numInputs() const override { return Problems.size(); }
  double extractFeature(size_t Input, unsigned Feature, unsigned Level,
                        support::CostCounter &Cost) const override;
  runtime::RunResult run(size_t Input, const runtime::Configuration &Config,
                         support::CostCounter &Cost) const override;

  const pde::HelmholtzProblem &problem(size_t I) const { return Problems[I]; }
  const std::string &inputTag(size_t I) const { return Tags[I]; }

private:
  /// One input's converged reference solution and its RMS, filled once
  /// by the input's first run(); call_once makes concurrent first runs
  /// from a training pool share one computation.
  struct GroundTruth {
    std::once_flag Once;
    pde::Grid3D Reference;
    double RMS = 0.0;
  };
  const GroundTruth &groundTruth(size_t Input) const;

  Options Opts;
  runtime::ConfigSpace Space;
  PDEConfigScheme Scheme;
  std::vector<pde::HelmholtzProblem> Problems;
  std::vector<std::string> Tags;
  mutable std::vector<GroundTruth> Truths;
};

} // namespace bench
} // namespace pbt

#endif // PBT_BENCHMARKS_HELMHOLTZ3DBENCHMARK_H
