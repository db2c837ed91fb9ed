//===- benchmarks/Poisson2DBenchmark.h - The poisson2d benchmark -----------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's poisson2d benchmark: solve the 2D Poisson equation with a
/// solver chosen by the autotuner. Accuracy is the log10 ratio between the
/// RMS error of the initial (zero) guess and the RMS error of the produced
/// solution, both relative to a converged reference solution (threshold
/// 7, i.e. a 10^7 error reduction). Input sensitivity: smooth right-hand
/// sides need aggressive coarse-grid correction while high-frequency ones
/// are cheap for smoothers, so the best solver and cycle shape vary per
/// input. Features: residual measure, deviation, zeros count of the input.
///
/// The reference solution is ground truth for scoring a run only: it is
/// computed on the input's first run(), never at construction, so a
/// program that only serves decisions never pays for it.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_BENCHMARKS_POISSON2DBENCHMARK_H
#define PBT_BENCHMARKS_POISSON2DBENCHMARK_H

#include "benchmarks/PDEConfig.h"
#include "pde/Poisson2D.h"
#include "runtime/TunableProgram.h"
#include "support/Random.h"

#include <mutex>
#include <string>
#include <vector>

namespace pbt {
namespace bench {

/// Right-hand-side generator families for poisson2d.
enum class PoissonGen : unsigned {
  SmoothModes = 0, ///< a few low-frequency Fourier modes
  HighFrequency,   ///< high-frequency modes (easy for smoothers)
  RandomNoise,     ///< white noise (broad spectrum)
  PointSources,    ///< a handful of delta sources
  SparseSmooth,    ///< smooth field masked to a subregion
  Mixed,           ///< low + high frequency blend
};
inline constexpr unsigned NumPoissonGens = 6;

const char *poissonGenName(PoissonGen G);

/// Generates a right-hand side of the given family on an N x N grid.
pde::Grid2D generatePoissonInput(PoissonGen G, size_t N, support::Rng &Rng);

class Poisson2DBenchmark : public runtime::TunableProgram {
public:
  struct Options {
    size_t NumInputs = 250;
    size_t GridN = 33; ///< must be 2^l + 1
    uint64_t Seed = 5;
    double AccuracyThreshold = 7.0;
    double SatisfactionThreshold = 0.95;
  };

  explicit Poisson2DBenchmark(const Options &Opts);

  std::string name() const override { return "poisson2d"; }
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

  const pde::Grid2D &input(size_t I) const { return Inputs[I]; }
  const std::string &inputTag(size_t I) const { return Tags[I]; }
  const PDEConfigScheme &scheme() const { return Scheme; }

private:
  /// One input's converged reference solution and its RMS, filled once
  /// by the input's first run(); call_once makes concurrent first runs
  /// from a training pool share one computation.
  struct GroundTruth {
    std::once_flag Once;
    pde::Grid2D Reference;
    double RMS = 0.0;
  };
  const GroundTruth &groundTruth(size_t Input) const;

  Options Opts;
  runtime::ConfigSpace Space;
  PDEConfigScheme Scheme;
  std::vector<pde::Grid2D> Inputs;
  std::vector<std::string> Tags;
  mutable std::vector<GroundTruth> Truths;
};

} // namespace bench
} // namespace pbt

#endif // PBT_BENCHMARKS_POISSON2DBENCHMARK_H
