//===- benchmarks/Helmholtz3DBenchmark.cpp -----------------------------------=//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//

#include "benchmarks/Helmholtz3DBenchmark.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace pbt;
using namespace pbt::bench;

const char *bench::helmholtzGenName(HelmholtzGen G) {
  switch (G) {
  case HelmholtzGen::SmoothModes:
    return "smooth-modes";
  case HelmholtzGen::HighFrequency:
    return "high-frequency";
  case HelmholtzGen::RandomNoise:
    return "random-noise";
  case HelmholtzGen::PointSources:
    return "point-sources";
  case HelmholtzGen::SparseSmooth:
    return "sparse-smooth";
  }
  return "unknown";
}

const char *bench::betaGenName(BetaGen G) {
  switch (G) {
  case BetaGen::Constant:
    return "const-beta";
  case BetaGen::SmoothContrast:
    return "smooth-beta";
  case BetaGen::Layered:
    return "layered-beta";
  case BetaGen::LogNormal:
    return "lognormal-beta";
  }
  return "unknown";
}

pde::Grid3D bench::generateHelmholtzRHS(HelmholtzGen G, size_t N,
                                        support::Rng &Rng) {
  pde::Grid3D F(N);
  auto AddMode = [&](unsigned KX, unsigned KY, unsigned KZ, double Amp) {
    for (size_t I = 1; I + 1 < N; ++I)
      for (size_t J = 1; J + 1 < N; ++J)
        for (size_t K = 1; K + 1 < N; ++K) {
          double X = static_cast<double>(I) / static_cast<double>(N - 1);
          double Y = static_cast<double>(J) / static_cast<double>(N - 1);
          double Z = static_cast<double>(K) / static_cast<double>(N - 1);
          F.at(I, J, K) += Amp * std::sin(M_PI * KX * X) *
                           std::sin(M_PI * KY * Y) * std::sin(M_PI * KZ * Z);
        }
  };
  switch (G) {
  case HelmholtzGen::SmoothModes:
    AddMode(1, 1, 1, Rng.uniform(0.5, 4.0));
    if (Rng.chance(0.5))
      AddMode(2, 1, 2, Rng.uniform(0.3, 2.0));
    break;
  case HelmholtzGen::HighFrequency: {
    unsigned HalfN = static_cast<unsigned>((N - 1) / 2);
    AddMode(HalfN, HalfN, HalfN, Rng.uniform(0.5, 4.0));
    break;
  }
  case HelmholtzGen::RandomNoise:
    for (size_t I = 1; I + 1 < N; ++I)
      for (size_t J = 1; J + 1 < N; ++J)
        for (size_t K = 1; K + 1 < N; ++K)
          F.at(I, J, K) = Rng.gaussian(0.0, 2.0);
    break;
  case HelmholtzGen::PointSources: {
    unsigned Sources = 1 + static_cast<unsigned>(Rng.index(5));
    for (unsigned S = 0; S != Sources; ++S)
      F.at(1 + Rng.index(N - 2), 1 + Rng.index(N - 2), 1 + Rng.index(N - 2)) +=
          Rng.uniform(-40.0, 40.0);
    break;
  }
  case HelmholtzGen::SparseSmooth: {
    size_t Lo = 1 + Rng.index(std::max<size_t>(1, N / 2));
    size_t Hi = std::min(N - 1, Lo + N / 3 + 1);
    double Amp = Rng.uniform(1.0, 4.0);
    for (size_t I = Lo; I < Hi; ++I)
      for (size_t J = Lo; J < Hi; ++J)
        for (size_t K = Lo; K < Hi; ++K)
          F.at(I, J, K) = Amp;
    break;
  }
  }
  return F;
}

pde::Grid3D bench::generateBetaField(BetaGen G, size_t N, support::Rng &Rng) {
  pde::Grid3D B(N, 1.0);
  switch (G) {
  case BetaGen::Constant:
    break;
  case BetaGen::SmoothContrast: {
    double Contrast = Rng.uniform(1.0, 8.0);
    for (size_t I = 0; I != N; ++I)
      for (size_t J = 0; J != N; ++J)
        for (size_t K = 0; K != N; ++K) {
          double X = static_cast<double>(I) / static_cast<double>(N - 1);
          double Y = static_cast<double>(J) / static_cast<double>(N - 1);
          double Z = static_cast<double>(K) / static_cast<double>(N - 1);
          B.at(I, J, K) =
              1.0 + Contrast * 0.5 *
                        (1.0 + std::sin(M_PI * X) * std::sin(M_PI * Y) *
                                   std::sin(M_PI * Z));
        }
    break;
  }
  case BetaGen::Layered: {
    double High = Rng.uniform(5.0, 50.0);
    size_t Layer = 1 + Rng.index(N - 1);
    for (size_t I = 0; I != N; ++I)
      for (size_t J = 0; J != N; ++J)
        for (size_t K = 0; K != N; ++K)
          B.at(I, J, K) = I < Layer ? 1.0 : High;
    break;
  }
  case BetaGen::LogNormal:
    for (double &X : B.data())
      X = std::exp(Rng.gaussian(0.0, 0.8));
    break;
  }
  return B;
}

Helmholtz3DBenchmark::Helmholtz3DBenchmark(const Options &Opts)
    : Opts(Opts), Truths(Opts.NumInputs) {
  assert(pde::Grid3D::validMultigridSize(Opts.GridN) &&
         "grid size must be 2^l + 1");
  Scheme = PDEConfigScheme::declare(Space, "helmholtz3d",
                                    /*MaxStationaryIters=*/2000,
                                    /*MaxCGIters=*/300);

  support::Rng Rng(Opts.Seed);
  Problems.reserve(Opts.NumInputs);
  Tags.reserve(Opts.NumInputs);
  for (size_t I = 0; I != Opts.NumInputs; ++I) {
    HelmholtzGen FG = static_cast<HelmholtzGen>(Rng.index(NumHelmholtzGens));
    BetaGen BG = static_cast<BetaGen>(Rng.index(NumBetaGens));
    pde::HelmholtzProblem P;
    P.F = generateHelmholtzRHS(FG, Opts.GridN, Rng);
    P.Beta = generateBetaField(BG, Opts.GridN, Rng);
    P.Alpha = std::exp(Rng.uniform(std::log(0.1), std::log(100.0)));
    Problems.push_back(std::move(P));
    Tags.push_back(std::string(helmholtzGenName(FG)) + "/" + betaGenName(BG));
  }
}

const Helmholtz3DBenchmark::GroundTruth &
Helmholtz3DBenchmark::groundTruth(size_t Input) const {
  GroundTruth &T = Truths[Input];
  std::call_once(T.Once, [&] {
    T.Reference = pde::helmholtzReferenceSolution(Problems[Input]);
    T.RMS = T.Reference.rms();
  });
  return T;
}

std::vector<runtime::FeatureInfo> Helmholtz3DBenchmark::features() const {
  return {{"residual", 3}, {"deviation", 3}, {"zeros", 3}};
}

static size_t h3dSampleSize(unsigned Level, size_t Total) {
  size_t S = static_cast<size_t>(64) << (2 * Level);
  return std::min(S, Total);
}

double Helmholtz3DBenchmark::extractFeature(size_t Input, unsigned Feature,
                                            unsigned Level,
                                            support::CostCounter &Cost) const {
  assert(Input < Problems.size() && "input out of range");
  assert(Feature < 3 && Level < 3 && "feature/level out of range");
  const std::vector<double> &D = Problems[Input].F.data();
  size_t Total = D.size();
  size_t S = h3dSampleSize(Level, Total);
  size_t Stride = std::max<size_t>(1, Total / S);

  switch (Feature) {
  case 0: { // residual measure
    double SumSq = 0.0;
    size_t Count = 0;
    for (size_t I = 0; I < Total && Count < S; I += Stride, ++Count)
      SumSq += D[I] * D[I];
    Cost.addFlops(2.0 * static_cast<double>(Count));
    return Count > 0 ? std::sqrt(SumSq / static_cast<double>(Count)) : 0.0;
  }
  case 1: { // deviation
    double Sum = 0.0, SumSq = 0.0;
    size_t Count = 0;
    for (size_t I = 0; I < Total && Count < S; I += Stride, ++Count) {
      Sum += D[I];
      SumSq += D[I] * D[I];
    }
    Cost.addFlops(2.0 * static_cast<double>(Count));
    if (Count == 0)
      return 0.0;
    double Mean = Sum / static_cast<double>(Count);
    double Var = SumSq / static_cast<double>(Count) - Mean * Mean;
    return Var > 0.0 ? std::sqrt(Var) : 0.0;
  }
  case 2: { // zeros
    size_t Zeros = 0, Count = 0;
    for (size_t I = 0; I < Total && Count < S; I += Stride, ++Count)
      if (std::abs(D[I]) < 1e-12)
        ++Zeros;
    Cost.addCompares(static_cast<double>(Count));
    return Count > 0 ? static_cast<double>(Zeros) / static_cast<double>(Count)
                     : 0.0;
  }
  default:
    return 0.0;
  }
}

runtime::RunResult
Helmholtz3DBenchmark::run(size_t Input, const runtime::Configuration &Config,
                          support::CostCounter &Cost) const {
  assert(Input < Problems.size() && "input out of range");
  double Before = Cost.units();
  const pde::HelmholtzProblem &P = Problems[Input];

  pde::Grid3D U;
  switch (Scheme.solver(Config)) {
  case pde::SolverKind::Multigrid:
    U = pde::helmholtzMultigridSolve(P, Scheme.multigrid(Config), &Cost);
    break;
  case pde::SolverKind::Jacobi:
  case pde::SolverKind::GaussSeidel:
  case pde::SolverKind::SOR:
    U = pde::helmholtzStationarySolve(P, Scheme.solver(Config),
                                      Scheme.stationary(Config), &Cost);
    break;
  case pde::SolverKind::ConjugateGradient:
    U = pde::helmholtzCGSolve(P, Scheme.cg(Config), &Cost);
    break;
  case pde::SolverKind::Direct:
    U = pde::helmholtzDirectSolve(P, &Cost);
    break;
  }

  runtime::RunResult R;
  R.TimeUnits = Cost.units() - Before;
  const GroundTruth &Truth = groundTruth(Input);
  double ErrInitial = Truth.RMS;
  double ErrFinal = U.rmsDistance(Truth.Reference);
  if (ErrInitial <= 1e-300)
    R.Accuracy = 16.0;
  else if (ErrFinal <= 1e-300)
    R.Accuracy = 16.0;
  else
    R.Accuracy = std::min(16.0, std::log10(ErrInitial / ErrFinal));
  return R;
}

//===----------------------------------------------------------------------===//
// Registry entry: the paper's helmholtz3d row.
//===----------------------------------------------------------------------===//

#include "registry/BenchmarkRegistry.h"

static registry::RegisterBenchmark
    RegHelmholtz3D(std::make_unique<registry::SimpleBenchmarkFactory>(
        "helmholtz3d", "3D Helmholtz solver selection (paper helmholtz3d)",
        /*SuiteOrder=*/7, /*ProgramSeed=*/108, /*PipelineSeed=*/1008,
        [](double Scale, uint64_t Seed) -> registry::ProgramPtr {
          Helmholtz3DBenchmark::Options O;
          O.NumInputs = registry::scaledInputCount(Scale, 100);
          O.GridN = 9;
          O.Seed = Seed;
          return std::make_unique<Helmholtz3DBenchmark>(O);
        }));
