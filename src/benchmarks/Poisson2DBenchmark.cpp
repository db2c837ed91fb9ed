//===- benchmarks/Poisson2DBenchmark.cpp -------------------------------------=//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//

#include "benchmarks/Poisson2DBenchmark.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace pbt;
using namespace pbt::bench;

const char *bench::poissonGenName(PoissonGen G) {
  switch (G) {
  case PoissonGen::SmoothModes:
    return "smooth-modes";
  case PoissonGen::HighFrequency:
    return "high-frequency";
  case PoissonGen::RandomNoise:
    return "random-noise";
  case PoissonGen::PointSources:
    return "point-sources";
  case PoissonGen::SparseSmooth:
    return "sparse-smooth";
  case PoissonGen::Mixed:
    return "mixed";
  }
  return "unknown";
}

pde::Grid2D bench::generatePoissonInput(PoissonGen G, size_t N,
                                        support::Rng &Rng) {
  pde::Grid2D F(N);
  auto AddMode = [&](unsigned KX, unsigned KY, double Amp) {
    for (size_t I = 1; I + 1 < N; ++I)
      for (size_t J = 1; J + 1 < N; ++J) {
        double X = static_cast<double>(I) / static_cast<double>(N - 1);
        double Y = static_cast<double>(J) / static_cast<double>(N - 1);
        F.at(I, J) += Amp * std::sin(M_PI * KX * X) * std::sin(M_PI * KY * Y);
      }
  };
  switch (G) {
  case PoissonGen::SmoothModes: {
    unsigned Modes = 1 + static_cast<unsigned>(Rng.index(3));
    for (unsigned M = 0; M != Modes; ++M)
      AddMode(1 + static_cast<unsigned>(Rng.index(3)),
              1 + static_cast<unsigned>(Rng.index(3)),
              Rng.uniform(0.5, 4.0));
    break;
  }
  case PoissonGen::HighFrequency: {
    unsigned HalfN = static_cast<unsigned>((N - 1) / 2);
    unsigned Modes = 1 + static_cast<unsigned>(Rng.index(3));
    for (unsigned M = 0; M != Modes; ++M)
      AddMode(HalfN - static_cast<unsigned>(Rng.index(4)),
              HalfN - static_cast<unsigned>(Rng.index(4)),
              Rng.uniform(0.5, 4.0));
    break;
  }
  case PoissonGen::RandomNoise:
    for (size_t I = 1; I + 1 < N; ++I)
      for (size_t J = 1; J + 1 < N; ++J)
        F.at(I, J) = Rng.gaussian(0.0, 2.0);
    break;
  case PoissonGen::PointSources: {
    unsigned Sources = 1 + static_cast<unsigned>(Rng.index(6));
    for (unsigned S = 0; S != Sources; ++S) {
      size_t I = 1 + Rng.index(N - 2);
      size_t J = 1 + Rng.index(N - 2);
      F.at(I, J) += Rng.uniform(-50.0, 50.0);
    }
    break;
  }
  case PoissonGen::SparseSmooth: {
    // Smooth field restricted to a random quadrant-ish box.
    size_t LoI = 1 + Rng.index(N / 2);
    size_t LoJ = 1 + Rng.index(N / 2);
    size_t HiI = std::min(N - 1, LoI + N / 3);
    size_t HiJ = std::min(N - 1, LoJ + N / 3);
    double Amp = Rng.uniform(1.0, 4.0);
    for (size_t I = LoI; I < HiI; ++I)
      for (size_t J = LoJ; J < HiJ; ++J) {
        double X = static_cast<double>(I - LoI) / std::max<size_t>(1, HiI - LoI);
        double Y = static_cast<double>(J - LoJ) / std::max<size_t>(1, HiJ - LoJ);
        F.at(I, J) = Amp * std::sin(M_PI * X) * std::sin(M_PI * Y);
      }
    break;
  }
  case PoissonGen::Mixed: {
    AddMode(1, 1, Rng.uniform(0.5, 2.0));
    unsigned HalfN = static_cast<unsigned>((N - 1) / 2);
    AddMode(HalfN, HalfN - 1, Rng.uniform(0.5, 2.0));
    break;
  }
  }
  return F;
}

Poisson2DBenchmark::Poisson2DBenchmark(const Options &Opts)
    : Opts(Opts), Truths(Opts.NumInputs) {
  assert(pde::Grid2D::validMultigridSize(Opts.GridN) &&
         "grid size must be 2^l + 1");
  Scheme = PDEConfigScheme::declare(Space, "poisson2d",
                                    /*MaxStationaryIters=*/4000,
                                    /*MaxCGIters=*/400);

  support::Rng Rng(Opts.Seed);
  Inputs.reserve(Opts.NumInputs);
  Tags.reserve(Opts.NumInputs);
  for (size_t I = 0; I != Opts.NumInputs; ++I) {
    PoissonGen G = static_cast<PoissonGen>(Rng.index(NumPoissonGens));
    Inputs.push_back(generatePoissonInput(G, Opts.GridN, Rng));
    Tags.push_back(poissonGenName(G));
  }
}

const Poisson2DBenchmark::GroundTruth &
Poisson2DBenchmark::groundTruth(size_t Input) const {
  // Ground truth for the accuracy metric only, never charged to the cost
  // model.
  GroundTruth &T = Truths[Input];
  std::call_once(T.Once, [&] {
    T.Reference = pde::referenceSolution(Inputs[Input]);
    T.RMS = T.Reference.rms();
  });
  return T;
}

std::vector<runtime::FeatureInfo> Poisson2DBenchmark::features() const {
  return {{"residual", 3}, {"deviation", 3}, {"zeros", 3}};
}

static size_t pdeSampleSize(unsigned Level, size_t Total) {
  size_t S = static_cast<size_t>(64) << (2 * Level); // 64 / 256 / 1024
  return std::min(S, Total);
}

double Poisson2DBenchmark::extractFeature(size_t Input, unsigned Feature,
                                          unsigned Level,
                                          support::CostCounter &Cost) const {
  assert(Input < Inputs.size() && "input out of range");
  assert(Feature < 3 && Level < 3 && "feature/level out of range");
  const std::vector<double> &D = Inputs[Input].data();
  size_t Total = D.size();
  size_t S = pdeSampleSize(Level, Total);
  size_t Stride = std::max<size_t>(1, Total / S);

  switch (Feature) {
  case 0: { // residual measure: RMS of the RHS sample (residual of the
            // zero guess)
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
Poisson2DBenchmark::run(size_t Input, const runtime::Configuration &Config,
                        support::CostCounter &Cost) const {
  assert(Input < Inputs.size() && "input out of range");
  double Before = Cost.units();
  const pde::Grid2D &F = Inputs[Input];

  pde::Grid2D U;
  switch (Scheme.solver(Config)) {
  case pde::SolverKind::Multigrid:
    U = pde::multigridSolve(F, Scheme.multigrid(Config), &Cost);
    break;
  case pde::SolverKind::Jacobi:
  case pde::SolverKind::GaussSeidel:
  case pde::SolverKind::SOR:
    U = pde::stationarySolve(F, Scheme.solver(Config),
                             Scheme.stationary(Config), &Cost);
    break;
  case pde::SolverKind::ConjugateGradient:
    U = pde::cgSolve(F, Scheme.cg(Config), &Cost);
    break;
  case pde::SolverKind::Direct:
    U = pde::directSolve(F, &Cost);
    break;
  }

  runtime::RunResult R;
  R.TimeUnits = Cost.units() - Before;
  const GroundTruth &Truth = groundTruth(Input);
  double ErrInitial = Truth.RMS; // RMS(ref - 0)
  double ErrFinal = U.rmsDistance(Truth.Reference);
  if (ErrInitial <= 1e-300)
    R.Accuracy = 16.0; // zero RHS: the zero guess is already exact
  else if (ErrFinal <= 1e-300)
    R.Accuracy = 16.0;
  else
    R.Accuracy = std::min(16.0, std::log10(ErrInitial / ErrFinal));
  return R;
}

//===----------------------------------------------------------------------===//
// Registry entry: the paper's poisson2d row.
//===----------------------------------------------------------------------===//

#include "registry/BenchmarkRegistry.h"

static registry::RegisterBenchmark
    RegPoisson2D(std::make_unique<registry::SimpleBenchmarkFactory>(
        "poisson2d", "2D Poisson solver selection (direct/SOR/multigrid)",
        /*SuiteOrder=*/6, /*ProgramSeed=*/107, /*PipelineSeed=*/1007,
        [](double Scale, uint64_t Seed) -> registry::ProgramPtr {
          Poisson2DBenchmark::Options O;
          O.NumInputs = registry::scaledInputCount(Scale, 100);
          O.GridN = 33;
          O.Seed = Seed;
          return std::make_unique<Poisson2DBenchmark>(O);
        }));
