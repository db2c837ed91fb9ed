//===- tests/benchmarks/Poisson2DBenchmarkTest.cpp ----------------------------=//

#include "benchmarks/Poisson2DBenchmark.h"

#include <gtest/gtest.h>

using namespace pbt;
using namespace pbt::bench;

namespace {

Poisson2DBenchmark::Options tinyOptions() {
  Poisson2DBenchmark::Options O;
  O.NumInputs = 8;
  O.GridN = 17;
  O.Seed = 1;
  return O;
}

/// Builds a configuration for the PDE scheme parameter order:
/// solver, cycles, pre, post, mu, smoother, omega, statIters, cgIters,
/// cgTolerance.
runtime::Configuration pdeConfig(unsigned Solver, int64_t Cycles = 8,
                                 int64_t Pre = 2, int64_t Post = 2,
                                 int64_t Mu = 1, unsigned Smoother = 1,
                                 double Omega = 1.5, int64_t StatIters = 100,
                                 int64_t CGIters = 200,
                                 double CGTol = 1e-12) {
  return runtime::Configuration(std::vector<double>{
      static_cast<double>(Solver), static_cast<double>(Cycles),
      static_cast<double>(Pre), static_cast<double>(Post),
      static_cast<double>(Mu), static_cast<double>(Smoother), Omega,
      static_cast<double>(StatIters), static_cast<double>(CGIters), CGTol});
}

TEST(Poisson2DBenchmarkTest, DirectSolverMeetsAccuracyTarget) {
  Poisson2DBenchmark B(tinyOptions());
  for (size_t I = 0; I != B.numInputs(); ++I) {
    runtime::RunResult R = B.runOnce(I, pdeConfig(5));
    EXPECT_GE(R.Accuracy, B.accuracy()->AccuracyThreshold)
        << "direct solve is exact to machine precision";
  }
}

TEST(Poisson2DBenchmarkTest, HeavyMultigridMeetsAccuracyTarget) {
  Poisson2DBenchmark B(tinyOptions());
  size_t Met = 0;
  for (size_t I = 0; I != B.numInputs(); ++I) {
    runtime::RunResult R = B.runOnce(I, pdeConfig(0, /*Cycles=*/10));
    if (R.Accuracy >= 7.0)
      ++Met;
  }
  EXPECT_EQ(Met, B.numInputs());
}

TEST(Poisson2DBenchmarkTest, FewJacobiIterationsMissTarget) {
  Poisson2DBenchmark B(tinyOptions());
  size_t Missed = 0;
  for (size_t I = 0; I != B.numInputs(); ++I) {
    runtime::RunResult R = B.runOnce(I, pdeConfig(1, 8, 2, 2, 1, 1, 1.5,
                                              /*StatIters=*/20));
    if (R.Accuracy < 7.0)
      ++Missed;
  }
  EXPECT_GT(Missed, B.numInputs() / 2)
      << "20 Jacobi sweeps cannot reduce error by 1e7 on most inputs";
}

TEST(Poisson2DBenchmarkTest, MultigridCheaperThanDirect) {
  Poisson2DBenchmark::Options O = tinyOptions();
  O.GridN = 33;
  O.NumInputs = 3;
  Poisson2DBenchmark B(O);
  support::CostCounter CMG, CD;
  B.run(0, pdeConfig(0, /*Cycles=*/8), CMG);
  B.run(0, pdeConfig(5), CD);
  EXPECT_LT(CMG.units(), CD.units());
}

TEST(Poisson2DBenchmarkTest, MoreCyclesCostMore) {
  Poisson2DBenchmark B(tinyOptions());
  support::CostCounter C2, C8;
  B.run(0, pdeConfig(0, 2), C2);
  B.run(0, pdeConfig(0, 8), C8);
  EXPECT_GT(C8.units(), C2.units());
}

TEST(Poisson2DBenchmarkTest, ResidualFeatureReflectsRHSMagnitude) {
  Poisson2DBenchmark B(tinyOptions());
  for (size_t I = 0; I != B.numInputs(); ++I) {
    support::CostCounter C;
    double Residual = B.extractFeature(I, 0, 2, C);
    EXPECT_GE(Residual, 0.0);
    // The RHS is nonzero for every generator family.
    EXPECT_GT(Residual, 0.0);
  }
}

TEST(Poisson2DBenchmarkTest, ZerosFeatureHighForSparseInputs) {
  Poisson2DBenchmark::Options O = tinyOptions();
  O.NumInputs = 30;
  Poisson2DBenchmark B(O);
  for (size_t I = 0; I != B.numInputs(); ++I) {
    support::CostCounter C;
    double Zeros = B.extractFeature(I, 2, 2, C);
    if (B.inputTag(I) == "point-sources")
      EXPECT_GT(Zeros, 0.8) << "delta sources leave most nodes zero";
    // Boundary nodes are always zero (~21% of a 17x17 grid), so noise
    // inputs sit just above that floor.
    if (B.inputTag(I) == "random-noise") {
      EXPECT_LT(Zeros, 0.3);
    }
  }
}

TEST(Poisson2DBenchmarkTest, AccuracyIsLogErrorReduction) {
  // Jacobi damps smooth error modes at ~cos(pi*h) per sweep, so a handful
  // of sweeps on a *smooth* input cannot reduce the error much: accuracy
  // (the log10 reduction) stays small. High-frequency inputs would decay
  // fast, so restrict the check to smooth-modes inputs.
  Poisson2DBenchmark::Options O = tinyOptions();
  O.NumInputs = 30;
  Poisson2DBenchmark B(O);
  bool FoundSmooth = false;
  for (size_t I = 0; I != B.numInputs(); ++I) {
    if (B.inputTag(I) != "smooth-modes")
      continue;
    FoundSmooth = true;
    runtime::RunResult R = B.runOnce(I, pdeConfig(1, 8, 2, 2, 1, 1, 1.5,
                                                  /*StatIters=*/8));
    EXPECT_LT(R.Accuracy, 4.0);
    EXPECT_GE(R.Accuracy, 0.0);
  }
  EXPECT_TRUE(FoundSmooth);
}

TEST(Poisson2DBenchmarkTest, SatisfactionSpecMatchesPaper) {
  Poisson2DBenchmark B(tinyOptions());
  ASSERT_TRUE(B.accuracy().has_value());
  EXPECT_DOUBLE_EQ(B.accuracy()->AccuracyThreshold, 7.0);
  EXPECT_DOUBLE_EQ(B.accuracy()->SatisfactionThreshold, 0.95);
}

} // namespace
