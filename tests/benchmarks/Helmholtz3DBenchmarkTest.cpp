//===- tests/benchmarks/Helmholtz3DBenchmarkTest.cpp --------------------------=//

#include "benchmarks/Helmholtz3DBenchmark.h"

#include <gtest/gtest.h>

using namespace pbt;
using namespace pbt::bench;

namespace {

Helmholtz3DBenchmark::Options tinyOptions() {
  Helmholtz3DBenchmark::Options O;
  O.NumInputs = 6;
  O.GridN = 9;
  O.Seed = 1;
  return O;
}

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

TEST(Helmholtz3DBenchmarkTest, DirectSolverMeetsAccuracyTarget) {
  Helmholtz3DBenchmark B(tinyOptions());
  for (size_t I = 0; I != B.numInputs(); ++I) {
    runtime::RunResult R = B.runOnce(I, pdeConfig(5));
    EXPECT_GE(R.Accuracy, 7.0);
  }
}

TEST(Helmholtz3DBenchmarkTest, HeavyMultigridMeetsAccuracyTarget) {
  Helmholtz3DBenchmark B(tinyOptions());
  size_t Met = 0;
  for (size_t I = 0; I != B.numInputs(); ++I) {
    runtime::RunResult R = B.runOnce(I, pdeConfig(0, /*Cycles=*/12, 3, 3, 2));
    if (R.Accuracy >= 7.0)
      ++Met;
  }
  EXPECT_GE(Met, B.numInputs() - 1);
}

TEST(Helmholtz3DBenchmarkTest, CGConvergesOnSPDProblem) {
  Helmholtz3DBenchmark B(tinyOptions());
  runtime::RunResult R = B.runOnce(0, pdeConfig(4, 8, 2, 2, 1, 1, 1.5, 100,
                                            /*CGIters=*/300));
  EXPECT_GE(R.Accuracy, 7.0);
}

TEST(Helmholtz3DBenchmarkTest, FewStationarySweepsMissTarget) {
  Helmholtz3DBenchmark B(tinyOptions());
  size_t Missed = 0;
  for (size_t I = 0; I != B.numInputs(); ++I) {
    runtime::RunResult R = B.runOnce(I, pdeConfig(1, 8, 2, 2, 1, 1, 1.5,
                                              /*StatIters=*/10));
    if (R.Accuracy < 7.0)
      ++Missed;
  }
  EXPECT_GT(Missed, 0u);
}

TEST(Helmholtz3DBenchmarkTest, ProblemsHavePositiveCoefficients) {
  Helmholtz3DBenchmark B(tinyOptions());
  for (size_t I = 0; I != B.numInputs(); ++I) {
    const pde::HelmholtzProblem &P = B.problem(I);
    EXPECT_GT(P.Alpha, 0.0);
    for (double Beta : P.Beta.data())
      EXPECT_GT(Beta, 0.0);
  }
}

TEST(Helmholtz3DBenchmarkTest, TagsCombineRHSAndBeta) {
  Helmholtz3DBenchmark B(tinyOptions());
  for (size_t I = 0; I != B.numInputs(); ++I)
    EXPECT_NE(B.inputTag(I).find('/'), std::string::npos);
}

TEST(Helmholtz3DBenchmarkTest, FeatureExtractionCostGrowsWithLevel) {
  Helmholtz3DBenchmark B(tinyOptions());
  support::CostCounter C0, C2;
  B.extractFeature(0, 0, 0, C0);
  B.extractFeature(0, 0, 2, C2);
  EXPECT_GE(C2.units(), C0.units());
}

TEST(Helmholtz3DBenchmarkTest, RunMeasuresDelta) {
  Helmholtz3DBenchmark B(tinyOptions());
  support::CostCounter Cost;
  Cost.addOther(999.0);
  runtime::RunResult R = B.runOnce(0, pdeConfig(0, 2));
  support::CostCounter Fresh;
  runtime::RunResult R2 = B.run(0, pdeConfig(0, 2), Fresh);
  EXPECT_DOUBLE_EQ(R.TimeUnits, R2.TimeUnits);
}

} // namespace
