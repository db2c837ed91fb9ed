//===- tests/benchmarks/LazyGroundTruthTest.cpp ------------------------------=//
//
// The variable-accuracy benchmarks compute each input's ground truth on
// its first run(). Whichever thread gets there first, and in whatever
// order, every (input, configuration) pair must score bit for bit the
// same: one program run serially, a fresh one from a 4-thread pool in
// reverse order, so first runs of the same input race each other.
//
//===----------------------------------------------------------------------===//

#include "registry/BenchmarkRegistry.h"
#include "runtime/TunableProgram.h"
#include "support/Random.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

using namespace pbt;

namespace {

constexpr double kScale = 0.15;

bool sameBits(double A, double B) { return std::memcmp(&A, &B, sizeof A) == 0; }

class LazyGroundTruthTest : public ::testing::TestWithParam<const char *> {};

TEST_P(LazyGroundTruthTest, PooledReverseRunsMatchSerialRunsBitForBit) {
  const registry::BenchmarkFactory &F =
      registry::BenchmarkRegistry::instance().get(GetParam());
  registry::ProgramPtr A = F.makeProgram(kScale, F.defaultProgramSeed());
  registry::ProgramPtr B = F.makeProgram(kScale, F.defaultProgramSeed());
  ASSERT_TRUE(A->accuracy().has_value()) << "no ground truth to test";
  ASSERT_EQ(A->numInputs(), B->numInputs());

  support::Rng Rng(0x7A2B);
  std::vector<runtime::Configuration> Configs = {
      A->space().defaultConfig(), A->space().randomConfig(Rng),
      A->space().randomConfig(Rng)};
  const size_t NumPairs = A->numInputs() * Configs.size();
  auto PairAt = [&](size_t K) {
    return std::make_pair(K / Configs.size(), &Configs[K % Configs.size()]);
  };

  std::vector<runtime::RunResult> Serial(NumPairs);
  for (size_t K = 0; K != NumPairs; ++K) {
    auto [Input, Config] = PairAt(K);
    support::CostCounter Cost;
    Serial[K] = A->run(Input, *Config, Cost);
  }

  std::vector<runtime::RunResult> Pooled(NumPairs);
  support::ThreadPool Pool(4);
  Pool.parallelFor(0, NumPairs, [&](size_t J) {
    size_t K = NumPairs - 1 - J;
    auto [Input, Config] = PairAt(K);
    support::CostCounter Cost;
    Pooled[K] = B->run(Input, *Config, Cost);
  });

  for (size_t K = 0; K != NumPairs; ++K) {
    auto [Input, Config] = PairAt(K);
    EXPECT_TRUE(sameBits(Serial[K].TimeUnits, Pooled[K].TimeUnits))
        << "input " << Input << " config " << Config->toString() << ": "
        << Serial[K].TimeUnits << " vs " << Pooled[K].TimeUnits;
    EXPECT_TRUE(sameBits(Serial[K].Accuracy, Pooled[K].Accuracy))
        << "input " << Input << " config " << Config->toString() << ": "
        << Serial[K].Accuracy << " vs " << Pooled[K].Accuracy;
  }
}

INSTANTIATE_TEST_SUITE_P(VariableAccuracy, LazyGroundTruthTest,
                         ::testing::Values("poisson2d", "helmholtz3d",
                                           "clustering1", "clustering2"),
                         [](const ::testing::TestParamInfo<const char *> &I) {
                           return std::string(I.param);
                         });

} // namespace
