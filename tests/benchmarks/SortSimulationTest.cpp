//===- tests/benchmarks/SortSimulationTest.cpp -------------------------------=//
//
// The charge-exact simulation contract: every sort kernel and
// SortBenchmark::run produce exactly the bytes and exactly the
// cost-category charges of the test-only physical reference -- across
// input families, sizes, selector shapes, and repeated runs (the
// canonical-configuration memo replays must be exact too).

#include "PhysicalSortReference.h"
#include "benchmarks/SortAlgorithms.h"
#include "benchmarks/SortBenchmark.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <vector>

using namespace pbt;
using namespace pbt::bench;

namespace {

void expectSameCharges(const support::CostCounter &A,
                       const support::CostCounter &B, const char *What) {
  EXPECT_EQ(A.compares(), B.compares()) << What;
  EXPECT_EQ(A.moves(), B.moves()) << What;
  EXPECT_EQ(A.flops(), B.flops()) << What;
  EXPECT_EQ(A.stencil(), B.stencil()) << What;
  EXPECT_EQ(A.other(), B.other()) << What;
}

TEST(SortSimulationTest, KernelsMatchPhysicalReferenceExactly) {
  support::Rng GenRng(777);
  for (unsigned Trial = 0; Trial != 60; ++Trial) {
    SortGen G = static_cast<SortGen>(GenRng.index(NumSortGens));
    size_t N = 8 + GenRng.index(1500);
    std::vector<double> Input = generateSortInput(G, N, GenRng);

    // A random selector over random cutoffs (including degenerate ones)
    // and a random way count drive the full polyalgorithm recursion.
    std::vector<runtime::Selector::Level> Levels;
    unsigned NumLevels = 1 + static_cast<unsigned>(GenRng.index(3));
    for (unsigned L = 0; L + 1 < NumLevels; ++L)
      Levels.push_back({4 + GenRng.index(2 * N),
                        static_cast<unsigned>(GenRng.index(NumSortAlgos))});
    Levels.push_back({UINT64_MAX,
                      static_cast<unsigned>(GenRng.index(NumSortAlgos))});
    runtime::Selector Sel(std::move(Levels));
    unsigned Ways = 2 + static_cast<unsigned>(GenRng.index(15));
    PolySorter Sorter(Sel, Ways);

    std::vector<double> Physical = Input;
    support::CostCounter PhysicalCost;
    reference::physicalSort(Sorter, Physical, PhysicalCost);

    std::vector<double> Simulated = Input;
    support::CostCounter SimulatedCost;
    Sorter.sort(Simulated, SimulatedCost);

    ASSERT_EQ(Simulated, Physical)
        << "trial " << Trial << " gen " << sortGenName(G) << " n=" << N;
    expectSameCharges(SimulatedCost, PhysicalCost, sortGenName(G));
  }
}

TEST(SortSimulationTest, BenchmarkRunsMatchPhysicalAndMemoReplaysExactly) {
  SortBenchmark::Options Opts;
  Opts.Data = SortBenchmark::Dataset::SyntheticMix;
  Opts.NumInputs = 24;
  Opts.MinSize = 64;
  Opts.MaxSize = 512;
  Opts.Seed = 31337;
  SortBenchmark Bench(Opts);

  support::Rng Rng(4242);
  for (unsigned Trial = 0; Trial != 120; ++Trial) {
    runtime::Configuration Config = Bench.space().randomConfig(Rng);
    size_t Input = Rng.index(Bench.numInputs());

    support::CostCounter Physical;
    runtime::RunResult PR =
        reference::physicalRun(Bench, Input, Config, Physical);

    support::CostCounter First;
    runtime::RunResult FR = Bench.run(Input, Config, First);
    // Run again: canonical-memo replays (hits are certain the second
    // time) must reproduce the exact charges, not an approximation.
    support::CostCounter Second;
    runtime::RunResult SR = Bench.run(Input, Config, Second);

    EXPECT_EQ(FR.TimeUnits, PR.TimeUnits) << "trial " << Trial;
    EXPECT_EQ(FR.Accuracy, PR.Accuracy);
    expectSameCharges(First, Physical, "first simulated run");
    EXPECT_EQ(SR.TimeUnits, PR.TimeUnits) << "memo replay, trial " << Trial;
    expectSameCharges(Second, Physical, "memo replay");
  }
}

} // namespace
