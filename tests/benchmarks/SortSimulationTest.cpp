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

#include <cstring>
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
  // Trials 0-59 draw the SortGen families; 60-99 draw sort1's
  // duplicate-heavy registry-like runs; 100-139 mix -0.0 and +0.0 into
  // either, ties that compare equal but differ in bytes. Duplicates and
  // signed zeros are the ties the k-way merge's charge and output and
  // radix's constant-byte passes must reproduce exactly.
  for (unsigned Trial = 0; Trial != 140; ++Trial) {
    SortGen G = static_cast<SortGen>(GenRng.index(NumSortGens));
    size_t N = 8 + GenRng.index(1500);
    const char *Family = sortGenName(G);
    std::vector<double> Input;
    if (Trial >= 60 && (Trial < 100 || GenRng.chance(0.5))) {
      Input = generateRegistryLikeInput(N, GenRng);
      Family = "registry";
    } else {
      Input = generateSortInput(G, N, GenRng);
    }
    if (Trial >= 100)
      for (double &X : Input)
        if (GenRng.chance(0.2))
          X = GenRng.chance(0.5) ? -0.0 : 0.0;

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
    unsigned Ways =
        PolySorter::MinMergeWays +
        static_cast<unsigned>(GenRng.index(PolySorter::MaxMergeWays -
                                           PolySorter::MinMergeWays + 1));
    PolySorter Sorter(Sel, Ways);

    std::vector<double> Physical = Input;
    support::CostCounter PhysicalCost;
    reference::physicalSort(Sorter, Physical, PhysicalCost);

    std::vector<double> Simulated = Input;
    support::CostCounter SimulatedCost;
    Sorter.sort(Simulated, SimulatedCost);

    // Byte equality: operator== would let -0.0 and +0.0 swap places.
    ASSERT_EQ(0, std::memcmp(Simulated.data(), Physical.data(),
                             N * sizeof(double)))
        << "trial " << Trial << " gen " << Family << " n=" << N;
    expectSameCharges(SimulatedCost, PhysicalCost, Family);
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
