//===- tests/core/PipelineParallelTest.cpp -----------------------------------=//
//
// The acceptance contract of the ThreadPool routing: pooled training and
// evaluation produce results bitwise-identical to the sequential path
// (same seeds -> same configurations), because every measured quantity is
// a deterministic work unit and parallel stages reduce in index order.

#include "core/Pipeline.h"
#include "registry/BenchmarkRegistry.h"
#include "serialize/ModelIO.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>

using namespace pbt;
using namespace pbt::core;

namespace {

struct RunOutput {
  TrainedSystem System;
  EvaluationResult Eval;
};

RunOutput runOnce(const runtime::TunableProgram &Program,
                  const PipelineOptions &Options, support::ThreadPool *Pool) {
  RunOutput Out;
  Out.System = trainSystem(Program, Options, Pool);
  Out.Eval = evaluateSystem(Program, Out.System, Pool);
  return Out;
}

TEST(PipelineParallelTest, PooledTrainingMatchesSequential) {
  const registry::BenchmarkFactory &F =
      registry::BenchmarkRegistry::instance().get("binpacking");
  registry::ProgramPtr Program = F.makeProgram(0.15, F.defaultProgramSeed());
  PipelineOptions Options = F.defaultOptions(0.15);
  Options.L1.Tuner.PopulationSize = 8;
  Options.L1.Tuner.Generations = 4;

  support::ThreadPool Pool(4);
  RunOutput Seq = runOnce(*Program, Options, nullptr);
  RunOutput Par = runOnce(*Program, Options, &Pool);

  // Level 1: identical landmark configurations, representatives, tables.
  ASSERT_EQ(Seq.System.L1.Landmarks.size(), Par.System.L1.Landmarks.size());
  for (size_t I = 0; I != Seq.System.L1.Landmarks.size(); ++I)
    EXPECT_EQ(Seq.System.L1.Landmarks[I], Par.System.L1.Landmarks[I]) << I;
  EXPECT_EQ(Seq.System.L1.Representatives, Par.System.L1.Representatives);
  EXPECT_EQ(Seq.System.L1.Time.data(), Par.System.L1.Time.data());
  EXPECT_EQ(Seq.System.L1.Acc.data(), Par.System.L1.Acc.data());

  // Level 2: same classifier zoo outcome.
  EXPECT_EQ(Seq.System.L2.SelectedName, Par.System.L2.SelectedName);
  EXPECT_EQ(Seq.System.L2.TrainLabels, Par.System.L2.TrainLabels);
  ASSERT_EQ(Seq.System.L2.Candidates.size(), Par.System.L2.Candidates.size());
  for (size_t I = 0; I != Seq.System.L2.Candidates.size(); ++I) {
    EXPECT_EQ(Seq.System.L2.Candidates[I].Name,
              Par.System.L2.Candidates[I].Name);
    EXPECT_EQ(Seq.System.L2.Candidates[I].Objective,
              Par.System.L2.Candidates[I].Objective);
  }

  // Evaluation: identical summary numbers and per-input series.
  EXPECT_EQ(Seq.Eval.DynamicOracle, Par.Eval.DynamicOracle);
  EXPECT_EQ(Seq.Eval.TwoLevelWithFeat, Par.Eval.TwoLevelWithFeat);
  EXPECT_EQ(Seq.Eval.OneLevelWithFeat, Par.Eval.OneLevelWithFeat);
  EXPECT_EQ(Seq.Eval.TwoLevelSatisfaction, Par.Eval.TwoLevelSatisfaction);
  EXPECT_EQ(Seq.Eval.PerInputSpeedups, Par.Eval.PerInputSpeedups);
}

TEST(PipelineParallelTest, PooledLandmarkSweepMatchesSequential) {
  const registry::BenchmarkFactory &F =
      registry::BenchmarkRegistry::instance().get("sort2");
  registry::ProgramPtr Program = F.makeProgram(0.15, F.defaultProgramSeed());
  PipelineOptions Options = F.defaultOptions(0.15);
  Options.L1.NumLandmarks = 5;
  Options.L1.Tuner.PopulationSize = 8;
  Options.L1.Tuner.Generations = 3;

  TrainedSystem System = trainSystem(*Program, Options);
  std::vector<unsigned> Counts{1, 2, 4};
  support::ThreadPool Pool(3);
  std::vector<LandmarkSweepPoint> Seq =
      landmarkCountSweep(*Program, System, Counts, 12, 99, nullptr);
  std::vector<LandmarkSweepPoint> Par =
      landmarkCountSweep(*Program, System, Counts, 12, 99, &Pool);
  ASSERT_EQ(Seq.size(), Par.size());
  for (size_t I = 0; I != Seq.size(); ++I) {
    EXPECT_EQ(Seq[I].NumLandmarks, Par[I].NumLandmarks);
    EXPECT_EQ(Seq[I].Speedups.Mean, Par[I].Speedups.Mean);
    EXPECT_EQ(Seq[I].Speedups.Min, Par[I].Speedups.Min);
    EXPECT_EQ(Seq[I].Speedups.Max, Par[I].Speedups.Max);
    EXPECT_EQ(Seq[I].Speedups.Median, Par[I].Speedups.Median);
  }
}

// The columnar Dataset path's chunked fold x subset scheduling must be
// invisible in the trained artifact: training at 0 (no pool), 1, 2 and 8
// threads serializes to byte-identical model files.
TEST(PipelineParallelTest, ModelBytesInvariantAcrossThreadCounts) {
  const registry::BenchmarkFactory &F =
      registry::BenchmarkRegistry::instance().get("sort2");
  PipelineOptions Options = F.defaultOptions(0.15);
  Options.L1.Tuner.PopulationSize = 8;
  Options.L1.Tuner.Generations = 3;

  std::vector<std::string> Serialized;
  for (unsigned Threads : {0u, 1u, 2u, 8u}) {
    registry::ProgramPtr Program =
        F.makeProgram(0.15, F.defaultProgramSeed());
    std::optional<support::ThreadPool> Pool;
    if (Threads > 0)
      Pool.emplace(Threads);
    TrainedSystem System =
        trainSystem(*Program, Options, Pool ? &*Pool : nullptr);
    serialize::TrainedModel Model = serialize::makeModel(
        "sort2", 0.15, F.defaultProgramSeed(), *Program, std::move(System));
    Serialized.push_back(serialize::serializeModel(Model));
  }
  for (size_t I = 1; I != Serialized.size(); ++I)
    EXPECT_EQ(Serialized[0], Serialized[I])
        << "thread-count " << (I == 1 ? 1 : I == 2 ? 2 : 8)
        << " diverged from the sequential bytes";
}

} // namespace
