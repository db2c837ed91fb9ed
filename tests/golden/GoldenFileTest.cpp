//===- tests/golden/GoldenFileTest.cpp ---------------------------------------=//
//
// Golden-file regression suite: serialized models for sort1, binpacking,
// clustering1, clustering2, svd, poisson2d and helmholtz3d, trained at a
// fixed seed/scale, are committed under tests/golden/. The suite asserts
//
//   (1) the committed bytes still load, and re-serialize byte-identically
//       (format stability),
//   (2) retraining from scratch at the recorded provenance reproduces the
//       committed bytes exactly (catches silent behavioral drift anywhere
//       in the two-level pipeline -- feature extraction, clustering,
//       tuning, measurement, cost matrix, classifier selection), and the
//       retrained system evaluates bit-identically to the committed model
//       loaded from those bytes, and
//   (3) a fresh AdaptiveService serving the committed model makes
//       exactly the per-input choices recorded in <name>.choices.csv,
//       and so does the model's core classifier driven directly.
//
// The committed bytes were generated on Linux/glibc (the CI platform).
// Training is bit-deterministic for a given libm; a different libc may
// differ in the last ulp of transcendentals -- regenerate there (see
// README, "Golden-file regression suite") if (2) fails without any
// behavioural change.
//
// Regenerate (deliberate behaviour changes only; see README):
//
//   G=tests/golden
//   M=sort1,binpacking,clustering1,clustering2,svd,poisson2d,helmholtz3d
//   build/pbt-bench train --only=$M --scale=0.1 --sequential --out-dir=$G
//   for m in $(echo $M | tr , ' '); do
//     build/pbt-bench predict --model=$G/$m.pbt --csv=$G/$m.choices.csv
//   done
//
//===----------------------------------------------------------------------===//

#include "core/FeatureProbe.h"
#include "core/Pipeline.h"
#include "registry/BenchmarkRegistry.h"
#include "runtime/AdaptiveService.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace pbt;

#ifndef PBT_GOLDEN_DIR
#error "PBT_GOLDEN_DIR must point at the committed golden files"
#endif

namespace {

std::string goldenPath(const std::string &File) {
  return std::string(PBT_GOLDEN_DIR) + "/" + File;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << "missing golden file " << Path;
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// Parses the `input,landmark` CSV committed next to each model.
std::vector<std::pair<size_t, unsigned>> readChoices(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "missing golden choices " << Path;
  std::vector<std::pair<size_t, unsigned>> Out;
  std::string Line;
  std::getline(In, Line); // header
  EXPECT_EQ(Line, "input,landmark");
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    size_t Comma = Line.find(',');
    if (Comma == std::string::npos) {
      ADD_FAILURE() << "malformed choices line: " << Line;
      break;
    }
    Out.emplace_back(std::stoull(Line.substr(0, Comma)),
                     static_cast<unsigned>(std::stoul(Line.substr(Comma + 1))));
  }
  return Out;
}

/// Every field of \p R, one per line at %.17g, which round-trips a double:
/// equal texts mean bitwise-equal evaluations.
std::string evaluationText(const core::EvaluationResult &R) {
  std::string Out;
  auto Add = [&Out](const std::string &Name, double V) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
    Out += Name + "=" + Buf + "\n";
  };
  Add("DynamicOracle", R.DynamicOracle);
  Add("TwoLevelNoFeat", R.TwoLevelNoFeat);
  Add("TwoLevelWithFeat", R.TwoLevelWithFeat);
  Add("OneLevelNoFeat", R.OneLevelNoFeat);
  Add("OneLevelWithFeat", R.OneLevelWithFeat);
  Add("TwoLevelSatisfaction", R.TwoLevelSatisfaction);
  Add("OneLevelSatisfaction", R.OneLevelSatisfaction);
  Add("DynamicOracleSatisfaction", R.DynamicOracleSatisfaction);
  Add("StaticOracleSatisfaction", R.StaticOracleSatisfaction);
  for (size_t I = 0; I != R.PerInputSpeedups.size(); ++I)
    Add("PerInputSpeedups[" + std::to_string(I) + "]", R.PerInputSpeedups[I]);
  return Out;
}

class GoldenFileTest : public ::testing::TestWithParam<const char *> {};

TEST_P(GoldenFileTest, CommittedModelReserializesByteIdentically) {
  std::string Name = GetParam();
  std::string Bytes = readFile(goldenPath(Name + ".pbt"));
  ASSERT_FALSE(Bytes.empty());

  serialize::TrainedModel Model;
  serialize::LoadStatus Status = serialize::loadModel(Bytes, Model);
  ASSERT_TRUE(Status.Ok) << Status.Error;
  EXPECT_EQ(serialize::serializeModel(Model), Bytes)
      << "load+save of the committed model changed its bytes: the text "
         "format drifted";
}

TEST_P(GoldenFileTest, RetrainingReproducesCommittedBytes) {
  std::string Name = GetParam();
  std::string Bytes = readFile(goldenPath(Name + ".pbt"));
  serialize::TrainedModel Committed;
  ASSERT_TRUE(serialize::loadModel(Bytes, Committed).Ok);

  // Retrain from a clean slate at the provenance recorded in the file.
  const registry::BenchmarkFactory &F =
      registry::BenchmarkRegistry::instance().get(Name);
  registry::ProgramPtr Program =
      F.makeProgram(Committed.Meta.Scale, Committed.Meta.ProgramSeed);
  core::TrainedSystem System =
      core::trainSystem(*Program, F.defaultOptions(Committed.Meta.Scale));
  serialize::TrainedModel Fresh = serialize::makeModel(
      Name, Committed.Meta.Scale, Committed.Meta.ProgramSeed, *Program,
      std::move(System));

  EXPECT_EQ(serialize::serializeModel(Fresh), Bytes)
      << "retraining " << Name
      << " no longer reproduces the committed model: the training "
         "pipeline's behaviour drifted (if intentional, regenerate the "
         "goldens; see the file header)";

  // The same retrain, evaluated on its test rows, matches the committed
  // model loaded from bytes field for field.
  EXPECT_EQ(evaluationText(core::evaluateSystem(*Program, Fresh.System)),
            evaluationText(core::evaluateSystem(*Program, Committed.System)))
      << Name << ": the retrained system and the loaded model evaluate "
         "differently";
}

TEST_P(GoldenFileTest, AdaptiveServiceReproducesCommittedChoices) {
  std::string Name = GetParam();
  serialize::TrainedModel Loaded;
  serialize::LoadStatus Status =
      serialize::loadModelFile(goldenPath(Name + ".pbt"), Loaded);
  ASSERT_TRUE(Status.Ok) << Status.Error;

  const registry::BenchmarkFactory &F =
      registry::BenchmarkRegistry::instance().get(Loaded.Meta.Benchmark);
  registry::ProgramPtr Program =
      F.makeProgram(Loaded.Meta.Scale, Loaded.Meta.ProgramSeed);
  runtime::AdaptiveService Service(*Program, std::move(Loaded));
  ASSERT_TRUE(Service.ready()) << Service.status().Error;
  const serialize::TrainedModel &Model = Service.currentEpoch()->Model;
  runtime::FeatureIndex Index(Model.Meta.Features);

  std::vector<std::pair<size_t, unsigned>> Expected =
      readChoices(goldenPath(Name + ".choices.csv"));
  ASSERT_EQ(Expected.size(), Model.System.TestRows.size());
  for (const auto &[Input, Landmark] : Expected) {
    runtime::AdaptiveService::StatsSnapshot Before = Service.stats();
    runtime::AdaptiveService::Decision D;
    Service.decideAnswers(&Input, 1, &D);
    runtime::AdaptiveService::StatsSnapshot After = Service.stats();
    EXPECT_EQ(D.Landmark, Landmark)
        << Name << " input " << Input
        << ": online decision drifted from the committed choice";
    core::FeatureProbe Probe = core::probeFromProgram(*Program, Input, Index);
    EXPECT_EQ(Model.System.L2.Production->classify(Probe), Landmark)
        << Name << " input " << Input
        << ": core classifier drifted from the committed choice";
    // Each row's decision is cold: it pays what the fresh probe pays.
    EXPECT_DOUBLE_EQ(After.FeatureCostPaid,
                     Before.FeatureCostPaid + Probe.totalCost());
    EXPECT_EQ(After.FeaturesExtracted - Before.FeaturesExtracted,
              Probe.numExtracted());
  }
}

TEST_P(GoldenFileTest, TruncatedGoldenBytesFailCleanly) {
  // The real committed artifacts under the deserializer's truncation
  // property: every sampled strict prefix ending on a line boundary must
  // be rejected, never crash or half-load.
  std::string Bytes = readFile(goldenPath(std::string(GetParam()) + ".pbt"));
  ASSERT_FALSE(Bytes.empty());
  size_t Pos = 0, Boundary = 0;
  while ((Pos = Bytes.find('\n', Pos)) != std::string::npos) {
    ++Pos;
    if (Pos >= Bytes.size())
      break; // the full file, which must load
    if (Boundary++ % 13 != 0)
      continue;
    serialize::TrainedModel Out;
    serialize::LoadStatus Status = serialize::loadModel(
        Bytes.substr(0, Pos), Out);
    EXPECT_FALSE(Status.Ok) << GetParam() << " truncated at byte " << Pos;
    EXPECT_FALSE(Status.Error.empty());
  }
  EXPECT_GT(Boundary, 13u);
}

TEST_P(GoldenFileTest, SingleCharFuzzOverGoldenNeverCrashes) {
  // One mutated character per trial: the loader either rejects the bytes
  // or yields a model that still re-serializes -- quantified over the
  // full-size committed models, not just the hand-built serializer
  // fixture.
  std::string Canonical =
      readFile(goldenPath(std::string(GetParam()) + ".pbt"));
  ASSERT_FALSE(Canonical.empty());
  support::Rng Rng(std::hash<std::string>{}(std::string(GetParam())) &
                   0xFFFF);
  const char Alphabet[] = "0123456789 .-abcz\n";
  for (int Trial = 0; Trial != 120; ++Trial) {
    std::string Text = Canonical;
    size_t Pos = Rng.index(Text.size());
    Text[Pos] = Alphabet[Rng.index(sizeof(Alphabet) - 1)];
    serialize::TrainedModel Out;
    serialize::LoadStatus Status = serialize::loadModel(Text, Out);
    if (Status.Ok) {
      EXPECT_FALSE(serialize::serializeModel(Out).empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, GoldenFileTest,
                         ::testing::Values("sort1", "binpacking",
                                           "clustering1", "clustering2",
                                           "svd", "poisson2d",
                                           "helmholtz3d"));

} // namespace
