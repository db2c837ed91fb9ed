//===- tests/golden/ServeParityTest.cpp --------------------------------------=//
//
// The serving-path half of the golden suite: for every committed golden
// model, the serving core (AdaptiveService, compiled arena walk), the
// core classifier driven directly through a FeatureProbe, the batch API,
// and the batch API under 1/2/8 worker threads must all make exactly the
// per-input choices recorded in <name>.choices.csv. This is the pin
// behind the compiled subsystem's "bit-identical lowering" claim and
// behind decideBatch's "decisions never depend on the shard count"
// claim.
//
//===----------------------------------------------------------------------===//

#include "core/FeatureProbe.h"
#include "registry/BenchmarkRegistry.h"
#include "runtime/AdaptiveService.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <memory>
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

/// One freshly loaded service per call: every scenario below must
/// reproduce the goldens from a cold start.
struct Loaded {
  registry::ProgramPtr Program;
  std::unique_ptr<runtime::AdaptiveService> Service;
};

void loadGolden(const std::string &Name, Loaded &L) {
  serialize::TrainedModel Model;
  serialize::LoadStatus Status =
      serialize::loadModelFile(goldenPath(Name + ".pbt"), Model);
  ASSERT_TRUE(Status.Ok) << Status.Error;
  const registry::BenchmarkFactory &F =
      registry::BenchmarkRegistry::instance().get(Model.Meta.Benchmark);
  L.Program = F.makeProgram(Model.Meta.Scale, Model.Meta.ProgramSeed);
  L.Service =
      std::make_unique<runtime::AdaptiveService>(*L.Program, std::move(Model));
  ASSERT_TRUE(L.Service->ready()) << L.Service->status().Error;
}

class ServeParityTest : public ::testing::TestWithParam<const char *> {};

TEST_P(ServeParityTest, CompiledAndInterpretedMatchGoldenChoices) {
  std::string Name = GetParam();
  Loaded L;
  loadGolden(Name, L);
  std::vector<std::pair<size_t, unsigned>> Expected =
      readChoices(goldenPath(Name + ".choices.csv"));
  ASSERT_FALSE(Expected.empty());

  // The reference: the model's own polymorphic production classifier,
  // probing the live program input directly.
  const serialize::TrainedModel &Model = L.Service->currentEpoch()->Model;
  runtime::FeatureIndex Index(Model.Meta.Features);
  for (const auto &[Input, Landmark] : Expected) {
    runtime::AdaptiveService::Decision Compiled = L.Service->decide(Input);
    core::FeatureProbe Probe =
        core::probeFromProgram(*L.Program, Input, Index);
    unsigned Interpreted = Model.System.L2.Production->classify(Probe);
    EXPECT_EQ(Compiled.Landmark, Landmark)
        << Name << " input " << Input << ": compiled decision drifted";
    EXPECT_EQ(Interpreted, Landmark)
        << Name << " input " << Input << ": interpreted decision drifted";
    // Both paths pay the same extraction on their first (cold) call.
    EXPECT_DOUBLE_EQ(Compiled.FeatureCost, Probe.totalCost());
    EXPECT_EQ(Compiled.FeaturesExtracted, Probe.numExtracted());
  }
}

TEST_P(ServeParityTest, BatchMatchesSingleDecisions) {
  std::string Name = GetParam();
  std::vector<std::pair<size_t, unsigned>> Expected =
      readChoices(goldenPath(Name + ".choices.csv"));

  Loaded Single;
  loadGolden(Name, Single);
  std::vector<size_t> Inputs;
  std::vector<runtime::AdaptiveService::Decision> PerCall;
  for (const auto &[Input, Landmark] : Expected) {
    Inputs.push_back(Input);
    PerCall.push_back(Single.Service->decide(Input));
    ASSERT_EQ(PerCall.back().Landmark, Landmark);
  }

  Loaded Batched;
  loadGolden(Name, Batched);
  std::vector<runtime::AdaptiveService::Decision> Batch =
      Batched.Service->decideBatch(Inputs);
  ASSERT_EQ(Batch.size(), PerCall.size());
  for (size_t I = 0; I != Batch.size(); ++I) {
    EXPECT_EQ(Batch[I].Landmark, PerCall[I].Landmark) << "input " << Inputs[I];
    EXPECT_DOUBLE_EQ(Batch[I].FeatureCost, PerCall[I].FeatureCost);
    EXPECT_EQ(Batch[I].FeaturesExtracted, PerCall[I].FeaturesExtracted);
    EXPECT_EQ(Batch[I].Memoized, PerCall[I].Memoized);
  }
  // Deterministic lifetime accounting: one batch == the same calls made
  // one at a time.
  EXPECT_EQ(Batched.Service->stats().Decisions,
            Single.Service->stats().Decisions);
  EXPECT_DOUBLE_EQ(Batched.Service->stats().FeatureCostPaid,
                   Single.Service->stats().FeatureCostPaid);
}

TEST_P(ServeParityTest, ThreadCountInvariance) {
  std::string Name = GetParam();
  std::vector<std::pair<size_t, unsigned>> Expected =
      readChoices(goldenPath(Name + ".choices.csv"));
  // Duplicated + reordered inputs: the batch also exercises the
  // same-input-same-shard memo ownership rule.
  std::vector<size_t> Inputs;
  for (const auto &Choice : Expected)
    Inputs.push_back(Choice.first);
  for (const auto &Choice : Expected)
    Inputs.push_back(Choice.first);
  std::reverse(Inputs.begin() + static_cast<long>(Expected.size()),
               Inputs.end());

  std::vector<std::vector<runtime::AdaptiveService::Decision>> Runs;
  for (unsigned Threads : {1u, 2u, 8u}) {
    support::ThreadPool Pool(Threads);
    Loaded L;
    loadGolden(Name, L);
    Runs.push_back(L.Service->decideBatch(Inputs, &Pool));
  }
  // And the poolless reference.
  {
    Loaded L;
    loadGolden(Name, L);
    Runs.push_back(L.Service->decideBatch(Inputs, nullptr));
  }

  for (size_t Run = 1; Run != Runs.size(); ++Run) {
    ASSERT_EQ(Runs[Run].size(), Runs[0].size());
    for (size_t I = 0; I != Runs[0].size(); ++I) {
      EXPECT_EQ(Runs[Run][I].Landmark, Runs[0][I].Landmark)
          << "thread-count-dependent choice at batch position " << I;
      EXPECT_DOUBLE_EQ(Runs[Run][I].FeatureCost, Runs[0][I].FeatureCost);
      EXPECT_EQ(Runs[Run][I].FeaturesExtracted,
                Runs[0][I].FeaturesExtracted);
      EXPECT_EQ(Runs[Run][I].Memoized, Runs[0][I].Memoized);
    }
  }
  // Every choice still matches the committed goldens.
  for (size_t I = 0; I != Expected.size(); ++I)
    EXPECT_EQ(Runs[0][I].Landmark, Expected[I].second);
}

TEST_P(ServeParityTest, RepeatDecisionsAreCachedAndIdentical) {
  std::string Name = GetParam();
  Loaded L;
  loadGolden(Name, L);
  std::vector<std::pair<size_t, unsigned>> Expected =
      readChoices(goldenPath(Name + ".choices.csv"));
  bool ExtractsFeatures = false;
  for (const auto &[Input, Landmark] : Expected) {
    runtime::AdaptiveService::Decision First = L.Service->decide(Input);
    runtime::AdaptiveService::Decision Second = L.Service->decide(Input);
    ExtractsFeatures |= First.FeaturesExtracted > 0;
    EXPECT_EQ(First.Landmark, Landmark);
    EXPECT_EQ(Second.Landmark, Landmark);
    EXPECT_TRUE(Second.Memoized);
    EXPECT_EQ(Second.FeatureCost, 0.0);
    EXPECT_EQ(Second.FeaturesExtracted, 0u);
  }
  // A fresh service pays extraction again and still answers
  // identically. A model whose production classifier reads no features
  // (e.g. svd's static-best) never pays extraction, so its fresh
  // decisions legitimately report Memoized under the
  // FeaturesExtracted==0 rule.
  Loaded Fresh;
  loadGolden(Name, Fresh);
  runtime::AdaptiveService::Decision D =
      Fresh.Service->decide(Expected.front().first);
  EXPECT_EQ(D.Landmark, Expected.front().second);
  if (ExtractsFeatures) {
    EXPECT_FALSE(D.Memoized);
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, ServeParityTest,
                         ::testing::Values("sort1", "binpacking",
                                           "clustering1", "clustering2",
                                           "svd", "poisson2d",
                                           "helmholtz3d"));

} // namespace
