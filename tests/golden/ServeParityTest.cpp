//===- tests/golden/ServeParityTest.cpp --------------------------------------=//
//
// The serving-path half of the golden suite: for every committed golden
// model, the serving core (AdaptiveService, compiled arena walk), the
// core classifier driven directly through a FeatureProbe, and the batch
// API -- over the golden inputs in order, then again reversed, so half
// the batch is memo hits -- must all make exactly the per-input choices
// recorded in <name>.choices.csv. This is the pin behind the compiled
// subsystem's "bit-identical lowering" claim and behind the batch API's
// "a batch decides and counts like the same calls made one at a time"
// claim. The
// same batch, split across 1, 2 or 8 threads that take turns serving
// one service (as the daemon's session threads do under a tenant's
// ServeMutex), must decide exactly as one batch on one thread.
//
//===----------------------------------------------------------------------===//

#include "core/FeatureProbe.h"
#include "registry/BenchmarkRegistry.h"
#include "runtime/AdaptiveService.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
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

/// Expects \p Got's decision counters to equal \p Want's, the cost to
/// the bit. The golden models charge whole-number extraction costs, so
/// this cannot tell the order a batch folds its costs in;
/// AdaptiveServiceTest.BatchAccountingIsExact checks that order.
void expectSameDecisionTotals(const runtime::AdaptiveService &Got,
                              const runtime::AdaptiveService &Want) {
  runtime::AdaptiveService::StatsSnapshot G = Got.stats(), W = Want.stats();
  EXPECT_EQ(G.Decisions, W.Decisions);
  EXPECT_EQ(G.MemoizedDecisions, W.MemoizedDecisions);
  EXPECT_EQ(G.FeaturesExtracted, W.FeaturesExtracted);
  EXPECT_EQ(G.FeatureCostPaid, W.FeatureCostPaid);
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
    runtime::AdaptiveService::StatsSnapshot Before = L.Service->stats();
    runtime::AdaptiveService::Decision Compiled;
    L.Service->decideAnswers(&Input, 1, &Compiled);
    runtime::AdaptiveService::StatsSnapshot After = L.Service->stats();
    core::FeatureProbe Probe =
        core::probeFromProgram(*L.Program, Input, Index);
    unsigned Interpreted = Model.System.L2.Production->classify(Probe);
    EXPECT_EQ(Compiled.Landmark, Landmark)
        << Name << " input " << Input << ": compiled decision drifted";
    EXPECT_EQ(Interpreted, Landmark)
        << Name << " input " << Input << ": interpreted decision drifted";
    // Both paths pay the same extraction on their first (cold) call.
    EXPECT_DOUBLE_EQ(After.FeatureCostPaid,
                     Before.FeatureCostPaid + Probe.totalCost());
    EXPECT_EQ(After.FeaturesExtracted - Before.FeaturesExtracted,
              Probe.numExtracted());
  }
}

TEST_P(ServeParityTest, BatchMatchesSingleDecisions) {
  std::string Name = GetParam();
  std::vector<std::pair<size_t, unsigned>> Expected =
      readChoices(goldenPath(Name + ".choices.csv"));

  // The golden inputs, then the same inputs reversed: the second half
  // decides every input again, out of order, from the memo.
  std::vector<std::pair<size_t, unsigned>> Twice = Expected;
  Twice.insert(Twice.end(), Expected.rbegin(), Expected.rend());

  Loaded Single;
  loadGolden(Name, Single);
  std::vector<size_t> Inputs;
  std::vector<runtime::AdaptiveService::Decision> PerCall(Twice.size());
  for (const auto &[Input, Landmark] : Twice) {
    Inputs.push_back(Input);
    Single.Service->decideAnswers(&Inputs.back(), 1,
                                  &PerCall[Inputs.size() - 1]);
    ASSERT_EQ(PerCall[Inputs.size() - 1].Landmark, Landmark);
  }

  Loaded Batched;
  loadGolden(Name, Batched);
  std::vector<runtime::AdaptiveService::Decision> Batch(Inputs.size());
  Batched.Service->decideAnswers(Inputs.data(), Inputs.size(), Batch.data());
  for (size_t I = 0; I != Batch.size(); ++I) {
    EXPECT_EQ(Batch[I].Landmark, PerCall[I].Landmark) << "input " << Inputs[I];
    EXPECT_EQ(Batch[I].Epoch, PerCall[I].Epoch) << "input " << Inputs[I];
  }
  // Deterministic lifetime accounting: one batch == the same calls made
  // one at a time, the cost to the bit.
  expectSameDecisionTotals(*Batched.Service, *Single.Service);
}

TEST_P(ServeParityTest, ThreadCountInvariance) {
  std::string Name = GetParam();
  std::vector<std::pair<size_t, unsigned>> Expected =
      readChoices(goldenPath(Name + ".choices.csv"));
  // Duplicated + reordered inputs: the second half is served from the
  // memo that whichever thread served the first half filled.
  std::vector<size_t> Inputs;
  for (const auto &Choice : Expected)
    Inputs.push_back(Choice.first);
  for (auto It = Expected.rbegin(); It != Expected.rend(); ++It)
    Inputs.push_back(It->first);

  // The reference: one batch on the calling thread.
  Loaded Reference;
  loadGolden(Name, Reference);
  std::vector<runtime::AdaptiveService::Decision> Want(Inputs.size());
  Reference.Service->decideAnswers(Inputs.data(), Inputs.size(), Want.data());

  for (unsigned Threads : {1u, 2u, 8u}) {
    // Contiguous slices, each served as one batch on its own thread;
    // each thread is joined before the next starts, so one serving
    // thread drives the service at a time, as the threading contract
    // requires.
    Loaded L;
    loadGolden(Name, L);
    std::vector<runtime::AdaptiveService::Decision> Got(Inputs.size());
    size_t Slice = (Inputs.size() + Threads - 1) / Threads;
    for (size_t Begin = 0; Begin < Inputs.size(); Begin += Slice) {
      size_t N = std::min(Inputs.size() - Begin, Slice);
      std::thread Server([&] {
        L.Service->decideAnswers(&Inputs[Begin], N, &Got[Begin]);
      });
      Server.join();
    }

    for (size_t I = 0; I != Want.size(); ++I)
      EXPECT_EQ(Got[I].Landmark, Want[I].Landmark)
          << "thread-count-dependent choice at batch position " << I
          << " with " << Threads << " threads";
    expectSameDecisionTotals(*L.Service, *Reference.Service);
  }
  // Every choice, in both halves, still matches the committed goldens.
  for (size_t I = 0; I != Expected.size(); ++I) {
    EXPECT_EQ(Want[I].Landmark, Expected[I].second);
    EXPECT_EQ(Want[Want.size() - 1 - I].Landmark, Expected[I].second);
  }
}

TEST_P(ServeParityTest, RepeatDecisionsAreCachedAndIdentical) {
  std::string Name = GetParam();
  Loaded L;
  loadGolden(Name, L);
  std::vector<std::pair<size_t, unsigned>> Expected =
      readChoices(goldenPath(Name + ".choices.csv"));
  bool ExtractsFeatures = false;
  for (const auto &[Input, Landmark] : Expected) {
    runtime::AdaptiveService::Decision First, Second;
    uint64_t Extracted = L.Service->stats().FeaturesExtracted;
    L.Service->decideAnswers(&Input, 1, &First);
    runtime::AdaptiveService::StatsSnapshot Cold = L.Service->stats();
    L.Service->decideAnswers(&Input, 1, &Second);
    runtime::AdaptiveService::StatsSnapshot Warm = L.Service->stats();
    ExtractsFeatures |= Cold.FeaturesExtracted > Extracted;
    EXPECT_EQ(First.Landmark, Landmark);
    EXPECT_EQ(Second.Landmark, Landmark);
    // The repeat is a memo hit that pays nothing.
    EXPECT_EQ(Warm.MemoizedDecisions, Cold.MemoizedDecisions + 1);
    EXPECT_EQ(Warm.FeatureCostPaid, Cold.FeatureCostPaid);
    EXPECT_EQ(Warm.FeaturesExtracted, Cold.FeaturesExtracted);
  }
  // A fresh service pays extraction again and still answers
  // identically. A model whose production classifier reads no features
  // (e.g. svd's static-best) never pays extraction, so its fresh
  // decisions legitimately count as memoized under the
  // FeaturesExtracted==0 rule.
  Loaded Fresh;
  loadGolden(Name, Fresh);
  runtime::AdaptiveService::Decision D;
  Fresh.Service->decideAnswers(&Expected.front().first, 1, &D);
  EXPECT_EQ(D.Landmark, Expected.front().second);
  if (ExtractsFeatures) {
    EXPECT_EQ(Fresh.Service->stats().MemoizedDecisions, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, ServeParityTest,
                         ::testing::Values("sort1", "binpacking",
                                           "clustering1", "clustering2",
                                           "svd", "poisson2d",
                                           "helmholtz3d"));

} // namespace
