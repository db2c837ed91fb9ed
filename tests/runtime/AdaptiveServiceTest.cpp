//===- tests/runtime/AdaptiveServiceTest.cpp ---------------------------------=//
//
// The serving core in isolation: construction/validation, parity with
// the model's own core classifier (live probes and the recorded training
// tables) and with the in-process system's choices after a round trip
// through bytes or disk, feature memoization and its accounting,
// epoch-keyed decision caching across hot swaps, batch thread-count
// invariance, and the concurrency stress the subsystem's thread contract
// promises -- many small decideBatch calls on an oversubscribed pool
// racing a hot-swapper thread (the TSan target).
//
//===----------------------------------------------------------------------===//

#include "runtime/AdaptiveService.h"

#include "core/FeatureProbe.h"
#include "registry/BenchmarkRegistry.h"
#include "runtime/SubsetProgram.h"
#include "streams/WorkloadStream.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

using namespace pbt;

namespace {

constexpr double kScale = 0.1;

/// One registry benchmark trained in process, with the decisions the
/// in-process system makes on its test rows recorded before the system
/// is moved into its serialized form.
struct Trained {
  std::vector<unsigned> ProductionChoices; // per test row
  std::vector<double> ProductionCosts;
  std::string Bytes; // serialized model
};

Trained trainAndSerialize(const std::string &Name) {
  const registry::BenchmarkFactory &F =
      registry::BenchmarkRegistry::instance().get(Name);
  registry::ProgramPtr P = F.makeProgram(kScale, F.defaultProgramSeed());
  core::TrainedSystem Sys = core::trainSystem(*P, F.defaultOptions(kScale));
  Trained T;
  for (size_t Row : Sys.TestRows) {
    core::FeatureProbe Probe =
        core::probeFromTable(Sys.L1.Features, Sys.L1.ExtractCosts, Row);
    T.ProductionChoices.push_back(Sys.L2.Production->classify(Probe));
    T.ProductionCosts.push_back(Probe.totalCost());
  }
  serialize::TrainedModel M = serialize::makeModel(
      Name, kScale, F.defaultProgramSeed(), *P, std::move(Sys));
  T.Bytes = serialize::serializeModel(M);
  return T;
}

/// Trains the sort1 model once per process; tests clone it through the
/// serializer (TrainedModel is move-only).
const Trained &sortModel() {
  static const Trained T = trainAndSerialize("sort1");
  return T;
}

const std::string &modelBytes() { return sortModel().Bytes; }

/// The variable-accuracy benchmark, trained once per process.
const Trained &binpackingModel() {
  static const Trained T = trainAndSerialize("binpacking");
  return T;
}

/// A second, genuinely different model: trained on the first half of the
/// inputs only.
const std::string &altModelBytes() {
  static const std::string Bytes = [] {
    const registry::BenchmarkFactory &F =
        registry::BenchmarkRegistry::instance().get("sort1");
    registry::ProgramPtr P = F.makeProgram(kScale, F.defaultProgramSeed());
    std::vector<size_t> Half;
    for (size_t I = 0; I != P->numInputs() / 2; ++I)
      Half.push_back(I);
    runtime::SubsetProgram View(*P, Half);
    core::PipelineOptions Opt =
        registry::reservoirRetrainOptions(F, kScale, Half.size());
    core::TrainedSystem Sys = core::trainSystem(View, Opt);
    serialize::TrainedModel M = serialize::makeModel(
        "sort1", kScale, F.defaultProgramSeed(), View, std::move(Sys));
    return serialize::serializeModel(M);
  }();
  return Bytes;
}

serialize::TrainedModel cloneModel(const std::string &Bytes) {
  serialize::TrainedModel M;
  EXPECT_TRUE(serialize::loadModel(Bytes, M).Ok);
  return M;
}

/// The sort1 model with its one-level baseline promoted to production: a
/// loadable model that fits the program but that no trainer produces.
serialize::TrainedModel oneLevelModel() {
  serialize::TrainedModel M = cloneModel(modelBytes());
  M.System.L2.Production = std::move(M.System.OneLevel);
  return M;
}

registry::ProgramPtr makeProgram(const std::string &Name = "sort1") {
  const registry::BenchmarkFactory &F =
      registry::BenchmarkRegistry::instance().get(Name);
  return F.makeProgram(kScale, F.defaultProgramSeed());
}

/// Serves every test row of \p T through \p Service and checks the
/// choices (and, when \p CheckCost, the extraction paid) against what the
/// in-process system decided before serialization.
void expectInProcessChoices(runtime::AdaptiveService &Service,
                            const Trained &T, bool CheckCost) {
  const serialize::TrainedModel &Model = Service.currentEpoch()->Model;
  const std::vector<size_t> &Rows = Model.System.TestRows;
  ASSERT_EQ(Rows.size(), T.ProductionChoices.size());
  for (size_t I = 0; I != Rows.size(); ++I) {
    runtime::AdaptiveService::Decision D = Service.decide(Rows[I]);
    EXPECT_EQ(D.Landmark, T.ProductionChoices[I]) << "row " << Rows[I];
    ASSERT_NE(D.Config, nullptr);
    EXPECT_EQ(D.Config->values(),
              Model.System.L1.Landmarks[D.Landmark].values());
    // Live extraction pays exactly what the precomputed tables recorded.
    if (CheckCost) {
      EXPECT_DOUBLE_EQ(D.FeatureCost, T.ProductionCosts[I])
          << "row " << Rows[I];
    }
  }
}

TEST(AdaptiveServiceTest, RejectsMismatchedProgram) {
  registry::ProgramPtr Wrong = makeProgram("binpacking");
  runtime::AdaptiveService Service(*Wrong, cloneModel(modelBytes()));
  EXPECT_FALSE(Service.ready());
  EXPECT_FALSE(Service.status().Ok);
  EXPECT_FALSE(Service.status().Error.empty());
}

TEST(AdaptiveServiceTest, RejectsModelOfAnotherBenchmark) {
  // The reverse pairing: a binpacking model offered to the sort1 program.
  registry::ProgramPtr P = makeProgram();
  runtime::AdaptiveService Service(*P, cloneModel(binpackingModel().Bytes));
  EXPECT_FALSE(Service.ready());
  EXPECT_FALSE(Service.status().Ok);
  EXPECT_FALSE(Service.status().Error.empty());
}

TEST(AdaptiveServiceTest, RejectsOutOfRangeLandmarkValues) {
  // A structurally valid model whose landmark values fall outside the
  // program's declared parameter ranges must not be served: the values
  // feed enum casts and array indexing inside the benchmarks.
  registry::ProgramPtr P = makeProgram();
  serialize::TrainedModel OutOfRange = cloneModel(modelBytes());
  OutOfRange.System.L1.Landmarks[0].set(0, 1e9);
  runtime::AdaptiveService Bad(*P, std::move(OutOfRange));
  EXPECT_FALSE(Bad.ready());
  EXPECT_NE(Bad.status().Error.find("outside its declared range"),
            std::string::npos)
      << Bad.status().Error;
}

TEST(AdaptiveServiceTest, SerializedTextRoundTripsByteIdentically) {
  serialize::TrainedModel Loaded;
  serialize::LoadStatus Status = serialize::loadModel(modelBytes(), Loaded);
  ASSERT_TRUE(Status.Ok) << Status.Error;
  EXPECT_EQ(serialize::serializeModel(Loaded), modelBytes());

  // Binding and compiling for service leaves the model's bytes alone.
  registry::ProgramPtr P = makeProgram();
  runtime::AdaptiveService Service(*P, std::move(Loaded));
  ASSERT_TRUE(Service.ready()) << Service.status().Error;
  EXPECT_EQ(serialize::serializeModel(Service.currentEpoch()->Model),
            modelBytes());
}

TEST(AdaptiveServiceTest, DecisionsMatchTheCoreClassifier) {
  registry::ProgramPtr P = makeProgram();
  runtime::AdaptiveService Adaptive(*P, cloneModel(modelBytes()));
  ASSERT_TRUE(Adaptive.ready()) << Adaptive.status().Error;
  const serialize::TrainedModel &Model = Adaptive.currentEpoch()->Model;
  const core::InputClassifier &Production = *Model.System.L2.Production;
  runtime::FeatureIndex Index(Model.Meta.Features);

  for (size_t I = 0; I != P->numInputs(); ++I) {
    runtime::AdaptiveService::Decision A = Adaptive.decide(I);
    core::FeatureProbe Probe = core::probeFromProgram(*P, I, Index);
    unsigned R = Production.classify(Probe);
    EXPECT_EQ(A.Landmark, R) << "input " << I;
    EXPECT_DOUBLE_EQ(A.FeatureCost, Probe.totalCost());
    EXPECT_EQ(A.FeaturesExtracted, Probe.numExtracted());
    ASSERT_NE(A.Config, nullptr);
    EXPECT_EQ(A.Config->values(), Model.System.L1.Landmarks[R].values());
  }
  // The recorded training tables drive the loaded classifier to the same
  // choice as live extraction.
  for (size_t Row : Model.System.TestRows) {
    core::FeatureProbe Table = core::probeFromTable(
        Model.System.L1.Features, Model.System.L1.ExtractCosts, Row);
    EXPECT_EQ(Adaptive.decide(Row).Landmark, Production.classify(Table))
        << "row " << Row;
  }
}

TEST(AdaptiveServiceTest, ReproducesInProcessChoicesOnFreshLoad) {
  registry::ProgramPtr P = makeProgram();
  runtime::AdaptiveService Service(*P, cloneModel(modelBytes()));
  ASSERT_TRUE(Service.ready()) << Service.status().Error;
  expectInProcessChoices(Service, sortModel(), /*CheckCost=*/true);
}

TEST(AdaptiveServiceTest, BinPackingReproducesInProcessChoices) {
  // The variable-accuracy benchmark of the acceptance bar: serving from
  // bytes must equal the in-process system on every test input.
  const Trained &T = binpackingModel();
  serialize::TrainedModel Loaded;
  ASSERT_TRUE(serialize::loadModel(T.Bytes, Loaded).Ok);
  EXPECT_EQ(serialize::serializeModel(Loaded), T.Bytes);
  registry::ProgramPtr P = makeProgram("binpacking");
  runtime::AdaptiveService Service(*P, std::move(Loaded));
  ASSERT_TRUE(Service.ready()) << Service.status().Error;
  expectInProcessChoices(Service, T, /*CheckCost=*/true);
}

TEST(AdaptiveServiceTest, FileRoundTripThroughDisk) {
  std::string Path = ::testing::TempDir() + "pbt-service-roundtrip-" +
                     std::to_string(::getpid()) + ".pbt";
  serialize::TrainedModel Model = cloneModel(modelBytes());
  ASSERT_TRUE(serialize::saveModelFile(Path, Model).Ok);

  serialize::TrainedModel FromDisk;
  serialize::LoadStatus Status = serialize::loadModelFile(Path, FromDisk);
  std::remove(Path.c_str());
  ASSERT_TRUE(Status.Ok) << Status.Error;
  registry::ProgramPtr P = makeProgram();
  runtime::AdaptiveService Service(*P, std::move(FromDisk));
  ASSERT_TRUE(Service.ready()) << Service.status().Error;
  expectInProcessChoices(Service, sortModel(), /*CheckCost=*/false);
}

TEST(AdaptiveServiceTest, MemoizesFeatureExtractionPerInput) {
  registry::ProgramPtr P = makeProgram();
  runtime::AdaptiveService Service(*P, cloneModel(modelBytes()));
  ASSERT_TRUE(Service.ready()) << Service.status().Error;

  size_t Row = Service.currentEpoch()->Model.System.TestRows.front();
  runtime::AdaptiveService::Decision First = Service.decide(Row);
  runtime::AdaptiveService::Decision Second = Service.decide(Row);
  EXPECT_EQ(First.Landmark, Second.Landmark);
  EXPECT_TRUE(Second.Memoized);
  EXPECT_EQ(Second.FeatureCost, 0.0);
  EXPECT_EQ(Second.FeaturesExtracted, 0u);

  // Every input's features are charged exactly once over the service's
  // lifetime, however often it is decided.
  double ColdCost = First.FeatureCost;
  for (size_t I = 0; I != P->numInputs(); ++I)
    if (I != Row)
      ColdCost += Service.decide(I).FeatureCost;
  for (size_t I = 0; I != P->numInputs(); ++I)
    EXPECT_TRUE(Service.decide(I).Memoized) << "input " << I;

  runtime::AdaptiveService::StatsSnapshot S = Service.stats();
  EXPECT_EQ(S.Decisions, 2 * P->numInputs() + 1);
  EXPECT_GE(S.MemoizedDecisions, P->numInputs() + 1);
  EXPECT_DOUBLE_EQ(S.FeatureCostPaid, ColdCost);
  EXPECT_EQ(S.MonitorCostPaid, 0.0); // decide() never observes
}

/// What stats() must report after serving some Decisions: their totals,
/// summed decision by decision in the order they were served.
struct DecisionSums {
  uint64_t Decisions = 0, Memoized = 0, Extracted = 0;
  double Cost = 0.0;
  void add(const runtime::AdaptiveService::Decision &D) {
    ++Decisions;
    Memoized += D.Memoized;
    Extracted += D.FeaturesExtracted;
    Cost += D.FeatureCost;
  }
  void expectMatches(const runtime::AdaptiveService::StatsSnapshot &S) const {
    EXPECT_EQ(S.Decisions, Decisions);
    EXPECT_EQ(S.MemoizedDecisions, Memoized);
    EXPECT_EQ(S.FeaturesExtracted, Extracted);
    // Exact, not near: the service folds each batch's costs in decision
    // order, as one add per decision would.
    EXPECT_EQ(S.FeatureCostPaid, Cost);
  }
};

/// Halves of \p N inputs and a batch that repeats one cold input.
struct BatchPlan {
  std::vector<size_t> FirstHalf, SecondHalf, Repeats;
  explicit BatchPlan(size_t N) {
    for (size_t I = 0; I != N; ++I)
      (I < N / 2 ? FirstHalf : SecondHalf).push_back(I);
    Repeats = {N / 2 + 1, N / 2 + 1, 0, N / 2 + 1};
  }
};

TEST(AdaptiveServiceTest, BatchAccountingIsExact) {
  // decideBatch adds a batch to the totals once; serve() once per
  // decision. Either way stats() must equal the sums over the Decisions
  // handed out: cold inputs, warm ones, an input repeated inside one
  // batch, and a swap between batches (memo rows kept, decisions
  // recomputed under the new epoch). sort1 swaps to a different model
  // and extracts one feature per cold decision; binpacking swaps to a
  // copy of its own model and extracts up to seven.
  auto CheckBatches = [](const std::string &Name, const std::string &Bytes,
                         const std::string &SwapBytes, DecisionSums &Want) {
    SCOPED_TRACE(Name);
    registry::ProgramPtr P = makeProgram(Name);
    ASSERT_GE(P->numInputs(), 8u);
    BatchPlan Plan(P->numInputs());
    runtime::AdaptiveService Service(*P, cloneModel(Bytes));
    ASSERT_TRUE(Service.ready());
    auto Batch = [&](const std::vector<size_t> &Inputs) {
      for (const runtime::AdaptiveService::Decision &D :
           Service.decideBatch(Inputs))
        Want.add(D);
    };
    Batch(Plan.FirstHalf); // cold
    Batch(Plan.FirstHalf); // warm
    Batch(Plan.Repeats);   // one cold input three times, one warm
    ASSERT_TRUE(Service.swapModel(cloneModel(SwapBytes)).Ok);
    Batch(Plan.FirstHalf);  // memoized features, the new epoch decides
    Batch(Plan.SecondHalf); // the rest, cold under the new epoch
    EXPECT_GT(Want.Extracted, 0u);
    EXPECT_GT(Want.Memoized, 0u);
    EXPECT_LT(Want.Memoized, Want.Decisions);
    Want.expectMatches(Service.stats());
  };
  DecisionSums Sort, Bin;
  CheckBatches("sort1", modelBytes(), altModelBytes(), Sort);
  CheckBatches("binpacking", binpackingModel().Bytes, binpackingModel().Bytes,
               Bin);
  EXPECT_GT(Bin.Extracted, Bin.Decisions - Bin.Memoized)
      << "no decision extracted more than one feature";

  registry::ProgramPtr P = makeProgram();
  BatchPlan Plan(P->numInputs());
  runtime::AdaptiveServiceOptions O;
  O.AutoAdapt = false;
  runtime::AdaptiveService Service(*P, cloneModel(modelBytes()), O);
  ASSERT_TRUE(Service.ready());
  DecisionSums Want;
  auto Serve = [&](const std::vector<size_t> &Inputs) {
    for (size_t Input : Inputs)
      Want.add(Service.serve(Input));
  };
  Serve(Plan.Repeats);
  Serve(Plan.FirstHalf);
  ASSERT_TRUE(Service.swapModel(cloneModel(altModelBytes())).Ok);
  Serve(Plan.FirstHalf);
  Serve(Plan.SecondHalf);
  EXPECT_GT(Want.Extracted, 0u);
  Want.expectMatches(Service.stats());
}

TEST(AdaptiveServiceTest, ShadowScoreIsTheMeanRunCostOfDecide) {
  // The one scorer of the swap gate and the rollout canary. Scoring the
  // serving epoch gives the mean run cost of the configurations decide()
  // picks, to the bit, and leaves stats() and the memo as they were. The
  // first half of the sample is decided before scoring (memo hits), the
  // rest is cold: after scoring, deciding it is still a memo miss that
  // pays its own extraction.
  registry::ProgramPtr P = makeProgram();
  runtime::AdaptiveService Service(*P, cloneModel(modelBytes()));
  ASSERT_TRUE(Service.ready());
  std::vector<size_t> Sample;
  for (size_t I = 0; I != P->numInputs(); I += 2)
    Sample.push_back(I);
  const size_t Warm = Sample.size() / 2;
  for (size_t K = 0; K != Warm; ++K)
    Service.decide(Sample[K]);

  runtime::AdaptiveService::StatsSnapshot Before = Service.stats();
  double Score = Service.shadowScore(*Service.currentEpoch(), Sample);
  runtime::AdaptiveService::StatsSnapshot After = Service.stats();
  EXPECT_EQ(After.Decisions, Before.Decisions);
  EXPECT_EQ(After.MemoizedDecisions, Before.MemoizedDecisions);
  EXPECT_EQ(After.FeaturesExtracted, Before.FeaturesExtracted);
  EXPECT_EQ(After.FeatureCostPaid, Before.FeatureCostPaid);
  EXPECT_EQ(After.MonitorCostPaid, Before.MonitorCostPaid);

  double Total = 0.0;
  for (size_t K = 0; K != Sample.size(); ++K) {
    runtime::AdaptiveService::Decision D = Service.decide(Sample[K]);
    EXPECT_EQ(D.Memoized, K < Warm) << "input " << Sample[K];
    EXPECT_EQ(D.FeaturesExtracted > 0, K >= Warm) << "input " << Sample[K];
    Total += P->runOnce(Sample[K], *D.Config).TimeUnits;
  }
  EXPECT_EQ(Score, Total / static_cast<double>(Sample.size()));
}

/// An answer buffer entry of the kind a daemon session keeps.
struct LeanAnswer {
  uint32_t Landmark = 0;
  uint64_t Epoch = 0;
};

TEST(AdaptiveServiceTest, DecideAnswersMatchesDecideBatch) {
  // The lean loop and the Decision vector, fed the same batches by two
  // services on the same model, answer alike, and the lean service's
  // stats() equal the sums over the Decisions to the bit: cold inputs,
  // warm ones, an input repeated inside one batch, and a swap between
  // batches.
  auto CheckBatches = [](const std::string &Name, const std::string &Bytes,
                         const std::string &SwapBytes) {
    SCOPED_TRACE(Name);
    registry::ProgramPtr P = makeProgram(Name);
    ASSERT_GE(P->numInputs(), 8u);
    BatchPlan Plan(P->numInputs());
    runtime::AdaptiveService Vector(*P, cloneModel(Bytes));
    runtime::AdaptiveService Lean(*P, cloneModel(Bytes));
    ASSERT_TRUE(Vector.ready() && Lean.ready());
    std::vector<LeanAnswer> Answers;
    DecisionSums Want;
    auto Batch = [&](const std::vector<size_t> &Inputs) {
      std::vector<runtime::AdaptiveService::Decision> Ds =
          Vector.decideBatch(Inputs);
      Answers.assign(Inputs.size(), LeanAnswer());
      runtime::AdaptiveService::EpochPtr Ep =
          Lean.decideAnswers(Inputs.data(), Inputs.size(), Answers.data());
      EXPECT_EQ(Ep, Lean.currentEpoch());
      for (size_t I = 0; I != Inputs.size(); ++I) {
        EXPECT_EQ(Answers[I].Landmark, Ds[I].Landmark) << "input " << I;
        EXPECT_EQ(Answers[I].Epoch, Ds[I].Epoch) << "input " << I;
        EXPECT_EQ(Answers[I].Epoch, Ep->Model.Meta.Epoch);
        Want.add(Ds[I]);
      }
      Want.expectMatches(Lean.stats());
      EXPECT_EQ(Lean.stats().MonitorCostPaid, 0.0);
    };
    Batch(Plan.FirstHalf); // cold
    Batch(Plan.FirstHalf); // warm
    Batch(Plan.Repeats);   // one cold input three times, one warm
    ASSERT_TRUE(Vector.swapModel(cloneModel(SwapBytes)).Ok);
    ASSERT_TRUE(Lean.swapModel(cloneModel(SwapBytes)).Ok);
    Batch(Plan.FirstHalf);  // memoized features, the new epoch decides
    Batch(Plan.SecondHalf); // the rest, cold under the new epoch
    Batch({});
    EXPECT_GT(Want.Extracted, 0u);
    EXPECT_GT(Want.Memoized, 0u);
    EXPECT_LT(Want.Memoized, Want.Decisions);
  };
  CheckBatches("sort1", modelBytes(), altModelBytes());
  CheckBatches("binpacking", binpackingModel().Bytes,
               binpackingModel().Bytes);
}

TEST(AdaptiveServiceTest, ServeAnswersMatchesPerInputServe) {
  // Twin adapting tenants, bound as pbt-serve --adapt binds them, serve
  // perfbench's adapt sort1 stream (abrupt, cycled): one in 16-input
  // serveAnswers() batches, the other one serve() per input. Drift
  // flags, retrains and swaps land in the batches, and an operator swap
  // lands between two; every answer, counter and swap record must agree,
  // the counters to the bit. The monitor checks every 16th observation,
  // so 16-input batches meet each check at their last input; a leading
  // 7-input batch moves every check to the middle of a batch.
  streams::WorkloadStreamOptions SO;
  SO.Kind = streams::Schedule::Abrupt;
  SO.Requests = 500;
  // perfbench's adapt stream seed for round 0, connection 0, tenant 0.
  const uint64_t StreamSeed = 0xADA97;
  SO.Seed = ((StreamSeed * 1000003u + 0) * 131u + 0) * 131u + 0;
  for (size_t Lead : {size_t(0), size_t(7)}) {
    SCOPED_TRACE("leading batch of " + std::to_string(Lead));
    registry::BoundModel Batched =
        registry::bindModel(cloneModel(modelBytes()), 64, 48, true);
    registry::BoundModel PerInput =
        registry::bindModel(cloneModel(modelBytes()), 64, 48, true);
    ASSERT_TRUE(Batched.Status.Ok) << Batched.Status.Error;
    ASSERT_TRUE(PerInput.Status.Ok) << PerInput.Status.Error;
    runtime::AdaptiveService &A = *Batched.Service;
    runtime::AdaptiveService &B = *PerInput.Service;
    streams::WorkloadStream Stream(*Batched.Program, SO);
    const std::vector<size_t> &Seq = Stream.sequence();

    // Batch sizes: Lead (when nonzero), then 16s over three passes.
    std::vector<size_t> Sizes;
    if (Lead)
      Sizes.push_back(Lead);
    while (Sizes.size() * 16 < 3 * Seq.size())
      Sizes.push_back(16);
    const size_t SwapAt = Sizes.size() / 2;
    std::vector<size_t> Inputs;
    std::vector<LeanAnswer> Answers;
    uint64_t Tick = 0, Flags = 0, Swapped = 0, MidBatchSwaps = 0;
    for (size_t K = 0; K != Sizes.size(); ++K) {
      if (K == SwapAt) {
        // The retired epoch's decision and cluster memos must not leak.
        ASSERT_TRUE(A.swapModel(cloneModel(altModelBytes())).Ok);
        ASSERT_TRUE(B.swapModel(cloneModel(altModelBytes())).Ok);
      }
      Inputs.resize(Sizes[K]);
      Answers.assign(Sizes[K], LeanAnswer());
      for (size_t &In : Inputs)
        In = Seq[Tick++ % Seq.size()];
      runtime::AdaptiveService::EpochPtr Ep =
          A.serveAnswers(Inputs.data(), Inputs.size(), Answers.data());
      for (size_t I = 0; I != Inputs.size(); ++I) {
        runtime::AdaptiveService::Decision D = B.serve(Inputs[I]);
        ASSERT_EQ(Answers[I].Landmark, D.Landmark)
            << "batch " << K << " #" << I;
        ASSERT_EQ(Answers[I].Epoch, D.Epoch) << "batch " << K << " #" << I;
        Flags += D.DriftFlagged;
        Swapped += D.Swapped;
        MidBatchSwaps += D.Swapped && I + 1 != Inputs.size();
      }
      // The epoch returned is the one that decided the batch's last input.
      EXPECT_EQ(Ep->Model.Meta.Epoch, Answers.back().Epoch);
    }

    runtime::AdaptiveService::StatsSnapshot SA = A.stats(), SB = B.stats();
    EXPECT_EQ(SA.Decisions, Tick);
    EXPECT_EQ(SA.Decisions, SB.Decisions);
    EXPECT_EQ(SA.MemoizedDecisions, SB.MemoizedDecisions);
    EXPECT_EQ(SA.FeaturesExtracted, SB.FeaturesExtracted);
    EXPECT_EQ(SA.FeatureCostPaid, SB.FeatureCostPaid);
    EXPECT_EQ(SA.MonitorCostPaid, SB.MonitorCostPaid);
    EXPECT_EQ(SA.DriftDetections, SB.DriftDetections);
    EXPECT_EQ(SA.Retrains, SB.Retrains);
    EXPECT_EQ(SA.Swaps, SB.Swaps);
    EXPECT_EQ(SA.RejectedCandidates, SB.RejectedCandidates);
    EXPECT_EQ(SA.SkippedRetrains, SB.SkippedRetrains);
    EXPECT_EQ(SA.LastSkipReason, SB.LastSkipReason);
    EXPECT_EQ(SB.DriftDetections, Flags);
    // One of the swaps is the operator's.
    EXPECT_EQ(SB.Swaps, Swapped + 1);
    EXPECT_GT(Swapped, 0u) << "the stream must drive a drift swap";
    EXPECT_GT(SB.RejectedCandidates, 0u);
    if (Lead) {
      EXPECT_EQ(MidBatchSwaps, Swapped) << "a drift swap ended a batch";
    }

    std::vector<runtime::AdaptiveService::SwapRecord> HA = A.history(),
                                                      HB = B.history();
    ASSERT_EQ(HA.size(), HB.size());
    for (size_t I = 0; I != HA.size(); ++I) {
      EXPECT_EQ(HA[I].FromEpoch, HB[I].FromEpoch) << "attempt " << I;
      EXPECT_EQ(HA[I].ToEpoch, HB[I].ToEpoch) << "attempt " << I;
      EXPECT_EQ(HA[I].AtDecision, HB[I].AtDecision) << "attempt " << I;
      EXPECT_EQ(HA[I].ChampionShadowCost, HB[I].ChampionShadowCost)
          << "attempt " << I;
      EXPECT_EQ(HA[I].CandidateShadowCost, HB[I].CandidateShadowCost)
          << "attempt " << I;
      EXPECT_EQ(HA[I].Accepted, HB[I].Accepted) << "attempt " << I;
    }
    EXPECT_EQ(A.monitor().observations(), B.monitor().observations());
    EXPECT_EQ(A.reservoir().seen(), B.reservoir().seen());
    EXPECT_EQ(A.epoch(), B.epoch());
  }
}

TEST(AdaptiveServiceTest, ServeObservesIntoMonitorAndReservoir) {
  registry::ProgramPtr P = makeProgram();
  runtime::AdaptiveServiceOptions O;
  O.AutoAdapt = false;
  O.ReservoirSize = 8;
  runtime::AdaptiveService Service(*P, cloneModel(modelBytes()), O);
  ASSERT_TRUE(Service.ready());

  for (size_t I = 0; I != 12; ++I)
    Service.serve(I % P->numInputs());
  EXPECT_EQ(Service.monitor().observations(), 12u);
  EXPECT_EQ(Service.reservoir().seen(), 12u);
  EXPECT_EQ(Service.reservoir().size(), 8u);
  // The monitor pre-extracts the full feature vector; its cost is
  // accounted apart from per-decision cost.
  EXPECT_GT(Service.stats().MonitorCostPaid, 0.0);
  EXPECT_EQ(Service.stats().Decisions, 12u);
}

TEST(AdaptiveServiceTest, SwapHistoryKeepsTheMostRecentAttempts) {
  // Every adaptation attempt appends one record, so a long-lived tenant
  // keeps only the newest MaxSwapHistory of them; the counters still
  // count every attempt.
  registry::ProgramPtr P = makeProgram();
  const registry::BenchmarkFactory &F =
      registry::BenchmarkRegistry::instance().get("sort1");
  const size_t Sample = 16;
  runtime::AdaptiveServiceOptions O;
  O.AutoAdapt = false;
  O.ReservoirSize = Sample;
  O.Retrain = registry::reservoirRetrainOptions(F, kScale, Sample);
  // The smallest search: this test counts attempts, not their quality.
  O.Retrain.L1.Tuner.PopulationSize = 2;
  O.Retrain.L1.Tuner.Generations = 1;
  runtime::AdaptiveService Service(*P, cloneModel(modelBytes()), O);
  ASSERT_TRUE(Service.ready());

  const size_t Max = runtime::AdaptiveService::MaxSwapHistory;
  const size_t Attempts = Max + 3;
  for (size_t A = 0; A != Attempts; ++A) {
    // A fresh reservoir of distinct inputs for each attempt (every
    // attempt that retrains resets it).
    for (size_t I = 0; I != Sample; ++I)
      Service.serve((A + I) % P->numInputs());
    Service.adaptNow();
  }
  runtime::AdaptiveService::StatsSnapshot S = Service.stats();
  ASSERT_EQ(S.SkippedRetrains, 0u) << S.LastSkipReason;
  EXPECT_EQ(S.Retrains, Attempts);
  EXPECT_EQ(S.Swaps + S.RejectedCandidates, Attempts);

  std::vector<runtime::AdaptiveService::SwapRecord> H = Service.history();
  ASSERT_EQ(H.size(), Max);
  // Oldest first; the oldest attempts were dropped. Attempt A (from 0)
  // saw Sample * (A + 1) decisions.
  EXPECT_EQ(H.front().AtDecision, Sample * (Attempts - Max + 1));
  EXPECT_EQ(H.back().AtDecision, Sample * Attempts);
  for (size_t I = 1; I != H.size(); ++I)
    EXPECT_EQ(H[I].AtDecision, H[I - 1].AtDecision + Sample) << I;
}

TEST(AdaptiveServiceTest, SwapModelBumpsEpochAndInvalidatesDecisionCache) {
  registry::ProgramPtr P = makeProgram();
  runtime::AdaptiveService Service(*P, cloneModel(modelBytes()));
  ASSERT_TRUE(Service.ready());
  uint64_t E0 = Service.epoch();

  std::vector<runtime::AdaptiveService::Decision> Before;
  for (size_t I = 0; I != P->numInputs(); ++I)
    Before.push_back(Service.decide(I));

  ASSERT_TRUE(Service.swapModel(cloneModel(altModelBytes())).Ok);
  EXPECT_EQ(Service.epoch(), E0 + 1);
  EXPECT_EQ(Service.stats().Swaps, 1u);

  // Decisions now come from the new model -- cached landmarks from the
  // old epoch must not leak through. Features stay memoized, so any
  // recomputation is free of extraction cost.
  runtime::AdaptiveService Alt(*P, cloneModel(altModelBytes()));
  ASSERT_TRUE(Alt.ready());
  bool AnyChanged = false;
  for (size_t I = 0; I != P->numInputs(); ++I) {
    runtime::AdaptiveService::Decision D = Service.decide(I);
    EXPECT_EQ(D.Landmark, Alt.decide(I).Landmark) << "input " << I;
    EXPECT_EQ(D.Epoch, E0 + 1);
    EXPECT_EQ(D.FeatureCost, 0.0) << "re-extracted a memoized feature";
    AnyChanged |= D.Landmark != Before[I].Landmark;
  }
  EXPECT_TRUE(AnyChanged)
      << "the two models decide identically everywhere; the cache "
         "invalidation is untested";

  // Old decisions' configurations stay valid through their epoch holds.
  for (size_t I = 0; I != Before.size(); ++I) {
    ASSERT_NE(Before[I].Config, nullptr);
    EXPECT_EQ(Before[I].Config->values(),
              Before[I].Hold->Model.System.L1.Landmarks[Before[I].Landmark]
                  .values());
  }
}

TEST(AdaptiveServiceTest, SwapModelValidatesThePushedModel) {
  // An operator-pushed model that does not fit the bound program must be
  // rejected without disturbing the serving epoch.
  const registry::BenchmarkFactory &F =
      registry::BenchmarkRegistry::instance().get("binpacking");
  registry::ProgramPtr P = F.makeProgram(kScale, F.defaultProgramSeed());
  core::TrainedSystem Sys = core::trainSystem(*P, F.defaultOptions(kScale));
  serialize::TrainedModel Foreign = serialize::makeModel(
      "binpacking", kScale, F.defaultProgramSeed(), *P, std::move(Sys));

  registry::ProgramPtr Sort = makeProgram();
  runtime::AdaptiveService Service(*Sort, cloneModel(modelBytes()));
  ASSERT_TRUE(Service.ready());
  uint64_t E0 = Service.epoch();

  serialize::LoadStatus Pushed = Service.swapModel(std::move(Foreign));
  EXPECT_FALSE(Pushed.Ok);
  EXPECT_FALSE(Pushed.Error.empty());
  EXPECT_EQ(Service.epoch(), E0);
  EXPECT_EQ(Service.stats().Swaps, 0u);

  // A one-level production classifier fits the program but is no kind
  // Level 2 selects: the service refuses it at construction and on a
  // push, and the held epoch keeps serving.
  runtime::AdaptiveService Refused(*Sort, oneLevelModel());
  EXPECT_FALSE(Refused.ready());
  EXPECT_FALSE(Refused.status().Error.empty());
  unsigned Before = Service.decide(0).Landmark;
  Pushed = Service.swapModel(oneLevelModel());
  EXPECT_FALSE(Pushed.Ok);
  EXPECT_FALSE(Pushed.Error.empty());
  EXPECT_EQ(Service.epoch(), E0);
  EXPECT_EQ(Service.stats().Swaps, 0u);
  EXPECT_EQ(Service.decide(0).Landmark, Before);

  // A clone of the serving model claiming another program seed fits the
  // program's shape (same features, space and input count) but names
  // other inputs: provenance refuses it.
  serialize::TrainedModel OtherSeed = cloneModel(modelBytes());
  OtherSeed.Meta.ProgramSeed += 1;
  Pushed = Service.swapModel(std::move(OtherSeed));
  EXPECT_FALSE(Pushed.Ok);
  EXPECT_NE(Pushed.Error.find("provenance"), std::string::npos)
      << Pushed.Error;
  EXPECT_EQ(Service.epoch(), E0);
  EXPECT_EQ(Service.stats().Swaps, 0u);
}

TEST(AdaptiveServiceTest, ScratchAndMonitorFollowTheModelAcrossSwaps) {
  // Start from the SMALLER model (2 landmarks) and swap in the larger
  // one (4-class incremental Bayes): the serving thread's scratch and
  // the drift monitor's cluster/decision arity must both be re-sized for
  // the new epoch, or decide()/serve() index out of bounds.
  registry::ProgramPtr P = makeProgram();
  runtime::AdaptiveServiceOptions O;
  O.AutoAdapt = false;
  runtime::AdaptiveService Service(*P, cloneModel(altModelBytes()), O);
  ASSERT_TRUE(Service.ready());
  size_t SmallLandmarks =
      Service.currentEpoch()->Model.System.L1.Landmarks.size();
  for (size_t I = 0; I != 8; ++I)
    Service.serve(I);

  ASSERT_TRUE(Service.swapModel(cloneModel(modelBytes())).Ok);
  size_t BigLandmarks =
      Service.currentEpoch()->Model.System.L1.Landmarks.size();
  ASSERT_GT(BigLandmarks, SmallLandmarks)
      << "models coincide in landmark count; the resize goes untested";

  runtime::AdaptiveService Reference(*P, cloneModel(modelBytes()));
  ASSERT_TRUE(Reference.ready());
  for (size_t I = 0; I != P->numInputs(); ++I) {
    runtime::AdaptiveService::Decision D = Service.serve(I);
    EXPECT_EQ(D.Landmark, Reference.decide(I).Landmark) << "input " << I;
  }
  // serve() rebased the monitor to the pushed model on first contact.
  EXPECT_EQ(Service.monitor().numDecisions(), BigLandmarks);
}

TEST(AdaptiveServiceTest, ClusterMemoFollowsTheEpoch) {
  // The Level-1 cluster an observation feeds the monitor is memoized per
  // input and epoch. Push a clone of the serving model whose centroids
  // all lie far away but the first, so every input now lands in cluster
  // 0 and nothing else changes. The monitor must then see exactly what a
  // service that only ever served the clone sees: no cluster memoized
  // under the retired epoch may leak into the window.
  registry::ProgramPtr P = makeProgram();
  runtime::AdaptiveServiceOptions O;
  O.AutoAdapt = false;
  auto Collapsed = [] {
    serialize::TrainedModel M = cloneModel(modelBytes());
    linalg::Matrix &C = M.System.L1.Clusters.Centroids;
    for (size_t R = 1; R != C.rows(); ++R)
      for (size_t J = 0; J != C.cols(); ++J)
        C.at(R, J) = 1e30;
    return M;
  };
  runtime::AdaptiveService Service(*P, cloneModel(modelBytes()), O);
  runtime::AdaptiveService Reference(*P, Collapsed(), O);
  ASSERT_TRUE(Service.ready() && Reference.ready());
  for (size_t I = 0; I != P->numInputs(); ++I)
    Service.serve(I);
  ASSERT_TRUE(Service.swapModel(Collapsed()).Ok);
  // Two passes: the monitor tests only a window of MinSamples or more.
  for (size_t I = 0; I != 2 * P->numInputs(); ++I) {
    size_t In = I % P->numInputs();
    EXPECT_EQ(Service.serve(In).Landmark, Reference.serve(In).Landmark)
        << "input " << In;
  }
  ASSERT_GE(Service.monitor().windowFill(),
            Service.monitor().options().MinSamples);
  runtime::DriftSignal Got = Service.monitor().check(),
                       Want = Reference.monitor().check();
  EXPECT_GT(Want.ClusterTV, 0.0) << "every input was in cluster 0 already";
  EXPECT_EQ(Got.ClusterTV, Want.ClusterTV);
  EXPECT_EQ(Got.DecisionTV, Want.DecisionTV);
  EXPECT_EQ(Got.MeanShift, Want.MeanShift);
}

TEST(AdaptiveServiceTest, BatchDecisionsAreThreadCountInvariant) {
  registry::ProgramPtr P = makeProgram();
  std::vector<size_t> Inputs;
  for (size_t Round = 0; Round != 3; ++Round)
    for (size_t I = 0; I != P->numInputs(); ++I)
      Inputs.push_back(I);

  std::vector<std::vector<runtime::AdaptiveService::Decision>> Runs;
  for (unsigned Threads : {0u, 1u, 2u, 8u}) {
    std::unique_ptr<support::ThreadPool> Pool;
    if (Threads)
      Pool = std::make_unique<support::ThreadPool>(Threads);
    runtime::AdaptiveService Service(*P, cloneModel(modelBytes()));
    ASSERT_TRUE(Service.ready());
    Runs.push_back(Service.decideBatch(Inputs, Pool.get()));
  }
  for (size_t R = 1; R != Runs.size(); ++R) {
    ASSERT_EQ(Runs[R].size(), Runs[0].size());
    for (size_t I = 0; I != Runs[0].size(); ++I) {
      EXPECT_EQ(Runs[R][I].Landmark, Runs[0][I].Landmark);
      EXPECT_DOUBLE_EQ(Runs[R][I].FeatureCost, Runs[0][I].FeatureCost);
      EXPECT_EQ(Runs[R][I].Memoized, Runs[0][I].Memoized);
    }
  }
}

// The stress half of the test wall: an oversubscribed pool serving many
// small batches while another thread hot-swaps models as fast as it can.
// Every batch must be internally consistent (one epoch per batch, every
// landmark valid for that epoch's model); TSan verifies the absence of
// data races in CI.
TEST(AdaptiveServiceStressTest, ConcurrentHotSwapUnderBatchLoad) {
  registry::ProgramPtr P = makeProgram();
  runtime::AdaptiveService Service(*P, cloneModel(modelBytes()));
  ASSERT_TRUE(Service.ready());

  support::ThreadPool Pool(8); // oversubscribed on small CI machines

  constexpr uint64_t kSwaps = 40;
  std::atomic<uint64_t> SwapsDone{0};
  std::thread Swapper([&] {
    // Pre-clone outside the race so each swap is quick and the load/swap
    // interleaving is dense.
    for (uint64_t I = 0; I != kSwaps; ++I) {
      if (Service.swapModel(cloneModel(I % 2 ? altModelBytes() : modelBytes()))
              .Ok)
        SwapsDone.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();
    }
  });

  std::vector<size_t> Batch;
  for (size_t I = 0; I != 32; ++I)
    Batch.push_back(I % P->numInputs());

  // Serve until every swap has landed (bounded in case the swapper
  // starves), then a few more batches against the final epoch.
  size_t Batches = 0;
  uint64_t MaxEpochSeen = 0;
  for (; Batches < 20000 &&
         SwapsDone.load(std::memory_order_relaxed) < kSwaps;
       ++Batches) {
    std::vector<runtime::AdaptiveService::Decision> Out =
        Service.decideBatch(Batch, &Pool);
    ASSERT_EQ(Out.size(), Batch.size());
    uint64_t Epoch = Out.front().Epoch;
    MaxEpochSeen = std::max(MaxEpochSeen, Epoch);
    for (const runtime::AdaptiveService::Decision &D : Out) {
      // One epoch snapshot per batch, even with the swapper racing.
      ASSERT_EQ(D.Epoch, Epoch) << "batch mixed epochs";
      ASSERT_NE(D.Hold, nullptr);
      ASSERT_LT(D.Landmark, D.Hold->Model.System.L1.Landmarks.size());
      ASSERT_EQ(D.Config,
                &D.Hold->Model.System.L1.Landmarks[D.Landmark]);
    }
  }
  Swapper.join();
  for (size_t I = 0; I != 3; ++I, ++Batches)
    Service.decideBatch(Batch, &Pool);

  EXPECT_EQ(SwapsDone.load(), kSwaps);
  EXPECT_EQ(Service.stats().Decisions, Batches * Batch.size());
  EXPECT_EQ(Service.stats().Swaps, kSwaps);
  EXPECT_GE(Service.epoch(), kSwaps);
  EXPECT_GT(MaxEpochSeen, 0u);
}

} // namespace
