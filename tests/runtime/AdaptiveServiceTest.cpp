//===- tests/runtime/AdaptiveServiceTest.cpp ---------------------------------=//
//
// The serving core in isolation: construction/validation, parity with
// the model's own core classifier (live probes and the recorded training
// tables) and with the in-process system's choices after a round trip
// through bytes or disk, feature memoization and its accounting,
// epoch-keyed decision caching across hot swaps, and the concurrency
// stress the subsystem's thread contract promises -- one serving thread
// deciding many small batches through the daemon's decideAnswers, each
// batch's epoch held through the next, while a hot-swapper thread races
// it (the TSan target).
//
//===----------------------------------------------------------------------===//

#include "runtime/AdaptiveService.h"

#include "core/FeatureProbe.h"
#include "registry/BenchmarkRegistry.h"
#include "runtime/SubsetProgram.h"
#include "streams/WorkloadStream.h"
#include "support/Cost.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <numeric>
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

/// All of \p Service's answers for \p Inputs, from one decideAnswers().
std::vector<runtime::AdaptiveService::Decision>
decideAll(runtime::AdaptiveService &Service,
          const std::vector<size_t> &Inputs) {
  std::vector<runtime::AdaptiveService::Decision> Out(Inputs.size());
  Service.decideAnswers(Inputs.data(), Inputs.size(), Out.data());
  return Out;
}

/// Inputs 0 .. \p N - 1.
std::vector<size_t> firstInputs(size_t N) {
  std::vector<size_t> Inputs(N);
  std::iota(Inputs.begin(), Inputs.end(), 0);
  return Inputs;
}

/// Serves every test row of \p T through \p Service, one decision at a
/// time, and checks the choices (and, when \p CheckCost, the extraction
/// paid) against what the in-process system decided before serialization.
void expectInProcessChoices(runtime::AdaptiveService &Service,
                            const Trained &T, bool CheckCost) {
  const serialize::TrainedModel &Model = Service.currentEpoch()->Model;
  const std::vector<size_t> &Rows = Model.System.TestRows;
  ASSERT_EQ(Rows.size(), T.ProductionChoices.size());
  for (size_t I = 0; I != Rows.size(); ++I) {
    runtime::AdaptiveService::StatsSnapshot Before = Service.stats();
    runtime::AdaptiveService::Decision D;
    runtime::AdaptiveService::EpochPtr Ep =
        Service.decideAnswers(&Rows[I], 1, &D);
    runtime::AdaptiveService::StatsSnapshot After = Service.stats();
    EXPECT_EQ(D.Landmark, T.ProductionChoices[I]) << "row " << Rows[I];
    ASSERT_LT(D.Landmark, Ep->Model.System.L1.Landmarks.size());
    EXPECT_EQ(Ep->Model.System.L1.Landmarks[D.Landmark].values(),
              Model.System.L1.Landmarks[D.Landmark].values());
    // Live extraction pays exactly what the precomputed tables recorded.
    if (CheckCost) {
      EXPECT_DOUBLE_EQ(After.FeatureCostPaid - Before.FeatureCostPaid,
                       T.ProductionCosts[I])
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
    runtime::AdaptiveService::StatsSnapshot Before = Adaptive.stats();
    runtime::AdaptiveService::Decision A;
    runtime::AdaptiveService::EpochPtr Ep = Adaptive.decideAnswers(&I, 1, &A);
    runtime::AdaptiveService::StatsSnapshot After = Adaptive.stats();
    core::FeatureProbe Probe = core::probeFromProgram(*P, I, Index);
    unsigned R = Production.classify(Probe);
    EXPECT_EQ(A.Landmark, R) << "input " << I;
    EXPECT_DOUBLE_EQ(After.FeatureCostPaid,
                     Before.FeatureCostPaid + Probe.totalCost());
    EXPECT_EQ(After.FeaturesExtracted - Before.FeaturesExtracted,
              Probe.numExtracted());
    ASSERT_LT(A.Landmark, Ep->Model.System.L1.Landmarks.size());
    EXPECT_EQ(Ep->Model.System.L1.Landmarks[A.Landmark].values(),
              Model.System.L1.Landmarks[R].values());
  }
  // The recorded training tables drive the loaded classifier to the same
  // choice as live extraction.
  const std::vector<size_t> &Rows = Model.System.TestRows;
  std::vector<runtime::AdaptiveService::Decision> Ds =
      decideAll(Adaptive, Rows);
  for (size_t I = 0; I != Rows.size(); ++I) {
    core::FeatureProbe Table = core::probeFromTable(
        Model.System.L1.Features, Model.System.L1.ExtractCosts, Rows[I]);
    EXPECT_EQ(Ds[I].Landmark, Production.classify(Table))
        << "row " << Rows[I];
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
  runtime::AdaptiveService::Decision First, Second;
  Service.decideAnswers(&Row, 1, &First);
  runtime::AdaptiveService::StatsSnapshot Cold = Service.stats();
  EXPECT_EQ(Cold.MemoizedDecisions, 0u);
  EXPECT_GT(Cold.FeaturesExtracted, 0u);
  EXPECT_GT(Cold.FeatureCostPaid, 0.0);
  Service.decideAnswers(&Row, 1, &Second);
  EXPECT_EQ(First.Landmark, Second.Landmark);
  runtime::AdaptiveService::StatsSnapshot Warm = Service.stats();
  EXPECT_EQ(Warm.MemoizedDecisions, 1u);
  EXPECT_EQ(Warm.FeaturesExtracted, Cold.FeaturesExtracted);
  EXPECT_EQ(Warm.FeatureCostPaid, Cold.FeatureCostPaid);

  // Every input's features are charged exactly once over the service's
  // lifetime, however often it is decided: a second pass over every
  // input is all memo hits and pays nothing.
  std::vector<size_t> All = firstInputs(P->numInputs());
  decideAll(Service, All);
  runtime::AdaptiveService::StatsSnapshot Once = Service.stats();
  EXPECT_GE(Once.MemoizedDecisions, 2u);
  decideAll(Service, All);
  runtime::AdaptiveService::StatsSnapshot S = Service.stats();
  EXPECT_EQ(S.Decisions, 2 * All.size() + 2);
  EXPECT_EQ(S.MemoizedDecisions, Once.MemoizedDecisions + All.size());
  EXPECT_EQ(S.FeaturesExtracted, Once.FeaturesExtracted);
  EXPECT_EQ(S.FeatureCostPaid, Once.FeatureCostPaid);
  EXPECT_EQ(S.MonitorCostPaid, 0.0); // decideAnswers() never observes
}

/// Expects \p Got's decision counters to equal \p Want's, the costs to
/// the bit. Only a program with fractional extraction costs can tell the
/// order a batch folds its costs in (see FractionalCostProgram).
void expectSameDecisionTotals(const runtime::AdaptiveService &Got,
                              const runtime::AdaptiveService &Want) {
  runtime::AdaptiveService::StatsSnapshot G = Got.stats(), W = Want.stats();
  EXPECT_EQ(G.Decisions, W.Decisions);
  EXPECT_EQ(G.MemoizedDecisions, W.MemoizedDecisions);
  EXPECT_EQ(G.FeaturesExtracted, W.FeaturesExtracted);
  EXPECT_EQ(G.FeatureCostPaid, W.FeatureCostPaid);
  EXPECT_EQ(G.MonitorCostPaid, W.MonitorCostPaid);
}

/// An answer buffer entry of the kind a daemon session keeps.
struct LeanAnswer {
  uint32_t Landmark = 0;
  uint64_t Epoch = 0;
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

/// \p Base with a surcharge of 1 / (3 + Input) work units on every feature
/// extraction. The registry programs charge whole-number extraction costs,
/// whose sums come out the same in any order; these fractions round, so a
/// batch's FeatureCostPaid equals one add per decision only when the batch
/// folds its costs into the total in decision order.
class FractionalCostProgram : public runtime::SubsetProgram {
public:
  explicit FractionalCostProgram(const runtime::TunableProgram &Base)
      : SubsetProgram(Base, firstInputs(Base.numInputs())) {}

  double extractFeature(size_t Input, unsigned Feature, unsigned Level,
                        support::CostCounter &Cost) const override {
    Cost.addOther(1.0 / (3.0 + static_cast<double>(Input)));
    return SubsetProgram::extractFeature(Input, Feature, Level, Cost);
  }
};

TEST(AdaptiveServiceTest, BatchAccountingIsExact) {
  // A batch adds to the totals once, yet stats() must equal a twin
  // service's that was handed the same inputs one call each, the costs to
  // the bit: cold inputs, warm ones, an input repeated inside one batch,
  // and a swap between batches (memo rows kept, decisions recomputed
  // under the new epoch). Both loops are checked: decideAnswers(), and
  // serveAnswers() without adaptation. sort1 swaps to a different model
  // and extracts one feature per cold decision; binpacking swaps to a
  // copy of its own model and extracts up to seven, and is checked again
  // with fractional extraction costs, where the order of the adds shows.
  auto CheckBatches = [](const std::string &Label,
                         const runtime::TunableProgram &P,
                         const std::string &Bytes,
                         const std::string &SwapBytes, bool Observe) {
    SCOPED_TRACE(Label + (Observe ? " serveAnswers" : " decideAnswers"));
    ASSERT_GE(P.numInputs(), 8u);
    BatchPlan Plan(P.numInputs());
    runtime::AdaptiveServiceOptions O;
    O.AutoAdapt = false;
    runtime::AdaptiveService Batched(P, cloneModel(Bytes), O);
    runtime::AdaptiveService PerInput(P, cloneModel(Bytes), O);
    ASSERT_TRUE(Batched.ready() && PerInput.ready());
    std::vector<LeanAnswer> Answers;
    auto Run = [Observe](runtime::AdaptiveService &S, const size_t *Inputs,
                         size_t N, LeanAnswer *Out) {
      Observe ? S.serveAnswers(Inputs, N, Out)
              : S.decideAnswers(Inputs, N, Out);
    };
    auto Batch = [&](const std::vector<size_t> &Inputs) {
      Answers.assign(Inputs.size(), LeanAnswer());
      Run(Batched, Inputs.data(), Inputs.size(), Answers.data());
      for (size_t I = 0; I != Inputs.size(); ++I) {
        LeanAnswer One;
        Run(PerInput, &Inputs[I], 1, &One);
        EXPECT_EQ(Answers[I].Landmark, One.Landmark) << "input " << I;
        EXPECT_EQ(Answers[I].Epoch, One.Epoch) << "input " << I;
      }
      expectSameDecisionTotals(Batched, PerInput);
    };
    Batch(Plan.FirstHalf); // cold
    Batch(Plan.FirstHalf); // warm
    Batch(Plan.Repeats);   // one cold input three times, one warm
    ASSERT_TRUE(Batched.swapModel(cloneModel(SwapBytes)).Ok);
    ASSERT_TRUE(PerInput.swapModel(cloneModel(SwapBytes)).Ok);
    Batch(Plan.FirstHalf);  // memoized features, the new epoch decides
    Batch(Plan.SecondHalf); // the rest, cold under the new epoch
    runtime::AdaptiveService::StatsSnapshot S = Batched.stats();
    EXPECT_GT(S.FeaturesExtracted, 0u);
    EXPECT_GT(S.MemoizedDecisions, 0u);
    EXPECT_LT(S.MemoizedDecisions, S.Decisions);
    EXPECT_EQ(S.MonitorCostPaid > 0.0, Observe);
    if (P.name() == "binpacking") {
      EXPECT_GT(S.FeaturesExtracted, S.Decisions - S.MemoizedDecisions)
          << "no decision extracted more than one feature";
    }
  };
  registry::ProgramPtr Sort = makeProgram(), Bin = makeProgram("binpacking");
  FractionalCostProgram Fractional(*Bin);
  for (bool Observe : {false, true}) {
    CheckBatches("sort1", *Sort, modelBytes(), altModelBytes(), Observe);
    CheckBatches("binpacking", *Bin, binpackingModel().Bytes,
                 binpackingModel().Bytes, Observe);
    CheckBatches("binpacking, fractional costs", Fractional,
                 binpackingModel().Bytes, binpackingModel().Bytes, Observe);
  }
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
  decideAll(Service, {Sample.begin(), Sample.begin() + Warm});

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
    runtime::AdaptiveService::Decision D;
    runtime::AdaptiveService::EpochPtr Ep =
        Service.decideAnswers(&Sample[K], 1, &D);
    runtime::AdaptiveService::StatsSnapshot Now = Service.stats();
    EXPECT_EQ(Now.MemoizedDecisions - After.MemoizedDecisions,
              K < Warm ? 1u : 0u)
        << "input " << Sample[K];
    EXPECT_EQ(Now.FeaturesExtracted > After.FeaturesExtracted, K >= Warm)
        << "input " << Sample[K];
    After = Now;
    Total +=
        P->runOnce(Sample[K], Ep->Model.System.L1.Landmarks[D.Landmark])
            .TimeUnits;
  }
  EXPECT_EQ(Score, Total / static_cast<double>(Sample.size()));
}

TEST(AdaptiveServiceTest, DecideAnswersMatchesDecideBatch) {
  // decideBatch() and decide(), which perfbench still calls, are callers
  // of the lean loop: fed the same batches as a service that runs
  // decideAnswers(), a service that runs them answers alike and counts
  // alike, to the bit -- cold inputs, warm ones, an input repeated
  // inside one batch, and a swap between batches.
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
        EXPECT_FALSE(Ds[I].DriftFlagged);
      }
      expectSameDecisionTotals(Vector, Lean);
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
    // decide() is a one-input decideBatch().
    for (size_t Input : Plan.Repeats) {
      runtime::AdaptiveService::Decision D = Vector.decide(Input);
      Answers.assign(1, LeanAnswer());
      Lean.decideAnswers(&Input, 1, Answers.data());
      EXPECT_EQ(D.Landmark, Answers[0].Landmark) << "input " << Input;
      EXPECT_EQ(D.Epoch, Answers[0].Epoch) << "input " << Input;
    }
    expectSameDecisionTotals(Vector, Lean);
    EXPECT_GT(Lean.stats().FeaturesExtracted, 0u);
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
      uint64_t SwapsB = B.stats().Swaps;
      for (size_t I = 0; I != Inputs.size(); ++I) {
        runtime::AdaptiveService::Decision D = B.serve(Inputs[I]);
        ASSERT_EQ(Answers[I].Landmark, D.Landmark)
            << "batch " << K << " #" << I;
        ASSERT_EQ(Answers[I].Epoch, D.Epoch) << "batch " << K << " #" << I;
        if (!D.DriftFlagged)
          continue;
        // Only a drift response swaps inside a batch.
        ++Flags;
        bool DriftSwap = B.stats().Swaps != SwapsB;
        SwapsB = B.stats().Swaps;
        Swapped += DriftSwap;
        MidBatchSwaps += DriftSwap && I + 1 != Inputs.size();
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

  std::vector<size_t> Inputs;
  for (size_t I = 0; I != 12; ++I)
    Inputs.push_back(I % P->numInputs());
  std::vector<LeanAnswer> Answers(Inputs.size());
  Service.serveAnswers(Inputs.data(), Inputs.size(), Answers.data());
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
  std::vector<size_t> Inputs(Sample);
  std::vector<LeanAnswer> Answers(Sample);
  for (size_t A = 0; A != Attempts; ++A) {
    // A fresh reservoir of distinct inputs for each attempt (every
    // attempt that retrains resets it).
    for (size_t I = 0; I != Sample; ++I)
      Inputs[I] = (A + I) % P->numInputs();
    Service.serveAnswers(Inputs.data(), Sample, Answers.data());
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

  std::vector<size_t> All = firstInputs(P->numInputs());
  std::vector<runtime::AdaptiveService::Decision> Before(All.size());
  runtime::AdaptiveService::EpochPtr Held =
      Service.decideAnswers(All.data(), All.size(), Before.data());

  ASSERT_TRUE(Service.swapModel(cloneModel(altModelBytes())).Ok);
  EXPECT_EQ(Service.epoch(), E0 + 1);
  EXPECT_EQ(Service.stats().Swaps, 1u);

  // Decisions now come from the new model -- cached landmarks from the
  // old epoch must not leak through. Features stay memoized, so any
  // recomputation is free of extraction cost.
  runtime::AdaptiveService Alt(*P, cloneModel(altModelBytes()));
  ASSERT_TRUE(Alt.ready());
  runtime::AdaptiveService::StatsSnapshot Swapped = Service.stats();
  std::vector<runtime::AdaptiveService::Decision> After =
      decideAll(Service, All);
  std::vector<runtime::AdaptiveService::Decision> Want = decideAll(Alt, All);
  EXPECT_EQ(Service.stats().FeatureCostPaid, Swapped.FeatureCostPaid)
      << "re-extracted a memoized feature";
  EXPECT_EQ(Service.stats().FeaturesExtracted, Swapped.FeaturesExtracted);
  bool AnyChanged = false;
  for (size_t I = 0; I != All.size(); ++I) {
    EXPECT_EQ(After[I].Landmark, Want[I].Landmark) << "input " << I;
    EXPECT_EQ(After[I].Epoch, E0 + 1);
    AnyChanged |= After[I].Landmark != Before[I].Landmark;
  }
  EXPECT_TRUE(AnyChanged)
      << "the two models decide identically everywhere; the cache "
         "invalidation is untested";

  // The retired epoch's configurations stay valid while its pointer is
  // held.
  serialize::TrainedModel Original = cloneModel(modelBytes());
  EXPECT_EQ(Held->Model.Meta.Epoch, E0);
  for (size_t I = 0; I != Before.size(); ++I)
    EXPECT_EQ(Held->Model.System.L1.Landmarks[Before[I].Landmark],
              Original.System.L1.Landmarks[Before[I].Landmark]);
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
  const size_t Zero = 0;
  runtime::AdaptiveService::Decision Before, After;
  Service.decideAnswers(&Zero, 1, &Before);
  Pushed = Service.swapModel(oneLevelModel());
  EXPECT_FALSE(Pushed.Ok);
  EXPECT_FALSE(Pushed.Error.empty());
  EXPECT_EQ(Service.epoch(), E0);
  EXPECT_EQ(Service.stats().Swaps, 0u);
  Service.decideAnswers(&Zero, 1, &After);
  EXPECT_EQ(After.Landmark, Before.Landmark);

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
  std::vector<size_t> All = firstInputs(P->numInputs());
  std::vector<LeanAnswer> Answers(All.size());
  Service.serveAnswers(All.data(), 8, Answers.data());

  ASSERT_TRUE(Service.swapModel(cloneModel(modelBytes())).Ok);
  size_t BigLandmarks =
      Service.currentEpoch()->Model.System.L1.Landmarks.size();
  ASSERT_GT(BigLandmarks, SmallLandmarks)
      << "models coincide in landmark count; the resize goes untested";

  runtime::AdaptiveService Reference(*P, cloneModel(modelBytes()));
  ASSERT_TRUE(Reference.ready());
  Service.serveAnswers(All.data(), All.size(), Answers.data());
  std::vector<runtime::AdaptiveService::Decision> Want =
      decideAll(Reference, All);
  for (size_t I = 0; I != All.size(); ++I)
    EXPECT_EQ(Answers[I].Landmark, Want[I].Landmark) << "input " << I;
  // serveAnswers() rebased the monitor to the pushed model on first
  // contact.
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
  // Two passes: the monitor tests only a window of MinSamples or more.
  std::vector<size_t> Passes;
  for (size_t I = 0; I != 2 * P->numInputs(); ++I)
    Passes.push_back(I % P->numInputs());
  std::vector<LeanAnswer> Answers(Passes.size()), RefAnswers(Passes.size());
  Service.serveAnswers(Passes.data(), P->numInputs(), Answers.data());
  ASSERT_TRUE(Service.swapModel(Collapsed()).Ok);
  Service.serveAnswers(Passes.data(), Passes.size(), Answers.data());
  Reference.serveAnswers(Passes.data(), Passes.size(), RefAnswers.data());
  for (size_t I = 0; I != Passes.size(); ++I)
    EXPECT_EQ(Answers[I].Landmark, RefAnswers[I].Landmark)
        << "input " << Passes[I];
  ASSERT_GE(Service.monitor().windowFill(),
            Service.monitor().options().MinSamples);
  runtime::DriftSignal Got = Service.monitor().check(),
                       Want = Reference.monitor().check();
  EXPECT_GT(Want.ClusterTV, 0.0) << "every input was in cluster 0 already";
  EXPECT_EQ(Got.ClusterTV, Want.ClusterTV);
  EXPECT_EQ(Got.DecisionTV, Want.DecisionTV);
  EXPECT_EQ(Got.MeanShift, Want.MeanShift);
}

// The stress half of the test wall: the serving thread decides many
// small batches through the daemon's decideAnswers into a kept answer
// buffer, while another thread hot-swaps models as fast as it can. Every
// batch must be internally consistent (one epoch per batch, every
// landmark valid for that epoch's model), and the epoch a batch returns,
// held through the next batch while swaps retire it, must keep that
// batch's configurations alive and unchanged; TSan verifies the absence
// of data races in CI.
TEST(AdaptiveServiceStressTest, ConcurrentHotSwapUnderBatchLoad) {
  registry::ProgramPtr P = makeProgram();
  runtime::AdaptiveService Service(*P, cloneModel(modelBytes()));
  ASSERT_TRUE(Service.ready());

  constexpr uint64_t kSwaps = 40;
  std::atomic<uint64_t> SwapsDone{0};
  std::thread Swapper([&] {
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
  std::vector<LeanAnswer> Answers(Batch.size());

  // The previous batch's epoch, and copies of the configurations its
  // answers named when they were decided.
  runtime::AdaptiveService::EpochPtr Held;
  std::vector<const runtime::Configuration *> HeldConfigs;
  std::vector<runtime::Configuration> HeldCopies;
  uint64_t MaxEpochSeen = 0;
  auto ServeBatch = [&] {
    runtime::AdaptiveService::EpochPtr Ep =
        Service.decideAnswers(Batch.data(), Batch.size(), Answers.data());
    ASSERT_NE(Ep, nullptr);
    const uint64_t Epoch = Ep->Model.Meta.Epoch;
    for (const LeanAnswer &A : Answers) {
      ASSERT_EQ(A.Epoch, Epoch) << "batch mixed epochs";
      ASSERT_LT(A.Landmark, Ep->Model.System.L1.Landmarks.size());
    }
    for (size_t I = 0; I != HeldConfigs.size(); ++I)
      ASSERT_EQ(*HeldConfigs[I], HeldCopies[I])
          << "a held epoch's configuration changed under a swap";
    HeldConfigs.clear();
    HeldCopies.clear();
    for (const LeanAnswer &A : Answers) {
      HeldConfigs.push_back(&Ep->Model.System.L1.Landmarks[A.Landmark]);
      HeldCopies.push_back(*HeldConfigs.back());
    }
    Held = std::move(Ep);
    MaxEpochSeen = std::max(MaxEpochSeen, Epoch);
  };

  // Serve until every swap has landed (bounded in case the swapper
  // starves), then a few more batches against the final epoch.
  size_t Batches = 0;
  for (; Batches < 20000 &&
         SwapsDone.load(std::memory_order_relaxed) < kSwaps;
       ++Batches) {
    ServeBatch();
    if (HasFatalFailure())
      break;
  }
  Swapper.join();
  ASSERT_FALSE(HasFatalFailure());
  for (size_t I = 0; I != 3; ++I, ++Batches)
    ServeBatch();

  EXPECT_EQ(SwapsDone.load(), kSwaps);
  EXPECT_EQ(Service.stats().Decisions, Batches * Batch.size());
  EXPECT_EQ(Service.stats().Swaps, kSwaps);
  EXPECT_GE(Service.epoch(), kSwaps);
  EXPECT_GT(MaxEpochSeen, 0u);
}

} // namespace
