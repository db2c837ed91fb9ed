//===- tests/streams/AdaptiveStreamTest.cpp ----------------------------------=//
//
// The acceptance test of the online-adaptation subsystem, end to end: a
// seeded abrupt-shift sort1 stream is served by an AdaptiveService whose
// initial model was trained on pre-shift traffic only. The service must
//
//   (1) detect the distribution shift through its DriftMonitor,
//   (2) shadow-retrain and hot-swap at least once, and
//   (3) beat the frozen (no-adaptation) baseline's mean cost on the
//       post-swap segment of the very same request sequence.
//
//===----------------------------------------------------------------------===//

#include "registry/BenchmarkRegistry.h"
#include "runtime/AdaptiveService.h"
#include "runtime/SubsetProgram.h"
#include "streams/WorkloadStream.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

using namespace pbt;

namespace {

constexpr double kScale = 0.5;
constexpr unsigned kKeyProperty = 2; // sort1 "sortedness"

struct Scenario {
  registry::ProgramPtr Universe;
  std::unique_ptr<streams::WorkloadStream> Stream;
  serialize::TrainedModel Initial;
};

/// Builds the shared scenario: a sort1 universe, an abrupt-shift stream
/// over it, and an initial model trained on base-pool (pre-shift)
/// traffic only -- the "training sample matched yesterday's traffic"
/// deployment the adaptation loop exists for.
Scenario makeScenario() {
  Scenario S;
  const registry::BenchmarkFactory &F =
      registry::BenchmarkRegistry::instance().get("sort1");
  S.Universe = F.makeProgram(kScale, F.defaultProgramSeed());

  streams::WorkloadStreamOptions SO;
  SO.Kind = streams::Schedule::Abrupt;
  SO.Requests = 600;
  SO.Seed = 0xABCD01;
  SO.KeyProperty = kKeyProperty;
  S.Stream = std::make_unique<streams::WorkloadStream>(*S.Universe, SO);

  const std::vector<size_t> &Pretrain = S.Stream->basePool();
  runtime::SubsetProgram View(*S.Universe, Pretrain);
  core::PipelineOptions Opt =
      registry::reservoirRetrainOptions(F, kScale, Pretrain.size());
  core::TrainedSystem Sys = core::trainSystem(View, Opt);
  S.Initial = serialize::makeModel("sort1", kScale, F.defaultProgramSeed(),
                                   View, std::move(Sys));
  return S;
}

runtime::AdaptiveServiceOptions serviceOptions() {
  const registry::BenchmarkFactory &F =
      registry::BenchmarkRegistry::instance().get("sort1");
  runtime::AdaptiveServiceOptions O;
  O.Monitor.Window = 48;
  O.Monitor.MinSamples = 24;
  O.Monitor.Cooldown = 48;
  O.ReservoirSize = 40;
  O.MinRetrainInputs = 16;
  O.Retrain = registry::reservoirRetrainOptions(F, kScale, O.ReservoirSize);
  return O;
}

struct RunOutcome {
  std::vector<unsigned> Landmarks;  // per request
  std::vector<uint64_t> Epochs;     // per request
  std::vector<double> Costs;        // per request (run under the decision)
  std::vector<size_t> DetectTicks;  // requests where drift was flagged
  std::vector<size_t> SwapTicks;    // requests whose response swapped
  runtime::AdaptiveService::StatsSnapshot Stats;
  std::vector<runtime::AdaptiveService::SwapRecord> History;
};

RunOutcome serveStream(const Scenario &S, runtime::AdaptiveService &Service) {
  RunOutcome R;
  uint64_t Swaps = Service.stats().Swaps;
  for (size_t T = 0; T != S.Stream->length(); ++T) {
    size_t Input = S.Stream->inputAt(T);
    runtime::AdaptiveService::Decision D;
    runtime::AdaptiveService::EpochPtr Ep = Service.serveAnswers(&Input, 1, &D);
    R.Landmarks.push_back(D.Landmark);
    R.Epochs.push_back(D.Epoch);
    R.Costs.push_back(
        S.Universe->runOnce(Input, Ep->Model.System.L1.Landmarks[D.Landmark])
            .TimeUnits);
    if (!D.DriftFlagged)
      continue;
    R.DetectTicks.push_back(T);
    // Nothing else pushes models here: a swap is this flag's response.
    if (Service.stats().Swaps != Swaps)
      R.SwapTicks.push_back(T);
    Swaps = Service.stats().Swaps;
  }
  R.Stats = Service.stats();
  R.History = Service.history();
  return R;
}

double meanFrom(const std::vector<double> &Costs, size_t From) {
  double Sum = 0.0;
  size_t N = 0;
  for (size_t I = From; I < Costs.size(); ++I, ++N)
    Sum += Costs[I];
  return N ? Sum / static_cast<double>(N) : 0.0;
}

TEST(AdaptiveStreamTest, AbruptShiftDetectSwapAndBeatFrozenBaseline) {
  Scenario S = makeScenario();

  // Frozen baseline: the same initial model serving the same sequence
  // with adaptation disabled.
  runtime::AdaptiveServiceOptions FrozenOpts = serviceOptions();
  FrozenOpts.AutoAdapt = false;
  serialize::TrainedModel FrozenInitial;
  {
    // Models are move-only; rebuild the initial model from its own bytes
    // so both services start from identical state.
    std::string Bytes = serialize::serializeModel(S.Initial);
    ASSERT_TRUE(serialize::loadModel(Bytes, FrozenInitial).Ok);
  }
  runtime::AdaptiveService Frozen(*S.Universe, std::move(FrozenInitial),
                                  FrozenOpts);
  ASSERT_TRUE(Frozen.ready()) << Frozen.status().Error;

  runtime::AdaptiveService Adaptive(*S.Universe, std::move(S.Initial),
                                    serviceOptions());
  ASSERT_TRUE(Adaptive.ready()) << Adaptive.status().Error;

  RunOutcome Frz = serveStream(S, Frozen);
  RunOutcome Ada = serveStream(S, Adaptive);

  // (1) The shift is detected -- and only after it happened.
  size_t Shift = S.Stream->firstShiftTick();
  ASSERT_GE(Ada.Stats.DriftDetections, 1u);
  ASSERT_FALSE(Ada.DetectTicks.empty());
  EXPECT_GE(Ada.DetectTicks.front(), Shift);

  // (2) At least one accepted hot swap, recorded in the epoch history.
  ASSERT_GE(Ada.Stats.Swaps, 1u);
  ASSERT_FALSE(Ada.SwapTicks.empty());
  bool AnyAccepted = false;
  for (const auto &Rec : Ada.History) {
    AnyAccepted |= Rec.Accepted;
    // The drift-to-swap window (what `pbt-bench stream` reports) must be
    // populated and contain its retrain component.
    EXPECT_GE(Rec.RetrainSeconds, 0.0);
    EXPECT_GE(Rec.ShadowSeconds, 0.0);
    EXPECT_GE(Rec.DriftToSwapSeconds, 0.0);
    if (Rec.Accepted) {
      EXPECT_GT(Rec.DriftToSwapSeconds, 0.0);
      EXPECT_GE(Rec.DriftToSwapSeconds, Rec.RetrainSeconds);
    }
  }
  EXPECT_TRUE(AnyAccepted);
  // The served epoch actually advanced.
  EXPECT_GT(Ada.Epochs.back(), Ada.Epochs.front());

  // The frozen control never adapts.
  EXPECT_EQ(Frz.Stats.Swaps, 0u);
  EXPECT_EQ(Frz.Epochs.back(), Frz.Epochs.front());

  // (3) Post-swap, adaptation strictly beats no-adaptation on the same
  // seeded request sequence.
  size_t FirstSwap = Ada.SwapTicks.front();
  double AdaMean = meanFrom(Ada.Costs, FirstSwap + 1);
  double FrzMean = meanFrom(Frz.Costs, FirstSwap + 1);
  EXPECT_LT(AdaMean, FrzMean)
      << "post-swap mean cost (adaptive " << AdaMean << " vs frozen "
      << FrzMean << ") did not improve; first swap at tick " << FirstSwap;

  ::testing::Test::RecordProperty("first_swap_tick",
                                  static_cast<int>(FirstSwap));
  std::printf("[stream] shift@%zu detect@%zu swap@%zu detections=%llu "
              "retrains=%llu swaps=%llu rejected=%llu skipped=%llu\n"
              "[stream] post-swap mean cost: adaptive %.1f vs frozen %.1f "
              "(%.1f%% lower)\n",
              Shift, Ada.DetectTicks.front(), FirstSwap,
              static_cast<unsigned long long>(Ada.Stats.DriftDetections),
              static_cast<unsigned long long>(Ada.Stats.Retrains),
              static_cast<unsigned long long>(Ada.Stats.Swaps),
              static_cast<unsigned long long>(Ada.Stats.RejectedCandidates),
              static_cast<unsigned long long>(Ada.Stats.SkippedRetrains),
              AdaMean, FrzMean, 100.0 * (1.0 - AdaMean / FrzMean));
}

} // namespace
