//===- tests/streams/RetrainReuseTest.cpp ------------------------------------=//
//
// AdaptiveService's shadow retrain reads its Level-1 feature tables from
// the service's feature memo instead of re-extracting them, which must
// not change a byte. Over a seeded abrupt sort1 stream, every candidate
// the service trains must serialize identically to a reference
// core::trainSystem over a SubsetProgram of the same reservoir sample,
// and the retrain itself must never call extractFeature.
//
//===----------------------------------------------------------------------===//

#include "registry/BenchmarkRegistry.h"
#include "runtime/AdaptiveService.h"
#include "runtime/SubsetProgram.h"
#include "streams/WorkloadStream.h"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <memory>
#include <string>
#include <vector>

using namespace pbt;

namespace {

constexpr double kScale = 0.5;

/// Delegates everything to a base program, counting feature extractions.
class CountingProgram : public runtime::TunableProgram {
public:
  explicit CountingProgram(const runtime::TunableProgram &Base) : Base(Base) {}

  std::string name() const override { return Base.name(); }
  const runtime::ConfigSpace &space() const override { return Base.space(); }
  std::vector<runtime::FeatureInfo> features() const override {
    return Base.features();
  }
  std::optional<runtime::AccuracySpec> accuracy() const override {
    return Base.accuracy();
  }
  size_t numInputs() const override { return Base.numInputs(); }
  double extractFeature(size_t Input, unsigned Feature, unsigned Level,
                        support::CostCounter &Cost) const override {
    Extractions.fetch_add(1, std::memory_order_relaxed);
    return Base.extractFeature(Input, Feature, Level, Cost);
  }
  runtime::RunResult run(size_t Input, const runtime::Configuration &Config,
                         support::CostCounter &Cost) const override {
    return Base.run(Input, Config, Cost);
  }

  uint64_t extractions() const {
    return Extractions.load(std::memory_order_relaxed);
  }

private:
  const runtime::TunableProgram &Base;
  mutable std::atomic<uint64_t> Extractions{0};
};

TEST(RetrainReuseTest, MemoFedRetrainsMatchReferenceTrainingBytes) {
  const registry::BenchmarkFactory &F =
      registry::BenchmarkRegistry::instance().get("sort1");
  registry::ProgramPtr Universe = F.makeProgram(kScale, F.defaultProgramSeed());
  CountingProgram Counted(*Universe);

  streams::WorkloadStreamOptions SO;
  SO.Kind = streams::Schedule::Abrupt;
  SO.Requests = 600;
  SO.Seed = 0xABCD01;
  SO.KeyProperty = 2; // sortedness
  streams::WorkloadStream Stream(*Universe, SO);

  const std::vector<size_t> &Pretrain = Stream.basePool();
  runtime::SubsetProgram PretrainView(*Universe, Pretrain);
  serialize::TrainedModel Initial = serialize::makeModel(
      "sort1", kScale, F.defaultProgramSeed(), PretrainView,
      core::trainSystem(PretrainView,
                        registry::reservoirRetrainOptions(F, kScale,
                                                          Pretrain.size())));

  runtime::AdaptiveServiceOptions O;
  O.Monitor.Window = 32;
  O.Monitor.MinSamples = 16;
  O.Monitor.Cooldown = 16;
  O.ReservoirSize = 32;
  O.MinRetrainInputs = 16;
  O.Retrain = registry::reservoirRetrainOptions(F, kScale, O.ReservoirSize);
  // Every compiled candidate is published, so each retrain's candidate is
  // readable as the current epoch.
  O.SwapMargin = -1e9;
  // Drift responses run by hand below, so each one's sample and
  // extraction count are observable on their own: the service's own
  // thresholds are out of reach, so every check runs and none flags, and
  // the test applies the default thresholds to each check's signal.
  const runtime::DriftMonitorOptions Flag;
  O.Monitor.MeanShiftThreshold = O.Monitor.ClusterTVThreshold =
      O.Monitor.DecisionTVThreshold = std::numeric_limits<double>::infinity();
  runtime::AdaptiveService Service(Counted, std::move(Initial), O);
  ASSERT_TRUE(Service.ready()) << Service.status().Error;

  // Cycling the stream flips the regime back at every wrap, so drift
  // recurs all through the run.
  size_t Checked = 0;
  for (size_t T = 0; T != 3 * Stream.length(); ++T) {
    size_t Input = Stream.inputAt(T % Stream.length());
    runtime::AdaptiveService::Decision D;
    Service.serveAnswers(&Input, 1, &D);
    ASSERT_FALSE(D.DriftFlagged);
    const runtime::DriftMonitor &M = Service.monitor();
    const runtime::DriftSignal &S = M.lastSignal();
    if (S.AtObservation != M.observations() ||
        !(S.MeanShift > Flag.MeanShiftThreshold ||
          S.ClusterTV > Flag.ClusterTVThreshold ||
          S.DecisionTV > Flag.DecisionTVThreshold))
      continue; // no drift check ran on this input, or it did not flag
    std::vector<size_t> Sample = Service.reservoir().sample();
    uint64_t RetrainsBefore = Service.stats().Retrains;
    uint64_t ExtractionsBefore = Counted.extractions();
    bool Swapped = Service.adaptNow();
    EXPECT_EQ(Counted.extractions(), ExtractionsBefore)
        << "the drift response at tick " << T << " extracted features";
    if (Service.stats().Retrains == RetrainsBefore)
      continue; // skipped: too little reservoir evidence
    ASSERT_TRUE(Swapped) << "tick " << T << ": a retrain was not published";

    // The reference: plain offline training on the same sample.
    runtime::AdaptiveService::EpochPtr Ep = Service.currentEpoch();
    runtime::SubsetProgram View(*Universe, Sample);
    core::PipelineOptions Opt = O.Retrain;
    runtime::AdaptiveService::clampRetrainOptions(Opt, Sample.size());
    serialize::TrainedModel Ref =
        serialize::makeModel("sort1", kScale, F.defaultProgramSeed(), View,
                             core::trainSystem(View, Opt));
    Ref.Meta.Epoch = Ep->Model.Meta.Epoch;
    EXPECT_EQ(serialize::serializeModel(Ep->Model),
              serialize::serializeModel(Ref))
        << "the retrain at tick " << T << " differs from a reference training";
    ++Checked;
  }
  runtime::AdaptiveService::StatsSnapshot Stats = Service.stats();
  // The five retrains a service that flags at these thresholds itself
  // makes on this stream.
  EXPECT_EQ(Checked, 5u) << "the stream must exercise several retrains";
  EXPECT_EQ(Checked, Stats.Retrains);
  EXPECT_EQ(Stats.DriftDetections, 0u);
  EXPECT_GT(Stats.RetrainSecondsTotal, 0.0);
  EXPECT_GT(Stats.LastRetrainSeconds, 0.0);
  EXPECT_LE(Stats.LastRetrainSeconds, Stats.RetrainSecondsTotal);
}

} // namespace
