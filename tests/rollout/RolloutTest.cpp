//===- tests/rollout/RolloutTest.cpp -----------------------------------------=//
//
// The staged rollout state machine on the happy and unhappy paths:
// bootstrap seeding, canary-gated promotion of an equal candidate,
// rollback of a degraded one (with the canary reverting to the champion
// it never stopped trusting), resume after a fleet kill, and the
// provenance/validation walls at the edges. The store-level crash
// windows live in tests/store/; this file is about the machine above
// them.
//
//===----------------------------------------------------------------------===//

#include "rollout/RolloutController.h"

#include "core/Pipeline.h"
#include "registry/BenchmarkRegistry.h"
#include "runtime/AdaptiveService.h"
#include "serialize/ModelIO.h"
#include "store/ModelStore.h"
#include "support/FaultInject.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>

#include <unistd.h>

using namespace pbt;
using rollout::RolloutController;

namespace {

constexpr double kScale = 0.1;

const std::string &modelBytes() {
  static const std::string Bytes = [] {
    const registry::BenchmarkFactory &F =
        registry::BenchmarkRegistry::instance().get("sort1");
    registry::ProgramPtr P = F.makeProgram(kScale, F.defaultProgramSeed());
    core::TrainedSystem Sys = core::trainSystem(*P, F.defaultOptions(kScale));
    serialize::TrainedModel M = serialize::makeModel(
        "sort1", kScale, F.defaultProgramSeed(), *P, std::move(Sys));
    M.System.Data.reset();
    return serialize::serializeModel(M);
  }();
  return Bytes;
}

serialize::TrainedModel cloneModel(const std::string &Bytes) {
  serialize::TrainedModel M;
  EXPECT_TRUE(serialize::loadModel(Bytes, M).Ok);
  return M;
}

serialize::TrainedModel degradedModel() {
  serialize::TrainedModel M = cloneModel(modelBytes());
  EXPECT_GT(M.System.L1.Landmarks.size(), 1u);
  std::rotate(M.System.L1.Landmarks.begin(),
              M.System.L1.Landmarks.begin() + 1,
              M.System.L1.Landmarks.end());
  return M;
}

class RolloutTest : public ::testing::Test {
protected:
  void SetUp() override {
    support::FaultInjector::instance().reset();
    const registry::BenchmarkFactory &F =
        registry::BenchmarkRegistry::instance().get("sort1");
    Program = F.makeProgram(kScale, F.defaultProgramSeed());
    Dir = ::testing::TempDir() + "pbt-rollout-" +
          ::testing::UnitTest::GetInstance()->current_test_info()->name() +
          "-" + std::to_string(::getpid());
    std::filesystem::remove_all(Dir);
  }
  void TearDown() override {
    support::FaultInjector::instance().reset();
    std::filesystem::remove_all(Dir);
  }

  std::unique_ptr<RolloutController> makeStarted(size_t Replicas = 3) {
    rollout::RolloutOptions RO;
    RO.Replicas = Replicas;
    RO.ShadowSample = 8;
    auto Ctl = std::make_unique<RolloutController>(*Program, Dir, RO);
    EXPECT_TRUE(Ctl->start(cloneModel(modelBytes())).Ok);
    return Ctl;
  }

  registry::ProgramPtr Program;
  std::string Dir;
};

TEST_F(RolloutTest, StartSeedsTheBootstrapEpochFleetWide) {
  auto Ctl = makeStarted();
  EXPECT_EQ(Ctl->currentEpoch(), 1u);
  for (size_t I = 0; I != Ctl->replicaCount(); ++I) {
    rollout::Replica &R = Ctl->replica(I);
    ASSERT_TRUE(R.serving()) << "replica " << I;
    EXPECT_EQ(R.epoch(), 1u);
    // The image is self-describing: Meta.Epoch matches the store epoch
    // it landed as.
    EXPECT_EQ(R.service().currentEpoch()->Model.Meta.Epoch, 1u);
  }
  EXPECT_EQ(Ctl->modelStore().record(1)->State, store::EpochState::Active);

  // start() on a store that already has a promoted epoch does not
  // re-seed: the existing truth wins.
  auto Again = makeStarted();
  EXPECT_EQ(Again->currentEpoch(), 1u);
  EXPECT_EQ(Again->modelStore().records().size(), 1u);
}

TEST_F(RolloutTest, EqualCandidatePromotesThroughTheCanary) {
  auto Ctl = makeStarted();
  RolloutController::CycleReport Report;
  ASSERT_TRUE(Ctl->rollout(cloneModel(modelBytes()), Report).Ok);

  EXPECT_TRUE(Report.Promoted);
  EXPECT_EQ(Report.CandidateEpoch, 2u);
  // An identical model scores identically; the canary is a regression
  // gate, so equality passes.
  EXPECT_DOUBLE_EQ(Report.CandidateScore, Report.ChampionScore);
  EXPECT_GT(Report.ChampionScore, 0.0);

  EXPECT_EQ(Ctl->currentEpoch(), 2u);
  for (size_t I = 0; I != Ctl->replicaCount(); ++I) {
    EXPECT_EQ(Ctl->replica(I).epoch(), 2u);
    EXPECT_EQ(Ctl->replica(I).service().currentEpoch()->Model.Meta.Epoch, 2u);
  }
  EXPECT_EQ(Ctl->modelStore().record(2)->State, store::EpochState::Active);
  EXPECT_EQ(Ctl->modelStore().record(1)->State, store::EpochState::Retired);
}

TEST_F(RolloutTest, DegradedCandidateRollsBackAndTheCanaryReverts) {
  auto Ctl = makeStarted();
  RolloutController::CycleReport Report;
  ASSERT_TRUE(Ctl->rollout(degradedModel(), Report).Ok);

  EXPECT_FALSE(Report.Promoted);
  EXPECT_GT(Report.CandidateScore, Report.ChampionScore);
  EXPECT_EQ(Ctl->currentEpoch(), 1u);
  EXPECT_EQ(Ctl->modelStore().record(2)->State,
            store::EpochState::RolledBack);
  // The canary served the candidate during scoring but reverted: the
  // whole fleet is back on the champion.
  for (size_t I = 0; I != Ctl->replicaCount(); ++I)
    EXPECT_EQ(Ctl->replica(I).epoch(), 1u);
  EXPECT_GT(Ctl->replica(0).swapCount(), Ctl->replica(1).swapCount());
}

TEST_F(RolloutTest, ResumeConvergesAKilledFleetOntoCurrent) {
  {
    auto Ctl = makeStarted();
    RolloutController::CycleReport Report;
    ASSERT_TRUE(Ctl->rollout(cloneModel(modelBytes()), Report).Ok);
    ASSERT_EQ(Ctl->currentEpoch(), 2u);
    // The fleet dies here (handles dropped, store directory survives).
  }
  rollout::RolloutOptions RO;
  RO.Replicas = 2;
  RolloutController Restarted(*Program, Dir, RO);
  ASSERT_TRUE(Restarted.resume().Ok);
  EXPECT_EQ(Restarted.currentEpoch(), 2u);
  for (size_t I = 0; I != Restarted.replicaCount(); ++I) {
    ASSERT_TRUE(Restarted.replica(I).serving());
    EXPECT_EQ(Restarted.replica(I).epoch(), 2u);
  }
}

TEST_F(RolloutTest, ResumeRefusesAStoreThatWasNeverStarted) {
  RolloutController Ctl(*Program, Dir, {});
  serialize::LoadStatus St = Ctl.resume();
  EXPECT_FALSE(St.Ok);
  EXPECT_NE(St.Error.find("no promoted epoch"), std::string::npos);
}

TEST_F(RolloutTest, RolloutRequiresAServingFleet) {
  RolloutController Ctl(*Program, Dir, {});
  RolloutController::CycleReport Report;
  EXPECT_FALSE(Ctl.rollout(cloneModel(modelBytes()), Report).Ok);
}

TEST_F(RolloutTest, StartValidatesTheSeedAgainstTheProgram) {
  const registry::BenchmarkFactory &F =
      registry::BenchmarkRegistry::instance().get("binpacking");
  registry::ProgramPtr Wrong = F.makeProgram(kScale, F.defaultProgramSeed());
  RolloutController Ctl(*Wrong, Dir, {});
  EXPECT_FALSE(Ctl.start(cloneModel(modelBytes())).Ok);
}

TEST_F(RolloutTest, CanaryAdoptRefusesAnUnknownEpoch) {
  auto Ctl = makeStarted();
  rollout::Replica &Canary = Ctl->replica(0);
  uint64_t Before = Canary.tornReadsPrevented();
  EXPECT_FALSE(Canary.adopt(99).Ok);
  EXPECT_EQ(Canary.tornReadsPrevented(), Before + 1);
  EXPECT_EQ(Canary.epoch(), 1u); // still serving the champion
}

} // namespace
