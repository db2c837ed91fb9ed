//===- tests/rollout/RolloutTest.cpp -----------------------------------------=//
//
// The staged rollout state machine on the happy and unhappy paths:
// bootstrap seeding, canary-gated promotion of an equal candidate,
// rollback of a degraded one, a corrupt candidate image refused at the
// canary, resume after a publisher kill, and the provenance/validation
// walls at the edges. Replicas are store followers -- a
// daemon::ModelRegistry store tenant, the code pbt-serve runs. The
// store-level crash windows live in tests/store/; this file is about the
// machine above them.
//
//===----------------------------------------------------------------------===//

#include "rollout/RolloutController.h"

#include "common/TestModels.h"
#include "daemon/ModelRegistry.h"
#include "registry/BenchmarkRegistry.h"
#include "store/ModelStore.h"
#include "support/FaultInject.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>

#include <unistd.h>

using namespace pbt;
using namespace pbt::testmodels;
using rollout::RolloutController;

namespace {

class RolloutTest : public ::testing::Test {
protected:
  void SetUp() override {
    support::FaultInjector::instance().reset();
    const registry::BenchmarkFactory &F =
        registry::BenchmarkRegistry::instance().get("sort1");
    Program = F.makeProgram(kTestScale, F.defaultProgramSeed());
    Dir = ::testing::TempDir() + "pbt-rollout-" +
          ::testing::UnitTest::GetInstance()->current_test_info()->name() +
          "-" + std::to_string(::getpid());
    std::filesystem::remove_all(Dir);
  }
  void TearDown() override {
    support::FaultInjector::instance().reset();
    std::filesystem::remove_all(Dir);
  }

  std::unique_ptr<RolloutController> makeStarted() {
    rollout::RolloutOptions RO;
    RO.ShadowSample = 8;
    auto Ctl = std::make_unique<RolloutController>(*Program, Dir, RO);
    EXPECT_TRUE(Ctl->start(cloneModel(modelBytes())).Ok);
    return Ctl;
  }

  /// A serving replica: one store tenant following Dir.
  std::unique_ptr<daemon::ModelRegistry> follower() {
    auto Reg = std::make_unique<daemon::ModelRegistry>();
    EXPECT_TRUE(Reg->addStoreTenant("sort1", Dir).Ok);
    return Reg;
  }
  static uint64_t storeEpoch(daemon::ModelRegistry &Reg) {
    return Reg.find("sort1")->StoreEpoch.load();
  }

  registry::ProgramPtr Program;
  std::string Dir;
};

TEST_F(RolloutTest, StartSeedsTheBootstrapEpochFleetWide) {
  auto Ctl = makeStarted();
  EXPECT_EQ(Ctl->currentEpoch(), 1u);
  // The image is self-describing: Meta.Epoch matches the store epoch it
  // landed as, for the champion and for a follower alike.
  ASSERT_NE(Ctl->champion(), nullptr);
  EXPECT_EQ(Ctl->champion()->Model.Meta.Epoch, 1u);
  auto Reg = follower();
  EXPECT_EQ(storeEpoch(*Reg), 1u);
  EXPECT_EQ(Reg->find("sort1")->Service->epoch(), 1u);
  EXPECT_EQ(Ctl->modelStore().record(1)->State, store::EpochState::Active);

  // start() on a store that already has a promoted epoch does not
  // re-seed: the existing truth wins.
  auto Again = makeStarted();
  EXPECT_EQ(Again->currentEpoch(), 1u);
  EXPECT_EQ(Again->modelStore().records().size(), 1u);
}

TEST_F(RolloutTest, EqualCandidatePromotesThroughTheCanary) {
  auto Ctl = makeStarted();
  auto Reg = follower();
  RolloutController::CycleReport Report;
  ASSERT_TRUE(Ctl->rollout(cloneModel(modelBytes()), Report).Ok);

  EXPECT_TRUE(Report.Promoted);
  EXPECT_EQ(Report.CandidateEpoch, 2u);
  // An identical model scores identically; the canary is a regression
  // gate, so equality passes.
  EXPECT_DOUBLE_EQ(Report.CandidateScore, Report.ChampionScore);
  EXPECT_GT(Report.ChampionScore, 0.0);

  EXPECT_EQ(Ctl->currentEpoch(), 2u);
  EXPECT_EQ(Ctl->champion()->Model.Meta.Epoch, 2u);
  EXPECT_EQ(Reg->pollStores(), 1u);
  EXPECT_EQ(storeEpoch(*Reg), 2u);
  EXPECT_EQ(Reg->find("sort1")->Service->epoch(), 2u);
  EXPECT_EQ(Ctl->modelStore().record(2)->State, store::EpochState::Active);
  EXPECT_EQ(Ctl->modelStore().record(1)->State, store::EpochState::Retired);
}

TEST_F(RolloutTest, DegradedCandidateRollsBackAndTheCanaryReverts) {
  auto Ctl = makeStarted();
  auto Reg = follower();
  RolloutController::CycleReport Report;
  ASSERT_TRUE(Ctl->rollout(degradedModel(), Report).Ok);

  EXPECT_FALSE(Report.Promoted);
  EXPECT_GT(Report.CandidateScore, Report.ChampionScore);
  EXPECT_EQ(Ctl->currentEpoch(), 1u);
  EXPECT_EQ(Ctl->modelStore().record(2)->State,
            store::EpochState::RolledBack);
  // The candidate was only ever shadow-scored: the champion and every
  // follower stay on epoch 1.
  EXPECT_EQ(Ctl->champion()->Model.Meta.Epoch, 1u);
  EXPECT_EQ(Reg->pollStores(), 0u);
  EXPECT_EQ(storeEpoch(*Reg), 1u);
}

TEST_F(RolloutTest, ForeignProvenanceIsRefusedBeforePublish) {
  // The champion's clone under another program seed passes
  // validateAgainst and would score equal at the canary; rollout refuses
  // it before anything is durable.
  auto Ctl = makeStarted();
  serialize::TrainedModel Foreign = cloneModel(modelBytes());
  Foreign.Meta.ProgramSeed += 1;
  RolloutController::CycleReport Report;
  serialize::LoadStatus St = Ctl->rollout(std::move(Foreign), Report);
  EXPECT_FALSE(St.Ok);
  EXPECT_NE(St.Error.find("provenance"), std::string::npos) << St.Error;
  EXPECT_EQ(Ctl->currentEpoch(), 1u);
  EXPECT_EQ(Ctl->modelStore().records().size(), 1u);
  EXPECT_EQ(Ctl->champion()->Model.Meta.Epoch, 1u);
}

TEST_F(RolloutTest, ResumeConvergesAKilledFleetOntoCurrent) {
  std::unique_ptr<daemon::ModelRegistry> Reg;
  {
    auto Ctl = makeStarted();
    Reg = follower(); // a replica that outlives the publisher
    RolloutController::CycleReport Report;
    ASSERT_TRUE(Ctl->rollout(cloneModel(modelBytes()), Report).Ok);
    ASSERT_EQ(Ctl->currentEpoch(), 2u);
    // The publisher dies here (handles dropped, store directory survives).
  }
  RolloutController Restarted(*Program, Dir, {});
  ASSERT_TRUE(Restarted.resume().Ok);
  EXPECT_EQ(Restarted.currentEpoch(), 2u);
  ASSERT_NE(Restarted.champion(), nullptr);
  EXPECT_EQ(Restarted.champion()->Model.Meta.Epoch, 2u);
  EXPECT_EQ(Reg->pollStores(), 1u);
  EXPECT_EQ(storeEpoch(*Reg), 2u);
  // A respawned replica loads the same epoch.
  EXPECT_EQ(storeEpoch(*follower()), 2u);
}

TEST_F(RolloutTest, ResumeRefusesAStoreThatWasNeverStarted) {
  RolloutController Ctl(*Program, Dir, {});
  serialize::LoadStatus St = Ctl.resume();
  EXPECT_FALSE(St.Ok);
  EXPECT_NE(St.Error.find("no promoted epoch"), std::string::npos);
}

TEST_F(RolloutTest, RolloutRequiresAServingFleet) {
  RolloutController Ctl(*Program, Dir, {});
  EXPECT_EQ(Ctl.champion(), nullptr);
  RolloutController::CycleReport Report;
  EXPECT_FALSE(Ctl.rollout(cloneModel(modelBytes()), Report).Ok);
}

TEST_F(RolloutTest, StartValidatesTheSeedAgainstTheProgram) {
  const registry::BenchmarkFactory &F =
      registry::BenchmarkRegistry::instance().get("binpacking");
  registry::ProgramPtr Wrong =
      F.makeProgram(kTestScale, F.defaultProgramSeed());
  RolloutController Ctl(*Wrong, Dir, {});
  EXPECT_FALSE(Ctl.start(cloneModel(modelBytes())).Ok);
}

TEST_F(RolloutTest, CorruptCandidateImageIsRolledBackAndCounted) {
  auto Ctl = makeStarted();
  auto Reg = follower();
  ASSERT_EQ(Ctl->rejectedImages(), 0u);
  // Rot the candidate's image bytes behind the checksum the MANIFEST
  // records for it (the first image write after arming).
  support::FaultInjector::instance().arm(support::FaultPoint::CorruptChecksum,
                                         0);
  RolloutController::CycleReport Report;
  serialize::LoadStatus St = Ctl->rollout(cloneModel(modelBytes()), Report);
  EXPECT_FALSE(St.Ok);
  EXPECT_EQ(support::FaultInjector::instance().triggered(
                support::FaultPoint::CorruptChecksum),
            1u);
  ASSERT_NE(Ctl->modelStore().record(2), nullptr);
  EXPECT_EQ(Ctl->modelStore().record(2)->State,
            store::EpochState::RolledBack);
  EXPECT_EQ(Ctl->currentEpoch(), 1u);
  EXPECT_EQ(Ctl->rejectedImages(), 1u);
  EXPECT_EQ(Ctl->champion()->Model.Meta.Epoch, 1u);
  EXPECT_EQ(Reg->pollStores(), 0u);
  EXPECT_EQ(storeEpoch(*Reg), 1u);
}

} // namespace
