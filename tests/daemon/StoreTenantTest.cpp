//===- tests/daemon/StoreTenantTest.cpp --------------------------------------=//
//
// Store-backed tenants in the daemon registry: addStoreTenant loads the
// CURRENT epoch checksum-verified, pollStores() hot-swaps the tenant
// when a rollout promotes a new epoch, and the provenance wall keeps a
// store that suddenly serves a different benchmark from ever reaching
// the tenant. This is the daemon end of the trainer/server split, and
// the one way every replica follows a store; the trainer end
// (RolloutController publishing into the same directory) is tested in
// tests/rollout/.
//
//===----------------------------------------------------------------------===//

#include "daemon/ModelRegistry.h"

#include "common/TestModels.h"
#include "registry/BenchmarkRegistry.h"
#include "rollout/RolloutController.h"
#include "runtime/ConfigSpace.h"
#include "store/ModelStore.h"
#include "support/FaultInject.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

using namespace pbt;
using namespace pbt::testmodels;
using daemon::ModelRegistry;
using daemon::Tenant;

namespace {

class StoreTenantTest : public ::testing::Test {
protected:
  void SetUp() override {
    support::FaultInjector::instance().reset();
    Dir = ::testing::TempDir() + "pbt-store-tenant-" +
          ::testing::UnitTest::GetInstance()->current_test_info()->name() +
          "-" + std::to_string(::getpid());
    std::filesystem::remove_all(Dir);
    Store = std::make_unique<store::ModelStore>(Dir);
    ASSERT_TRUE(Store->open().Ok);
  }
  void TearDown() override {
    Store.reset();
    std::filesystem::remove_all(Dir);
    support::FaultInjector::instance().reset();
  }

  uint64_t publishAndPromote(const std::string &Image) {
    uint64_t E = 0;
    EXPECT_TRUE(Store->publish(Image, E).Ok);
    EXPECT_TRUE(Store->promote(E).Ok);
    return E;
  }

  std::string Dir;
  std::unique_ptr<store::ModelStore> Store;
};

TEST_F(StoreTenantTest, AddStoreTenantServesTheCurrentEpoch) {
  publishAndPromote(modelBytes("sort1"));
  ModelRegistry Reg;
  ASSERT_TRUE(Reg.addStoreTenant("sorter", Dir).Ok);

  Tenant *T = Reg.find("sorter");
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(T->Benchmark, "sort1");
  EXPECT_EQ(T->StoreDir, Dir);
  EXPECT_EQ(T->StoreEpoch.load(), 1u);
  ASSERT_TRUE(T->Service->ready());
  EXPECT_GT(T->Landmarks.load(), 0u);
}

TEST_F(StoreTenantTest, AddStoreTenantRefusesAnEmptyStore) {
  ModelRegistry Reg;
  EXPECT_FALSE(Reg.addStoreTenant("sorter", Dir).Ok); // nothing promoted
  EXPECT_EQ(Reg.size(), 0u);
}

TEST_F(StoreTenantTest, PollSwapsOnPromotionAndIsOtherwiseIdle) {
  publishAndPromote(modelBytes("sort1"));
  ModelRegistry Reg;
  ASSERT_TRUE(Reg.addStoreTenant("sorter", Dir).Ok);
  Tenant *T = Reg.find("sorter");

  // No promotion since the tenant loaded: nothing to do.
  EXPECT_EQ(Reg.pollStores(), 0u);
  EXPECT_EQ(T->StoreSwaps.load(), 0u);
  uint64_t EpochBefore = T->Service->epoch();

  // The trainer side promotes epoch 2; the next poll hot-swaps.
  publishAndPromote(modelBytes("sort1"));
  EXPECT_EQ(Reg.pollStores(), 1u);
  EXPECT_EQ(T->StoreEpoch.load(), 2u);
  EXPECT_EQ(T->StoreSwaps.load(), 1u);
  EXPECT_GT(T->Service->epoch(), EpochBefore); // service epoch bumped
  EXPECT_TRUE(T->Service->ready());

  // Idempotent again after convergence.
  EXPECT_EQ(Reg.pollStores(), 0u);
  EXPECT_EQ(T->StoreSwaps.load(), 1u);
}

TEST_F(StoreTenantTest, ProvenanceWallRejectsAForeignModel) {
  publishAndPromote(modelBytes("sort1"));
  ModelRegistry Reg;
  ASSERT_TRUE(Reg.addStoreTenant("sorter", Dir).Ok);
  Tenant *T = Reg.find("sorter");

  // The store suddenly serves binpacking (a misconfigured trainer
  // pointed at the wrong directory). The tenant must keep its epoch.
  publishAndPromote(modelBytes("binpacking"));
  EXPECT_EQ(Reg.pollStores(), 0u);
  EXPECT_EQ(T->StoreEpoch.load(), 1u);
  EXPECT_EQ(T->StoreRejects.load(), 1u);
  EXPECT_EQ(T->Benchmark, "sort1");
  EXPECT_TRUE(T->Service->ready());
}

TEST_F(StoreTenantTest, FileAndStoreTenantsCoexist) {
  publishAndPromote(modelBytes("sort1"));
  std::string FilePath = Dir + "-model.pbt";
  {
    std::ofstream Out(FilePath, std::ios::binary);
    Out << modelBytes("binpacking");
  }
  ModelRegistry Reg;
  ASSERT_TRUE(Reg.addTenant("packer", FilePath).Ok);
  ASSERT_TRUE(Reg.addStoreTenant("sorter", Dir).Ok);
  EXPECT_EQ(Reg.size(), 2u);

  // pollStores leaves file tenants alone.
  publishAndPromote(modelBytes("sort1"));
  EXPECT_EQ(Reg.pollStores(), 1u);
  EXPECT_EQ(Reg.find("packer")->StoreSwaps.load(), 0u);
  EXPECT_EQ(Reg.find("sorter")->StoreEpoch.load(), 2u);
  std::filesystem::remove(FilePath);
}

TEST_F(StoreTenantTest, PollAdoptsAControllerEpochThroughSwapModel) {
  // The rollout controller is the store's one writer here.
  Store.reset();
  const registry::BenchmarkFactory &F =
      registry::BenchmarkRegistry::instance().get("sort1");
  registry::ProgramPtr Program =
      F.makeProgram(kTestScale, F.defaultProgramSeed());
  rollout::RolloutController Ctl(*Program, Dir);
  ASSERT_TRUE(Ctl.start(degradedModel()).Ok);
  ModelRegistry Reg;
  ASSERT_TRUE(Reg.addStoreTenant("sorter", Dir).Ok);
  Tenant *T = Reg.find("sorter");
  std::vector<size_t> Probe(Program->numInputs());
  for (size_t I = 0; I != Probe.size(); ++I)
    Probe[I] = I;
  auto choices = [&Probe](Tenant &Of) {
    std::vector<runtime::AdaptiveService::Decision> Answers(Probe.size());
    runtime::AdaptiveService::EpochPtr Ep =
        Of.Service->decideAnswers(Probe.data(), Probe.size(), Answers.data());
    std::vector<runtime::Configuration> Out;
    for (const runtime::AdaptiveService::Decision &D : Answers)
      Out.push_back(Ep->Model.System.L1.Landmarks[D.Landmark]);
    return Out;
  };
  std::vector<runtime::Configuration> Before = choices(*T);

  // The trained model beats the degraded champion and is promoted as
  // epoch 2; a degraded candidate is then rolled back as epoch 3.
  rollout::RolloutController::CycleReport Report;
  ASSERT_TRUE(Ctl.rollout(cloneModel(modelBytes()), Report).Ok);
  ASSERT_TRUE(Report.Promoted);
  ASSERT_TRUE(Ctl.rollout(degradedModel(), Report).Ok);
  ASSERT_FALSE(Report.Promoted);
  const uint64_t N = Ctl.currentEpoch();
  ASSERT_EQ(N, 2u);

  // The follower keeps its service and adopts through swapModel; the
  // store stamped Meta.Epoch, so the service epoch is the store epoch.
  runtime::AdaptiveService *Kept = T->Service.get();
  EXPECT_EQ(Reg.pollStores(), 1u);
  EXPECT_EQ(T->Service.get(), Kept);
  EXPECT_EQ(T->StoreEpoch.load(), N);
  EXPECT_EQ(T->Service->epoch(), N);

  // It now decides exactly like a replica that loaded the store fresh.
  ModelRegistry Fresh;
  ASSERT_TRUE(Fresh.addStoreTenant("sorter", Dir).Ok);
  EXPECT_EQ(Fresh.find("sorter")->StoreEpoch.load(), N);
  std::vector<runtime::Configuration> After = choices(*T);
  EXPECT_EQ(After, choices(*Fresh.find("sorter")));
  EXPECT_TRUE(After != Before) << "the promoted epoch decides differently";
}

} // namespace
