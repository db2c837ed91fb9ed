//===- tests/store/FaultWallTest.cpp -----------------------------------------=//
//
// The randomized kill-during-publish wall: hundreds of staged rollouts
// of a real trained model through a RolloutController, each cycle arming
// one randomly chosen failpoint at a random hit. Crash-class triggers
// kill the publisher mid-protocol; the wall restarts it from the store
// like a supervisor and requires resume() to succeed every time.
//
// Replicas are store followers: a long-lived daemon::ModelRegistry store
// tenant that polls the store after every cycle and every recovery (the
// adoption path pbt-serve runs), plus a fresh one after every recovery,
// standing in for a respawned replica. Each must serve CURRENT. The
// safety property under test: across every injected crash and
// corruption, no follower EVER serves decisions that diverge from the
// golden decisions its epoch produced the first time it served -- a
// torn read that reached serving would show up exactly there.
//
// StoreRecoveryTest pins each crash window individually; this wall is
// the volume/interleaving coverage over the same protocol (at least 200
// injected points, zero torn reads served).
//
//===----------------------------------------------------------------------===//

#include "rollout/RolloutController.h"

#include "common/TestModels.h"
#include "daemon/ModelRegistry.h"
#include "registry/BenchmarkRegistry.h"
#include "runtime/AdaptiveService.h"
#include "store/ModelStore.h"
#include "support/FaultInject.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

using namespace pbt;
using namespace pbt::testmodels;
using rollout::RolloutController;
using support::FaultCrash;
using support::FaultInjector;
using support::FaultPoint;

namespace {

TEST(FaultWallTest, RandomizedKillDuringPublishConvergesEveryTime) {
  const registry::BenchmarkFactory &F =
      registry::BenchmarkRegistry::instance().get("sort1");
  registry::ProgramPtr Program =
      F.makeProgram(kTestScale, F.defaultProgramSeed());

  std::string Dir = ::testing::TempDir() + "pbt-fault-wall-" +
                    std::to_string(::getpid());
  std::filesystem::remove_all(Dir);

  rollout::RolloutOptions RO;
  RO.ShadowSample = 8; // keep per-cycle scoring cheap; volume is the point
  RO.KeepFinished = 3; // keep gc busy reclaiming finished epochs

  auto Ctl = std::make_unique<RolloutController>(*Program, Dir, RO);
  ASSERT_TRUE(Ctl->start(cloneModel(modelBytes())).Ok);
  daemon::ModelRegistry Follower;
  ASSERT_TRUE(Follower.addStoreTenant("sort1", Dir).Ok);

  // Golden decisions: first time an epoch serves anywhere, its probe
  // choices are the truth; every later sighting must reproduce them.
  std::vector<size_t> Probe;
  for (size_t I = 0; I != std::min<size_t>(16, Program->numInputs()); ++I)
    Probe.push_back(I);
  std::map<uint64_t, std::vector<unsigned>> Golden;
  unsigned Cycle = 0;
  // Polls \p Reg, which must then serve CURRENT with golden decisions.
  auto checkFollower = [&](daemon::ModelRegistry &Reg, const char *Who) {
    Reg.pollStores();
    daemon::Tenant &T = *Reg.find("sort1");
    uint64_t Epoch = T.StoreEpoch.load();
    ASSERT_EQ(Epoch, Ctl->currentEpoch())
        << Who << " follower missed CURRENT, cycle " << Cycle;
    ASSERT_EQ(T.Service->epoch(), Epoch) << Who << ", cycle " << Cycle;
    std::vector<runtime::AdaptiveService::Decision> Answers(Probe.size());
    T.Service->decideAnswers(Probe.data(), Probe.size(), Answers.data());
    std::vector<unsigned> Choices;
    for (const runtime::AdaptiveService::Decision &D : Answers)
      Choices.push_back(D.Landmark);
    // The first sighting records the golden; later ones must match it.
    auto It = Golden.emplace(Epoch, Choices).first;
    ASSERT_EQ(It->second, Choices)
        << Who << " follower diverged from golden on epoch " << Epoch
        << " -- a torn read reached serving";
  };
  checkFollower(Follower, "long-lived");

  const FaultPoint CrashPoints[] = {
      FaultPoint::TornWrite,
      FaultPoint::CrashBeforeRename,
      FaultPoint::CrashBeforeManifest,
      FaultPoint::CrashBetweenManifestAndCurrent,
  };
  const FaultPoint DegradePoints[] = {
      FaultPoint::CorruptChecksum,
      FaultPoint::FsyncFail,
      FaultPoint::FsyncSlow,
  };

  support::Rng WallRng(0xFA17AB1E);
  FaultInjector &Inj = FaultInjector::instance();
  Inj.reset();

  uint64_t CorruptImages = 0;
  auto drainTriggered = [&Inj, &CorruptImages] {
    CorruptImages += Inj.triggered(FaultPoint::CorruptChecksum);
    uint64_t N = 0;
    for (unsigned P = 0; P != support::kNumFaultPoints; ++P)
      N += Inj.triggered(static_cast<FaultPoint>(P));
    Inj.reset();
    return N;
  };

  uint64_t Injected = 0, Crashes = 0, Recoveries = 0;
  // Images refused by every controller the wall ran, and by the
  // respawned followers.
  uint64_t Rejected = 0, FollowerRejects = 0;
  const uint64_t WantInjected = 200;
  const unsigned MaxCycles = 600; // safety valve, never the budget

  for (; Injected < WantInjected && Cycle != MaxCycles; ++Cycle) {
    serialize::TrainedModel Candidate = cloneModel(modelBytes());
    // Every third candidate is degraded (landmark-rotated) so rollback
    // interleaves with promotion in the crash schedule.
    if (Cycle % 3 == 2 && Candidate.System.L1.Landmarks.size() > 1)
      std::rotate(Candidate.System.L1.Landmarks.begin(),
                  Candidate.System.L1.Landmarks.begin() + 1,
                  Candidate.System.L1.Landmarks.end());

    // Crash points arm at hit 0 (their site is reached at most once per
    // cycle); fsync-class points get a random hit so the same fault
    // lands on the image, manifest, or CURRENT write.
    if (WallRng.index(2) == 0)
      Inj.arm(CrashPoints[WallRng.index(std::size(CrashPoints))], 0);
    else
      Inj.arm(DegradePoints[WallRng.index(std::size(DegradePoints))],
              WallRng.index(3));

    RolloutController::CycleReport Report;
    bool Crashed = false;
    try {
      serialize::LoadStatus St = Ctl->rollout(std::move(Candidate), Report);
      (void)St; // a refused rollout (injected fsync failure) is fine
    } catch (const FaultCrash &) {
      Crashed = true;
    }
    Injected += drainTriggered();
    if (Crashed) {
      // The publisher died mid-protocol. Restart it from the directory
      // exactly as the crash left it; resume must always find durable
      // truth.
      ++Crashes;
      Rejected += Ctl->rejectedImages();
      Ctl = std::make_unique<RolloutController>(*Program, Dir, RO);
      ASSERT_TRUE(Ctl->resume().Ok)
          << "recovery failed after injected crash, cycle " << Cycle;
      ++Recoveries;
      daemon::ModelRegistry Respawned;
      ASSERT_TRUE(Respawned.addStoreTenant("sort1", Dir).Ok)
          << "a respawned replica cannot load the store, cycle " << Cycle;
      checkFollower(Respawned, "respawned");
      FollowerRejects += Respawned.find("sort1")->StoreRejects.load();
    }
    checkFollower(Follower, "long-lived");
    if (HasFatalFailure())
      break;
  }
  Inj.reset();

  EXPECT_GE(Injected, WantInjected)
      << "wall exhausted " << MaxCycles << " cycles";
  EXPECT_EQ(Crashes, Recoveries);
  EXPECT_GT(Crashes, 0u) << "the schedule never crashed the fleet";
  EXPECT_GT(Ctl->currentEpoch(), 1u) << "no rollout ever promoted";

  // Every rotted candidate image was refused at the canary and counted;
  // none reached CURRENT, so no follower ever had to reject one.
  Rejected += Ctl->rejectedImages();
  EXPECT_GT(CorruptImages, 0u) << "the schedule never rotted an image";
  EXPECT_EQ(Rejected, CorruptImages);
  FollowerRejects += Follower.find("sort1")->StoreRejects.load();
  EXPECT_EQ(FollowerRejects, 0u);

  std::filesystem::remove_all(Dir);
}

} // namespace
