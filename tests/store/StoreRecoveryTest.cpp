//===- tests/store/StoreRecoveryTest.cpp -------------------------------------=//
//
// Deterministic crash recovery: each test arms one failpoint, drives the
// publish/promote protocol until the injected crash kills the "process"
// (FaultCrash), then reopens the directory with a fresh handle and
// asserts the store converged -- to the last durable epoch for crashes
// before the manifest, and FORWARD to the new epoch for a crash after
// the manifest named it Active (redo, never undo). The randomized wall
// in FaultWallTest covers the same points at volume with real models;
// here every window is pinned individually with legible assertions.
//
//===----------------------------------------------------------------------===//

#include "store/ModelStore.h"

#include "common/ScratchDir.h"
#include "support/FaultInject.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

using namespace pbt;
using namespace pbt::store;
using support::FaultCrash;
using support::FaultInjector;
using support::FaultPoint;

namespace fs = std::filesystem;

namespace {

class StoreRecoveryTest : public ::testing::Test {
protected:
  void SetUp() override { FaultInjector::instance().reset(); }
  void TearDown() override { FaultInjector::instance().reset(); }

  /// Seeds the store with one promoted champion epoch and returns its
  /// number (always 1).
  uint64_t seedChampion(ModelStore &S) {
    EXPECT_TRUE(S.open().Ok);
    uint64_t E = 0;
    EXPECT_TRUE(S.publish(Champion, E).Ok);
    EXPECT_TRUE(S.promote(E).Ok);
    return E;
  }

  /// Reopens the directory with a fresh handle (the restart) and checks
  /// the invariant every recovery must uphold: CURRENT names a loadable
  /// epoch whose bytes round-trip exactly.
  ModelStore reopenAndVerify(uint64_t WantCurrent,
                             const std::string &WantText) {
    ModelStore S(Dir);
    EXPECT_TRUE(S.open().Ok) << S.open().Error;
    EXPECT_EQ(S.currentEpoch(), WantCurrent);
    VerifiedModel V;
    EXPECT_TRUE(loadCurrentVerified(Dir, V).Ok);
    EXPECT_EQ(V.Epoch, WantCurrent);
    EXPECT_EQ(V.Text, WantText);
    return S;
  }

  bool dirHasEntryWithPrefix(const std::string &Prefix) {
    for (const fs::directory_entry &E : fs::directory_iterator(Dir))
      if (E.path().filename().string().rfind(Prefix, 0) == 0)
        return true;
    return false;
  }

  /// One store directory per test, removed when the test ends.
  testdirs::ScratchDir Scratch{
      std::string("pbt-recovery-") +
      ::testing::UnitTest::GetInstance()->current_test_info()->name()};
  const std::string Dir = Scratch.path();
  const std::string Champion = "the champion model image\n";
  const std::string Candidate = "the candidate model image, longer\n";
};

TEST_F(StoreRecoveryTest, TornWriteLeavesATempThatRecoveryRemoves) {
  {
    ModelStore S(Dir);
    seedChampion(S);
    FaultInjector::instance().arm(FaultPoint::TornWrite);
    uint64_t E = 0;
    EXPECT_THROW(S.publish(Candidate, E), FaultCrash);
  }
  // The torn prefix is on disk, invisible to readers (it is a .tmp).
  EXPECT_TRUE(dirHasEntryWithPrefix(".tmp-"));
  VerifiedModel V;
  ASSERT_TRUE(loadCurrentVerified(Dir, V).Ok);
  EXPECT_EQ(V.Text, Champion);

  ModelStore R = reopenAndVerify(1, Champion);
  EXPECT_GE(R.recovery().TempFilesRemoved, 1u);
  EXPECT_FALSE(dirHasEntryWithPrefix(".tmp-"));
  EXPECT_EQ(R.records().size(), 1u); // the candidate never existed
}

TEST_F(StoreRecoveryTest, CrashBeforeRenameLeavesATempThatRecoveryRemoves) {
  {
    ModelStore S(Dir);
    seedChampion(S);
    FaultInjector::instance().arm(FaultPoint::CrashBeforeRename);
    uint64_t E = 0;
    EXPECT_THROW(S.publish(Candidate, E), FaultCrash);
  }
  EXPECT_TRUE(dirHasEntryWithPrefix(".tmp-"));

  ModelStore R = reopenAndVerify(1, Champion);
  EXPECT_GE(R.recovery().TempFilesRemoved, 1u);
  EXPECT_EQ(R.records().size(), 1u);
}

TEST_F(StoreRecoveryTest, CrashBeforeManifestOrphansTheImage) {
  {
    ModelStore S(Dir);
    seedChampion(S);
    FaultInjector::instance().arm(FaultPoint::CrashBeforeManifest);
    uint64_t E = 0;
    EXPECT_THROW(S.publish(Candidate, E), FaultCrash);
  }
  // The image renamed into place but no manifest record references it:
  // it was never durably published.
  EXPECT_TRUE(fs::exists(Dir + "/" + imageFileName(2)));

  ModelStore R = reopenAndVerify(1, Champion);
  EXPECT_EQ(R.recovery().OrphanImagesRemoved, 1u);
  EXPECT_FALSE(fs::exists(Dir + "/" + imageFileName(2)));
  EXPECT_EQ(R.record(2), nullptr);
}

TEST_F(StoreRecoveryTest, CrashBetweenManifestAndCurrentRollsForward) {
  {
    ModelStore S(Dir);
    seedChampion(S);
    uint64_t E = 0;
    ASSERT_TRUE(S.publish(Candidate, E).Ok);
    ASSERT_TRUE(S.setState(E, EpochState::Canary).Ok);
    FaultInjector::instance().arm(
        FaultPoint::CrashBetweenManifestAndCurrent);
    EXPECT_THROW(S.promote(E), FaultCrash);
  }
  // The crash window: MANIFEST already names epoch 2 Active, CURRENT
  // still says 1.
  uint64_t Ptr = 0;
  ASSERT_TRUE(readCurrentPointer(Dir, Ptr).Ok);
  EXPECT_EQ(Ptr, 1u);

  // Recovery REDOES the promotion -- the durable manifest decision wins.
  ModelStore R = reopenAndVerify(2, Candidate);
  EXPECT_TRUE(R.recovery().CurrentRepaired);
  EXPECT_EQ(R.record(2)->State, EpochState::Active);
  EXPECT_EQ(R.record(1)->State, EpochState::Retired);
}

TEST_F(StoreRecoveryTest, CorruptImageIsQuarantinedAndDropped) {
  {
    ModelStore S(Dir);
    seedChampion(S);
    FaultInjector::instance().arm(FaultPoint::CorruptChecksum);
    uint64_t E = 0;
    // Publish "succeeds" -- the rot is silent, exactly like real media
    // corruption after a clean publish.
    ASSERT_TRUE(S.publish(Candidate, E).Ok);
  }
  std::string Text;
  EXPECT_FALSE(loadEpochVerified(Dir, 2, Text).Ok); // checksum catches it

  ModelStore R = reopenAndVerify(1, Champion);
  EXPECT_EQ(R.recovery().CorruptImagesQuarantined, 1u);
  EXPECT_EQ(R.record(2), nullptr);
  EXPECT_TRUE(dirHasEntryWithPrefix(".bad-")); // kept for forensics
  EXPECT_FALSE(fs::exists(Dir + "/" + imageFileName(2)));
}

TEST_F(StoreRecoveryTest, MidRolloutEpochsAreDemotedOnRestart) {
  {
    ModelStore S(Dir);
    seedChampion(S);
    uint64_t E = 0;
    ASSERT_TRUE(S.publish(Candidate, E).Ok);
    ASSERT_TRUE(S.setState(E, EpochState::Canary).Ok);
    // The fleet dies here with a canary in flight (no failpoint needed:
    // dropping the handle IS the kill).
  }
  ModelStore R = reopenAndVerify(1, Champion);
  EXPECT_EQ(R.recovery().InFlightDemoted, 1u);
  EXPECT_EQ(R.record(2)->State, EpochState::RolledBack);
}

TEST_F(StoreRecoveryTest, MissingCurrentIsRebuiltFromTheManifest) {
  {
    ModelStore S(Dir);
    seedChampion(S);
  }
  fs::remove(Dir + "/CURRENT");

  ModelStore R = reopenAndVerify(1, Champion);
  EXPECT_TRUE(R.recovery().CurrentRepaired);
}

TEST_F(StoreRecoveryTest, CurrentAtADeadEpochIsDropped) {
  {
    ModelStore S(Dir);
    ASSERT_TRUE(S.open().Ok);
    uint64_t E = 0;
    ASSERT_TRUE(S.publish(Champion, E).Ok);
    ASSERT_TRUE(S.rollback(E).Ok); // nothing Active anywhere
  }
  {
    std::ofstream Out(Dir + "/CURRENT", std::ios::binary);
    Out << "epoch 99\n"; // hand edit pointing at a ghost
  }
  ModelStore R(Dir);
  ASSERT_TRUE(R.open().Ok);
  EXPECT_TRUE(R.recovery().CurrentRepaired);
  EXPECT_EQ(R.currentEpoch(), 0u);
  EXPECT_FALSE(fs::exists(Dir + "/CURRENT"));
}

TEST_F(StoreRecoveryTest, RecoveryIsIdempotent) {
  {
    ModelStore S(Dir);
    seedChampion(S);
    uint64_t E = 0;
    ASSERT_TRUE(S.publish(Candidate, E).Ok);
    FaultInjector::instance().arm(
        FaultPoint::CrashBetweenManifestAndCurrent);
    EXPECT_THROW(S.promote(E), FaultCrash);
  }
  { ModelStore R1(Dir); ASSERT_TRUE(R1.open().Ok); }
  // A second restart finds nothing left to repair.
  ModelStore R2(Dir);
  ASSERT_TRUE(R2.open().Ok);
  EXPECT_EQ(R2.recovery().TempFilesRemoved, 0u);
  EXPECT_EQ(R2.recovery().OrphanImagesRemoved, 0u);
  EXPECT_EQ(R2.recovery().CorruptImagesQuarantined, 0u);
  EXPECT_EQ(R2.recovery().InFlightDemoted, 0u);
  EXPECT_FALSE(R2.recovery().CurrentRepaired);
  EXPECT_EQ(R2.currentEpoch(), 2u);
}

} // namespace
