//===- tests/store/ModelStoreTest.cpp ----------------------------------------=//
//
// The crash-safe store's happy paths: publish/state/promote/rollback/gc
// through the single-writer handle, and the stateless reader functions a
// serving replica uses. The store is content-agnostic (it durably moves
// bytes; serialize/ owns their meaning), so these tests use arbitrary
// text images -- the recovery and fault-wall tests feed it real models.
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

namespace {

class ModelStoreTest : public ::testing::Test {
protected:
  void SetUp() override { support::FaultInjector::instance().reset(); }
  void TearDown() override { support::FaultInjector::instance().reset(); }

  /// A fresh store directory per test, removed when the test ends.
  testdirs::ScratchDir Scratch{
      std::string("pbt-store-") +
      ::testing::UnitTest::GetInstance()->current_test_info()->name()};
  const std::string Dir = Scratch.path();
};

TEST_F(ModelStoreTest, ChecksumMatchesKnownFnv1aVectors) {
  // Published FNV-1a 64 test vectors.
  EXPECT_EQ(fnv1a64("", 0), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a", 1), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64("foobar", 6), 0x85944171f73967e8ull);
}

TEST_F(ModelStoreTest, ImageFileNamesAreZeroPadded) {
  EXPECT_EQ(imageFileName(1), "epoch-000001.pbt");
  EXPECT_EQ(imageFileName(123456), "epoch-123456.pbt");
}

TEST_F(ModelStoreTest, StateNamesRoundTrip) {
  for (unsigned I = 0; I <= static_cast<unsigned>(EpochState::RolledBack);
       ++I) {
    EpochState S = static_cast<EpochState>(I), Back;
    ASSERT_TRUE(parseEpochState(epochStateName(S), Back));
    EXPECT_EQ(Back, S);
  }
  EpochState Ignored;
  EXPECT_FALSE(parseEpochState("promoted", Ignored));
}

TEST_F(ModelStoreTest, OpenCreatesAnEmptyStore) {
  ModelStore S(Dir);
  ASSERT_TRUE(S.open().Ok) << S.open().Error;
  EXPECT_EQ(S.currentEpoch(), 0u);
  EXPECT_TRUE(S.records().empty());

  ReaderSnapshot Snap;
  ASSERT_TRUE(readSnapshot(Dir, Snap).Ok);
  EXPECT_EQ(Snap.CurrentEpoch, 0u);
  EXPECT_TRUE(Snap.Records.empty());

  uint64_t Ptr = 99;
  ASSERT_TRUE(readCurrentPointer(Dir, Ptr).Ok);
  EXPECT_EQ(Ptr, 0u);

  VerifiedModel V;
  EXPECT_FALSE(loadCurrentVerified(Dir, V).Ok); // nothing promoted yet
}

TEST_F(ModelStoreTest, OperationsRequireOpen) {
  ModelStore S(Dir);
  uint64_t E = 0;
  EXPECT_FALSE(S.publish("model", E).Ok);
  EXPECT_FALSE(S.promote(1).Ok);
  EXPECT_FALSE(S.setState(1, EpochState::Canary).Ok);
  EXPECT_FALSE(S.gc(1).Ok);
}

TEST_F(ModelStoreTest, PublishPromoteRoundTripsByteIdentically) {
  const std::string Image = "choice 1\nweights 0.25 0.5\nblob \x01\x02\x7f\n";
  ModelStore S(Dir);
  ASSERT_TRUE(S.open().Ok);

  uint64_t Epoch = 0;
  ASSERT_TRUE(S.publish(Image, Epoch).Ok);
  EXPECT_EQ(Epoch, 1u);
  ASSERT_NE(S.record(1), nullptr);
  EXPECT_EQ(S.record(1)->State, EpochState::Published);
  EXPECT_EQ(S.record(1)->Size, Image.size());
  EXPECT_EQ(S.currentEpoch(), 0u); // published != promoted

  ASSERT_TRUE(S.setState(1, EpochState::Canary).Ok);
  ASSERT_TRUE(S.promote(1).Ok);
  EXPECT_EQ(S.currentEpoch(), 1u);
  EXPECT_EQ(S.record(1)->State, EpochState::Active);

  // Both reader-side load paths, byte-identical.
  std::string Text;
  ASSERT_TRUE(loadEpochVerified(Dir, 1, Text).Ok);
  EXPECT_EQ(Text, Image);
  VerifiedModel V;
  ASSERT_TRUE(loadCurrentVerified(Dir, V).Ok);
  EXPECT_EQ(V.Epoch, 1u);
  EXPECT_EQ(V.Text, Image);
  EXPECT_EQ(V.RejectedLoads, 0u);

  uint64_t Ptr = 0;
  ASSERT_TRUE(readCurrentPointer(Dir, Ptr).Ok);
  EXPECT_EQ(Ptr, 1u);
}

TEST_F(ModelStoreTest, EmptyImagesAreRefused) {
  ModelStore S(Dir);
  ASSERT_TRUE(S.open().Ok);
  uint64_t E = 0;
  EXPECT_FALSE(S.publish("", E).Ok);
  EXPECT_TRUE(S.records().empty());
}

TEST_F(ModelStoreTest, SecondPromoteRetiresTheFirst) {
  ModelStore S(Dir);
  ASSERT_TRUE(S.open().Ok);
  uint64_t E1 = 0, E2 = 0;
  ASSERT_TRUE(S.publish("one", E1).Ok);
  ASSERT_TRUE(S.promote(E1).Ok);
  ASSERT_TRUE(S.publish("two", E2).Ok);
  EXPECT_EQ(E2, 2u);
  ASSERT_TRUE(S.promote(E2).Ok);

  EXPECT_EQ(S.currentEpoch(), 2u);
  EXPECT_EQ(S.record(E1)->State, EpochState::Retired);
  EXPECT_EQ(S.record(E2)->State, EpochState::Active);
}

TEST_F(ModelStoreTest, RollbackLeavesCurrentOnTheChampion) {
  ModelStore S(Dir);
  ASSERT_TRUE(S.open().Ok);
  uint64_t E1 = 0, E2 = 0;
  ASSERT_TRUE(S.publish("champion", E1).Ok);
  ASSERT_TRUE(S.promote(E1).Ok);
  ASSERT_TRUE(S.publish("challenger", E2).Ok);
  ASSERT_TRUE(S.setState(E2, EpochState::Canary).Ok);
  ASSERT_TRUE(S.rollback(E2).Ok);

  EXPECT_EQ(S.currentEpoch(), E1);
  EXPECT_EQ(S.record(E2)->State, EpochState::RolledBack);
  VerifiedModel V;
  ASSERT_TRUE(loadCurrentVerified(Dir, V).Ok);
  EXPECT_EQ(V.Text, "champion");
}

TEST_F(ModelStoreTest, GcKeepsActiveAndTheNewestFinished) {
  ModelStore S(Dir);
  ASSERT_TRUE(S.open().Ok);
  // Epochs 1..5 promoted in turn: 1..4 end Retired, 5 Active.
  for (int I = 1; I <= 5; ++I) {
    uint64_t E = 0;
    ASSERT_TRUE(S.publish("image " + std::to_string(I), E).Ok);
    ASSERT_TRUE(S.promote(E).Ok);
  }
  ASSERT_TRUE(S.gc(/*KeepFinished=*/2).Ok);

  EXPECT_EQ(S.record(1), nullptr);
  EXPECT_EQ(S.record(2), nullptr);
  ASSERT_NE(S.record(3), nullptr); // the two newest finished survive
  ASSERT_NE(S.record(4), nullptr);
  ASSERT_NE(S.record(5), nullptr); // Active is never collected
  EXPECT_FALSE(std::filesystem::exists(Dir + "/" + imageFileName(1)));
  EXPECT_TRUE(std::filesystem::exists(Dir + "/" + imageFileName(3)));

  // The collected epochs are gone for readers too.
  std::string Text;
  EXPECT_FALSE(loadEpochVerified(Dir, 1, Text).Ok);
  EXPECT_TRUE(loadEpochVerified(Dir, 4, Text).Ok);
}

TEST_F(ModelStoreTest, FailingFsyncPublishesNothingDurable) {
  ModelStore S(Dir);
  ASSERT_TRUE(S.open().Ok);
  uint64_t E1 = 0;
  ASSERT_TRUE(S.publish("good", E1).Ok);
  ASSERT_TRUE(S.promote(E1).Ok);

  support::FaultInjector::instance().arm(support::FaultPoint::FsyncFail);
  uint64_t E2 = 0;
  EXPECT_FALSE(S.publish("never lands", E2).Ok);
  support::FaultInjector::instance().reset();

  EXPECT_EQ(S.records().size(), 1u);
  ReaderSnapshot Snap;
  ASSERT_TRUE(readSnapshot(Dir, Snap).Ok);
  EXPECT_EQ(Snap.Records.size(), 1u);
  EXPECT_EQ(Snap.CurrentEpoch, E1);
}

TEST_F(ModelStoreTest, ReadersFallBackPastACorruptCurrentImage) {
  ModelStore S(Dir);
  ASSERT_TRUE(S.open().Ok);
  uint64_t E1 = 0, E2 = 0;
  ASSERT_TRUE(S.publish("old good image", E1).Ok);
  ASSERT_TRUE(S.promote(E1).Ok);
  ASSERT_TRUE(S.publish("new good image", E2).Ok);
  ASSERT_TRUE(S.promote(E2).Ok);

  // Rot the CURRENT epoch's bytes behind the manifest's checksum.
  {
    std::ofstream Out(Dir + "/" + imageFileName(E2), std::ios::binary);
    Out << "new GARBAGE img"; // same length, different bytes
  }

  // Exact-epoch load (the canary path) must refuse outright...
  std::string Text;
  EXPECT_FALSE(loadEpochVerified(Dir, E2, Text).Ok);
  // ...while the replica path falls back to the newest good epoch and
  // reports the rejection as a prevented torn read.
  VerifiedModel V;
  ASSERT_TRUE(loadCurrentVerified(Dir, V).Ok);
  EXPECT_EQ(V.Epoch, E1);
  EXPECT_EQ(V.Text, "old good image");
  EXPECT_GE(V.RejectedLoads, 1u);
}

TEST_F(ModelStoreTest, UnknownEpochLoadsFail) {
  ModelStore S(Dir);
  ASSERT_TRUE(S.open().Ok);
  std::string Text;
  EXPECT_FALSE(loadEpochVerified(Dir, 7, Text).Ok);
}

} // namespace
