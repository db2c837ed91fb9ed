//===- tests/rollout/GracefulShutdownTest.cpp --------------------------------=//
//
// The publisher's graceful-shutdown contract: a SIGTERM that lands
// mid-shadow-retrain stops the publisher cleanly -- the retrained
// candidate is discarded in memory and NOTHING durable changes. No
// partial epoch, no in-flight temp file, no store mutation of any kind.
// The signal is delivered for real (raise() through a handler that sets
// the stop flag, exactly the wiring a daemon would install), hooked
// into the retrain phase through PublisherOptions::OnRetrainStart.
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
#include <atomic>
#include <csignal>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

using namespace pbt;
using rollout::Publisher;
using rollout::RolloutController;

namespace {

constexpr double kScale = 0.1;

std::atomic<bool> GStop{false};

extern "C" void stopOnSigterm(int) {
  GStop.store(true, std::memory_order_relaxed);
}

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

class GracefulShutdownTest : public ::testing::Test {
protected:
  void SetUp() override {
    support::FaultInjector::instance().reset();
    GStop.store(false);
    PrevHandler = std::signal(SIGTERM, stopOnSigterm);
    ASSERT_NE(PrevHandler, SIG_ERR);

    const registry::BenchmarkFactory &F =
        registry::BenchmarkRegistry::instance().get("sort1");
    Program = F.makeProgram(kScale, F.defaultProgramSeed());
    Dir = ::testing::TempDir() + "pbt-shutdown-" +
          ::testing::UnitTest::GetInstance()->current_test_info()->name() +
          "-" + std::to_string(::getpid());
    std::filesystem::remove_all(Dir);

    rollout::RolloutOptions RO;
    RO.Replicas = 2;
    RO.ShadowSample = 8;
    Ctl = std::make_unique<RolloutController>(*Program, Dir, RO);
    ASSERT_TRUE(Ctl->start(cloneModel(modelBytes())).Ok);

    for (size_t I = 0; I != 8; ++I)
      Sample.push_back(I);
  }
  void TearDown() override {
    std::signal(SIGTERM, PrevHandler);
    Ctl.reset();
    std::filesystem::remove_all(Dir);
    support::FaultInjector::instance().reset();
  }

  rollout::PublisherOptions publisherOptions() {
    const registry::BenchmarkFactory &F =
        registry::BenchmarkRegistry::instance().get("sort1");
    rollout::PublisherOptions PO;
    PO.Retrain =
        registry::reservoirRetrainOptions(F, kScale, Sample.size(), nullptr);
    PO.Stop = &GStop;
    return PO;
  }

  /// Everything durable about the store directory, for exact
  /// before/after comparison.
  struct StoreFingerprint {
    uint64_t Current = 0;
    size_t Epochs = 0;
    std::vector<std::string> Files; // sorted directory listing
  };
  StoreFingerprint fingerprint() {
    StoreFingerprint FP;
    store::ReaderSnapshot Snap;
    EXPECT_TRUE(store::readSnapshot(Dir, Snap).Ok);
    FP.Current = Snap.CurrentEpoch;
    FP.Epochs = Snap.Records.size();
    for (const auto &E : std::filesystem::directory_iterator(Dir))
      FP.Files.push_back(E.path().filename().string());
    std::sort(FP.Files.begin(), FP.Files.end());
    return FP;
  }

  registry::ProgramPtr Program;
  std::string Dir;
  std::unique_ptr<RolloutController> Ctl;
  std::vector<size_t> Sample;
  void (*PrevHandler)(int) = nullptr;
};

TEST_F(GracefulShutdownTest, SigtermMidRetrainPublishesNothing) {
  rollout::PublisherOptions PO = publisherOptions();
  // The signal lands while the shadow retrain is running: the handler
  // fires from inside the retrain phase, after the pre-retrain stop
  // check already passed.
  PO.OnRetrainStart = [] { ASSERT_EQ(::raise(SIGTERM), 0); };
  Publisher Pub(*Ctl, *Program, std::move(PO));

  StoreFingerprint Before = fingerprint();
  RolloutController::CycleReport Report;
  std::string Why;
  Publisher::Outcome Out = Pub.retrainAndRollout(Sample, Report, Why);

  EXPECT_EQ(Out, Publisher::Outcome::Stopped);
  EXPECT_NE(Why.find("discarded unpublished"), std::string::npos) << Why;

  // Nothing durable moved: same CURRENT, same epoch count, the exact
  // same directory listing (in particular: no new image, no .tmp).
  StoreFingerprint After = fingerprint();
  EXPECT_EQ(After.Current, Before.Current);
  EXPECT_EQ(After.Epochs, Before.Epochs);
  EXPECT_EQ(After.Files, Before.Files);
  // And the fleet never blinked.
  for (size_t I = 0; I != Ctl->replicaCount(); ++I)
    EXPECT_EQ(Ctl->replica(I).epoch(), 1u);
}

TEST_F(GracefulShutdownTest, StopAlreadySetSkipsTheRetrainEntirely) {
  rollout::PublisherOptions PO = publisherOptions();
  bool RetrainStarted = false;
  PO.OnRetrainStart = [&RetrainStarted] { RetrainStarted = true; };
  Publisher Pub(*Ctl, *Program, std::move(PO));

  GStop.store(true);
  RolloutController::CycleReport Report;
  std::string Why;
  EXPECT_EQ(Pub.retrainAndRollout(Sample, Report, Why),
            Publisher::Outcome::Stopped);
  EXPECT_FALSE(RetrainStarted);
}

TEST_F(GracefulShutdownTest, ThinSampleYieldsNoCandidate) {
  Publisher Pub(*Ctl, *Program, publisherOptions());
  RolloutController::CycleReport Report;
  std::string Why;
  std::vector<size_t> Thin = {0, 1};
  EXPECT_EQ(Pub.retrainAndRollout(Thin, Report, Why),
            Publisher::Outcome::NoCandidate);
  EXPECT_NE(Why.find("too thin"), std::string::npos);
  EXPECT_EQ(Ctl->modelStore().records().size(), 1u);
}

TEST_F(GracefulShutdownTest, UninterruptedRetrainShipsACandidate) {
  Publisher Pub(*Ctl, *Program, publisherOptions());
  RolloutController::CycleReport Report;
  std::string Why;
  Publisher::Outcome Out = Pub.retrainAndRollout(Sample, Report, Why);
  // Promoted or rolled back is the canary's call; either way a durable
  // epoch exists and the machine ran end to end.
  EXPECT_TRUE(Out == Publisher::Outcome::Promoted ||
              Out == Publisher::Outcome::RolledBack)
      << Why;
  EXPECT_EQ(Report.CandidateEpoch, 2u);
  ASSERT_NE(Ctl->modelStore().record(2), nullptr);
}

} // namespace
