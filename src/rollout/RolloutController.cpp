//===- rollout/RolloutController.cpp - Staged epoch rollout machine --------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//

#include "rollout/RolloutController.h"

#include "support/Cost.h"
#include "support/Random.h"

#include <algorithm>
#include <utility>

namespace pbt {
namespace rollout {

using serialize::LoadStatus;

/// Seed of the canary shadow sample.
static constexpr uint64_t kShadowSeed = 0xCA9A23;

RolloutController::RolloutController(const runtime::TunableProgram &Program,
                                     std::string StoreDir,
                                     RolloutOptions Options)
    : Program(Program), Store(std::move(StoreDir)), Opts(Options) {
  // Seeded shadow sample: the canary verdict is reproducible per program.
  size_t N = Program.numInputs();
  size_t Want = Opts.ShadowSample == 0 ? N : std::min(Opts.ShadowSample, N);
  Sample = support::Rng(kShadowSeed).sampleWithoutReplacement(N, Want);
}

runtime::AdaptiveService::EpochPtr RolloutController::champion() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Champion ? Champion->currentEpoch() : nullptr;
}

LoadStatus
RolloutController::bindLocked(uint64_t Epoch, const std::string &Text,
                              std::unique_ptr<runtime::AdaptiveService> &Out) {
  serialize::TrainedModel Model;
  LoadStatus St = serialize::loadModel(Text, Model);
  if (!St) {
    // A checksum-valid image that fails to parse is corruption the
    // checksum cannot see (e.g. a bad publisher); refuse it the same way.
    ++Rejected;
    return LoadStatus::failure("epoch " + std::to_string(Epoch) +
                               " image does not parse: " + St.Error);
  }
  auto Service =
      std::make_unique<runtime::AdaptiveService>(Program, std::move(Model));
  if (!Service->ready())
    return LoadStatus::failure("epoch " + std::to_string(Epoch) +
                               " does not fit the bound program: " +
                               Service->status().Error);
  Out = std::move(Service);
  return LoadStatus::success();
}

LoadStatus RolloutController::loadChampionLocked() {
  // Every image carries its store epoch as Meta.Epoch (stamped before
  // publishing), so the champion's epoch is the one it holds.
  store::VerifiedModel V;
  LoadStatus St = store::followCurrent(
      Store.dir(), Champion ? Champion->epoch() : 0, V);
  Rejected += V.RejectedLoads;
  if (!St || V.Epoch == 0)
    return St; // unloadable, or already the champion
  return bindLocked(V.Epoch, V.Text, Champion);
}

LoadStatus RolloutController::start(const serialize::TrainedModel &Initial) {
  std::lock_guard<std::mutex> Lock(Mu);
  LoadStatus St = Store.open();
  if (St && Store.currentEpoch() == 0) {
    // The bootstrap epoch skips the canary (there is no champion yet).
    // Its Meta.Epoch must match the store number the image lands as, so
    // stamp it on a copy before serializing.
    serialize::TrainedModel Seed;
    St = serialize::loadModel(serialize::serializeModel(Initial), Seed);
    if (St)
      St = serialize::validateAgainst(Seed, Program);
    uint64_t Landed = 0;
    if (St) {
      Seed.Meta.Epoch = Store.nextEpoch();
      St = Store.publish(serialize::serializeModel(Seed), Landed);
    }
    if (St)
      St = Store.promote(Landed);
  }
  return St ? loadChampionLocked() : St;
}

LoadStatus RolloutController::resume() {
  std::lock_guard<std::mutex> Lock(Mu);
  // On a restarted publisher, open() runs store recovery (interrupted
  // promotions roll forward before any replica loads CURRENT). On a live
  // controller (a supervisor resuming before a replica respawns) the
  // store is already open, and only the champion is reloaded.
  LoadStatus St = Store.open();
  if (St && Store.currentEpoch() == 0)
    St = LoadStatus::failure(
        "store '" + Store.dir() +
        "' has no promoted epoch to resume from (was it ever started?)");
  return St ? loadChampionLocked() : St;
}

LoadStatus RolloutController::rollout(serialize::TrainedModel Candidate,
                                      CycleReport &Out) {
  std::lock_guard<std::mutex> Lock(Mu);
  if (!Champion)
    return LoadStatus::failure("no champion (call start() first)");
  // The champion's provenance, before anything is durable: a candidate
  // for another program would pass the canary on shape alone.
  LoadStatus St = serialize::validateAgainst(Candidate, Program);
  if (St)
    St = serialize::checkProvenance(Candidate.Meta,
                                    Champion->currentEpoch()->Model.Meta);
  if (!St)
    return St;

  // --- Publish: durable image + manifest record. ---
  CycleReport Report;
  support::WallTimer PublishTimer;
  Candidate.Meta.Epoch = Store.nextEpoch();
  uint64_t Landed = 0;
  St = Store.publish(serialize::serializeModel(Candidate), Landed);
  if (!St)
    return St;
  Report.CandidateEpoch = Landed;
  Report.PublishSeconds = PublishTimer.elapsedSeconds();

  // --- Canary: durable transition first, then the exact published
  // image is shadow-scored against the champion on the same sample. ---
  support::WallTimer CanaryTimer;
  St = Store.setState(Landed, store::EpochState::Canary);
  if (!St)
    return St;
  std::string Text;
  std::unique_ptr<runtime::AdaptiveService> Canary;
  St = store::loadEpochVerified(Store.dir(), Landed, Text);
  if (St)
    St = bindLocked(Landed, Text, Canary);
  else
    ++Rejected;
  if (!St) {
    // What followers would load is not the candidate: roll it back
    // durably; CURRENT never named it.
    Store.rollback(Landed);
    return St;
  }
  Report.ChampionScore =
      Champion->shadowScore(*Champion->currentEpoch(), Sample);
  Report.CandidateScore = Canary->shadowScore(*Canary->currentEpoch(), Sample);
  // The canary is a regression gate, not an optimizer: the publisher
  // already decided the candidate is worth shipping, so equality passes
  // and only a measurably worse candidate rolls back.
  Report.Promoted = Report.CandidateScore <= Report.ChampionScore;
  Report.CanarySeconds = CanaryTimer.elapsedSeconds();

  // --- Promote (the candidate becomes the champion), or roll back. ---
  support::WallTimer PromoteTimer;
  St = Report.Promoted ? Store.promote(Landed) : Store.rollback(Landed);
  if (!St)
    return St;
  if (Report.Promoted)
    Champion = std::move(Canary);
  Report.PromoteSeconds = PromoteTimer.elapsedSeconds();

  St = Store.gc(Opts.KeepFinished);
  if (St)
    Out = Report;
  return St;
}

} // namespace rollout
} // namespace pbt
