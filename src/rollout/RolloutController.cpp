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

//===----------------------------------------------------------------------===//
// Replica
//===----------------------------------------------------------------------===//

LoadStatus Replica::adoptText(uint64_t NewEpoch, const std::string &Text) {
  serialize::TrainedModel Model;
  LoadStatus St = serialize::loadModel(Text, Model);
  if (!St) {
    // A checksum-valid image that fails to parse is corruption the
    // checksum cannot see (e.g. a bad publisher); refuse it the same way.
    ++TornPrevented;
    return LoadStatus::failure("epoch " + std::to_string(NewEpoch) +
                               " image does not parse: " + St.Error);
  }
  auto Next =
      std::make_unique<runtime::AdaptiveService>(Program, std::move(Model));
  if (!Next->ready())
    return LoadStatus::failure("epoch " + std::to_string(NewEpoch) +
                               " does not fit the bound program: " +
                               Next->status().Error);
  Service = std::move(Next);
  Epoch = NewEpoch;
  ++Swaps;
  return LoadStatus::success();
}

LoadStatus Replica::sync() {
  ++Syncs;
  store::VerifiedModel V;
  LoadStatus St = store::followCurrent(StoreDir, Epoch, V);
  if (!St)
    return St; // nothing loadable; keep serving the held epoch
  TornPrevented += V.RejectedLoads;
  // A fresh service, not swapModel(): that would re-stamp Meta.Epoch when
  // a rolled-back canary reverts to the older champion.
  return V.Epoch == 0 ? LoadStatus::success() : adoptText(V.Epoch, V.Text);
}

LoadStatus Replica::adopt(uint64_t NewEpoch) {
  if (NewEpoch == Epoch)
    return LoadStatus::success();
  std::string Text;
  LoadStatus St = store::loadEpochVerified(StoreDir, NewEpoch, Text);
  if (!St) {
    ++TornPrevented;
    return St;
  }
  return adoptText(NewEpoch, Text);
}

//===----------------------------------------------------------------------===//
// RolloutController
//===----------------------------------------------------------------------===//

RolloutController::RolloutController(const runtime::TunableProgram &Program,
                                     std::string StoreDir,
                                     RolloutOptions Options)
    : Program(Program), Store(StoreDir), Opts(Options) {
  if (Opts.Replicas == 0)
    Opts.Replicas = 1;
  for (size_t I = 0; I != Opts.Replicas; ++I)
    Fleet.push_back(std::make_unique<Replica>(Program, StoreDir));

  // Seeded shadow sample: distinct inputs via partial Fisher-Yates so
  // the canary verdict is reproducible per program.
  size_t N = Program.numInputs();
  std::vector<size_t> All(N);
  for (size_t I = 0; I != N; ++I)
    All[I] = I;
  size_t Want = std::min(Opts.ShadowSample == 0 ? N : Opts.ShadowSample, N);
  support::Rng Rng(kShadowSeed);
  for (size_t I = 0; I != Want; ++I) {
    size_t J = I + Rng.index(N - I);
    std::swap(All[I], All[J]);
  }
  All.resize(Want);
  Sample = std::move(All);
}

double
RolloutController::shadowScoreLocked(runtime::AdaptiveService &Service) {
  double Total = 0.0;
  for (size_t Input : Sample) {
    runtime::AdaptiveService::Decision D = Service.decide(Input);
    Total += Program.runOnce(Input, *D.Config).TimeUnits;
  }
  return Sample.empty() ? 0.0 : Total / static_cast<double>(Sample.size());
}

LoadStatus RolloutController::syncReplicasLocked() {
  for (auto &R : Fleet) {
    LoadStatus St = R->sync();
    if (!St)
      return St;
  }
  return LoadStatus::success();
}

LoadStatus RolloutController::start(const serialize::TrainedModel &Initial) {
  std::lock_guard<std::mutex> Lock(Mu);
  LoadStatus St = Store.open();
  if (!St)
    return St;
  if (Store.currentEpoch() == 0) {
    serialize::TrainedModel Seed;
    St = serialize::loadModel(serialize::serializeModel(Initial), Seed);
    if (!St)
      return St;
    St = serialize::validateAgainst(Seed, Program);
    if (!St)
      return St;
    // The bootstrap epoch: Meta.Epoch must match the store number the
    // image lands as, so stamp it before serializing. A store fresh or
    // recovered-to-empty always starts at the next free number.
    uint64_t Epoch = Store.records().empty()
                         ? 1
                         : Store.records().back().Epoch + 1;
    Seed.Meta.Epoch = Epoch;
    uint64_t Landed = 0;
    St = Store.publish(serialize::serializeModel(Seed), Landed);
    if (!St)
      return St;
    St = Store.promote(Landed);
    if (!St)
      return St;
  }
  return syncReplicasLocked();
}

LoadStatus RolloutController::resume() {
  std::lock_guard<std::mutex> Lock(Mu);
  // Re-running open() is deliberate: recovery is idempotent, and a
  // supervisor resuming after a replica crash wants any interrupted
  // promotion rolled forward before the replacement process loads
  // CURRENT.
  LoadStatus St = Store.open();
  if (!St)
    return St;
  if (Store.currentEpoch() == 0)
    return LoadStatus::failure(
        "store '" + Store.dir() +
        "' has no promoted epoch to resume from (was it ever started?)");
  return syncReplicasLocked();
}

LoadStatus RolloutController::rollout(serialize::TrainedModel Candidate,
                                      CycleReport &Out) {
  std::lock_guard<std::mutex> Lock(Mu);
  CycleReport Report;
  LoadStatus St = serialize::validateAgainst(Candidate, Program);
  if (!St)
    return St;
  if (Fleet.empty() || !Fleet[0]->serving())
    return LoadStatus::failure("fleet is not serving (call start() first)");
  // The champion's provenance, before anything is durable: a candidate
  // for another program would pass the canary on shape alone.
  St = serialize::checkProvenance(
      Candidate.Meta, Fleet[0]->service().currentEpoch()->Model.Meta);
  if (!St)
    return St;

  // --- Publish: durable image + manifest record. ---
  support::WallTimer PublishTimer;
  uint64_t Epoch =
      Store.records().empty() ? 1 : Store.records().back().Epoch + 1;
  Candidate.Meta.Epoch = Epoch;
  uint64_t Landed = 0;
  St = Store.publish(serialize::serializeModel(Candidate), Landed);
  if (!St)
    return St;
  Report.CandidateEpoch = Landed;
  Report.PublishSeconds = PublishTimer.elapsedSeconds();

  // --- Canary: durable transition first, then replica 0 serves it. ---
  support::WallTimer CanaryTimer;
  St = Store.setState(Landed, store::EpochState::Canary);
  if (!St)
    return St;
  Replica &Canary = *Fleet[0];
  Report.ChampionScore = shadowScoreLocked(Canary.service());
  St = Canary.adopt(Landed);
  if (!St) {
    // The candidate image failed verification or parse at the canary:
    // roll it back durably; the fleet never saw it.
    Store.rollback(Landed);
    return St;
  }
  Report.CandidateScore = shadowScoreLocked(Canary.service());
  // The canary is a regression gate, not an optimizer: the publisher
  // already decided the candidate is worth shipping, so equality passes
  // and only a measurably worse candidate rolls back.
  bool Promote = Report.CandidateScore <= Report.ChampionScore;
  Report.CanarySeconds = CanaryTimer.elapsedSeconds();

  // --- Promote fleet-wide, or roll the canary back. ---
  support::WallTimer PromoteTimer;
  if (Promote) {
    St = Store.promote(Landed);
    if (!St)
      return St;
    St = syncReplicasLocked();
    if (!St)
      return St;
    Report.Promoted = true;
  } else {
    St = Store.rollback(Landed);
    if (!St)
      return St;
    // The canary reverts to the fleet champion (CURRENT is unchanged).
    St = Canary.sync();
    if (!St)
      return St;
  }
  Report.PromoteSeconds = PromoteTimer.elapsedSeconds();

  St = Store.gc(Opts.KeepFinished);
  if (!St)
    return St;
  Out = Report;
  return LoadStatus::success();
}

//===----------------------------------------------------------------------===//
// Publisher
//===----------------------------------------------------------------------===//

Publisher::Outcome
Publisher::retrainAndRollout(const std::vector<size_t> &SampleInputs,
                             RolloutController::CycleReport &Report,
                             std::string &Why) {
  if (stopRequested()) {
    Why = "stop requested before retraining";
    return Outcome::Stopped;
  }
  if (SampleInputs.size() < 4) {
    Why = "sample too thin to retrain on (" +
          std::to_string(SampleInputs.size()) + " inputs)";
    return Outcome::NoCandidate;
  }
  if (Opts.OnRetrainStart)
    Opts.OnRetrainStart();

  // Provenance comes from the serving champion: the candidate is the
  // same benchmark at the same scale, retrained on recent traffic.
  serialize::TrainedModel Candidate;
  try {
    Candidate = runtime::AdaptiveService::buildCandidate(
        Program, SampleInputs, Opts.Retrain,
        Controller.replica(0).service().currentEpoch()->Model.Meta);
  } catch (const std::exception &E) {
    Why = std::string("candidate retrain failed: ") + E.what();
    return Outcome::NoCandidate;
  }

  // The stop window that matters: SIGTERM landed while the retrain was
  // running. The candidate is complete in memory but nothing durable
  // exists -- discard it here and nothing ever will.
  if (stopRequested()) {
    Why = "stop requested during retrain; candidate discarded unpublished";
    return Outcome::Stopped;
  }

  serialize::LoadStatus St = Controller.rollout(std::move(Candidate), Report);
  if (!St) {
    Why = St.Error;
    return Outcome::NoCandidate;
  }
  return Report.Promoted ? Outcome::Promoted : Outcome::RolledBack;
}

} // namespace rollout
} // namespace pbt
