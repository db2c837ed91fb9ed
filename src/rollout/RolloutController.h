//===- rollout/RolloutController.h - Staged epoch rollout machine ----------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The staged rollout state machine over the crash-safe model store: one
/// publisher produces candidate epochs, serving replicas follow the
/// store's CURRENT pointer, and a candidate reaches them only through
///
///   Publish -> Canary -> Promote   (or -> Rollback)
///
/// with every transition durable in the store's MANIFEST before CURRENT
/// moves. The canary is a shadow score: the controller holds one champion
/// AdaptiveService, loads the candidate's exact published image into a
/// second one, and compares their mean run cost over the same seeded
/// sample of inputs, each scored by AdaptiveService::shadowScore (the
/// scorer of the in-process swap gate). A candidate that holds up is
/// promoted and becomes the champion; one that does not is rolled back,
/// and CURRENT never named it.
///
/// The controller serves nothing itself. Replicas are store followers
/// (daemon::ModelRegistry store tenants, the code pbt-serve runs) that
/// adopt each promoted epoch through AdaptiveService::swapModel. They only
/// ever move forward: a rollback never touches CURRENT, and every image's
/// Meta.Epoch is its store epoch. A restarted publisher resumes from the
/// MANIFEST: ModelStore::open() rolls interrupted promotions forward and
/// demotes mid-flight candidates, and resume() reloads the champion.
///
/// The controller trains nothing: its caller hands rollout() a finished
/// candidate.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_ROLLOUT_ROLLOUTCONTROLLER_H
#define PBT_ROLLOUT_ROLLOUTCONTROLLER_H

#include "runtime/AdaptiveService.h"
#include "store/ModelStore.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pbt {
namespace rollout {

struct RolloutOptions {
  /// Inputs in the canary shadow sample (clamped to the program).
  size_t ShadowSample = 24;
  /// Finished (Retired/RolledBack) epochs kept for fallback before GC.
  size_t KeepFinished = 4;
};

/// The publisher-side state machine driver. Owns the single-writer
/// ModelStore handle and the champion the canary scores against.
class RolloutController {
public:
  /// \p Program must outlive the controller; the champion and every
  /// candidate bind it (provenance-checked per model).
  RolloutController(const runtime::TunableProgram &Program,
                    std::string StoreDir, RolloutOptions Options = {});

  /// Opens the store (running crash recovery), seeds it with \p Initial
  /// when empty (publish + immediate promote -- the bootstrap epoch
  /// skips canarying; there is nothing to compare against), and loads
  /// the champion from CURRENT.
  serialize::LoadStatus start(const serialize::TrainedModel &Initial);

  /// The restart path: like start() but never seeds -- a store left
  /// behind by a killed publisher must already contain the durable truth.
  /// Safe to drive from a fleet::Supervisor's monitor thread while the
  /// publisher is mid-rollout on another: every public transition locks
  /// one internal mutex, so a supervisor-triggered resume (before a
  /// crashed replica respawns) serializes cleanly against
  /// publish/canary/promote and the champion swap.
  serialize::LoadStatus resume();

  /// One full staged rollout of \p Candidate.
  struct CycleReport {
    uint64_t CandidateEpoch = 0;
    bool Promoted = false;
    double ChampionScore = 0.0;
    double CandidateScore = 0.0;
    double PublishSeconds = 0.0;
    double CanarySeconds = 0.0;  ///< candidate load + shadow scoring
    double PromoteSeconds = 0.0; ///< durable promote or rollback
  };

  /// Publish -> Canary -> Promote or Rollback. A candidate whose
  /// provenance is not the champion's is refused before anything is
  /// published; one whose image fails verification or parsing is rolled
  /// back and counted in rejectedImages(). The candidate's Meta.Epoch is
  /// rewritten to the store epoch it lands as. Throws support::FaultCrash
  /// through from the store when a crash failpoint triggers.
  serialize::LoadStatus rollout(serialize::TrainedModel Candidate,
                                CycleReport &Out);

  /// The champion's serving epoch (model and provenance); null before a
  /// successful start() or resume().
  runtime::AdaptiveService::EpochPtr champion() const;
  /// Store images this controller refused (at the canary, or on the
  /// champion load's fallback chain). None of them ever served.
  uint64_t rejectedImages() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return Rejected;
  }
  store::ModelStore &modelStore() { return Store; }
  uint64_t currentEpoch() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return Store.currentEpoch();
  }

private:
  /// Loads the champion from CURRENT unless it already serves it.
  serialize::LoadStatus loadChampionLocked();
  /// Parses \p Text (store epoch \p Epoch) and binds it to Program.
  serialize::LoadStatus
  bindLocked(uint64_t Epoch, const std::string &Text,
             std::unique_ptr<runtime::AdaptiveService> &Out);

  const runtime::TunableProgram &Program;
  store::ModelStore Store;
  RolloutOptions Opts;
  std::unique_ptr<runtime::AdaptiveService> Champion;
  uint64_t Rejected = 0;
  std::vector<size_t> Sample; // seeded shadow-sample inputs
  /// Serializes start/resume/rollout and the champion swap across
  /// threads: the publisher and a supervising monitor may both drive
  /// transitions.
  mutable std::mutex Mu;
};

} // namespace rollout
} // namespace pbt

#endif // PBT_ROLLOUT_ROLLOUTCONTROLLER_H
