//===- rollout/RolloutController.h - Staged epoch rollout machine ----------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The staged rollout state machine over the crash-safe model store: one
/// publisher produces candidate epochs, N serving replicas consume them,
/// and a candidate reaches the fleet only through
///
///   Publish -> Canary -> Promote   (or -> Rollback)
///
/// with every transition durable in the store's MANIFEST before any
/// replica acts on it. Canarying is real: replica 0 actually serves the
/// candidate while its live shadow score (mean run cost over a seeded
/// sample of inputs) is compared against the champion's on the same
/// sample; only a candidate that holds up is promoted fleet-wide, and a
/// rollback reverts the canary to the champion it never stopped
/// trusting.
///
/// The fleet is simulated in-process -- each Replica is a
/// runtime::AdaptiveService (the serving core pbt-serve runs) plus the
/// store-reader loop a real serving process would run -- so the whole
/// state machine is testable under the randomized fault-injection wall
/// (and TSan: replicas may sync on their own threads; the store's
/// atomic-rename protocol is the only shared state). A
/// killed-and-restarted fleet resumes from the MANIFEST:
/// ModelStore::open() rolls interrupted promotions forward and demotes
/// mid-flight candidates, and resume() converges every replica onto the
/// surviving CURRENT epoch.
///
/// The Publisher at the bottom is the retrainer driving the machine: it
/// builds a candidate on a traffic sample with the shadow retrain's
/// builder (AdaptiveService::buildCandidate), then rolls it out. It
/// honors a stop flag (SIGTERM handlers set it) at phase boundaries, so
/// shutdown mid-shadow-retrain discards the candidate instead of
/// publishing a partial epoch.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_ROLLOUT_ROLLOUTCONTROLLER_H
#define PBT_ROLLOUT_ROLLOUTCONTROLLER_H

#include "core/Pipeline.h"
#include "runtime/AdaptiveService.h"
#include "store/ModelStore.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pbt {
namespace rollout {

/// One simulated serving replica: an AdaptiveService per adopted epoch
/// plus the poll-CURRENT / load-verified / hot-swap loop a real replica
/// runs.
/// Thread contract: one thread drives a given Replica at a time;
/// different Replicas are fully independent (the store directory is the
/// only shared state, and it is reader-safe by atomic rename).
class Replica {
public:
  Replica(const runtime::TunableProgram &Program, std::string StoreDir)
      : Program(Program), StoreDir(std::move(StoreDir)) {}

  /// Polls CURRENT; when it names a different epoch than the one served,
  /// loads it checksum-verified (with fallback) and hot-swaps. A
  /// rejected image is counted in tornReadsPrevented() and never serves.
  /// Returns failure only when no good epoch is loadable at all (the
  /// replica then keeps serving what it has).
  serialize::LoadStatus sync();

  /// Swaps to a specific epoch image (the canary path; bypasses
  /// CURRENT). Verified exactly like sync().
  serialize::LoadStatus adopt(uint64_t Epoch);

  /// Epoch currently serving (0 = none yet).
  uint64_t epoch() const { return Epoch; }
  bool serving() const { return Service && Service->ready(); }
  runtime::AdaptiveService &service() { return *Service; }

  /// Store images rejected by size/checksum verification before a good
  /// epoch loaded -- every one is a torn read that never reached a
  /// decision. The fault wall asserts serving correctness *despite*
  /// this being nonzero.
  uint64_t tornReadsPrevented() const { return TornPrevented; }
  uint64_t syncCount() const { return Syncs; }
  uint64_t swapCount() const { return Swaps; }

private:
  serialize::LoadStatus adoptText(uint64_t Epoch, const std::string &Text);

  const runtime::TunableProgram &Program;
  std::string StoreDir;
  std::unique_ptr<runtime::AdaptiveService> Service;
  uint64_t Epoch = 0;
  uint64_t TornPrevented = 0;
  uint64_t Syncs = 0;
  uint64_t Swaps = 0;
};

struct RolloutOptions {
  /// Serving replicas in the simulated fleet (replica 0 is the canary).
  size_t Replicas = 3;
  /// Inputs in the canary shadow sample (clamped to the program).
  size_t ShadowSample = 24;
  /// Finished (Retired/RolledBack) epochs kept for fallback before GC.
  size_t KeepFinished = 4;
};

/// The publisher-side state machine driver. Owns the single-writer
/// ModelStore handle and the in-process fleet.
class RolloutController {
public:
  /// \p Program must outlive the controller; it is the shared traffic
  /// universe every replica binds (provenance-checked per model).
  RolloutController(const runtime::TunableProgram &Program,
                    std::string StoreDir, RolloutOptions Options = {});

  /// Opens the store (running crash recovery), seeds it with \p Initial
  /// when empty (publish + immediate promote -- the bootstrap epoch
  /// skips canarying; there is nothing to compare against), and syncs
  /// every replica onto CURRENT.
  serialize::LoadStatus start(const serialize::TrainedModel &Initial);

  /// The restart path: like start() but never seeds -- a store left
  /// behind by a killed fleet must already contain the durable truth.
  /// Safe to drive from a fleet::Supervisor's monitor thread while the
  /// publisher is mid-rollout on another: every public transition locks
  /// one internal mutex, so a supervisor-triggered resume (re-running
  /// store recovery and re-syncing the canary before a crashed replica
  /// respawns) serializes cleanly against publish/canary/promote.
  serialize::LoadStatus resume();

  /// One full staged rollout of \p Candidate.
  struct CycleReport {
    uint64_t CandidateEpoch = 0;
    bool Promoted = false;
    double ChampionScore = 0.0;
    double CandidateScore = 0.0;
    double PublishSeconds = 0.0;
    double CanarySeconds = 0.0; ///< canary swap + shadow scoring + verdict
    double PromoteSeconds = 0.0; ///< promote/rollback through replica sync
  };

  /// Publish -> Canary (replica 0 serves it, shadow-scored against the
  /// champion) -> Promote fleet-wide or Rollback. Every transition is
  /// durable before the fleet moves; a candidate whose provenance is not
  /// the champion's is refused before anything is published. The
  /// candidate's Meta.Epoch is rewritten to the store epoch it lands as,
  /// so the image is self-describing. Throws support::FaultCrash through
  /// from the store when a crash failpoint triggers mid-protocol.
  serialize::LoadStatus rollout(serialize::TrainedModel Candidate,
                                CycleReport &Out);

  size_t replicaCount() const { return Fleet.size(); }
  Replica &replica(size_t I) { return *Fleet[I]; }
  store::ModelStore &modelStore() { return Store; }
  uint64_t currentEpoch() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return Store.currentEpoch();
  }

private:
  /// Re-syncs every replica onto the store's CURRENT epoch.
  serialize::LoadStatus syncReplicasLocked();
  /// Mean run cost of serving the shadow sample with \p Service's
  /// decisions -- the canary comparison metric.
  double shadowScoreLocked(runtime::AdaptiveService &Service);

  const runtime::TunableProgram &Program;
  store::ModelStore Store;
  RolloutOptions Opts;
  std::vector<std::unique_ptr<Replica>> Fleet;
  std::vector<size_t> Sample; // seeded shadow-sample inputs
  /// Serializes start/resume/rollout/syncReplicas across threads: the
  /// publisher and a supervising monitor may both drive transitions.
  mutable std::mutex Mu;
};

//===----------------------------------------------------------------------===//
// Publisher: the retrain side of the trainer/server split
//===----------------------------------------------------------------------===//

struct PublisherOptions {
  /// Pipeline template for candidate retraining; clamped to the sample
  /// exactly like AdaptiveService's shadow retrain.
  core::PipelineOptions Retrain;
  /// Graceful-shutdown flag (a SIGTERM handler stores true). Checked at
  /// phase boundaries: before retraining, and again between retrain and
  /// publish -- a stop mid-retrain discards the candidate; a partial
  /// epoch is never published.
  std::atomic<bool> *Stop = nullptr;
  /// Test hook, called after the stop check when retraining begins (the
  /// graceful-shutdown test delivers its signal here).
  std::function<void()> OnRetrainStart;
};

class Publisher {
public:
  enum class Outcome {
    Stopped,    ///< stop flag honored; nothing published
    NoCandidate,///< retrain failed or sample too thin; nothing published
    Promoted,
    RolledBack,
  };

  Publisher(RolloutController &Controller,
            const runtime::TunableProgram &Program, PublisherOptions Options)
      : Controller(Controller), Program(Program), Opts(std::move(Options)) {}

  /// Retrains a candidate on \p SampleInputs (SubsetProgram over the
  /// shared universe) and drives one staged rollout with it. \p Why
  /// explains NoCandidate outcomes.
  Outcome retrainAndRollout(const std::vector<size_t> &SampleInputs,
                            RolloutController::CycleReport &Report,
                            std::string &Why);

private:
  bool stopRequested() const {
    return Opts.Stop && Opts.Stop->load(std::memory_order_relaxed);
  }

  RolloutController &Controller;
  const runtime::TunableProgram &Program;
  PublisherOptions Opts;
};

} // namespace rollout
} // namespace pbt

#endif // PBT_ROLLOUT_ROLLOUTCONTROLLER_H
