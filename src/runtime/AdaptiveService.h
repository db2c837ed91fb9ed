//===- runtime/AdaptiveService.h - Drift-adaptive model serving ------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The online-adaptation loop on top of the compiled serving stack: an
/// AdaptiveService serves per-input configuration decisions from the
/// current CompiledModel epoch while watching the live traffic with a
/// DriftMonitor. When the monitor flags that inputs no longer look like
/// the training sample, the service retrains in the shadow -- the
/// two-level pipeline (core/Pipeline.h, parallelised by the usual
/// ThreadPool path) runs over a reservoir sample of recent traffic
/// wrapped in a runtime::SubsetProgram -- and the freshly trained
/// candidate is scored against the champion on that same traffic. Only a
/// candidate with strictly lower shadow cost is hot-swapped in; the swap
/// is an atomic epoch-pointer exchange, so serving never pauses and
/// decisions already handed out stay valid (each Decision holds its
/// epoch alive).
///
/// The shadow retrain runs synchronously inside serve(), so its cost is
/// serving latency. Its Level 1 reads every sampled input's feature
/// values and extraction costs from the feature memo instead of
/// re-extracting them (each sampled input was served, so each row is
/// complete), with byte-identical candidates (pinned by
/// RetrainReuseTest). Stats report the retrain time spent in total and by
/// the last retrain.
///
/// Model epochs are versioned: every swap bumps ModelMeta::Epoch, which
/// the v2 serialization format records, so a persisted snapshot of an
/// adapted model carries its adaptation generation. Cost accounting is
/// preserved across swaps -- lifetime totals keep accumulating, and the
/// swap history records the shadow scores that justified (or rejected)
/// each candidate.
///
/// This is the one serving core: the daemon, the rollout replicas, the
/// bench harnesses and every in-process parity replay decide through it.
///
/// Threading contract: decide()/decideBatch()/serve() are driven by one
/// serving thread at a time (decideBatch may internally shard across a
/// pool it is handed); swapModel() may be called concurrently from any
/// other thread. A batch reads the epoch pointer exactly once, so every
/// decision inside one batch comes from the same epoch.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_RUNTIME_ADAPTIVESERVICE_H
#define PBT_RUNTIME_ADAPTIVESERVICE_H

#include "core/Pipeline.h"
#include "ml/Reservoir.h"
#include "runtime/CompiledModel.h"
#include "runtime/DriftMonitor.h"
#include "serialize/ModelIO.h"
#include "support/ThreadPool.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace pbt {
namespace runtime {

struct AdaptiveServiceOptions {
  DriftMonitorOptions Monitor;
  /// Recent-traffic sample the shadow retrain learns from.
  size_t ReservoirSize = 48;
  uint64_t ReservoirSeed = 0x5EED;
  /// Pipeline options template for shadow retraining. Landmark count, CV
  /// folds and tuning neighbourhood are clamped to what the reservoir can
  /// support; its Pool parallelises the retrain.
  core::PipelineOptions Retrain;
  /// A candidate is swapped in only when its shadow-scored mean cost is
  /// below champion * (1 - SwapMargin).
  double SwapMargin = 0.0;
  /// serve() reacts to a drift flag by retraining + maybe swapping. When
  /// false the caller drives adaptation via adaptNow().
  bool AutoAdapt = true;
  /// Fewest reservoir entries (and, /2, distinct inputs) worth retraining
  /// on; drift flags before that only rebase the monitor.
  size_t MinRetrainInputs = 16;
};

class AdaptiveService {
public:
  /// One published model generation. Id is a process-local monotonic
  /// counter (unique even across rejected candidates); the persisted
  /// adaptation generation is Model.Meta.Epoch.
  struct ModelEpoch {
    uint64_t Id = 0;
    serialize::TrainedModel Model;
    CompiledModel Compiled;
  };
  using EpochPtr = std::shared_ptr<const ModelEpoch>;

  struct Decision {
    unsigned Landmark = 0;
    /// Meta.Epoch of the model that decided (the versioned generation).
    uint64_t Epoch = 0;
    /// Points into Hold's model; valid while Hold (or the service at this
    /// epoch) lives.
    const Configuration *Config = nullptr;
    double FeatureCost = 0.0;
    unsigned FeaturesExtracted = 0;
    bool Memoized = false;
    /// The monitor flagged drift at this observation (serve() only).
    bool DriftFlagged = false;
    /// This observation's drift response ended in a hot swap.
    bool Swapped = false;
    EpochPtr Hold;
  };

  /// One adaptation attempt (accepted or rejected), in order.
  struct SwapRecord {
    uint64_t FromEpoch = 0; ///< Meta.Epoch serving when drift flagged.
    uint64_t ToEpoch = 0;   ///< Candidate's Meta.Epoch.
    uint64_t AtDecision = 0; ///< Lifetime decision count at the attempt.
    double ChampionShadowCost = 0.0;
    double CandidateShadowCost = 0.0;
    bool Accepted = false;
    /// Wall seconds of the shadow retrain (pipeline + compile).
    double RetrainSeconds = 0.0;
    /// Wall seconds of the champion + candidate shadow scoring.
    double ShadowSeconds = 0.0;
    /// Wall seconds from the drift response starting (the detection --
    /// serve() invokes the response synchronously at the flag) to the
    /// epoch swap publishing, i.e. how long live traffic was served by
    /// the stale champion. For rejected attempts: time to the verdict.
    double DriftToSwapSeconds = 0.0;
  };

  struct StatsSnapshot {
    uint64_t Decisions = 0;
    uint64_t MemoizedDecisions = 0;
    uint64_t FeaturesExtracted = 0;
    double FeatureCostPaid = 0.0;
    /// Extraction paid by the drift monitor's full-vector observation
    /// (kept apart from per-decision cost, so FeatureCostPaid counts only
    /// what the classifier examined).
    double MonitorCostPaid = 0.0;
    uint64_t DriftDetections = 0;
    uint64_t Retrains = 0;
    uint64_t Swaps = 0;
    uint64_t RejectedCandidates = 0;
    uint64_t SkippedRetrains = 0;
    /// Wall seconds of every completed shadow retrain (pipeline +
    /// compile), and of the most recent one.
    double RetrainSecondsTotal = 0.0;
    double LastRetrainSeconds = 0.0;
    /// Why the most recent drift response skipped retraining (empty when
    /// none ever skipped): the caught retrain exception's message, or the
    /// insufficient-evidence diagnosis. Without this, a tenant whose
    /// every adaptation silently dies in the catch-all is
    /// indistinguishable from one that never needed to adapt.
    std::string LastSkipReason;
  };

  /// Binds \p Program and publishes \p Initial as epoch 1. \p Program
  /// must outlive the service. status() reports a model/program mismatch;
  /// the service is not ready() then.
  AdaptiveService(const TunableProgram &Program,
                  serialize::TrainedModel Initial,
                  AdaptiveServiceOptions Options = {});

  bool ready() const { return Ok; }
  const serialize::LoadStatus &status() const { return Status; }

  /// Serve one request and feed the adaptation loop: decide, observe the
  /// input's features / cluster / decision into the DriftMonitor and the
  /// reservoir, and (under AutoAdapt) run the drift response when
  /// flagged. Single serving thread.
  Decision serve(size_t Input);

  /// Decide without observing: no monitor, no reservoir, no adaptation.
  Decision decide(size_t Input);

  /// Batched decide (no observation); the whole batch is served by one
  /// epoch snapshot. Without a pool (what every production caller
  /// passes) the batch runs inline on the calling thread. With one, the
  /// inputs are sharded by input id, so every occurrence of an input is
  /// decided by the shard that owns its memo entry: decisions are
  /// identical for every thread count.
  std::vector<Decision> decideBatch(const std::vector<size_t> &Inputs,
                                    support::ThreadPool *Pool = nullptr);

  /// Runs the drift response now: retrain on the reservoir, shadow-score
  /// candidate vs champion on the same traffic, swap when strictly
  /// better. Returns true when a swap happened.
  bool adaptNow();

  /// Publishes \p Next as the new serving epoch without the shadow gate
  /// (operator-pushed models, stress tests). The model is validated
  /// against the bound program first; on failure nothing is published
  /// and the error is returned. Safe to call from a thread other than
  /// the serving thread; the serving thread rebases its DriftMonitor to
  /// the pushed model on its next serve().
  serialize::LoadStatus swapModel(serialize::TrainedModel Next);

  /// Snapshot of the current epoch (never null once ready()).
  EpochPtr currentEpoch() const;
  /// Current versioned generation (Meta.Epoch).
  uint64_t epoch() const;
  const TunableProgram &program() const { return Program; }

  StatsSnapshot stats() const;
  std::vector<SwapRecord> history() const;
  const DriftMonitor &monitor() const { return Monitor; }
  const ml::Reservoir &reservoir() const { return Traffic; }
  const AdaptiveServiceOptions &options() const { return Opts; }

  /// Clamps a pipeline-options template to what a traffic sample of
  /// \p SampleSize inputs can support (landmark count, CV folds, tuning
  /// neighbourhood). Used before every shadow retrain; exposed so
  /// harnesses can build consistent initial-model options (see
  /// registry::reservoirRetrainOptions).
  static void clampRetrainOptions(core::PipelineOptions &Opt,
                                  size_t SampleSize);

private:
  struct MemoEntry {
    std::vector<double> Values;
    /// Extraction cost (CostCounter units) paid for each value.
    std::vector<double> Costs;
    std::vector<char> Have;
    /// Cached production decision and the internal epoch Id it belongs
    /// to; a swap invalidates it by Id mismatch, not by touching memory.
    int64_t DecidedEpochId = -1;
    int32_t Decided = -1;
  };

  Decision decideWith(const ModelEpoch &Ep, size_t Input,
                      CompiledModel::Scratch &S);
  /// Memo-backed feature access: extracts flat feature \p Flat of
  /// \p Input unless already memoized. Newly paid extraction is charged
  /// to \p D when given, else to the MonitorCost bucket.
  double featureAt(size_t Input, unsigned Flat, Decision *D);
  /// Extracts (via the memo) every flat feature of \p Input; returns the
  /// memo row. Extraction newly paid here is charged to MonitorCost.
  const double *fullFeatures(size_t Input);
  /// MainScratch sized for \p Ep (epochs differ in class counts); the
  /// serving-thread counterpart of decideBatch's per-shard scratches.
  CompiledModel::Scratch &scratchFor(const ModelEpoch &Ep);
  /// Serving-thread monitor upkeep: when \p Ep is not the epoch the
  /// monitor was rebased to (an external swapModel() landed), rebase to
  /// it before observing.
  void syncMonitorTo(const EpochPtr &Ep);
  /// The Level-1 feature tables of a retrain over \p Sample (row I is
  /// input Sample[I]), read from the memo -- exactly what extraction over
  /// a SubsetProgram of the sample would produce. serve() completes an
  /// input's memo row before adding it to the reservoir, and memo rows
  /// are never dropped, so every sampled row is complete.
  void sampleFeatureTables(const std::vector<size_t> &Sample,
                           linalg::Matrix &Values,
                           linalg::Matrix &Costs) const;
  unsigned assignCluster(const ModelEpoch &Ep, const double *Features);
  /// Mean run cost of serving \p Inputs with \p Ep's decisions (runs the
  /// program; the shadow evaluation).
  double shadowScore(const ModelEpoch &Ep, const std::vector<size_t> &Inputs);
  void publish(std::shared_ptr<ModelEpoch> Next, SwapRecord *Attempt);
  void recordTotals(const Decision &D);
  /// Bumps SkipCount and records \p Reason as the last skip diagnosis.
  void recordSkip(std::string Reason);

  const TunableProgram &Program;
  AdaptiveServiceOptions Opts;
  serialize::LoadStatus Status;
  bool Ok = false;

  /// The atomically swapped serving state. Readers snapshot with
  /// std::atomic_load; publishers serialize on SwapMutex.
  EpochPtr Current;
  std::atomic<uint64_t> EpochCounter{0};
  mutable std::mutex SwapMutex;
  std::vector<SwapRecord> Swaps;   // guarded by SwapMutex
  std::string LastSkipReason;      // guarded by SwapMutex

  std::optional<FeatureIndex> Index;
  std::vector<MemoEntry> Memo;
  CompiledModel::Scratch MainScratch;
  /// Internal epoch Id MainScratch was sized for (0 = never made).
  uint64_t ScratchEpochId = 0;
  std::vector<double> ClusterRow; // scratch for assignCluster

  DriftMonitor Monitor;
  /// Internal epoch Id the monitor's reference was rebased to.
  uint64_t MonitorEpochId = 0;
  ml::Reservoir Traffic;
  /// Reservoir sample buffer, reused across retrain rounds.
  std::vector<size_t> SampleBuf;

  // Lifetime accounting; atomics because swapModel() updates SwapCount
  // from a foreign thread while the serving thread reads/writes the rest.
  std::atomic<uint64_t> DecisionCount{0}, MemoizedCount{0}, ExtractedCount{0},
      DriftCount{0}, RetrainCount{0}, SwapCount{0}, RejectCount{0},
      SkipCount{0};
  std::atomic<double> CostPaid{0.0}, MonitorCost{0.0}, RetrainSeconds{0.0},
      LastRetrainSeconds{0.0};
};

} // namespace runtime
} // namespace pbt

#endif // PBT_RUNTIME_ADAPTIVESERVICE_H
