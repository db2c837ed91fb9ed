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
/// two-level pipeline (core/Pipeline.h) runs on the serving thread over a
/// reservoir sample of recent traffic wrapped in a
/// runtime::SubsetProgram -- and the freshly trained
/// candidate is scored against the champion on that same traffic. Only a
/// candidate with strictly lower shadow cost is hot-swapped in; the swap
/// is an atomic epoch-pointer exchange, so serving never pauses and
/// answers already handed out stay valid: each batch returns the epoch
/// that decided it, and holding that pointer keeps the answers'
/// configurations alive.
///
/// One route retrains: adaptNow() builds a candidate with
/// buildCandidate() and gates it with shadowScore(), the one scorer the
/// rollout canary (rollout/RolloutController.h) also uses. Every epoch
/// published here -- initial, retrained or pushed through swapModel() --
/// passes one gate that drops training-only state and compiles. The
/// constructor and swapModel() also check the model against the bound
/// program, and swapModel() against the serving epoch's provenance.
///
/// The shadow retrain runs synchronously inside serve()/serveAnswers(),
/// so its cost is serving latency. Its Level 1 reads every sampled
/// input's feature values and extraction costs from the feature memo
/// instead of re-extracting them (each sampled input was served, so each
/// row is complete), with byte-identical candidates (pinned by
/// RetrainReuseTest). Stats report the retrain time spent in total, by
/// the last retrain, and in each of the pipeline's two levels.
///
/// Model epochs are versioned: every swap bumps ModelMeta::Epoch, which
/// the v2 serialization format records, so a persisted snapshot of an
/// adapted model carries its adaptation generation. Cost accounting is
/// preserved across swaps -- lifetime totals keep accumulating, and the
/// swap history records the shadow scores that justified (or rejected)
/// each of the most recent candidates (bounded, so a long-lived tenant's
/// memory does not grow with its retrain count).
///
/// This is the one serving core: the daemon, the rollout controller, the
/// bench harnesses and every in-process parity replay decide through it.
/// Two loops serve: decideAnswers() only decides, and serveAnswers() --
/// the --adapt daemon's path, with serve() its one-input caller -- also
/// observes. Both run on per-input memos whose entries are tagged with
/// the internal epoch Id they were computed under: the feature memo
/// (never invalidated, since an input's features do not depend on the
/// model), and the decision and Level-1 cluster memos, which a swap
/// invalidates by Id mismatch. A row the monitor completed is flagged
/// Complete, so a warm observation reads it with one branch; warm, an
/// observed input costs memo lookups plus the monitor's ring update, and
/// every CheckInterval-th one a divergence test that allocates nothing.
///
/// Threading contract: decide()/decideAnswers()/decideBatch()/serve()/
/// serveAnswers() are driven by one serving thread at a time, which owns
/// the memos and the scratch; swapModel() may be called concurrently
/// from any other thread. A batch reads the epoch pointer once, so every
/// decision inside one batch comes from the same epoch -- except that
/// serveAnswers() reads it again after its own drift response swaps, as
/// a serve() loop would.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_RUNTIME_ADAPTIVESERVICE_H
#define PBT_RUNTIME_ADAPTIVESERVICE_H

#include "core/Pipeline.h"
#include "ml/Reservoir.h"
#include "runtime/CompiledModel.h"
#include "runtime/DriftMonitor.h"
#include "serialize/ModelIO.h"

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

namespace pbt {
namespace runtime {

struct AdaptiveServiceOptions {
  DriftMonitorOptions Monitor;
  /// Recent-traffic sample the shadow retrain learns from.
  size_t ReservoirSize = 48;
  /// Pipeline options template for shadow retraining, which runs on the
  /// serving thread. Landmark count, CV folds and tuning neighbourhood are
  /// clamped to what the reservoir can support.
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
  /// counter that publish() assigns, so it is unique among published
  /// epochs; a candidate that is scored and rejected is never published
  /// and keeps Id 0. The persisted adaptation generation is
  /// Model.Meta.Epoch.
  struct ModelEpoch {
    uint64_t Id = 0;
    serialize::TrainedModel Model;
    CompiledModel Compiled;
  };
  using EpochPtr = std::shared_ptr<const ModelEpoch>;

  /// One answer of decide()/serve()/decideBatch(): exactly what the two
  /// serving loops write. Its configuration is
  /// Ep->Model.System.L1.Landmarks[Landmark] under the EpochPtr the loop
  /// returned; extraction cost, memo hits and swaps are stats() deltas.
  struct Decision {
    unsigned Landmark = 0;
    /// Meta.Epoch of the model that decided (the versioned generation).
    uint64_t Epoch = 0;
    /// The monitor flagged drift at this observation (set only by the
    /// observing loop, serve()/serveAnswers(), into a Decision).
    bool DriftFlagged = false;
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
    /// The pipeline's Level-1 and Level-2 shares of RetrainSecondsTotal
    /// (core::TrainedSystem::Level1Seconds / Level2Seconds, summed).
    double RetrainLevel1SecondsTotal = 0.0;
    double RetrainLevel2SecondsTotal = 0.0;
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

  /// Serve one request and feed the adaptation loop: serveAnswers() over
  /// the one input, which also reports whether the observation flagged
  /// drift (DriftFlagged). Single serving thread.
  Decision serve(size_t Input);

  /// The observing counterpart of decideAnswers(), which the --adapt
  /// daemon answers a Predict with: each input in order is decided, then
  /// observed -- its full feature row, Level-1 cluster and decision go
  /// to the DriftMonitor and the reservoir -- and under AutoAdapt a drift
  /// flag runs adaptNow() there and then, exactly as a loop of serve()
  /// calls would. The epoch pointer is read once per batch and again only
  /// after the batch's own drift response swaps; the epoch returned is
  /// the one that decided the last input (each answer's Epoch names its
  /// own). Warm, an input costs memo lookups and the monitor's ring
  /// update, with no reference count. The batch reaches stats() as one
  /// add per counter, and the decisions made so far are added just
  /// before any adaptNow(), so stats(), history() and every
  /// SwapRecord::AtDecision keep the values a serve() loop gives them.
  template <typename Answer>
  EpochPtr serveAnswers(const size_t *Inputs, size_t N, Answer *Out);

  /// Decide without observing: decideAnswers() over the one input.
  Decision decide(size_t Input);

  /// The lean batched decide (no observation) the daemon answers a
  /// Predict with: for each I < \p N, writes Inputs[I]'s landmark to
  /// Out[I].Landmark and the deciding model's Meta.Epoch to Out[I].Epoch.
  /// \p Answer is any type with those two members (daemon::PredictedChoice,
  /// Decision). The epoch pointer is read once, and the batch's epoch is
  /// returned: holding it keeps the answers' configurations alive. A
  /// decision-memo hit is one compare and one store -- no reference
  /// count, no allocation; a miss takes the compiled walk out of line.
  /// The batch reaches stats() as one add per counter when it returns,
  /// not one per decision.
  template <typename Answer>
  EpochPtr decideAnswers(const size_t *Inputs, size_t N, Answer *Out);

  /// decideAnswers() over \p Inputs into a vector of Decisions.
  ///
  /// decide(), serve() and this one are kept only because perfbench
  /// calls them (this one as `decideBatch(Inputs, nullptr)`, which is
  /// what the unnamed parameter admits); the benchmark's next change
  /// (ROADMAP item 6a) moves perfbench onto the two loops, and then all
  /// three go.
  std::vector<Decision> decideBatch(const std::vector<size_t> &Inputs,
                                    std::nullptr_t = nullptr);

  /// Runs the drift response now: retrain on the reservoir, shadow-score
  /// candidate vs champion on the same traffic, swap when strictly
  /// better. Returns true when a swap happened.
  bool adaptNow();

  /// Publishes \p Next as the new serving epoch without the shadow gate
  /// (operator-pushed models, stress tests). The model is validated
  /// against the bound program and the serving epoch's provenance first;
  /// on failure nothing is published and the error is returned. Safe to
  /// call from a thread other than the serving thread; the serving thread
  /// rebases its DriftMonitor to the pushed model on its next observing
  /// batch.
  serialize::LoadStatus swapModel(serialize::TrainedModel Next);

  /// Snapshot of the current epoch (never null once ready()).
  EpochPtr currentEpoch() const;
  /// Current versioned generation (Meta.Epoch).
  uint64_t epoch() const;
  const TunableProgram &program() const { return Program; }

  StatsSnapshot stats() const;
  /// The most recent adaptation attempts, oldest first: at most
  /// MaxSwapHistory of them, the oldest dropped first. stats() counts
  /// every attempt.
  std::vector<SwapRecord> history() const;
  static constexpr size_t MaxSwapHistory = 1024;
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

  /// The one scorer of a candidate gate: the mean run cost of serving
  /// \p Inputs with \p Ep's decisions (runs the program). The landmarks
  /// are the ones decide() would pick under \p Ep, yet nothing is cached
  /// or counted: stats() and every later decision are unchanged. Both the
  /// shadow retrain's swap gate and the rollout canary score with it.
  /// Serving thread (or a service nobody else drives).
  double shadowScore(const ModelEpoch &Ep,
                     const std::vector<size_t> &Inputs) const;

private:
  struct MemoEntry {
    std::vector<double> Values;
    /// Extraction cost (CostCounter units) paid for each value.
    std::vector<double> Costs;
    std::vector<char> Have;
    /// Cached production decision and Level-1 cluster, each with the
    /// internal epoch Id it belongs to; a swap invalidates them by Id
    /// mismatch, not by touching memory. A complete row never changes,
    /// so neither does its cluster under one epoch.
    int64_t DecidedEpochId = -1;
    int32_t Decided = -1;
    int32_t Cluster = -1;
    int64_t ClusterEpochId = -1;
    /// Every flat feature is memoized (fullFeatures() has run).
    bool Complete = false;
  };

  /// What a decision of the current batch that extracted features paid.
  struct PaidDecision {
    double Cost = 0.0;
    unsigned Extracted = 0;
  };

  /// The program check the constructor and swapModel() share:
  /// serialize::validateAgainst plus a production classifier and landmarks.
  serialize::LoadStatus
  checkProgram(const serialize::TrainedModel &Model) const;
  /// The epoch gate every model passes before it serves: drops the
  /// training-only substrate and compiles. Null when it does not compile.
  static std::shared_ptr<ModelEpoch> makeEpoch(serialize::TrainedModel Model);
  /// \p Input's decision under \p Ep (whose Id is \p Id): the decision
  /// memo, or on a miss decideMiss().
  unsigned decideOne(const ModelEpoch &Ep, int64_t Id, size_t Input);
  /// The decision-memo miss of decideOne(): the compiled walk over
  /// \p Input's memoized features, extracting what the memo lacks. Caches
  /// the decision for \p Ep and appends the extraction it newly paid to
  /// Paid.
  unsigned decideMiss(const ModelEpoch &Ep, size_t Input);
  /// Memo-backed feature access: extracts flat feature \p Flat of
  /// \p Input unless already memoized. Newly paid extraction is charged
  /// to \p P when given, else to the MonitorCost bucket.
  double featureAt(size_t Input, unsigned Flat, PaidDecision *P);
  /// Extracts (via the memo) every flat feature of \p Input; returns the
  /// memo row. Extraction newly paid here is charged to MonitorCost. On a
  /// complete row this is one branch.
  const double *fullFeatures(size_t Input);
  /// Feeds \p Input, decided \p Landmark under \p Ep, to the monitor and
  /// the reservoir; true when the monitor flagged drift (counted).
  bool observe(const ModelEpoch &Ep, size_t Input, unsigned Landmark);
  /// Records a drift flag on a Decision; other answer types have no room
  /// for it.
  static void markDrift(Decision &D) { D.DriftFlagged = true; }
  template <typename Answer> static void markDrift(Answer &) {}
  /// MainScratch sized for \p Ep (epochs differ in class counts).
  CompiledModel::Scratch &scratchFor(const ModelEpoch &Ep);
  /// Serving-thread monitor upkeep: when \p Ep is not the epoch the
  /// monitor was rebased to (an external swapModel() landed), rebase to
  /// it before observing.
  void syncMonitorTo(const EpochPtr &Ep);
  /// The Level-1 feature tables of a retrain over \p Sample (row I is
  /// input Sample[I]), read from the memo -- exactly what extraction over
  /// a SubsetProgram of the sample would produce. observe() completes an
  /// input's memo row before adding it to the reservoir, and memo rows
  /// are never dropped, so every sampled row is complete.
  void sampleFeatureTables(const std::vector<size_t> &Sample,
                           linalg::Matrix &Values,
                           linalg::Matrix &Costs) const;
  /// \p Input's Level-1 cluster under \p Ep, whose complete memo row is
  /// \p Features: the cluster memo, or normalise plus nearest centroid.
  unsigned clusterOf(const ModelEpoch &Ep, size_t Input,
                     const double *Features);
  /// The shadow retrain's candidate: the pipeline under Opts.Retrain
  /// clamped to \p Sample, trained on the calling thread over a
  /// SubsetProgram view of it with Level 1 reading the sample's memoized
  /// feature tables, stamped with \p Serving's benchmark, scale and
  /// program seed and the epoch after it. Throws what the pipeline throws.
  serialize::TrainedModel buildCandidate(const std::vector<size_t> &Sample,
                                         const ModelEpoch &Serving) const;
  void publish(std::shared_ptr<ModelEpoch> Next, SwapRecord *Attempt);
  /// Appends \p Attempt to the history, dropping the oldest record past
  /// MaxSwapHistory. Caller holds SwapMutex.
  void appendHistory(const SwapRecord &Attempt);
  /// Adds \p N decisions, of which Paid[FirstPaid..] extracted features,
  /// to the lifetime totals: one relaxed add per counter, none for a sum
  /// that is zero.
  void recordTotals(size_t N, size_t FirstPaid = 0);
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
  std::deque<SwapRecord> Swaps;    // guarded by SwapMutex
  std::string LastSkipReason;      // guarded by SwapMutex

  std::optional<FeatureIndex> Index;
  std::vector<MemoEntry> Memo;
  CompiledModel::Scratch MainScratch;
  /// Internal epoch Id MainScratch was sized for (0 = never made).
  uint64_t ScratchEpochId = 0;
  std::vector<double> ClusterRow; // scratch for clusterOf
  /// The current batch's decisions that extracted features, in decision
  /// order (serving thread; empty for an all-warm batch).
  std::vector<PaidDecision> Paid;

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
      LastRetrainSeconds{0.0}, RetrainLevel1Seconds{0.0},
      RetrainLevel2Seconds{0.0};
};

inline unsigned AdaptiveService::decideOne(const ModelEpoch &Ep, int64_t Id,
                                           size_t Input) {
  // Ids start at 1 and a memo entry's DecidedEpochId at -1, so a matching
  // id also means the entry holds a decision.
  const MemoEntry &E = Memo[Input];
  return E.DecidedEpochId == Id ? static_cast<unsigned>(E.Decided)
                                : decideMiss(Ep, Input);
}

template <typename Answer>
AdaptiveService::EpochPtr
AdaptiveService::decideAnswers(const size_t *Inputs, size_t N, Answer *Out) {
  assert(Ok && "decideAnswers() on a non-ready AdaptiveService");
  // One snapshot for the whole batch: every decision below comes from the
  // same epoch even if swapModel() lands mid-batch on another thread.
  EpochPtr Ep = currentEpoch();
  const int64_t Id = static_cast<int64_t>(Ep->Id);
  const uint64_t Generation = Ep->Model.Meta.Epoch;
  Paid.clear();
  for (size_t I = 0; I != N; ++I) {
    assert(Inputs[I] < Memo.size() && "input out of range");
    Out[I].Landmark = decideOne(*Ep, Id, Inputs[I]);
    Out[I].Epoch = Generation;
  }
  recordTotals(N);
  return Ep;
}

template <typename Answer>
AdaptiveService::EpochPtr
AdaptiveService::serveAnswers(const size_t *Inputs, size_t N, Answer *Out) {
  assert(Ok && "serveAnswers() on a non-ready AdaptiveService");
  EpochPtr Ep = currentEpoch();
  syncMonitorTo(Ep);
  Paid.clear();
  // Decisions (and Paid entries) already added to the lifetime totals.
  size_t Counted = 0, PaidCounted = 0;
  bool Stale = false;
  for (size_t I = 0; I != N; ++I) {
    if (Stale) {
      // The previous input's drift response published a new epoch: the
      // rest of the batch is decided and observed against it.
      Ep = currentEpoch();
      syncMonitorTo(Ep);
      Stale = false;
    }
    assert(Inputs[I] < Memo.size() && "input out of range");
    unsigned Landmark = decideOne(*Ep, static_cast<int64_t>(Ep->Id), Inputs[I]);
    Out[I].Landmark = Landmark;
    Out[I].Epoch = Ep->Model.Meta.Epoch;
    if (!observe(*Ep, Inputs[I], Landmark))
      continue;
    if (Opts.AutoAdapt) {
      // adaptNow() stamps its attempt with the lifetime decision count,
      // so the decisions so far reach the totals first.
      recordTotals(I + 1 - Counted, PaidCounted);
      Counted = I + 1;
      PaidCounted = Paid.size();
      Stale = adaptNow();
    }
    markDrift(Out[I]);
  }
  recordTotals(N - Counted, PaidCounted);
  return Ep;
}


} // namespace runtime
} // namespace pbt

#endif // PBT_RUNTIME_ADAPTIVESERVICE_H
