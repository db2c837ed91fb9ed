//===- runtime/AdaptiveService.cpp ------------------------------------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//

#include "runtime/AdaptiveService.h"

#include "ml/KMeans.h"
#include "runtime/SubsetProgram.h"

#include <algorithm>
#include <cassert>
#include <exception>

using namespace pbt;
using namespace pbt::runtime;

/// C++17 std::atomic<double> has no fetch_add; the accounting adds are
/// single-writer in practice, but keep them race-free regardless.
static void atomicAdd(std::atomic<double> &A, double V) {
  double Old = A.load(std::memory_order_relaxed);
  while (!A.compare_exchange_weak(Old, Old + V, std::memory_order_relaxed))
    ;
}

AdaptiveService::AdaptiveService(
    const TunableProgram &Program, serialize::TrainedModel Initial,
    std::optional<AdaptiveServiceOptions> Options)
    : Program(Program) {
  Status = checkProgram(Initial);
  if (!Status)
    return;
  Index.emplace(Initial.Meta.Features);
  Memo.assign(Program.numInputs(), MemoEntry());

  std::shared_ptr<ModelEpoch> First = makeEpoch(std::move(Initial));
  if (!First) {
    Status = serialize::LoadStatus::failure("initial model failed to compile");
    return;
  }
  publish(std::move(First), nullptr);
  EpochPtr Ep = currentEpoch();
  if (Options)
    Adapt = std::make_unique<Adaptation>(Adaptation{
        *Options, DriftMonitor::referenceFrom(Ep->Model, Options->Monitor),
        Ep->Id, ml::Reservoir(std::max<size_t>(1, Options->ReservoirSize))});
  Ok = true;
}

serialize::LoadStatus
AdaptiveService::checkProgram(const serialize::TrainedModel &Model) const {
  // A model must fit the bound program (feature declarations, landmark
  // ranges, row bounds) or serving it would index out of its space.
  serialize::LoadStatus Valid = serialize::validateAgainst(Model, Program);
  if (Valid &&
      (!Model.System.L2.Production || Model.System.L1.Landmarks.empty()))
    return serialize::LoadStatus::failure(
        "model has no production classifier or no landmarks");
  return Valid;
}

std::shared_ptr<AdaptiveService::ModelEpoch>
AdaptiveService::makeEpoch(serialize::TrainedModel Model) {
  auto Ep = std::make_shared<ModelEpoch>();
  Ep->Model = std::move(Model);
  Ep->Compiled = CompiledModel::compile(Ep->Model);
  return Ep->Compiled.ready() ? Ep : nullptr;
}

CompiledModel::Scratch &AdaptiveService::scratchFor(const ModelEpoch &Ep) {
  // Scratch shapes follow the model (e.g. the Bayes class count), so a
  // hot swap invalidates the serving thread's scratch exactly like it
  // invalidates cached decisions.
  if (ScratchEpochId != Ep.Id) {
    MainScratch = Ep.Compiled.makeScratch();
    ScratchEpochId = Ep.Id;
  }
  return MainScratch;
}

void AdaptiveService::syncMonitorTo(const EpochPtr &Ep) {
  if (Adapt->MonitorEpochId == Ep->Id)
    return;
  // An external swapModel() landed since the monitor's last rebase: its
  // reference (and cluster/decision arity) belongs to a retired model.
  // Adopt the pushed model's training stats before observing against it.
  Adapt->Monitor.rebaseToModel(Ep->Model);
  Adapt->Traffic.reset();
  Adapt->MonitorEpochId = Ep->Id;
}

void AdaptiveService::publish(std::shared_ptr<ModelEpoch> Next,
                              SwapRecord *Attempt) {
  std::lock_guard<std::mutex> Lock(SwapMutex);
  Next->Id = EpochCounter.fetch_add(1, std::memory_order_relaxed) + 1;
  EpochPtr Cur = std::atomic_load(&Current);
  if (Cur)
    Next->Model.Meta.Epoch =
        std::max(Next->Model.Meta.Epoch, Cur->Model.Meta.Epoch + 1);
  if (Attempt) {
    Attempt->ToEpoch = Next->Model.Meta.Epoch;
    appendHistory(*Attempt);
  }
  std::atomic_store(&Current, EpochPtr(std::move(Next)));
}

void AdaptiveService::appendHistory(const SwapRecord &Attempt) {
  Adapt->Swaps.push_back(Attempt);
  if (Adapt->Swaps.size() > MaxSwapHistory)
    Adapt->Swaps.pop_front();
}

AdaptiveService::EpochPtr AdaptiveService::currentEpoch() const {
  return std::atomic_load(&Current);
}

uint64_t AdaptiveService::epoch() const {
  EpochPtr Ep = currentEpoch();
  return Ep ? Ep->Model.Meta.Epoch : 0;
}

void AdaptiveService::recordTotals(size_t N, size_t FirstPaid) {
  if (N == 0)
    return;
  const size_t NumPaid = Paid.size() - FirstPaid;
  DecisionCount.fetch_add(N, std::memory_order_relaxed);
  if (N != NumPaid)
    MemoizedCount.fetch_add(N - NumPaid, std::memory_order_relaxed);
  if (NumPaid == 0)
    return; // a decision that extracted nothing paid nothing
  uint64_t Extracted = 0;
  for (size_t K = FirstPaid; K != Paid.size(); ++K)
    Extracted += Paid[K].Extracted;
  ExtractedCount.fetch_add(Extracted, std::memory_order_relaxed);
  // Fold the costs in decision order, exactly as one add per decision
  // would (the decisions left out add exactly zero), so FeatureCostPaid
  // keeps its value to the last bit.
  double Old = CostPaid.load(std::memory_order_relaxed), New;
  do {
    New = Old;
    for (size_t K = FirstPaid; K != Paid.size(); ++K)
      New += Paid[K].Cost;
  } while (
      !CostPaid.compare_exchange_weak(Old, New, std::memory_order_relaxed));
}

unsigned AdaptiveService::decideMiss(const ModelEpoch &Ep, size_t Input) {
  PaidDecision P;
  unsigned Landmark =
      Ep.Compiled.decideProduction(scratchFor(Ep), [&](unsigned Flat) {
        return featureAt(Input, Flat, &P);
      });
  assert(Landmark < Ep.Model.System.L1.Landmarks.size() &&
         "classifier predicted a missing landmark");
  MemoEntry &E = Memo[Input];
  E.Decided = static_cast<int32_t>(Landmark);
  E.DecidedEpochId = static_cast<int64_t>(Ep.Id);
  if (P.Extracted)
    Paid.push_back(P);
  return Landmark;
}

double AdaptiveService::featureAt(size_t Input, unsigned Flat,
                                  PaidDecision *P) {
  MemoEntry &E = Memo[Input];
  if (E.Have.empty()) {
    unsigned NumFlat = Index->numFlat();
    E.Values.assign(NumFlat, 0.0);
    E.Costs.assign(NumFlat, 0.0);
    E.Have.assign(NumFlat, 0);
  }
  if (!E.Have[Flat]) {
    support::CostCounter C;
    E.Values[Flat] = Program.extractFeature(Input, Index->propertyOf(Flat),
                                            Index->levelOf(Flat), C);
    E.Costs[Flat] = C.units();
    E.Have[Flat] = 1;
    if (P) {
      P->Cost += C.units();
      ++P->Extracted;
    } else {
      atomicAdd(MonitorCost, C.units());
    }
  }
  return E.Values[Flat];
}

const double *AdaptiveService::fullFeatures(size_t Input) {
  MemoEntry &E = Memo[Input];
  if (!E.Complete) {
    unsigned NumFlat = Index->numFlat();
    for (unsigned Flat = 0; Flat != NumFlat; ++Flat)
      featureAt(Input, Flat, nullptr);
    E.Complete = true;
  }
  return E.Values.data();
}

void AdaptiveService::sampleFeatureTables(const std::vector<size_t> &Sample,
                                          linalg::Matrix &Values,
                                          linalg::Matrix &Costs) const {
  unsigned NumFlat = Index->numFlat();
  Values = linalg::Matrix(Sample.size(), NumFlat);
  Costs = linalg::Matrix(Sample.size(), NumFlat);
  for (size_t Row = 0; Row != Sample.size(); ++Row) {
    const MemoEntry &E = Memo[Sample[Row]];
    assert(E.Complete && "reservoir input without a complete memo row");
    for (unsigned Flat = 0; Flat != NumFlat; ++Flat) {
      Values.at(Row, Flat) = E.Values[Flat];
      Costs.at(Row, Flat) = E.Costs[Flat];
    }
  }
}

unsigned AdaptiveService::clusterOf(const ModelEpoch &Ep, size_t Input,
                                    const double *Features) {
  MemoEntry &E = Memo[Input];
  const int64_t Id = static_cast<int64_t>(Ep.Id);
  if (E.ClusterEpochId != Id) {
    unsigned NumFlat = Index->numFlat();
    Adapt->ClusterRow.assign(Features, Features + NumFlat);
    Ep.Model.System.L1.Norm.transformRow(Adapt->ClusterRow);
    E.Cluster = static_cast<int32_t>(ml::nearestCentroid(
        Ep.Model.System.L1.Clusters.Centroids, Adapt->ClusterRow));
    E.ClusterEpochId = Id;
  }
  return static_cast<unsigned>(E.Cluster);
}

bool AdaptiveService::observe(const ModelEpoch &Ep, size_t Input,
                              unsigned Landmark) {
  const double *Features = fullFeatures(Input);
  unsigned Cluster = clusterOf(Ep, Input, Features);
  Adapt->Traffic.add(Input);
  if (!Adapt->Monitor.observe(Features, Cluster, Landmark))
    return false;
  DriftCount.fetch_add(1, std::memory_order_relaxed);
  return true;
}

AdaptiveService::Decision AdaptiveService::decide(size_t Input) {
  Decision D;
  decideAnswers(&Input, 1, &D);
  return D;
}

AdaptiveService::Decision AdaptiveService::serve(size_t Input) {
  Decision D;
  serveAnswers(&Input, 1, &D);
  return D;
}

std::vector<AdaptiveService::Decision>
AdaptiveService::decideBatch(const std::vector<size_t> &Inputs,
                             std::nullptr_t) {
  std::vector<Decision> Out(Inputs.size());
  decideAnswers(Inputs.data(), Inputs.size(), Out.data());
  return Out;
}

double AdaptiveService::shadowScore(const ModelEpoch &Ep,
                                    const std::vector<size_t> &Inputs) const {
  // The compiled walk over the feature memo, extracting what the memo
  // lacks without keeping it: scoring caches no decision or feature and
  // charges no counter, so an unpublished candidate or a canary's
  // champion leaves serving exactly as it found it.
  CompiledModel::Scratch S = Ep.Compiled.makeScratch();
  double Total = 0.0;
  for (size_t Input : Inputs) {
    const MemoEntry &E = Memo[Input];
    unsigned Landmark = Ep.Compiled.decideProduction(S, [&](unsigned Flat) {
      if (!E.Have.empty() && E.Have[Flat])
        return E.Values[Flat];
      support::CostCounter C;
      return Program.extractFeature(Input, Index->propertyOf(Flat),
                                    Index->levelOf(Flat), C);
    });
    Total += Program.runOnce(Input, Ep.Model.System.L1.Landmarks[Landmark])
                 .TimeUnits;
  }
  return Inputs.empty() ? 0.0 : Total / static_cast<double>(Inputs.size());
}

void AdaptiveService::clampRetrainOptions(core::PipelineOptions &Opt,
                                          size_t SampleSize) {
  size_t TrainCount = std::max<size_t>(
      2, static_cast<size_t>(static_cast<double>(SampleSize) *
                             std::clamp(Opt.TrainFraction, 0.1, 0.9)));
  unsigned MaxLandmarks =
      static_cast<unsigned>(std::max<size_t>(2, TrainCount / 3));
  Opt.L1.NumLandmarks = std::clamp(Opt.L1.NumLandmarks, 2u, MaxLandmarks);
  Opt.L1.TuningNeighborhood = std::max(
      1u, std::min(Opt.L1.TuningNeighborhood,
                   static_cast<unsigned>(TrainCount / Opt.L1.NumLandmarks)));
  Opt.L2.CVFolds = std::clamp(
      Opt.L2.CVFolds, 2u,
      static_cast<unsigned>(std::max<size_t>(2, TrainCount / 2)));
}

serialize::TrainedModel
AdaptiveService::buildCandidate(const std::vector<size_t> &Sample,
                                const ModelEpoch &Serving) const {
  SubsetProgram View(Program, Sample);
  core::PipelineOptions Retrain = Adapt->Opts.Retrain;
  clampRetrainOptions(Retrain, Sample.size());
  // Every sampled input was served, so its full feature row and
  // extraction costs are already memoized: Level 1 reads them instead
  // of re-extracting, with byte-identical results.
  linalg::Matrix Features, Costs;
  sampleFeatureTables(Sample, Features, Costs);
  Retrain.L1.Features = &Features;
  Retrain.L1.ExtractCosts = &Costs;
  const serialize::ModelMeta &Provenance = Serving.Model.Meta;
  serialize::TrainedModel Candidate = serialize::makeModel(
      Provenance.Benchmark, Provenance.Scale, Provenance.ProgramSeed, View,
      core::trainSystem(View, Retrain));
  Candidate.Meta.Epoch = Provenance.Epoch + 1;
  return Candidate;
}

bool AdaptiveService::adaptNow() {
  if (!Adapt)
    return false;
  // serve() invokes the drift response synchronously at the detection, so
  // this timer spans the whole drift-to-swap window: the stretch of time
  // during which live traffic keeps being served by the stale champion.
  support::WallTimer Window;
  EpochPtr Ep = currentEpoch();
  Adaptation &A = *Adapt;
  A.Traffic.sampleInto(A.SampleBuf);
  const std::vector<size_t> &Sample = A.SampleBuf;
  const size_t MinDistinct = std::max<size_t>(4, A.Opts.MinRetrainInputs / 2);
  if (Sample.size() < A.Opts.MinRetrainInputs ||
      A.Traffic.distinctCount() < MinDistinct) {
    // Too little (or too repetitive) evidence to retrain on: accept the
    // live window as the new null hypothesis and move on.
    recordSkip("insufficient reservoir evidence: " +
               std::to_string(Sample.size()) + " samples, " +
               std::to_string(A.Traffic.distinctCount()) +
               " distinct inputs (need " +
               std::to_string(A.Opts.MinRetrainInputs) + " / " +
               std::to_string(MinDistinct) + ")");
    A.Monitor.rebaseToWindow();
    return false;
  }

  SwapRecord Attempt;
  Attempt.FromEpoch = Ep->Model.Meta.Epoch;
  Attempt.AtDecision = DecisionCount.load(std::memory_order_relaxed);

  support::WallTimer RetrainTimer;
  std::shared_ptr<ModelEpoch> Candidate;
  double Level1Seconds = 0.0, Level2Seconds = 0.0;
  try {
    serialize::TrainedModel Model = buildCandidate(Sample, *Ep);
    Level1Seconds = Model.System.Level1Seconds;
    Level2Seconds = Model.System.Level2Seconds;
    Candidate = makeEpoch(std::move(Model));
  } catch (const std::exception &E) {
    // A degenerate reservoir (e.g. every sampled input identical in
    // feature space) can defeat the pipeline; serving must not die with
    // it. Keep the champion -- but keep the cause too: a tenant whose
    // every retrain dies here must be diagnosable from its stats.
    recordSkip(std::string("shadow retrain failed: ") + E.what());
    A.Monitor.rebaseToWindow();
    return false;
  }
  Attempt.RetrainSeconds = RetrainTimer.elapsedSeconds();
  RetrainCount.fetch_add(1, std::memory_order_relaxed);
  atomicAdd(RetrainSeconds, Attempt.RetrainSeconds);
  atomicAdd(RetrainLevel1Seconds, Level1Seconds);
  atomicAdd(RetrainLevel2Seconds, Level2Seconds);
  LastRetrainSeconds.store(Attempt.RetrainSeconds, std::memory_order_relaxed);
  if (!Candidate) {
    RejectCount.fetch_add(1, std::memory_order_relaxed);
    A.Monitor.rebaseToWindow();
    return false;
  }

  // Shadow evaluation: champion and candidate serve the same recent
  // traffic; the measured mean run cost decides.
  support::WallTimer ShadowTimer;
  Attempt.ChampionShadowCost = shadowScore(*Ep, Sample);
  Attempt.CandidateShadowCost = shadowScore(*Candidate, Sample);
  Attempt.ShadowSeconds = ShadowTimer.elapsedSeconds();
  Attempt.Accepted = Attempt.CandidateShadowCost <
                     Attempt.ChampionShadowCost * (1.0 - A.Opts.SwapMargin);

  if (!Attempt.Accepted) {
    RejectCount.fetch_add(1, std::memory_order_relaxed);
    Attempt.DriftToSwapSeconds = Window.elapsedSeconds();
    {
      std::lock_guard<std::mutex> Lock(SwapMutex);
      Attempt.ToEpoch = Candidate->Model.Meta.Epoch;
      appendHistory(Attempt);
    }
    // The distribution did move; the champion just remains the best
    // answer for it. Adopt the new regime as reference.
    A.Monitor.rebaseToWindow();
    A.Traffic.reset();
    return false;
  }

  Attempt.DriftToSwapSeconds = Window.elapsedSeconds();
  publish(std::move(Candidate), &Attempt);
  SwapCount.fetch_add(1, std::memory_order_relaxed);
  EpochPtr Now = currentEpoch();
  A.Monitor.rebaseToModel(Now->Model);
  A.MonitorEpochId = Now->Id;
  A.Traffic.reset();
  return true;
}

serialize::LoadStatus AdaptiveService::swapModel(serialize::TrainedModel Next) {
  assert(Ok && "swapModel() on a non-ready AdaptiveService");
  // Provenance too: a model for another seed of the same benchmark fits
  // the program's shape but not its inputs.
  serialize::LoadStatus Valid = checkProgram(Next);
  if (Valid)
    Valid = serialize::checkProvenance(Next.Meta, currentEpoch()->Model.Meta);
  if (!Valid)
    return Valid;
  std::shared_ptr<ModelEpoch> Ep = makeEpoch(std::move(Next));
  if (!Ep)
    return serialize::LoadStatus::failure("pushed model failed to compile");
  publish(std::move(Ep), nullptr);
  SwapCount.fetch_add(1, std::memory_order_relaxed);
  return serialize::LoadStatus::success();
}

void AdaptiveService::recordSkip(std::string Reason) {
  SkipCount.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> Lock(SwapMutex);
  Adapt->LastSkipReason = std::move(Reason);
}

AdaptiveService::StatsSnapshot AdaptiveService::stats() const {
  StatsSnapshot S;
  S.Decisions = DecisionCount.load(std::memory_order_relaxed);
  S.MemoizedDecisions = MemoizedCount.load(std::memory_order_relaxed);
  S.FeaturesExtracted = ExtractedCount.load(std::memory_order_relaxed);
  S.FeatureCostPaid = CostPaid.load(std::memory_order_relaxed);
  S.MonitorCostPaid = MonitorCost.load(std::memory_order_relaxed);
  S.DriftDetections = DriftCount.load(std::memory_order_relaxed);
  S.Retrains = RetrainCount.load(std::memory_order_relaxed);
  S.Swaps = SwapCount.load(std::memory_order_relaxed);
  S.RejectedCandidates = RejectCount.load(std::memory_order_relaxed);
  S.SkippedRetrains = SkipCount.load(std::memory_order_relaxed);
  S.RetrainSecondsTotal = RetrainSeconds.load(std::memory_order_relaxed);
  S.LastRetrainSeconds = LastRetrainSeconds.load(std::memory_order_relaxed);
  S.RetrainLevel1SecondsTotal =
      RetrainLevel1Seconds.load(std::memory_order_relaxed);
  S.RetrainLevel2SecondsTotal =
      RetrainLevel2Seconds.load(std::memory_order_relaxed);
  if (Adapt) {
    std::lock_guard<std::mutex> Lock(SwapMutex);
    S.LastSkipReason = Adapt->LastSkipReason;
  }
  return S;
}

std::vector<AdaptiveService::SwapRecord> AdaptiveService::history() const {
  if (!Adapt)
    return {};
  std::lock_guard<std::mutex> Lock(SwapMutex);
  return std::vector<SwapRecord>(Adapt->Swaps.begin(), Adapt->Swaps.end());
}
