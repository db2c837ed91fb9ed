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

AdaptiveService::AdaptiveService(const TunableProgram &Program,
                                 serialize::TrainedModel Initial,
                                 AdaptiveServiceOptions Options)
    : Program(Program), Opts(Options) {
  Status = serialize::validateAgainst(Initial, Program);
  if (!Status)
    return;
  if (!Initial.System.L2.Production || Initial.System.L1.Landmarks.empty()) {
    Status = serialize::LoadStatus::failure(
        "initial model has no production classifier or no landmarks");
    return;
  }
  Index.emplace(Initial.Meta.Features);
  Memo.assign(Program.numInputs(), MemoEntry());
  Monitor = DriftMonitor::referenceFrom(Initial, Opts.Monitor);
  Traffic = ml::Reservoir(std::max<size_t>(1, Opts.ReservoirSize),
                          Opts.ReservoirSeed);

  auto First = std::make_shared<ModelEpoch>();
  First->Model = std::move(Initial);
  // Serving never reads the columnar training substrate; don't let an
  // in-memory-trained initial model pin it for the service's lifetime.
  First->Model.System.Data.reset();
  First->Compiled = CompiledModel::compile(First->Model);
  if (!First->Compiled.ready()) {
    Status = serialize::LoadStatus::failure("initial model failed to compile");
    return;
  }
  publish(std::move(First), nullptr);
  MonitorEpochId = currentEpoch()->Id;
  Ok = true;
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
  if (MonitorEpochId == Ep->Id)
    return;
  // An external swapModel() landed since the monitor's last rebase: its
  // reference (and cluster/decision arity) belongs to a retired model.
  // Adopt the pushed model's training stats before observing against it.
  Monitor.rebaseToModel(Ep->Model);
  Traffic.reset();
  MonitorEpochId = Ep->Id;
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
    Swaps.push_back(*Attempt);
  }
  std::atomic_store(&Current, EpochPtr(std::move(Next)));
}

AdaptiveService::EpochPtr AdaptiveService::currentEpoch() const {
  return std::atomic_load(&Current);
}

uint64_t AdaptiveService::epoch() const {
  EpochPtr Ep = currentEpoch();
  return Ep ? Ep->Model.Meta.Epoch : 0;
}

void AdaptiveService::recordTotals(const Decision &D) {
  DecisionCount.fetch_add(1, std::memory_order_relaxed);
  if (D.Memoized)
    MemoizedCount.fetch_add(1, std::memory_order_relaxed);
  ExtractedCount.fetch_add(D.FeaturesExtracted, std::memory_order_relaxed);
  atomicAdd(CostPaid, D.FeatureCost);
}

AdaptiveService::Decision
AdaptiveService::decideWith(const ModelEpoch &Ep, size_t Input,
                            CompiledModel::Scratch &S) {
  assert(Ok && "decide() on a non-ready AdaptiveService");
  assert(Input < Memo.size() && "input out of range");
  MemoEntry &E = Memo[Input];

  Decision D;
  D.Epoch = Ep.Model.Meta.Epoch;
  if (E.Decided >= 0 && E.DecidedEpochId == static_cast<int64_t>(Ep.Id)) {
    D.Landmark = static_cast<unsigned>(E.Decided);
    D.Config = &Ep.Model.System.L1.Landmarks[D.Landmark];
    D.Memoized = true;
    return D;
  }
  unsigned Landmark = Ep.Compiled.decideProduction(
      S, [&](unsigned Flat) { return featureAt(Input, Flat, &D); });
  assert(Landmark < Ep.Model.System.L1.Landmarks.size() &&
         "classifier predicted a missing landmark");
  D.Landmark = Landmark;
  D.Config = &Ep.Model.System.L1.Landmarks[Landmark];
  D.Memoized = D.FeaturesExtracted == 0;
  E.Decided = static_cast<int32_t>(Landmark);
  E.DecidedEpochId = static_cast<int64_t>(Ep.Id);
  return D;
}

double AdaptiveService::featureAt(size_t Input, unsigned Flat, Decision *D) {
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
    if (D) {
      D->FeatureCost += C.units();
      ++D->FeaturesExtracted;
    } else {
      atomicAdd(MonitorCost, C.units());
    }
  }
  return E.Values[Flat];
}

const double *AdaptiveService::fullFeatures(size_t Input) {
  unsigned NumFlat = Index->numFlat();
  for (unsigned Flat = 0; Flat != NumFlat; ++Flat)
    featureAt(Input, Flat, nullptr);
  return Memo[Input].Values.data();
}

void AdaptiveService::sampleFeatureTables(const std::vector<size_t> &Sample,
                                          linalg::Matrix &Values,
                                          linalg::Matrix &Costs) const {
  unsigned NumFlat = Index->numFlat();
  Values = linalg::Matrix(Sample.size(), NumFlat);
  Costs = linalg::Matrix(Sample.size(), NumFlat);
  for (size_t Row = 0; Row != Sample.size(); ++Row) {
    const MemoEntry &E = Memo[Sample[Row]];
    for (unsigned Flat = 0; Flat != NumFlat; ++Flat) {
      assert(!E.Have.empty() && E.Have[Flat] &&
             "reservoir input without a complete memo row");
      Values.at(Row, Flat) = E.Values[Flat];
      Costs.at(Row, Flat) = E.Costs[Flat];
    }
  }
}

unsigned AdaptiveService::assignCluster(const ModelEpoch &Ep,
                                        const double *Features) {
  unsigned NumFlat = Index->numFlat();
  ClusterRow.assign(Features, Features + NumFlat);
  Ep.Model.System.L1.Norm.transformRow(ClusterRow);
  return ml::nearestCentroid(Ep.Model.System.L1.Clusters.Centroids,
                             ClusterRow);
}

AdaptiveService::Decision AdaptiveService::decide(size_t Input) {
  EpochPtr Ep = currentEpoch();
  Decision D = decideWith(*Ep, Input, scratchFor(*Ep));
  D.Hold = Ep;
  recordTotals(D);
  return D;
}

AdaptiveService::Decision AdaptiveService::serve(size_t Input) {
  EpochPtr Ep = currentEpoch();
  syncMonitorTo(Ep);
  Decision D = decideWith(*Ep, Input, scratchFor(*Ep));
  D.Hold = Ep;
  recordTotals(D);

  const double *Features = fullFeatures(Input);
  unsigned Cluster = assignCluster(*Ep, Features);
  Traffic.add(Input);
  if (Monitor.observe(Features, Cluster, D.Landmark)) {
    DriftCount.fetch_add(1, std::memory_order_relaxed);
    D.DriftFlagged = true;
    if (Opts.AutoAdapt)
      D.Swapped = adaptNow();
  }
  return D;
}

std::vector<AdaptiveService::Decision>
AdaptiveService::decideBatch(const std::vector<size_t> &Inputs,
                             support::ThreadPool *Pool) {
  assert(Ok && "decideBatch() on a non-ready AdaptiveService");
  // One snapshot for the whole batch: every decision below comes from the
  // same epoch even if swapModel() lands mid-batch on another thread.
  EpochPtr Ep = currentEpoch();
  std::vector<Decision> Out(Inputs.size());
  unsigned Shards = Pool ? std::max(1u, Pool->numThreads()) : 1u;
  if (Shards <= 1 || Inputs.size() <= 1) {
    CompiledModel::Scratch &S = scratchFor(*Ep);
    for (size_t I = 0; I != Inputs.size(); ++I)
      Out[I] = decideWith(*Ep, Inputs[I], S);
  } else {
    // Shard by input id, the lock-free memo-ownership rule: every
    // occurrence of one input is served by exactly one worker, so
    // decisions cannot depend on the shard count.
    std::vector<CompiledModel::Scratch> Scratches;
    Scratches.reserve(Shards);
    for (unsigned S = 0; S != Shards; ++S)
      Scratches.push_back(Ep->Compiled.makeScratch());
    Pool->parallelFor(0, Shards, [&](size_t Shard) {
      CompiledModel::Scratch &S = Scratches[Shard];
      for (size_t I = 0; I != Inputs.size(); ++I)
        if (Inputs[I] % Shards == Shard)
          Out[I] = decideWith(*Ep, Inputs[I], S);
    });
  }
  for (Decision &D : Out) {
    D.Hold = Ep;
    recordTotals(D);
  }
  return Out;
}

double AdaptiveService::shadowScore(const ModelEpoch &Ep,
                                    const std::vector<size_t> &Inputs) {
  // Raw compiled walk over the shared feature memo -- deliberately not
  // decideWith(), so scoring an unpublished candidate never seeds the
  // decision cache.
  CompiledModel::Scratch S = Ep.Compiled.makeScratch();
  double Total = 0.0;
  for (size_t Input : Inputs) {
    unsigned Landmark = Ep.Compiled.decideProduction(
        S, [&](unsigned Flat) { return featureAt(Input, Flat, nullptr); });
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

bool AdaptiveService::adaptNow() {
  assert(Ok && "adaptNow() on a non-ready AdaptiveService");
  // serve() invokes the drift response synchronously at the detection, so
  // this timer spans the whole drift-to-swap window: the stretch of time
  // during which live traffic keeps being served by the stale champion.
  support::WallTimer Window;
  EpochPtr Ep = currentEpoch();
  Traffic.sampleInto(SampleBuf);
  const std::vector<size_t> &Sample = SampleBuf;
  if (Sample.size() < Opts.MinRetrainInputs ||
      Traffic.distinctCount() < std::max<size_t>(4, Opts.MinRetrainInputs / 2)) {
    // Too little (or too repetitive) evidence to retrain on: accept the
    // live window as the new null hypothesis and move on.
    recordSkip("insufficient reservoir evidence: " +
               std::to_string(Sample.size()) + " samples, " +
               std::to_string(Traffic.distinctCount()) +
               " distinct inputs (need " +
               std::to_string(Opts.MinRetrainInputs) + " / " +
               std::to_string(std::max<size_t>(
                   4, Opts.MinRetrainInputs / 2)) +
               ")");
    Monitor.rebaseToWindow();
    return false;
  }

  SwapRecord Attempt;
  Attempt.FromEpoch = Ep->Model.Meta.Epoch;
  Attempt.AtDecision = DecisionCount.load(std::memory_order_relaxed);

  support::WallTimer RetrainTimer;
  auto Candidate = std::make_shared<ModelEpoch>();
  try {
    SubsetProgram View(Program, Sample);
    core::PipelineOptions Opt = Opts.Retrain;
    clampRetrainOptions(Opt, Sample.size());
    // Every sampled input was served, so its full feature row and
    // extraction costs are already memoized: Level 1 reads them instead
    // of re-extracting, with byte-identical results.
    linalg::Matrix SampleFeatures, SampleCosts;
    sampleFeatureTables(Sample, SampleFeatures, SampleCosts);
    Opt.L1.Features = &SampleFeatures;
    Opt.L1.ExtractCosts = &SampleCosts;
    core::TrainedSystem Sys = core::trainSystem(View, Opt);
    Candidate->Model = serialize::makeModel(
        Ep->Model.Meta.Benchmark, Ep->Model.Meta.Scale,
        Ep->Model.Meta.ProgramSeed, View, std::move(Sys));
    // The columnar substrate is training-only state; a published epoch
    // lives as long as serving (and any outstanding Decision) holds it,
    // so drop the dead weight before publishing.
    Candidate->Model.System.Data.reset();
    Candidate->Model.Meta.Epoch = Ep->Model.Meta.Epoch + 1;
    Candidate->Compiled = CompiledModel::compile(Candidate->Model);
  } catch (const std::exception &E) {
    // A degenerate reservoir (e.g. every sampled input identical in
    // feature space) can defeat the pipeline; serving must not die with
    // it. Keep the champion -- but keep the cause too: a tenant whose
    // every retrain dies here must be diagnosable from its stats.
    recordSkip(std::string("shadow retrain failed: ") + E.what());
    Monitor.rebaseToWindow();
    return false;
  }
  Attempt.RetrainSeconds = RetrainTimer.elapsedSeconds();
  RetrainCount.fetch_add(1, std::memory_order_relaxed);
  atomicAdd(RetrainSeconds, Attempt.RetrainSeconds);
  LastRetrainSeconds.store(Attempt.RetrainSeconds, std::memory_order_relaxed);
  if (!Candidate->Compiled.ready()) {
    RejectCount.fetch_add(1, std::memory_order_relaxed);
    Monitor.rebaseToWindow();
    return false;
  }

  // Shadow evaluation: champion and candidate serve the same recent
  // traffic; the measured mean run cost decides.
  support::WallTimer ShadowTimer;
  Attempt.ChampionShadowCost = shadowScore(*Ep, Sample);
  Attempt.CandidateShadowCost = shadowScore(*Candidate, Sample);
  Attempt.ShadowSeconds = ShadowTimer.elapsedSeconds();
  Attempt.Accepted = Attempt.CandidateShadowCost <
                     Attempt.ChampionShadowCost * (1.0 - Opts.SwapMargin);

  if (!Attempt.Accepted) {
    RejectCount.fetch_add(1, std::memory_order_relaxed);
    Attempt.DriftToSwapSeconds = Window.elapsedSeconds();
    {
      std::lock_guard<std::mutex> Lock(SwapMutex);
      Attempt.ToEpoch = Candidate->Model.Meta.Epoch;
      Swaps.push_back(Attempt);
    }
    // The distribution did move; the champion just remains the best
    // answer for it. Adopt the new regime as reference.
    Monitor.rebaseToWindow();
    Traffic.reset();
    return false;
  }

  Attempt.DriftToSwapSeconds = Window.elapsedSeconds();
  publish(std::move(Candidate), &Attempt);
  SwapCount.fetch_add(1, std::memory_order_relaxed);
  EpochPtr Now = currentEpoch();
  Monitor.rebaseToModel(Now->Model);
  MonitorEpochId = Now->Id;
  Traffic.reset();
  return true;
}

serialize::LoadStatus AdaptiveService::swapModel(serialize::TrainedModel Next) {
  assert(Ok && "swapModel() on a non-ready AdaptiveService");
  // The same gate the constructor runs: a pushed model must fit the
  // bound program (feature declarations, landmark ranges, row bounds) or
  // serving it would index out of the program's space.
  serialize::LoadStatus Valid = serialize::validateAgainst(Next, Program);
  if (!Valid)
    return Valid;
  if (!Next.System.L2.Production || Next.System.L1.Landmarks.empty())
    return serialize::LoadStatus::failure(
        "pushed model has no production classifier or no landmarks");
  auto Ep = std::make_shared<ModelEpoch>();
  Ep->Model = std::move(Next);
  Ep->Model.System.Data.reset(); // training-only state; see constructor
  Ep->Compiled = CompiledModel::compile(Ep->Model);
  if (!Ep->Compiled.ready())
    return serialize::LoadStatus::failure("pushed model failed to compile");
  publish(std::move(Ep), nullptr);
  SwapCount.fetch_add(1, std::memory_order_relaxed);
  return serialize::LoadStatus::success();
}

void AdaptiveService::recordSkip(std::string Reason) {
  SkipCount.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> Lock(SwapMutex);
  LastSkipReason = std::move(Reason);
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
  {
    std::lock_guard<std::mutex> Lock(SwapMutex);
    S.LastSkipReason = LastSkipReason;
  }
  return S;
}

std::vector<AdaptiveService::SwapRecord> AdaptiveService::history() const {
  std::lock_guard<std::mutex> Lock(SwapMutex);
  return Swaps;
}
