//===- core/Pipeline.cpp -----------------------------------------------------=//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//

#include "core/Pipeline.h"
#include "core/Labeling.h"
#include "ml/CrossValidation.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace pbt;
using namespace pbt::core;

TrainedSystem core::trainSystem(const runtime::TunableProgram &Program,
                                const PipelineOptions &Options) {
  TrainedSystem S;
  size_t N = Program.numInputs();
  assert(N >= 4 && "need at least a few inputs");

  support::Rng SplitRng(Options.SplitSeed);
  ml::FoldSplit Split =
      ml::trainTestSplit(N, Options.TrainFraction, SplitRng);
  S.TrainRows = std::move(Split.Train);
  S.TestRows = std::move(Split.Test);

  LevelOneOptions L1Opts = Options.L1;
  if (!L1Opts.Pool)
    L1Opts.Pool = Options.Pool;
  LevelTwoOptions L2Opts = Options.L2;
  if (!L2Opts.Pool)
    L2Opts.Pool = Options.Pool;
  S.L1 = runLevelOne(Program, S.TrainRows, L1Opts);

  // Columnarize the evidence exactly once; Level 2 and evaluation share
  // this substrate (row-index views) instead of re-reading the row-major
  // tables. The label column is attached here so the labelling rule runs
  // once per training run.
  std::optional<runtime::AccuracySpec> Spec = Program.accuracy();
  auto Data = std::make_shared<ml::Dataset>(
      S.L1.Features, S.L1.ExtractCosts, S.L1.Time, S.L1.Acc,
      Spec ? std::optional<double>(Spec->AccuracyThreshold) : std::nullopt);
  Data->setLabels(labelAllRows(S.L1.Time, S.L1.Acc, Spec));
  S.Data = std::move(Data);
  S.L2 = runLevelTwo(Program, S.L1, S.TrainRows, L2Opts, S.Data.get());

  S.StaticOracleLandmark =
      selectStaticOracle(S.L1.Time, S.L1.Acc, S.TrainRows, Spec);

  // One-level baseline: the Level-1 clusters dispatch directly (cluster i
  // -> landmark i), nearest centroid in normalized space, all features.
  std::vector<unsigned> Identity(S.L1.Landmarks.size());
  for (unsigned I = 0; I != Identity.size(); ++I)
    Identity[I] = I;
  S.OneLevel = std::make_unique<OneLevelClassifier>(
      S.L1.Clusters.Centroids, S.L1.Norm, std::move(Identity));
  return S;
}

namespace {
/// Accumulates one method's evaluation over the test rows.
struct MethodStats {
  std::vector<double> SpeedupsWith;
  std::vector<double> SpeedupsWithout;
  size_t Meets = 0;

  void add(double StaticTime, double MethodTime, double FeatCost, bool Met) {
    assert(MethodTime > 0.0 && "non-positive method time");
    SpeedupsWithout.push_back(StaticTime / MethodTime);
    SpeedupsWith.push_back(StaticTime / (MethodTime + FeatCost));
    if (Met)
      ++Meets;
  }

  double satisfaction(size_t N) const {
    return N == 0 ? 1.0 : static_cast<double>(Meets) / static_cast<double>(N);
  }
};
} // namespace

namespace {
/// Everything measured for one test row; filled index-parallel so the
/// pooled evaluation reduces in the exact sequential order.
struct RowEval {
  double StaticTime = 0.0;
  bool StaticMet = false;
  double DynamicTime = 0.0;
  bool DynamicMet = false;
  double TwoTime = 0.0, TwoCost = 0.0;
  bool TwoMet = false;
  double OneTime = 0.0, OneCost = 0.0;
  bool OneMet = false;
};
} // namespace

EvaluationResult core::evaluateSystem(const runtime::TunableProgram &Program,
                                      const TrainedSystem &System,
                                      support::ThreadPool *Pool) {
  EvaluationResult R;
  std::optional<runtime::AccuracySpec> Spec = Program.accuracy();
  const LevelOneResult &L1 = System.L1;
  const ml::Dataset *Data = System.Data.get();
  const std::vector<size_t> &Rows = System.TestRows;
  unsigned Static = System.StaticOracleLandmark;

  std::vector<RowEval> Evals(Rows.size());
  auto EvalRow = [&](size_t I) {
    size_t Row = Rows[I];
    RowEval &E = Evals[I];
    E.StaticTime = L1.Time.at(Row, Static);
    // The dataset's precomputed meets bits and label column reproduce the
    // row-major predicates exactly (same threshold, same labelling rule).
    auto MeetsAt = [&](unsigned L) {
      return Data ? Data->meets(Row, L)
                  : !Spec || L1.Acc.at(Row, L) >= Spec->AccuracyThreshold;
    };
    E.StaticMet = MeetsAt(Static);

    // Dynamic oracle: per-input best landmark, no feature cost.
    unsigned Best =
        Data ? Data->label(Row) : bestLandmark(L1.Time, L1.Acc, Row, Spec);
    E.DynamicTime = L1.Time.at(Row, Best);
    E.DynamicMet = MeetsAt(Best);

    // Two-level production classifier.
    {
      FeatureProbe Probe = probeFromTable(L1.Features, L1.ExtractCosts, Row);
      unsigned Pred = System.L2.Production->classify(Probe);
      E.TwoTime = L1.Time.at(Row, Pred);
      E.TwoCost = Probe.totalCost();
      E.TwoMet = MeetsAt(Pred);
    }

    // One-level baseline.
    {
      FeatureProbe Probe = probeFromTable(L1.Features, L1.ExtractCosts, Row);
      unsigned Pred = System.OneLevel->classify(Probe);
      E.OneTime = L1.Time.at(Row, Pred);
      E.OneCost = Probe.totalCost();
      E.OneMet = MeetsAt(Pred);
    }
  };
  if (Pool)
    Pool->parallelFor(0, Rows.size(), EvalRow);
  else
    for (size_t I = 0; I != Rows.size(); ++I)
      EvalRow(I);

  MethodStats Dynamic, TwoLevel, OneLevel;
  size_t StaticMeets = 0;
  for (const RowEval &E : Evals) {
    if (E.StaticMet)
      ++StaticMeets;
    Dynamic.add(E.StaticTime, E.DynamicTime, 0.0, E.DynamicMet);
    TwoLevel.add(E.StaticTime, E.TwoTime, E.TwoCost, E.TwoMet);
    OneLevel.add(E.StaticTime, E.OneTime, E.OneCost, E.OneMet);
  }

  size_t N = Rows.size();
  R.DynamicOracle = support::mean(Dynamic.SpeedupsWithout);
  R.TwoLevelNoFeat = support::mean(TwoLevel.SpeedupsWithout);
  R.TwoLevelWithFeat = support::mean(TwoLevel.SpeedupsWith);
  R.OneLevelNoFeat = support::mean(OneLevel.SpeedupsWithout);
  R.OneLevelWithFeat = support::mean(OneLevel.SpeedupsWith);
  R.TwoLevelSatisfaction = TwoLevel.satisfaction(N);
  R.OneLevelSatisfaction = OneLevel.satisfaction(N);
  R.DynamicOracleSatisfaction = Dynamic.satisfaction(N);
  R.StaticOracleSatisfaction =
      N == 0 ? 1.0 : static_cast<double>(StaticMeets) / static_cast<double>(N);
  R.PerInputSpeedups = std::move(TwoLevel.SpeedupsWith);
  return R;
}

double core::subsetSpeedup(const runtime::TunableProgram &Program,
                           const TrainedSystem &System,
                           const std::vector<unsigned> &Subset) {
  assert(!Subset.empty() && "empty landmark subset");
  std::optional<runtime::AccuracySpec> Spec = Program.accuracy();
  const LevelOneResult &L1 = System.L1;
  std::vector<double> Speedups;
  Speedups.reserve(System.TestRows.size());
  for (size_t Row : System.TestRows) {
    double StaticTime = L1.Time.at(Row, System.StaticOracleLandmark);
    unsigned Best = bestLandmarkWithin(L1.Time, L1.Acc, Row, Subset, Spec);
    Speedups.push_back(StaticTime / L1.Time.at(Row, Best));
  }
  return support::mean(Speedups);
}

std::vector<LandmarkSweepPoint>
core::landmarkCountSweep(const runtime::TunableProgram &Program,
                         const TrainedSystem &System,
                         const std::vector<unsigned> &Counts, unsigned Trials,
                         uint64_t Seed, support::ThreadPool *Pool) {
  unsigned K = static_cast<unsigned>(System.L1.Landmarks.size());
  support::Rng Rng(Seed);

  // Draw every subset up front (one sequential Rng stream, so results are
  // independent of how the measurement below is scheduled), then measure
  // the flat trial list in parallel.
  std::vector<unsigned> ClampedCounts;
  ClampedCounts.reserve(Counts.size());
  std::vector<std::vector<unsigned>> Subsets;
  Subsets.reserve(Counts.size() * Trials);
  for (unsigned Count : Counts) {
    unsigned C = std::max(1u, std::min(Count, K));
    ClampedCounts.push_back(C);
    for (unsigned T = 0; T != Trials; ++T) {
      std::vector<size_t> Picks = Rng.sampleWithoutReplacement(K, C);
      Subsets.emplace_back(Picks.begin(), Picks.end());
    }
  }

  std::vector<double> TrialSpeedups(Subsets.size());
  auto MeasureTrial = [&](size_t I) {
    TrialSpeedups[I] = subsetSpeedup(Program, System, Subsets[I]);
  };
  if (Pool)
    Pool->parallelFor(0, Subsets.size(), MeasureTrial);
  else
    for (size_t I = 0; I != Subsets.size(); ++I)
      MeasureTrial(I);

  std::vector<LandmarkSweepPoint> Sweep;
  Sweep.reserve(Counts.size());
  for (size_t CI = 0; CI != ClampedCounts.size(); ++CI) {
    std::vector<double> Speedups(TrialSpeedups.begin() + CI * Trials,
                                 TrialSpeedups.begin() + (CI + 1) * Trials);
    LandmarkSweepPoint P;
    P.NumLandmarks = ClampedCounts[CI];
    P.Speedups = support::Summary::of(Speedups);
    Sweep.push_back(P);
  }
  return Sweep;
}
