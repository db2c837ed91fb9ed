//===- runtime/DriftMonitor.cpp ---------------------------------------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//

#include "runtime/DriftMonitor.h"

#include "serialize/ModelIO.h"
#include "support/Statistics.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace pbt;
using namespace pbt::runtime;

double runtime::totalVariation(const std::vector<double> &P,
                               const std::vector<double> &Q) {
  assert(P.size() == Q.size() && "histogram arity mismatch");
  if (P.empty())
    return 0.0;
  double SumP = 0.0, SumQ = 0.0;
  for (double V : P)
    SumP += V;
  for (double V : Q)
    SumQ += V;
  double TV = 0.0;
  for (size_t I = 0; I != P.size(); ++I) {
    double A = SumP > 0.0 ? P[I] / SumP : 1.0 / static_cast<double>(P.size());
    double B = SumQ > 0.0 ? Q[I] / SumQ : 1.0 / static_cast<double>(Q.size());
    TV += std::abs(A - B);
  }
  return 0.5 * TV;
}

DriftMonitor::DriftMonitor(unsigned NumFeatures, unsigned NumClusters,
                           unsigned NumDecisions,
                           const DriftMonitorOptions &Options)
    : Opts(Options), NumFeatures(NumFeatures), NumClusters(NumClusters),
      NumDecisions(NumDecisions) {
  assert(NumFeatures > 0 && "a monitor needs at least one feature");
  Opts.Window = std::max<size_t>(Opts.Window, 4);
  Opts.MinSamples = std::max<size_t>(1, std::min(Opts.MinSamples, Opts.Window));
  if (Opts.CheckInterval == 0)
    Opts.CheckInterval = std::max<size_t>(1, Opts.Window / 4);
  RefMean.assign(NumFeatures, 0.0);
  RefVar.assign(NumFeatures, 0.0);
  RefClusterHist.assign(NumClusters, 0.0);
  RefDecisionHist.assign(NumDecisions, 0.0);
  FeatRing.assign(Opts.Window * NumFeatures, 0.0);
  ClusterRing.assign(Opts.Window, 0);
  DecisionRing.assign(Opts.Window, 0);
}

DriftMonitor DriftMonitor::referenceFrom(const serialize::TrainedModel &Model,
                                         const DriftMonitorOptions &Options) {
  const core::TrainedSystem &S = Model.System;
  unsigned NumFlat = static_cast<unsigned>(S.L1.Features.cols());
  unsigned NumClusters =
      static_cast<unsigned>(S.L1.Clusters.Centroids.rows());
  unsigned NumDecisions = static_cast<unsigned>(S.L1.Landmarks.size());
  DriftMonitor M(NumFlat, NumClusters, NumDecisions, Options);

  // Feature statistics over the rows the model actually trained on.
  const std::vector<size_t> &Rows = S.TrainRows;
  std::vector<double> Mean(NumFlat, 0.0), Var(NumFlat, 0.0);
  std::vector<double> Column;
  Column.reserve(Rows.size());
  for (unsigned F = 0; F != NumFlat; ++F) {
    Column.clear();
    for (size_t Row : Rows)
      Column.push_back(S.L1.Features.at(Row, F));
    Mean[F] = support::mean(Column);
    Var[F] = support::variance(Column);
  }

  std::vector<double> ClusterHist(NumClusters, 0.0);
  for (unsigned C : S.L1.Clusters.Assignment)
    if (C < NumClusters)
      ClusterHist[C] += 1.0;
  std::vector<double> DecisionHist(NumDecisions, 0.0);
  for (unsigned L : S.L2.TrainLabels)
    if (L < NumDecisions)
      DecisionHist[L] += 1.0;

  M.setReference(std::move(Mean), std::move(Var), std::move(ClusterHist),
                 std::move(DecisionHist));
  return M;
}

void DriftMonitor::setReference(std::vector<double> FeatureMean,
                                std::vector<double> FeatureVar,
                                std::vector<double> ClusterHist,
                                std::vector<double> DecisionHist) {
  assert(FeatureMean.size() == NumFeatures && FeatureVar.size() == NumFeatures &&
         ClusterHist.size() == NumClusters &&
         DecisionHist.size() == NumDecisions && "reference arity mismatch");
  RefMean = std::move(FeatureMean);
  RefVar = std::move(FeatureVar);
  RefClusterHist = std::move(ClusterHist);
  RefDecisionHist = std::move(DecisionHist);
}

bool DriftMonitor::observe(const double *Features, unsigned Cluster,
                           unsigned Decision) {
  assert(ready() && "observe() on a default-constructed monitor");
  assert(Cluster < NumClusters && Decision < NumDecisions &&
         "observation out of range");
  std::copy(Features, Features + NumFeatures,
            FeatRing.begin() + static_cast<long>(Next * NumFeatures));
  ClusterRing[Next] = Cluster;
  DecisionRing[Next] = Decision;
  Next = (Next + 1) % Opts.Window;
  Fill = std::min(Fill + 1, Opts.Window);
  ++Observations;

  if (Observations < CooldownUntil || Fill < Opts.MinSamples ||
      Observations % Opts.CheckInterval != 0)
    return false;
  Last = check();
  return Last.Drifted;
}

void DriftMonitor::liveStats() const {
  assert(Fill > 0 && "live statistics of an empty window");
  // One row-major pass over the ring. Each column is still summed in
  // ring-slot order from 0.0 -- the very adds support::mean makes -- so
  // every mean keeps support::mean's bits. Four rows per step, added left
  // to right, keep each partial sum in a register for three of its four
  // adds instead of storing and reloading it after every one.
  LiveMean.assign(NumFeatures, 0.0);
  const size_t NF = NumFeatures;
  double *Sum = LiveMean.data();
  const double *Row = FeatRing.data();
  size_t I = 0;
  for (; I + 4 <= Fill; I += 4, Row += 4 * NF)
    for (size_t F = 0; F != NF; ++F)
      Sum[F] = (((Sum[F] + Row[F]) + Row[NF + F]) + Row[2 * NF + F]) +
               Row[3 * NF + F];
  for (; I != Fill; ++I, Row += NF)
    for (size_t F = 0; F != NF; ++F)
      Sum[F] += Row[F];
  for (unsigned F = 0; F != NumFeatures; ++F)
    LiveMean[F] /= static_cast<double>(Fill);

  LiveClusterHist.assign(NumClusters, 0.0);
  LiveDecisionHist.assign(NumDecisions, 0.0);
  for (size_t I = 0; I != Fill; ++I) {
    LiveClusterHist[ClusterRing[I]] += 1.0;
    LiveDecisionHist[DecisionRing[I]] += 1.0;
  }
}

DriftSignal DriftMonitor::check() const {
  DriftSignal Signal;
  Signal.AtObservation = Observations;
  if (Fill < Opts.MinSamples)
    return Signal;

  liveStats();
  for (unsigned F = 0; F != NumFeatures; ++F) {
    // Standardize by the reference spread; the additive floor keeps a
    // (near-)constant reference feature from turning FP noise into an
    // unbounded score while still flagging a genuine move.
    double Denom =
        std::sqrt(std::max(RefVar[F], 0.0)) + 1e-9 + 1e-6 * std::abs(RefMean[F]);
    double Shift = std::abs(LiveMean[F] - RefMean[F]) / Denom;
    if (Shift > Signal.MeanShift) {
      Signal.MeanShift = Shift;
      Signal.MeanShiftFeature = F;
    }
  }
  Signal.ClusterTV = totalVariation(LiveClusterHist, RefClusterHist);
  Signal.DecisionTV = totalVariation(LiveDecisionHist, RefDecisionHist);
  Signal.Drifted = Signal.MeanShift > Opts.MeanShiftThreshold ||
                   Signal.ClusterTV > Opts.ClusterTVThreshold ||
                   Signal.DecisionTV > Opts.DecisionTVThreshold;
  return Signal;
}

void DriftMonitor::rebaseToModel(const serialize::TrainedModel &Model) {
  DriftMonitor Fresh = referenceFrom(Model, Opts);
  assert(Fresh.NumFeatures == NumFeatures && "model feature arity changed");
  NumClusters = Fresh.NumClusters;
  NumDecisions = Fresh.NumDecisions;
  RefMean = std::move(Fresh.RefMean);
  RefVar = std::move(Fresh.RefVar);
  RefClusterHist = std::move(Fresh.RefClusterHist);
  RefDecisionHist = std::move(Fresh.RefDecisionHist);
  ClusterRing.assign(Opts.Window, 0);
  DecisionRing.assign(Opts.Window, 0);
  Fill = 0;
  Next = 0;
  CooldownUntil = Observations + Opts.Cooldown;
}

void DriftMonitor::rebaseToWindow() {
  if (Fill > 0) {
    // The one path that needs the live variances: support::variance over
    // each ring column in ring-slot order, so the adopted reference keeps
    // its exact result.
    liveStats();
    std::vector<double> Var(NumFeatures, 0.0), Column(Fill, 0.0);
    for (unsigned F = 0; F != NumFeatures; ++F) {
      for (size_t I = 0; I != Fill; ++I)
        Column[I] = FeatRing[I * NumFeatures + F];
      Var[F] = support::variance(Column);
    }
    setReference(LiveMean, std::move(Var), LiveClusterHist, LiveDecisionHist);
  }
  Fill = 0;
  Next = 0;
  CooldownUntil = Observations + Opts.Cooldown;
}
