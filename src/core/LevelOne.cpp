//===- core/LevelOne.cpp -----------------------------------------------------=//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//

#include "core/LevelOne.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <map>

using namespace pbt;
using namespace pbt::core;

void core::extractAllFeatures(const runtime::TunableProgram &Program,
                              linalg::Matrix &Values, linalg::Matrix &Costs,
                              support::ThreadPool *Pool) {
  runtime::FeatureIndex Index(Program.features());
  size_t N = Program.numInputs();
  unsigned M = Index.numFlat();
  Values = linalg::Matrix(N, M);
  Costs = linalg::Matrix(N, M);

  auto ExtractRow = [&](size_t I) {
    for (unsigned F = 0; F != M; ++F) {
      support::CostCounter C;
      Values.at(I, F) = Program.extractFeature(I, Index.propertyOf(F),
                                               Index.levelOf(F), C);
      Costs.at(I, F) = C.units();
    }
  };
  if (Pool)
    Pool->parallelFor(0, N, ExtractRow);
  else
    for (size_t I = 0; I != N; ++I)
      ExtractRow(I);
}

LevelOneResult core::runLevelOne(const runtime::TunableProgram &Program,
                                 const std::vector<size_t> &TrainRows,
                                 const LevelOneOptions &Options) {
  assert(!TrainRows.empty() && "no training inputs");
  LevelOneResult R;

  // Step 1: feature extraction (all inputs; Level 2 and evaluation share
  // the same tables), unless the caller already holds the tables.
  assert(!Options.Features == !Options.ExtractCosts &&
         "precomputed feature tables come in pairs");
  if (Options.Features) {
    assert(Options.Features->rows() == Program.numInputs() &&
           Options.ExtractCosts->rows() == Program.numInputs() &&
           "precomputed tables must cover every input");
    R.Features = *Options.Features;
    R.ExtractCosts = *Options.ExtractCosts;
  } else {
    extractAllFeatures(Program, R.Features, R.ExtractCosts, Options.Pool);
  }

  // Step 2: normalize (fit on training rows only) and cluster.
  linalg::Matrix TrainF(TrainRows.size(), R.Features.cols());
  for (size_t I = 0; I != TrainRows.size(); ++I)
    for (size_t J = 0; J != R.Features.cols(); ++J)
      TrainF.at(I, J) = R.Features.at(TrainRows[I], J);
  R.Norm.fit(TrainF);
  linalg::Matrix TrainNorm = R.Norm.transform(TrainF);

  ml::KMeansOptions KOpts;
  KOpts.K = std::max(1u, std::min<unsigned>(
                             Options.NumLandmarks,
                             static_cast<unsigned>(TrainRows.size())));
  KOpts.MaxIterations = 60;
  KOpts.Init = ml::KMeansInit::CenterPlus;
  KOpts.Seed = Options.Seed;
  R.Clusters = ml::kMeans(TrainNorm, KOpts, nullptr);
  unsigned K = static_cast<unsigned>(R.Clusters.Centroids.rows());

  // Step 3: landmark creation. Each cluster tunes on the neighbourhood of
  // training inputs nearest its centroid ("use the centroid as the
  // presumed input"), or on uniformly random training inputs for the
  // ablation baseline.
  unsigned Hood = std::max(1u, Options.TuningNeighborhood);
  R.Representatives.assign(K, TrainRows[0]);
  std::vector<std::vector<size_t>> TuningSets(K);
  if (Options.Selection == LandmarkSelection::UniformRandom) {
    support::Rng PickRng(Options.Seed ^ 0x5151);
    std::vector<size_t> Picks =
        PickRng.sampleWithoutReplacement(TrainRows.size(), K);
    for (unsigned C = 0; C != K; ++C) {
      R.Representatives[C] = TrainRows[Picks[C]];
      TuningSets[C] = {TrainRows[Picks[C]]};
    }
  } else {
    // Distance of every training row to its centroid.
    auto Dist2 = [&](size_t Pos, unsigned C) {
      double Sum = 0.0;
      for (size_t J = 0; J != TrainNorm.cols(); ++J) {
        double Delta = TrainNorm.at(Pos, J) - R.Clusters.Centroids.at(C, J);
        Sum += Delta * Delta;
      }
      return Sum;
    };
    // Collect cluster members sorted by centroid distance; the nearest is
    // the representative, the nearest Hood form the tuning set.
    std::vector<std::vector<std::pair<double, size_t>>> Members(K);
    for (size_t I = 0; I != TrainRows.size(); ++I) {
      unsigned C = R.Clusters.Assignment[I];
      Members[C].push_back({Dist2(I, C), TrainRows[I]});
    }
    for (unsigned C = 0; C != K; ++C) {
      std::sort(Members[C].begin(), Members[C].end());
      if (Members[C].empty()) {
        // Empty cluster (possible after re-seeding): fall back to the
        // first training row.
        R.Representatives[C] = TrainRows[0];
        TuningSets[C] = {TrainRows[0]};
        continue;
      }
      R.Representatives[C] = Members[C].front().second;
      for (size_t I = 0; I != Members[C].size() && I != Hood; ++I)
        TuningSets[C].push_back(Members[C][I].second);
    }
  }

  R.Landmarks.assign(K, runtime::Configuration());
  auto TuneOne = [&](size_t C) {
    autotuner::AutotunerOptions TOpts = Options.Tuner;
    TOpts.Seed = Options.Seed * 7919 + C; // independent stream per cluster
    autotuner::EvolutionaryAutotuner Tuner(TOpts);
    R.Landmarks[C] = Tuner.tune(Program, TuningSets[C]).Best;
  };
  if (Options.Pool)
    Options.Pool->parallelFor(0, K, TuneOne);
  else
    for (unsigned C = 0; C != K; ++C)
      TuneOne(C);

  // Step 4: performance measurement -- every landmark on every input,
  // with each *distinct* configuration measured once per input and its
  // column copied to duplicate landmarks (runs are deterministic, so the
  // duplicates' sweeps would repeat bit-identically).
  size_t N = Program.numInputs();
  R.Time = linalg::Matrix(N, K);
  R.Acc = linalg::Matrix(N, K);
  std::vector<unsigned> MeasureAs(K);
  std::map<std::vector<double>, unsigned> Seen;
  for (unsigned L = 0; L != K; ++L)
    MeasureAs[L] = Seen.emplace(R.Landmarks[L].values(), L).first->second;
  auto MeasureRow = [&](size_t I) {
    for (unsigned L = 0; L != K; ++L) {
      if (MeasureAs[L] != L)
        continue;
      support::CostCounter C;
      runtime::RunResult Res = Program.run(I, R.Landmarks[L], C);
      R.Time.at(I, L) = Res.TimeUnits;
      R.Acc.at(I, L) = Res.Accuracy;
    }
    for (unsigned L = 0; L != K; ++L)
      if (MeasureAs[L] != L) {
        R.Time.at(I, L) = R.Time.at(I, MeasureAs[L]);
        R.Acc.at(I, L) = R.Acc.at(I, MeasureAs[L]);
      }
  };
  if (Options.Pool)
    Options.Pool->parallelFor(0, N, MeasureRow);
  else
    for (size_t I = 0; I != N; ++I)
      MeasureRow(I);

  return R;
}
