//===- benchmarks/ClusteringBenchmark.cpp ------------------------------------=//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//

#include "benchmarks/ClusteringBenchmark.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace pbt;
using namespace pbt::bench;

const char *bench::clusterGenName(ClusterGen G) {
  switch (G) {
  case ClusterGen::GaussianBlobs:
    return "gaussian-blobs";
  case ClusterGen::UniformNoise:
    return "uniform-noise";
  case ClusterGen::Rings:
    return "rings";
  case ClusterGen::Lattice:
    return "lattice";
  case ClusterGen::Elongated:
    return "elongated";
  case ClusterGen::BlobsPlusNoise:
    return "blobs+noise";
  }
  return "unknown";
}

linalg::Matrix bench::generateClusterInput(ClusterGen G, size_t N,
                                           support::Rng &Rng) {
  linalg::Matrix P(N, 2);
  auto Set = [&](size_t I, double X, double Y) {
    P.at(I, 0) = X;
    P.at(I, 1) = Y;
  };
  switch (G) {
  case ClusterGen::GaussianBlobs: {
    unsigned K = 1 + static_cast<unsigned>(Rng.index(12));
    std::vector<std::pair<double, double>> Centers(K);
    for (auto &C : Centers)
      C = {Rng.uniform(0.0, 100.0), Rng.uniform(0.0, 100.0)};
    double Spread = Rng.uniform(1.0, 8.0);
    for (size_t I = 0; I != N; ++I) {
      const auto &C = Centers[Rng.index(K)];
      Set(I, Rng.gaussian(C.first, Spread), Rng.gaussian(C.second, Spread));
    }
    break;
  }
  case ClusterGen::UniformNoise:
    for (size_t I = 0; I != N; ++I)
      Set(I, Rng.uniform(0.0, 100.0), Rng.uniform(0.0, 100.0));
    break;
  case ClusterGen::Rings: {
    unsigned Rings = 1 + static_cast<unsigned>(Rng.index(4));
    double CX = Rng.uniform(30.0, 70.0), CY = Rng.uniform(30.0, 70.0);
    for (size_t I = 0; I != N; ++I) {
      double R = 10.0 * static_cast<double>(1 + Rng.index(Rings)) +
                 Rng.gaussian(0.0, 1.0);
      double Theta = Rng.uniform(0.0, 2.0 * M_PI);
      Set(I, CX + R * std::cos(Theta), CY + R * std::sin(Theta));
    }
    break;
  }
  case ClusterGen::Lattice: {
    // Poker-hand-like: low-cardinality discrete tuples with multiplicity.
    unsigned GridX = 4 + static_cast<unsigned>(Rng.index(10));
    unsigned GridY = 4 + static_cast<unsigned>(Rng.index(10));
    // A subset of lattice sites is "popular" (like common hand classes).
    unsigned Popular = 2 + static_cast<unsigned>(Rng.index(6));
    std::vector<std::pair<double, double>> Sites(Popular);
    for (auto &S : Sites)
      S = {static_cast<double>(Rng.index(GridX)) * (100.0 / GridX),
           static_cast<double>(Rng.index(GridY)) * (100.0 / GridY)};
    for (size_t I = 0; I != N; ++I) {
      if (Rng.chance(0.7)) {
        const auto &S = Sites[Rng.index(Popular)];
        Set(I, S.first, S.second);
      } else {
        Set(I, static_cast<double>(Rng.index(GridX)) * (100.0 / GridX),
            static_cast<double>(Rng.index(GridY)) * (100.0 / GridY));
      }
    }
    break;
  }
  case ClusterGen::Elongated: {
    unsigned K = 1 + static_cast<unsigned>(Rng.index(5));
    for (size_t I = 0; I != N; ++I) {
      unsigned C = static_cast<unsigned>(Rng.index(K));
      double Along = Rng.uniform(0.0, 60.0);
      double Across = Rng.gaussian(0.0, 1.5);
      double Angle = static_cast<double>(C) * 1.1;
      double BaseX = 20.0 + 15.0 * static_cast<double>(C);
      double BaseY = 10.0 + 12.0 * static_cast<double>(C);
      Set(I, BaseX + Along * std::cos(Angle) - Across * std::sin(Angle),
          BaseY + Along * std::sin(Angle) + Across * std::cos(Angle));
    }
    break;
  }
  case ClusterGen::BlobsPlusNoise: {
    unsigned K = 2 + static_cast<unsigned>(Rng.index(6));
    std::vector<std::pair<double, double>> Centers(K);
    for (auto &C : Centers)
      C = {Rng.uniform(10.0, 90.0), Rng.uniform(10.0, 90.0)};
    for (size_t I = 0; I != N; ++I) {
      if (Rng.chance(0.2)) {
        Set(I, Rng.uniform(0.0, 100.0), Rng.uniform(0.0, 100.0));
      } else {
        const auto &C = Centers[Rng.index(K)];
        Set(I, Rng.gaussian(C.first, 2.5), Rng.gaussian(C.second, 2.5));
      }
    }
    break;
  }
  }
  return P;
}

double bench::meanPointToCenterDistance(const linalg::Matrix &Points,
                                        const ml::KMeansResult &Clustering) {
  assert(Points.rows() == Clustering.Assignment.size() &&
         "assignment size mismatch");
  double Sum = 0.0;
  for (size_t I = 0; I != Points.rows(); ++I) {
    unsigned C = Clustering.Assignment[I];
    double DX = Points.at(I, 0) - Clustering.Centroids.at(C, 0);
    double DY = Points.at(I, 1) - Clustering.Centroids.at(C, 1);
    Sum += std::sqrt(DX * DX + DY * DY);
  }
  return Sum / static_cast<double>(Points.rows());
}

ClusteringBenchmark::ClusteringBenchmark(const Options &Opts)
    : Opts(Opts), Truths(Opts.NumInputs) {
  InitParam = Space.addCategorical("clustering.init", 3);
  KParam = Space.addInteger("clustering.k", 2, 24, /*LogScale=*/true);
  ItersParam = Space.addInteger("clustering.iterations", 1, 30,
                                /*LogScale=*/true);

  support::Rng Rng(Opts.Seed);
  Inputs.reserve(Opts.NumInputs);
  Tags.reserve(Opts.NumInputs);
  for (size_t I = 0; I != Opts.NumInputs; ++I) {
    size_t N = Opts.MinPoints + Rng.index(Opts.MaxPoints - Opts.MinPoints + 1);
    ClusterGen G;
    if (Opts.Data == Dataset::LatticeMix)
      G = ClusterGen::Lattice;
    else
      G = static_cast<ClusterGen>(Rng.index(NumClusterGens));
    Inputs.push_back(generateClusterInput(G, N, Rng));
    Tags.push_back(clusterGenName(G));
  }
}

double ClusteringBenchmark::canonicalDistance(size_t I) const {
  GroundTruth &T = Truths[I];
  std::call_once(T.Once, [&] {
    // Canonical clustering: fixed kmeans++ configuration, not charged to
    // any cost model.
    ml::KMeansOptions Canon;
    Canon.K = Opts.CanonicalK;
    Canon.MaxIterations = Opts.CanonicalIterations;
    Canon.Init = ml::KMeansInit::CenterPlus;
    Canon.Seed = 0x9999 + I;
    ml::KMeansResult CanonR = ml::kMeans(Inputs[I], Canon, nullptr);
    T.CanonicalDist = meanPointToCenterDistance(Inputs[I], CanonR);
  });
  return T.CanonicalDist;
}

std::string ClusteringBenchmark::name() const {
  return Opts.Data == Dataset::LatticeMix ? "clustering1" : "clustering2";
}

std::vector<runtime::FeatureInfo> ClusteringBenchmark::features() const {
  return {{"radius", 3}, {"centers", 3}, {"density", 3}, {"range", 3}};
}

static size_t clusterSampleSize(unsigned Level, size_t N) {
  size_t S = static_cast<size_t>(48) << (2 * Level);
  return std::min(S, N);
}

double ClusteringBenchmark::extractFeature(size_t Input, unsigned Feature,
                                           unsigned Level,
                                           support::CostCounter &Cost) const {
  assert(Input < Inputs.size() && "input out of range");
  assert(Feature < 4 && Level < 3 && "feature/level out of range");
  const linalg::Matrix &P = Inputs[Input];
  size_t N = P.rows();
  size_t S = clusterSampleSize(Level, N);
  size_t Stride = std::max<size_t>(1, N / S);

  // Sample bounding box and centroid (shared by several features).
  double MinX = 1e300, MaxX = -1e300, MinY = 1e300, MaxY = -1e300;
  double CX = 0.0, CY = 0.0;
  size_t Count = 0;
  for (size_t I = 0; I < N && Count < S; I += Stride, ++Count) {
    double X = P.at(I, 0), Y = P.at(I, 1);
    MinX = std::min(MinX, X);
    MaxX = std::max(MaxX, X);
    MinY = std::min(MinY, Y);
    MaxY = std::max(MaxY, Y);
    CX += X;
    CY += Y;
  }
  Cost.addFlops(6.0 * static_cast<double>(Count));
  if (Count == 0)
    return 0.0;
  CX /= static_cast<double>(Count);
  CY /= static_cast<double>(Count);

  switch (Feature) {
  case 0: { // radius: max distance from the sample centroid
    double MaxR = 0.0;
    size_t C2 = 0;
    for (size_t I = 0; I < N && C2 < S; I += Stride, ++C2) {
      double DX = P.at(I, 0) - CX, DY = P.at(I, 1) - CY;
      MaxR = std::max(MaxR, std::sqrt(DX * DX + DY * DY));
    }
    Cost.addFlops(4.0 * static_cast<double>(C2));
    return MaxR;
  }
  case 1: { // centers: occupancy-grid estimate of cluster-center count.
    // The most expensive feature (the paper calls centers "the most
    // expensive feature relative to execution time").
    unsigned G = 8u << Level; // 8 / 16 / 32 grid
    std::vector<unsigned> Hist(static_cast<size_t>(G) * G, 0);
    double SpanX = std::max(1e-9, MaxX - MinX);
    double SpanY = std::max(1e-9, MaxY - MinY);
    size_t C2 = 0;
    for (size_t I = 0; I < N && C2 < S; I += Stride, ++C2) {
      unsigned GX = std::min<unsigned>(
          G - 1, static_cast<unsigned>((P.at(I, 0) - MinX) / SpanX * G));
      unsigned GY = std::min<unsigned>(
          G - 1, static_cast<unsigned>((P.at(I, 1) - MinY) / SpanY * G));
      ++Hist[static_cast<size_t>(GX) * G + GY];
    }
    Cost.addFlops(4.0 * static_cast<double>(C2));
    Cost.addOther(static_cast<double>(G) * G);
    // Count cells that are local maxima with non-trivial mass.
    unsigned Threshold = std::max<unsigned>(
        2, static_cast<unsigned>(C2 / (4 * static_cast<size_t>(G))));
    unsigned Centers = 0;
    for (unsigned X = 0; X != G; ++X)
      for (unsigned Y = 0; Y != G; ++Y) {
        unsigned H = Hist[static_cast<size_t>(X) * G + Y];
        if (H < Threshold)
          continue;
        bool IsMax = true;
        for (int DX = -1; DX <= 1 && IsMax; ++DX)
          for (int DY = -1; DY <= 1 && IsMax; ++DY) {
            if (DX == 0 && DY == 0)
              continue;
            int NX = static_cast<int>(X) + DX, NY = static_cast<int>(Y) + DY;
            if (NX < 0 || NY < 0 || NX >= static_cast<int>(G) ||
                NY >= static_cast<int>(G))
              continue;
            if (Hist[static_cast<size_t>(NX) * G + NY] > H)
              IsMax = false;
          }
        if (IsMax)
          ++Centers;
      }
    return static_cast<double>(Centers);
  }
  case 2: { // density: sample points per occupied coarse cell
    unsigned G = 8;
    std::vector<unsigned> Hist(static_cast<size_t>(G) * G, 0);
    double SpanX = std::max(1e-9, MaxX - MinX);
    double SpanY = std::max(1e-9, MaxY - MinY);
    size_t C2 = 0;
    for (size_t I = 0; I < N && C2 < S; I += Stride, ++C2) {
      unsigned GX = std::min<unsigned>(
          G - 1, static_cast<unsigned>((P.at(I, 0) - MinX) / SpanX * G));
      unsigned GY = std::min<unsigned>(
          G - 1, static_cast<unsigned>((P.at(I, 1) - MinY) / SpanY * G));
      ++Hist[static_cast<size_t>(GX) * G + GY];
    }
    Cost.addFlops(4.0 * static_cast<double>(C2));
    unsigned Occupied = 0;
    for (unsigned H : Hist)
      if (H > 0)
        ++Occupied;
    return Occupied > 0 ? static_cast<double>(C2) / Occupied : 0.0;
  }
  case 3: // range: bounding-box diagonal
    return std::sqrt((MaxX - MinX) * (MaxX - MinX) +
                     (MaxY - MinY) * (MaxY - MinY));
  default:
    return 0.0;
  }
}

ml::KMeansOptions ClusteringBenchmark::kmeansOptionsFor(
    const runtime::Configuration &Config) const {
  ml::KMeansOptions O;
  switch (Config.category(InitParam)) {
  case 0:
    O.Init = ml::KMeansInit::Random;
    break;
  case 1:
    O.Init = ml::KMeansInit::Prefix;
    break;
  default:
    O.Init = ml::KMeansInit::CenterPlus;
    break;
  }
  O.K = static_cast<unsigned>(Config.integer(KParam));
  O.MaxIterations = static_cast<unsigned>(Config.integer(ItersParam));
  O.EarlyStop = true;
  O.Seed = 0xC0FFEE; // fixed: runs are deterministic per configuration
  return O;
}

runtime::RunResult
ClusteringBenchmark::run(size_t Input, const runtime::Configuration &Config,
                         support::CostCounter &Cost) const {
  assert(Input < Inputs.size() && "input out of range");
  double Before = Cost.units();
  ml::KMeansOptions O = kmeansOptionsFor(Config);
  ml::KMeansResult KR = ml::kMeans(Inputs[Input], O, &Cost);
  double Ours = meanPointToCenterDistance(Inputs[Input], KR);
  runtime::RunResult R;
  R.TimeUnits = Cost.units() - Before;
  double Canon = canonicalDistance(Input);
  if (Ours <= 1e-12)
    R.Accuracy = 5.0; // perfect clustering of a degenerate input
  else
    R.Accuracy = std::min(5.0, Canon / Ours);
  return R;
}

//===----------------------------------------------------------------------===//
// Registry entries: the paper's clustering1 (lattice/poker-hand-like) and
// clustering2 (synthetic mixture) rows.
//===----------------------------------------------------------------------===//

#include "registry/BenchmarkRegistry.h"

static registry::ProgramPtr
makeClusteringProgram(ClusteringBenchmark::Dataset Data, double Scale,
                      uint64_t Seed) {
  ClusteringBenchmark::Options O;
  O.Data = Data;
  O.NumInputs = registry::scaledInputCount(Scale, 160);
  O.MinPoints = 150;
  O.MaxPoints = 500;
  O.Seed = Seed;
  return std::make_unique<ClusteringBenchmark>(O);
}

static registry::RegisterBenchmark
    RegClustering1(std::make_unique<registry::SimpleBenchmarkFactory>(
        "clustering1", "Clustering, lattice-mix discrete inputs (paper clustering1)",
        /*SuiteOrder=*/2, /*ProgramSeed=*/103, /*PipelineSeed=*/1003,
        [](double Scale, uint64_t Seed) {
          return makeClusteringProgram(ClusteringBenchmark::Dataset::LatticeMix,
                                       Scale, Seed);
        }));

static registry::RegisterBenchmark
    RegClustering2(std::make_unique<registry::SimpleBenchmarkFactory>(
        "clustering2", "Clustering, synthetic generator mixture (paper clustering2)",
        /*SuiteOrder=*/3, /*ProgramSeed=*/104, /*PipelineSeed=*/1004,
        [](double Scale, uint64_t Seed) {
          return makeClusteringProgram(
              ClusteringBenchmark::Dataset::SyntheticMix, Scale, Seed);
        }));
