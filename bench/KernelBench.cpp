//===- bench/KernelBench.cpp - `pbt-bench kernels` micro-benchmarks --------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark micro-benchmarks of the substrate kernels: the five
/// sorting algorithms across input families, the bin packing heuristics,
/// the SVD methods, the PDE smoothers/solvers, K-means, and classifier
/// prediction -- plus wall-clock comparisons of sequential vs pooled
/// pipeline training and evaluation. Kernel benchmarks measure real time
/// of our implementations (the pipeline itself uses the deterministic
/// cost model). When google-benchmark is unavailable the subcommand
/// degrades to an explanatory stub.
///
//===----------------------------------------------------------------------===//

#include "Reports.h"

#ifdef PBT_HAVE_GOOGLE_BENCHMARK

#include "benchmarks/BinPackingAlgorithms.h"
#include "benchmarks/SortAlgorithms.h"
#include "core/FeatureProbe.h"
#include "core/Pipeline.h"
#include "linalg/SVD.h"
#include "ml/CrossValidation.h"
#include "ml/DecisionTree.h"
#include "ml/KMeans.h"
#include "pde/Poisson2D.h"
#include "registry/BenchmarkRegistry.h"
#include "runtime/AdaptiveService.h"
#include "serialize/ModelIO.h"

#include <benchmark/benchmark.h>

#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <vector>

using namespace pbt;

//===----------------------------------------------------------------------===//
// Sorting kernels
//===----------------------------------------------------------------------===//

static void BM_Sort(benchmark::State &State, bench::SortAlgo Algo,
                    bench::SortGen Gen) {
  support::Rng Rng(1);
  size_t N = static_cast<size_t>(State.range(0));
  std::vector<double> Input = bench::generateSortInput(Gen, N, Rng);
  runtime::Selector Always({{UINT64_MAX, static_cast<unsigned>(Algo)}});
  bench::PolySorter Sorter(Always, 4);
  double Units = 0.0;
  for (auto _ : State) {
    std::vector<double> Work = Input;
    support::CostCounter Cost;
    Sorter.sort(Work, Cost);
    Units = Cost.units();
    benchmark::DoNotOptimize(Work.data());
  }
  State.counters["work_units"] = Units;
}

BENCHMARK_CAPTURE(BM_Sort, insertion_random, bench::SortAlgo::Insertion,
                  bench::SortGen::Uniform)
    ->Arg(256)->Arg(1024);
BENCHMARK_CAPTURE(BM_Sort, insertion_sorted, bench::SortAlgo::Insertion,
                  bench::SortGen::Sorted)
    ->Arg(4096);
BENCHMARK_CAPTURE(BM_Sort, quick_random, bench::SortAlgo::Quick,
                  bench::SortGen::Uniform)
    ->Arg(1024)->Arg(4096);
BENCHMARK_CAPTURE(BM_Sort, quick_sorted_pathological, bench::SortAlgo::Quick,
                  bench::SortGen::Sorted)
    ->Arg(1024);
BENCHMARK_CAPTURE(BM_Sort, merge_random, bench::SortAlgo::Merge,
                  bench::SortGen::Uniform)
    ->Arg(1024)->Arg(4096);
BENCHMARK_CAPTURE(BM_Sort, radix_random, bench::SortAlgo::Radix,
                  bench::SortGen::Uniform)
    ->Arg(1024)->Arg(4096);
BENCHMARK_CAPTURE(BM_Sort, bitonic_random, bench::SortAlgo::Bitonic,
                  bench::SortGen::Uniform)
    ->Arg(1024);

static void BM_PolySortFigure2(benchmark::State &State) {
  support::Rng Rng(2);
  std::vector<double> Input =
      bench::generateSortInput(bench::SortGen::Uniform, 8192, Rng);
  runtime::Selector Fig2({{600, 0}, {1420, 1}, {UINT64_MAX, 2}});
  bench::PolySorter Sorter(Fig2, 2);
  for (auto _ : State) {
    std::vector<double> Work = Input;
    support::CostCounter Cost;
    Sorter.sort(Work, Cost);
    benchmark::DoNotOptimize(Work.data());
  }
}
BENCHMARK(BM_PolySortFigure2);

//===----------------------------------------------------------------------===//
// Bin packing kernels
//===----------------------------------------------------------------------===//

static void BM_Pack(benchmark::State &State, bench::PackAlgo Algo) {
  support::Rng Rng(3);
  std::vector<double> Items = bench::generatePackInput(
      bench::PackGen::WideUniform, static_cast<size_t>(State.range(0)), Rng);
  double Occupancy = 0.0;
  for (auto _ : State) {
    support::CostCounter Cost;
    bench::PackingResult R = bench::pack(Algo, Items, Cost);
    Occupancy = R.averageOccupancy();
    benchmark::DoNotOptimize(R.BinLoads.data());
  }
  State.counters["occupancy"] = Occupancy;
}

BENCHMARK_CAPTURE(BM_Pack, next_fit, bench::PackAlgo::NextFit)->Arg(512);
BENCHMARK_CAPTURE(BM_Pack, first_fit, bench::PackAlgo::FirstFit)->Arg(512);
BENCHMARK_CAPTURE(BM_Pack, best_fit_decreasing,
                  bench::PackAlgo::BestFitDecreasing)
    ->Arg(512);
BENCHMARK_CAPTURE(BM_Pack, mffd, bench::PackAlgo::ModifiedFirstFitDecreasing)
    ->Arg(512);

//===----------------------------------------------------------------------===//
// SVD kernels
//===----------------------------------------------------------------------===//

static void BM_SVDJacobi(benchmark::State &State) {
  support::Rng Rng(4);
  size_t N = static_cast<size_t>(State.range(0));
  linalg::Matrix A = linalg::Matrix::gaussian(N, N, Rng);
  for (auto _ : State) {
    linalg::SVDResult R = linalg::jacobiSVD(A);
    benchmark::DoNotOptimize(R.Sigma.data());
  }
}
BENCHMARK(BM_SVDJacobi)->Arg(24)->Arg(48);

static void BM_SVDRandomized(benchmark::State &State) {
  support::Rng Rng(5);
  size_t N = static_cast<size_t>(State.range(0));
  linalg::Matrix A = linalg::Matrix::gaussian(N, N, Rng);
  for (auto _ : State) {
    linalg::SVDResult R = linalg::randomizedSVD(A, 4, 6, 1, Rng);
    benchmark::DoNotOptimize(R.Sigma.data());
  }
}
BENCHMARK(BM_SVDRandomized)->Arg(24)->Arg(48);

//===----------------------------------------------------------------------===//
// PDE kernels
//===----------------------------------------------------------------------===//

static pde::Grid2D poissonRHS(size_t N) {
  pde::Grid2D F(N);
  for (size_t I = 1; I + 1 < N; ++I)
    for (size_t J = 1; J + 1 < N; ++J)
      F.at(I, J) = std::sin(M_PI * I / (N - 1.0)) *
                   std::sin(M_PI * J / (N - 1.0));
  return F;
}

static void BM_PoissonMultigridVCycle(benchmark::State &State) {
  pde::Grid2D F = poissonRHS(static_cast<size_t>(State.range(0)));
  pde::MultigridOptions O;
  O.Cycles = 1;
  for (auto _ : State) {
    pde::Grid2D U = pde::multigridSolve(F, O);
    benchmark::DoNotOptimize(U.data().data());
  }
}
BENCHMARK(BM_PoissonMultigridVCycle)->Arg(33)->Arg(65);

static void BM_PoissonDirect(benchmark::State &State) {
  pde::Grid2D F = poissonRHS(static_cast<size_t>(State.range(0)));
  for (auto _ : State) {
    pde::Grid2D U = pde::directSolve(F);
    benchmark::DoNotOptimize(U.data().data());
  }
}
BENCHMARK(BM_PoissonDirect)->Arg(33)->Arg(65);

static void BM_PoissonSORSweeps(benchmark::State &State) {
  pde::Grid2D F = poissonRHS(33);
  for (auto _ : State) {
    pde::Grid2D U(33);
    pde::smoothSOR(U, F, 1.8, static_cast<unsigned>(State.range(0)));
    benchmark::DoNotOptimize(U.data().data());
  }
}
BENCHMARK(BM_PoissonSORSweeps)->Arg(10)->Arg(100);

//===----------------------------------------------------------------------===//
// ML kernels
//===----------------------------------------------------------------------===//

static void BM_KMeans(benchmark::State &State) {
  support::Rng Rng(6);
  size_t N = static_cast<size_t>(State.range(0));
  linalg::Matrix P(N, 2);
  for (double &V : P.data())
    V = Rng.uniform(0, 100);
  ml::KMeansOptions O;
  O.K = 8;
  O.MaxIterations = 20;
  for (auto _ : State) {
    ml::KMeansResult R = ml::kMeans(P, O);
    benchmark::DoNotOptimize(R.Assignment.data());
  }
}
BENCHMARK(BM_KMeans)->Arg(512)->Arg(2048);

static void BM_DecisionTreePredict(benchmark::State &State) {
  support::Rng Rng(7);
  linalg::Matrix X(512, 12);
  std::vector<unsigned> Y(512);
  for (size_t I = 0; I != 512; ++I) {
    for (size_t J = 0; J != 12; ++J)
      X.at(I, J) = Rng.uniform(0, 1);
    Y[I] = X.at(I, 0) > 0.5 ? 1 : 0;
  }
  ml::DecisionTree T;
  T.fit(X, Y, 2);
  std::vector<double> Row(12, 0.3);
  for (auto _ : State) {
    unsigned P = T.predict(Row);
    benchmark::DoNotOptimize(P);
  }
}
BENCHMARK(BM_DecisionTreePredict);

/// Tree training over a multi-class table: the timing that pins the
/// build() hot-loop rewrite (scratch (value, label) sort + sweep instead
/// of per-(node, feature) index re-sorts through Matrix::at).
static void BM_DecisionTreeFit(benchmark::State &State) {
  support::Rng Rng(9);
  size_t N = static_cast<size_t>(State.range(0));
  linalg::Matrix X(N, 12);
  std::vector<unsigned> Y(N);
  for (size_t I = 0; I != N; ++I) {
    for (size_t J = 0; J != 12; ++J)
      X.at(I, J) = Rng.uniform(0, 1);
    Y[I] = static_cast<unsigned>(X.at(I, 0) * 2.0) * 2 +
           (X.at(I, 1) > 0.6 ? 1 : 0);
  }
  for (auto _ : State) {
    ml::DecisionTree T;
    T.fit(X, Y, 4);
    benchmark::DoNotOptimize(T.numNodes());
  }
}
BENCHMARK(BM_DecisionTreeFit)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

static void BM_MatrixTranspose(benchmark::State &State) {
  support::Rng Rng(10);
  size_t N = static_cast<size_t>(State.range(0));
  linalg::Matrix A = linalg::Matrix::gaussian(N, N, Rng);
  for (auto _ : State) {
    linalg::Matrix T = A.transposed();
    benchmark::DoNotOptimize(T.data().data());
  }
}
BENCHMARK(BM_MatrixTranspose)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

//===----------------------------------------------------------------------===//
// Serving kernels: decisions from one trained sort1 model through the
// serving core (memoized features -- the steady serving state), plus the
// compiled-vs-interpreted classifier pair over the recorded feature
// table.
//===----------------------------------------------------------------------===//

namespace {
struct ServeFixture {
  registry::ProgramPtr Program;
  std::unique_ptr<runtime::AdaptiveService> Service;
  runtime::AdaptiveService::EpochPtr Epoch;
  std::vector<size_t> Rows;
};

ServeFixture &serveFixture() {
  static ServeFixture *F = [] {
    auto *S = new ServeFixture();
    const registry::BenchmarkFactory &Fac =
        registry::BenchmarkRegistry::instance().get("sort1");
    const double Scale = 0.1;
    S->Program = Fac.makeProgram(Scale, Fac.defaultProgramSeed());
    core::TrainedSystem System =
        core::trainSystem(*S->Program, Fac.defaultOptions(Scale));
    serialize::TrainedModel Model =
        serialize::makeModel("sort1", Scale, Fac.defaultProgramSeed(),
                             *S->Program, std::move(System));
    S->Service = std::make_unique<runtime::AdaptiveService>(*S->Program,
                                                            std::move(Model));
    S->Epoch = S->Service->currentEpoch();
    S->Rows = S->Epoch->Model.System.TestRows;
    for (size_t Row : S->Rows)
      S->Service->decide(Row); // warm the feature memo
    return S;
  }();
  return *F;
}
} // namespace

/// The served hot path: decide() on warm inputs, i.e. decision-cache
/// hits. This is what a deployment pays for repeat traffic.
static void BM_ServeDecideCompiled(benchmark::State &State) {
  ServeFixture &F = serveFixture();
  size_t I = 0;
  for (auto _ : State) {
    runtime::AdaptiveService::Decision D =
        F.Service->decide(F.Rows[I++ % F.Rows.size()]);
    benchmark::DoNotOptimize(D.Landmark);
  }
}
BENCHMARK(BM_ServeDecideCompiled);

/// Classifier-only pair (decision cache bypassed): the compiled arena
/// walk vs the polymorphic classifier over the same recorded feature
/// table -- the regression signal for the lowering itself.
static void BM_ClassifyCompiled(benchmark::State &State) {
  ServeFixture &F = serveFixture();
  const runtime::CompiledModel &M = F.Epoch->Compiled;
  const linalg::Matrix &Features = F.Epoch->Model.System.L1.Features;
  runtime::CompiledModel::Scratch S = M.makeScratch();
  size_t I = 0;
  for (auto _ : State) {
    size_t Row = F.Rows[I++ % F.Rows.size()];
    unsigned L = M.decideProduction(
        S, [&Features, Row](unsigned Flat) { return Features.at(Row, Flat); });
    benchmark::DoNotOptimize(L);
  }
}
BENCHMARK(BM_ClassifyCompiled);

static void BM_ClassifyInterpreted(benchmark::State &State) {
  ServeFixture &F = serveFixture();
  const core::TrainedSystem &System = F.Epoch->Model.System;
  size_t I = 0;
  for (auto _ : State) {
    size_t Row = F.Rows[I++ % F.Rows.size()];
    core::FeatureProbe Probe =
        core::probeFromTable(System.L1.Features, System.L1.ExtractCosts, Row);
    unsigned L = System.L2.Production->classify(Probe);
    benchmark::DoNotOptimize(L);
  }
}
BENCHMARK(BM_ClassifyInterpreted);

//===----------------------------------------------------------------------===//
// Pipeline parallelism: sequential vs ThreadPool-backed training and
// evaluation of a small registry suite entry. The pooled variant must be
// bitwise-identical in results (covered by tests); this measures the
// wall-clock effect on multi-core hosts.
//===----------------------------------------------------------------------===//

static void BM_PipelineTrain(benchmark::State &State, bool Pooled) {
  const double Scale = 0.2; // small: ~32 inputs, 5 landmarks
  // Pool lives outside the timed loop (and only for the pooled variant)
  // so the comparison measures the pipeline, not thread startup.
  std::optional<support::ThreadPool> Pool;
  if (Pooled)
    Pool.emplace();
  for (auto _ : State) {
    std::vector<registry::SuiteEntry> Suite = registry::makeSuite(
        {"sort2"}, Scale, Pooled ? &*Pool : nullptr);
    registry::SuiteEntry &E = Suite.front();
    core::TrainedSystem System = core::trainSystem(*E.Program, E.Options);
    core::EvaluationResult R =
        core::evaluateSystem(*E.Program, System, E.Options.Pool);
    benchmark::DoNotOptimize(R.TwoLevelWithFeat);
  }
  State.counters["threads"] =
      Pooled ? support::ThreadPool::hardwareThreads() : 1;
}
BENCHMARK_CAPTURE(BM_PipelineTrain, sequential, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PipelineTrain, pooled, true)
    ->Unit(benchmark::kMillisecond);

/// The Level-2 classifier zoo alone: one trained Level-1 fixture, the
/// full cross-validated candidate sweep per iteration over the columnar
/// ml::Dataset substrate (shared-growth subset trees, direct-column
/// scoring).
static void BM_LevelTwoZoo(benchmark::State &State) {
  struct ZooFixture {
    registry::ProgramPtr Program;
    core::PipelineOptions Options;
    std::vector<size_t> TrainRows;
    core::LevelOneResult L1;
  };
  static ZooFixture *F = [] {
    auto *Z = new ZooFixture();
    std::vector<registry::SuiteEntry> Suite =
        registry::makeSuite({"sort2"}, 0.2, nullptr);
    Z->Program = std::move(Suite.front().Program);
    Z->Options = Suite.front().Options;
    support::Rng SplitRng(Z->Options.SplitSeed);
    ml::FoldSplit Split = ml::trainTestSplit(
        Z->Program->numInputs(), Z->Options.TrainFraction, SplitRng);
    Z->TrainRows = std::move(Split.Train);
    Z->L1 = core::runLevelOne(*Z->Program, Z->TrainRows, Z->Options.L1);
    return Z;
  }();
  for (auto _ : State) {
    core::LevelTwoResult R =
        core::runLevelTwo(*F->Program, F->L1, F->TrainRows, F->Options.L2);
    benchmark::DoNotOptimize(R.SelectedName.data());
  }
}
BENCHMARK(BM_LevelTwoZoo)->Unit(benchmark::kMillisecond);

/// OutDir-qualified path of the machine-readable kernels record.
static std::string kernelsJsonPath(const benchharness::DriverOptions &Opts) {
  if (Opts.OutDir.empty() || Opts.OutDir == ".")
    return "BENCH_kernels.json";
  return Opts.OutDir + "/BENCH_kernels.json";
}

int pbt::benchharness::runKernels(const DriverOptions &Opts, int Argc,
                                  char **Argv) {
  // --json lowers to google-benchmark's own JSON reporter so the file
  // carries full per-benchmark timings. google-benchmark's flag parsing
  // is last-occurrence-wins, so our flags are inserted *before* the
  // user's passthrough args: an explicit --benchmark_out still wins.
  std::vector<char *> Args;
  Args.push_back(Argv[0]);
  std::string OutFlag, FormatFlag;
  if (Opts.Json) {
    OutFlag = "--benchmark_out=" + kernelsJsonPath(Opts);
    FormatFlag = "--benchmark_out_format=json";
    Args.push_back(OutFlag.data());
    Args.push_back(FormatFlag.data());
  }
  Args.insert(Args.end(), Argv + 1, Argv + Argc);
  int N = static_cast<int>(Args.size());
  benchmark::Initialize(&N, Args.data());
  if (benchmark::ReportUnrecognizedArguments(N, Args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

#else // !PBT_HAVE_GOOGLE_BENCHMARK

#include <cstdio>
#include <string>

int pbt::benchharness::runKernels(const DriverOptions &Opts, int, char **) {
  std::fprintf(stderr,
               "pbt-bench kernels: built without google-benchmark; install "
               "libbenchmark-dev and reconfigure to enable this "
               "subcommand.\n");
  if (Opts.Json) {
    // Perf-trajectory pipelines expect the artifact to exist; emit an
    // explicit "not available" marker instead of silently nothing.
    std::string Path = (Opts.OutDir.empty() || Opts.OutDir == ".")
                           ? std::string("BENCH_kernels.json")
                           : Opts.OutDir + "/BENCH_kernels.json";
    if (FILE *Out = std::fopen(Path.c_str(), "wb")) {
      std::fputs("{\"available\": false, "
                 "\"reason\": \"built without google-benchmark\"}\n",
                 Out);
      std::fclose(Out);
      return 0;
    }
  }
  return 2;
}

#endif // PBT_HAVE_GOOGLE_BENCHMARK
