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
/// pipeline training and evaluation, one pbt-serve wire round trip
/// (framing plus codec, no decide), and the memo-warm inline retrain of
/// an adapting tenant. Kernel benchmarks measure real time
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
#include "daemon/ModelRegistry.h"
#include "daemon/Protocol.h"
#include "daemon/Server.h"
#include "daemon/Transport.h"
#include "linalg/SVD.h"
#include "ml/CrossValidation.h"
#include "ml/Dataset.h"
#include "ml/DecisionTree.h"
#include "ml/KMeans.h"
#include "pde/Poisson2D.h"
#include "registry/BenchmarkRegistry.h"
#include "runtime/AdaptiveService.h"
#include "serialize/ModelIO.h"
#include "streams/WorkloadStream.h"
#include "support/Cost.h"
#include "support/Random.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

using namespace pbt;

//===----------------------------------------------------------------------===//
// Sorting kernels
//===----------------------------------------------------------------------===//

/// Times \p Sorter on copies of \p Input and reports its work units.
static void timeSort(benchmark::State &State, const bench::PolySorter &Sorter,
                     const std::vector<double> &Input) {
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

static void BM_Sort(benchmark::State &State, bench::SortAlgo Algo,
                    bench::SortGen Gen) {
  support::Rng Rng(1);
  size_t N = static_cast<size_t>(State.range(0));
  std::vector<double> Input = bench::generateSortInput(Gen, N, Rng);
  runtime::Selector Always({{UINT64_MAX, static_cast<unsigned>(Algo)}});
  timeSort(State, bench::PolySorter(Always, 4), Input);
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

/// sort1's shapes: registry-like input (sorted runs over a small,
/// heavily duplicated value pool), sorted by \p Top above 128 elements
/// and by \p Leaf at or below, with 16 merge ways -- the 16-way merges
/// over whole inputs and the radix and bitonic leaves that adapt's
/// retrains run.
static void BM_SortRegistry(benchmark::State &State, bench::SortAlgo Top,
                            bench::SortAlgo Leaf) {
  support::Rng Rng(1);
  std::vector<double> Input = bench::generateRegistryLikeInput(
      static_cast<size_t>(State.range(0)), Rng);
  runtime::Selector Sel({{129, static_cast<unsigned>(Leaf)},
                         {UINT64_MAX, static_cast<unsigned>(Top)}});
  timeSort(State, bench::PolySorter(Sel, 16), Input);
}

BENCHMARK_CAPTURE(BM_SortRegistry, merge16_insertion_leaves,
                  bench::SortAlgo::Merge, bench::SortAlgo::Insertion)
    ->Arg(2048);
BENCHMARK_CAPTURE(BM_SortRegistry, radix_leaf, bench::SortAlgo::Radix,
                  bench::SortAlgo::Radix)
    ->Arg(32)->Arg(128);
BENCHMARK_CAPTURE(BM_SortRegistry, bitonic_leaf, bench::SortAlgo::Bitonic,
                  bench::SortAlgo::Bitonic)
    ->Arg(32)->Arg(128);

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

/// Tree training over a multi-class table through Level 2's one tree
/// grower: DecisionTree::fitSubsets over a PresortedBase of the table,
/// one all-features subset -- what the retrain of a selected subset tree
/// runs. The Dataset (the once-per-training-run global presort) is built
/// outside the loop; the per-fit PresortedBase is timed with the fit.
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
  ml::Dataset Data(X, linalg::Matrix(N, 12, 1.0), linalg::Matrix(N, 4, 1.0),
                   linalg::Matrix(N, 4, 1.0), std::nullopt);
  std::vector<size_t> Rows(N);
  std::iota(Rows.begin(), Rows.end(), size_t(0));
  const std::vector<std::vector<unsigned>> AllFeatures(1);
  for (auto _ : State) {
    ml::PresortedBase Base(Data, Rows);
    ml::SubsetForest Forest =
        ml::DecisionTree::fitSubsets(Data, Y, 4, {}, Base, AllFeatures);
    benchmark::DoNotOptimize(Forest.Trees[0].numNodes());
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

/// One 64-input decideBatch of memo-warm inputs (the test rows, cycled):
/// decideAnswers into a freshly allocated Decision vector. Time is per
/// batch and includes the batch's accounting and that allocation.
/// perfbench's traced runtime.decide_us times this call (written there
/// as decideBatch(Inputs, nullptr)).
static void BM_DecideBatchWarm(benchmark::State &State) {
  ServeFixture &F = serveFixture();
  std::vector<size_t> Batch(64);
  for (size_t K = 0; K < Batch.size(); ++K)
    Batch[K] = F.Rows[K % F.Rows.size()];
  for (auto _ : State) {
    std::vector<runtime::AdaptiveService::Decision> Ds =
        F.Service->decideBatch(Batch);
    benchmark::DoNotOptimize(Ds.data());
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(Batch.size()));
}
BENCHMARK(BM_DecideBatchWarm);

/// The daemon's warm Predict decide: the same 64-input batch through
/// decideAnswers into a kept PredictedChoice buffer, as a session calls
/// it, dropping the returned epoch after each batch as a session does
/// once it has encoded the reply. Time is per batch and includes the
/// batch's accounting.
static void BM_DecideAnswersWarm(benchmark::State &State) {
  ServeFixture &F = serveFixture();
  std::vector<size_t> Batch(64);
  for (size_t K = 0; K < Batch.size(); ++K)
    Batch[K] = F.Rows[K % F.Rows.size()];
  std::vector<daemon::PredictedChoice> Answers(Batch.size());
  for (auto _ : State) {
    runtime::AdaptiveService::EpochPtr Ep =
        F.Service->decideAnswers(Batch.data(), Batch.size(), Answers.data());
    benchmark::DoNotOptimize(Answers.data());
    benchmark::ClobberMemory();
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(Batch.size()));
}
BENCHMARK(BM_DecideAnswersWarm);

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

/// pbt-serve's per-request wire work on its own: a 64-input Predict and
/// its 64-choice reply through writeFrame, FrameReader and the codec,
/// between this thread and an echo thread reading the way a session
/// does (with the default mid-frame deadline). Both ends reuse their
/// buffers and encode with the production encoders, as a session and a
/// DaemonClient do. No decide, no admission gate -- the rest of a daemon
/// round trip is what serving adds on top of this number. Both ends wait
/// for a frame through FrameReader::read, which spins briefly before it
/// blocks, so the kernel times that wait too. The request_bytes and
/// reply_bytes counters are the two payloads' sizes (134 and 150 bytes).
static void wireRoundTrip(benchmark::State &State, daemon::Channel Client,
                          daemon::Channel Server) {
  std::thread Echo([Server] {
    const double Deadline = daemon::ServerOptions().ReadDeadline;
    daemon::FrameReader Reader;
    std::string Payload, Reply;
    daemon::Message M;
    std::vector<daemon::PredictedChoice> Choices;
    while (Reader.read(Server, Payload, Deadline) == daemon::FrameStatus::Ok &&
           daemon::decodeMessage(Payload, M)) {
      Choices.resize(M.Inputs.size());
      for (size_t I = 0; I < M.Inputs.size(); ++I)
        Choices[I] = {static_cast<uint32_t>(M.Inputs[I] % 7), 1};
      daemon::encodePredictions(Reply, Choices);
      if (daemon::writeFrame(Server, Reply) != daemon::FrameStatus::Ok)
        break;
    }
  });
  std::vector<uint64_t> Inputs(64);
  std::iota(Inputs.begin(), Inputs.end(), 0);
  daemon::FrameReader Reader;
  std::string Request, Reply;
  daemon::Message M;
  for (auto _ : State) {
    daemon::encodePredict(Request, Inputs);
    if (daemon::writeFrame(Client, Request) != daemon::FrameStatus::Ok ||
        Reader.read(Client, Reply) != daemon::FrameStatus::Ok ||
        !daemon::decodeMessage(Reply, M) || M.Choices.size() != 64) {
      State.SkipWithError("wire round trip failed");
      break;
    }
    benchmark::DoNotOptimize(M.Choices.data());
  }
  // Payload bytes of one round trip each way, without length prefixes.
  State.counters["request_bytes"] = static_cast<double>(Request.size());
  State.counters["reply_bytes"] = static_cast<double>(Reply.size());
  ::shutdown(Client.Fd, SHUT_RDWR); // the echo thread's read sees Closed
  Echo.join();
}

/// The round trip over a socketpair: each frame is a sendmsg and a recv.
static void BM_WireRoundTrip(benchmark::State &State) {
  int Fd[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, Fd) != 0) {
    State.SkipWithError("socketpair failed");
    return;
  }
  wireRoundTrip(State, {Fd[0], nullptr}, {Fd[1], nullptr});
  ::close(Fd[0]);
  ::close(Fd[1]);
}
BENCHMARK(BM_WireRoundTrip);

/// The same round trip through a ring pair, as a Unix-domain session
/// attached with HelloRing moves it: each frame is a copy into shared
/// memory and a position store, and the socketpair only carries the
/// doorbell of a reader that fell asleep.
static void BM_RingRoundTrip(benchmark::State &State) {
  int Fd[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, Fd) != 0) {
    State.SkipWithError("socketpair failed");
    return;
  }
  std::string Err;
  int Mem = daemon::createSealedMemory(daemon::kRingRegionBytes, Err);
  std::unique_ptr<daemon::FrameRing> Server, Client;
  if (Mem >= 0) {
    Server = daemon::FrameRing::map(Mem, daemon::FrameRing::End::Server, Err);
    Client = daemon::FrameRing::map(Mem, daemon::FrameRing::End::Client, Err);
    ::close(Mem);
  }
  if (!Server || !Client)
    State.SkipWithError(("ring region: " + Err).c_str());
  else
    wireRoundTrip(State, {Fd[0], Client.get()}, {Fd[1], Server.get()});
  ::close(Fd[0]);
  ::close(Fd[1]);
}
BENCHMARK(BM_RingRoundTrip);

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
    std::vector<registry::SuiteEntry> Suite =
        registry::makeSuite({"sort2"}, Scale);
    registry::SuiteEntry &E = Suite.front();
    support::ThreadPool *P = Pooled ? &*Pool : nullptr;
    core::TrainedSystem System = core::trainSystem(*E.Program, E.Options, P);
    core::EvaluationResult R = core::evaluateSystem(*E.Program, System, P);
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
        registry::makeSuite({"sort2"}, 0.2);
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

/// The perfbench `adapt` workload's sort1 stream: abrupt, 500 ticks, its
/// pinned stream seed for round 0, connection 0, tenant 0.
static streams::WorkloadStream adaptSortStream(const daemon::Tenant &T) {
  streams::WorkloadStreamOptions SO;
  SO.Kind = streams::Schedule::Abrupt;
  SO.Requests = 500;
  const uint64_t StreamSeed = 0xADA97;
  SO.Seed = ((StreamSeed * 1000003u + 0) * 131u + 0) * 131u + 0;
  return streams::WorkloadStream(*T.Program, SO);
}

/// The inline retrain of a `pbt-serve --adapt` tenant, memo-warm: the
/// perfbench `adapt` workload's sort1 stream replayed through serve() on
/// an AutoAdapt registry tenant of the golden sort1 model. One untimed
/// pass first fills the feature and run memos, as the daemon's first
/// cycle does. Each iteration replays the stream once;
/// `retrain_median_us` is the median wall time of the timed passes'
/// retrains (pipeline plus compile), the part of the adapt tail that the
/// retrain itself owns.
static void BM_RetrainWarm(benchmark::State &State) {
  daemon::ModelRegistryOptions RO;
  RO.AutoAdapt = true;
  daemon::ModelRegistry Registry(RO);
  serialize::LoadStatus St =
      Registry.addTenant("sort1", PBT_GOLDEN_DIR "/sort1.pbt");
  if (!St) {
    State.SkipWithError(("sort1 tenant: " + St.Error).c_str());
    return;
  }
  daemon::Tenant &T = *Registry.find("sort1");
  streams::WorkloadStream Stream = adaptSortStream(T);
  runtime::AdaptiveService &Svc = *T.Service;
  for (size_t Input : Stream.sequence())
    Svc.serve(Input);
  uint64_t WarmRetrains = Svc.stats().Retrains;
  for (auto _ : State)
    for (size_t Input : Stream.sequence())
      benchmark::DoNotOptimize(Svc.serve(Input).Landmark);
  // The history keeps only the most recent attempts; the timed ones are
  // its tail.
  size_t Timed = static_cast<size_t>(Svc.stats().Retrains - WarmRetrains);
  std::vector<runtime::AdaptiveService::SwapRecord> History = Svc.history();
  Timed = std::min(Timed, History.size());
  std::vector<double> Us;
  for (size_t I = History.size() - Timed; I != History.size(); ++I)
    Us.push_back(History[I].RetrainSeconds * 1e6);
  if (Us.empty()) {
    State.SkipWithError("the timed passes made no retrain");
    return;
  }
  std::nth_element(Us.begin(), Us.begin() + Us.size() / 2, Us.end());
  State.counters["retrain_median_us"] = Us[Us.size() / 2];
  State.counters["retrains"] = static_cast<double>(Us.size());
}
BENCHMARK(BM_RetrainWarm)->Unit(benchmark::kMillisecond);

/// The warm observing serve of a `pbt-serve --adapt` tenant without its
/// retrains: the same sort1 stream through serveAnswers() in the
/// 16-input batches `adapt` sends, after one untimed pass has warmed
/// every memo. The service adapts with the options an `--adapt` registry
/// binds the golden sort1 model with, but with its three drift
/// thresholds out of reach: each input is decided and observed, and
/// every 16th observation runs the drift check, which never flags.
/// `ns_per_input` is the time per served input; `retrains` must be 0.
static void BM_ServeObserveWarm(benchmark::State &State) {
  daemon::ModelRegistryOptions RO;
  RO.AutoAdapt = true;
  daemon::ModelRegistry Registry(RO);
  serialize::LoadStatus St =
      Registry.addTenant("sort1", PBT_GOLDEN_DIR "/sort1.pbt");
  serialize::TrainedModel Model;
  if (St)
    St = serialize::loadModelFile(PBT_GOLDEN_DIR "/sort1.pbt", Model);
  if (!St) {
    State.SkipWithError(("sort1 tenant: " + St.Error).c_str());
    return;
  }
  daemon::Tenant &T = *Registry.find("sort1");
  runtime::AdaptiveServiceOptions AO = T.Service->options();
  AO.Monitor.MeanShiftThreshold = AO.Monitor.ClusterTVThreshold =
      AO.Monitor.DecisionTVThreshold = std::numeric_limits<double>::infinity();
  runtime::AdaptiveService Svc(*T.Program, std::move(Model), AO);
  streams::WorkloadStream Stream = adaptSortStream(T);
  const std::vector<size_t> &Seq = Stream.sequence();
  std::vector<daemon::PredictedChoice> Answers(16);
  auto Pass = [&] {
    for (size_t At = 0; At < Seq.size(); At += Answers.size()) {
      size_t N = std::min(Answers.size(), Seq.size() - At);
      benchmark::DoNotOptimize(
          Svc.serveAnswers(Seq.data() + At, N, Answers.data()));
    }
  };
  Pass();
  support::WallTimer Timer;
  for (auto _ : State)
    Pass();
  State.counters["ns_per_input"] =
      Timer.elapsedSeconds() * 1e9 /
      static_cast<double>(State.iterations() * Seq.size());
  State.counters["retrains"] = static_cast<double>(Svc.stats().Retrains);
  if (Svc.stats().Retrains != 0)
    State.SkipWithError("a drift check flagged: the observing serve retrained");
}
BENCHMARK(BM_ServeObserveWarm)->Unit(benchmark::kMicrosecond);

/// One drift-monitor divergence test on a full window: the golden sort1
/// model's reference under `pbt-serve`'s default 64-observation window,
/// every slot filled with a synthetic feature row, cluster and decision.
static void BM_DriftCheck(benchmark::State &State) {
  daemon::ModelRegistryOptions RO;
  RO.AutoAdapt = true;
  daemon::ModelRegistry Registry(RO);
  serialize::LoadStatus St =
      Registry.addTenant("sort1", PBT_GOLDEN_DIR "/sort1.pbt");
  if (!St) {
    State.SkipWithError(("sort1 tenant: " + St.Error).c_str());
    return;
  }
  const runtime::AdaptiveService &Svc = *Registry.find("sort1")->Service;
  runtime::DriftMonitor M = runtime::DriftMonitor::referenceFrom(
      Svc.currentEpoch()->Model, Svc.options().Monitor);
  support::Rng Rng(0xD81F7);
  std::vector<double> Row(M.numFeatures());
  for (size_t I = 0; I != M.options().Window; ++I) {
    for (double &V : Row)
      V = Rng.gaussian();
    M.observe(Row.data(), static_cast<unsigned>(Rng.index(M.numClusters())),
              static_cast<unsigned>(Rng.index(M.numDecisions())));
  }
  for (auto _ : State)
    benchmark::DoNotOptimize(M.check());
  State.counters["features"] = M.numFeatures();
  State.counters["window"] = static_cast<double>(M.windowFill());
}
BENCHMARK(BM_DriftCheck);

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
    OutFlag = "--benchmark_out=" + csvPath(Opts, "BENCH_kernels.json");
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

#include "support/Json.h"

#include <cstdio>

int pbt::benchharness::runKernels(const DriverOptions &Opts, int, char **) {
  std::fprintf(stderr,
               "pbt-bench kernels: built without google-benchmark; install "
               "libbenchmark-dev and reconfigure to enable this "
               "subcommand.\n");
  // Perf-trajectory pipelines expect the artifact to exist; emit an
  // explicit "not available" marker instead of silently nothing.
  support::JsonWriter W(support::JsonWriter::Layout::Indented);
  W.beginObject()
      .boolean("available", false)
      .string("reason", "built without google-benchmark")
      .end();
  if (Opts.Json && emitReport(Opts, "kernels", "BENCH_kernels.json", W.str()))
    return 0;
  return 2;
}

#endif // PBT_HAVE_GOOGLE_BENCHMARK
