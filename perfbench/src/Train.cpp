//===- perfbench/src/Train.cpp - the train workload ------------------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Offline training: retrain the seven golden families from the
/// provenance recorded in their model files with core::trainSystem, one
/// thread, then serialize. Each pass must reproduce the committed bytes
/// of tests/golden/<family>.pbt exactly. Benchmark program runs and
/// feature extraction (benchmarks, pde, linalg) and core/ml learning do
/// the work; the daemon does none.
///
/// Set-up is rebuilding the seven programs from provenance, done afresh
/// before every pass so no pass trains on a program an earlier pass used.
/// work_s is one training and serialization of the seven families, the
/// sum of each family's fastest pass; latency_p50_us and latency_p99_us
/// are taken over those seven per-family times. speedup_over_static is the
/// paper's Table 1 figure: evaluateSystem's two-level-with-features
/// speedup over the static oracle, geometric mean over the families,
/// measured outside work_s.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "registry/BenchmarkRegistry.h"
#include "serialize/ModelIO.h"
#include "support/Statistics.h"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

namespace pbt {
namespace perfbench {

namespace {

/// Training passes per --seconds (one pass takes 1.8 to 2.8 s on a 4-core
/// x86 VM).
constexpr double kPassesPerSecond = 0.7;
/// The traced run's closure check, reported with the run: the per-family
/// training spans should cover the traced pass to within this share (the
/// rest is serialization and loop overhead).
constexpr double kClosureTolerance = 0.02;

struct Family {
  std::string Name;
  const registry::BenchmarkFactory *Factory = nullptr;
  double Scale = 0;
  uint64_t ProgramSeed = 0;
  std::string GoldenBytes;
};

/// What one training pass produced.
struct Pass {
  double SetupSeconds = 0;
  double TrainSeconds = 0;
  std::vector<registry::ProgramPtr> Programs;
  /// Traced passes: each program behind a counting wrapper.
  std::vector<std::unique_ptr<CountingProgram>> Wraps;
  std::vector<serialize::TrainedModel> Models;
  std::vector<double> FamilySeconds; ///< trainSystem alone, per family
  std::vector<double> FamilyTotal;   ///< trainSystem + serialization
  double SaveSeconds = 0;
};

Pass trainPass(const std::vector<Family> &Families, bool Traced, Tracer &T,
               Report &R) {
  Pass P;
  uint32_t Root = T.begin("bench.train_pass");
  uint64_t T0 = nowNs();
  for (const Family &F : Families) {
    ScopedSpan S(T, "registry.make_program", Root);
    P.Programs.push_back(F.Factory->makeProgram(F.Scale, F.ProgramSeed));
  }
  uint64_t T1 = nowNs();
  for (size_t I = 0; I < Families.size(); ++I) {
    const Family &F = Families[I];
    const runtime::TunableProgram *Prog = P.Programs[I].get();
    if (Traced) {
      P.Wraps.push_back(std::make_unique<CountingProgram>(*Prog));
      Prog = P.Wraps.back().get();
    }
    uint64_t A = nowNs();
    uint32_t Span = T.begin("core.train_system", Root, I);
    core::TrainedSystem System =
        core::trainSystem(*Prog, F.Factory->defaultOptions(F.Scale));
    T.end(Span);
    uint64_t B = nowNs();
    if (Traced) {
      const CountingProgram &W = *P.Wraps.back();
      T.aggregate("benchmarks.run", Span, W.RunCalls.load(), W.RunNs.load());
      T.aggregate("benchmarks.extract_feature", Span, W.FeatureCalls.load(),
                  W.FeatureNs.load());
    }
    std::string Bytes;
    {
      ScopedSpan S(T, "serialize.save", Root, I);
      P.Models.push_back(serialize::makeModel(F.Name, F.Scale, F.ProgramSeed,
                                              *Prog, std::move(System)));
      Bytes = serialize::serializeModel(P.Models.back());
    }
    uint64_t C = nowNs();
    P.FamilySeconds.push_back(secondsBetween(A, B));
    P.FamilyTotal.push_back(secondsBetween(A, C));
    P.SaveSeconds += secondsBetween(B, C);
    if (Bytes != F.GoldenBytes)
      R.wrong("retrained " + F.Name + " differs from the golden model bytes");
  }
  uint64_t T2 = nowNs();
  T.end(Root);
  P.SetupSeconds = secondsBetween(T0, T1);
  P.TrainSeconds = secondsBetween(T1, T2);
  return P;
}

} // namespace

int runTrain(const RunOptions &Opts, Tracer &T, Report &R) {
  std::vector<Family> Families;
  for (const std::string &Name : goldenFamilies()) {
    Family F;
    F.Name = Name;
    std::ifstream In(Opts.GoldenDir + "/" + Name + ".pbt", std::ios::binary);
    std::ostringstream SS;
    SS << In.rdbuf();
    F.GoldenBytes = SS.str();
    serialize::TrainedModel Golden;
    serialize::LoadStatus St = serialize::loadModel(F.GoldenBytes, Golden);
    if (!St) {
      R.wrong("cannot load golden model " + Name + ": " + St.Error);
      return 1;
    }
    F.Factory =
        registry::BenchmarkRegistry::instance().lookup(Golden.Meta.Benchmark);
    if (!F.Factory) {
      R.wrong("golden model " + Name + " names an unregistered benchmark");
      return 1;
    }
    F.Scale = Golden.Meta.Scale;
    F.ProgramSeed = Golden.Meta.ProgramSeed;
    Families.push_back(std::move(F));
  }
  probeLayers(Opts, 3, T, R);
  if (!R.Correct)
    return 1;

  // Untraced passes give the end-to-end figures; the tracer stays quiet
  // during them even in the traced run.
  Tracer Quiet(false);
  unsigned Passes = static_cast<unsigned>(
      std::max(1.0, std::round(Opts.Seconds * kPassesPerSecond)));
  std::vector<double> Setups, Trains;
  // The host's speed swings by a quarter over tens of seconds, so work_s
  // sums each family's fastest pass: the best of many timings varies
  // less from run to run than any average does.
  std::vector<double> FamilySeconds(Families.size(),
                                    std::numeric_limits<double>::infinity());
  Pass Last;
  for (unsigned I = 0; I < Passes; ++I) {
    Last = trainPass(Families, false, Quiet, R);
    Setups.push_back(Last.SetupSeconds);
    Trains.push_back(Last.TrainSeconds);
    for (size_t F = 0; F < Families.size(); ++F)
      FamilySeconds[F] = std::min(FamilySeconds[F], Last.FamilyTotal[F]);
    R.Attempted += Families.size();
  }
  double TrainS = 0;
  for (double S : FamilySeconds)
    TrainS += S;

  std::string Samples = "{\"setup_s\": [";
  for (size_t I = 0; I < Setups.size(); ++I)
    Samples += (I ? ", " : "") + jsonNumber(Setups[I]);
  Samples += "], \"train_s\": [";
  for (size_t I = 0; I < Trains.size(); ++I)
    Samples += (I ? ", " : "") + jsonNumber(Trains[I]);
  R.detail("pass_samples", Samples + "]}");

  if (!Opts.Trace) {
    std::vector<double> Speedups;
    for (size_t I = 0; I < Families.size(); ++I)
      Speedups.push_back(core::evaluateSystem(*Last.Programs[I],
                                              Last.Models[I].System)
                             .TwoLevelWithFeat);
    // The operation of this workload is training and serializing one
    // family; its latencies are taken over the families' fastest passes.
    std::vector<double> FamilyUs;
    for (double S : FamilySeconds)
      FamilyUs.push_back(S * 1e6);
    R.add("setup_s", median(Setups), "s", Setups.size());
    R.add("work_s", TrainS, "s", Trains.size());
    R.add("latency_p50_us", quantile(FamilyUs, 0.50), "us", FamilyUs.size());
    R.add("latency_p99_us", quantile(FamilyUs, 0.99), "us", FamilyUs.size());
    R.add("speedup_over_static", support::geomean(Speedups), "x",
          Speedups.size());
    R.add("rss_mb", peakRssMiB(0), "MiB");
    return R.Correct ? 0 : 1;
  }

  // Traced pass: every program behind a counting wrapper, spans around
  // each family's training and serialization.
  Pass Tp = trainPass(Families, true, T, R);
  R.Attempted += Families.size();
  uint64_t RunCalls = 0, RunNs = 0, FeatCalls = 0, FeatNs = 0;
  for (const auto &W : Tp.Wraps) {
    RunCalls += W->RunCalls.load();
    RunNs += W->RunNs.load();
    FeatCalls += W->FeatureCalls.load();
    FeatNs += W->FeatureNs.load();
  }
  double RunS = static_cast<double>(RunNs) * 1e-9;
  double FeatS = static_cast<double>(FeatNs) * 1e-9;
  R.add("benchmarks.run_calls", static_cast<double>(RunCalls), "count");
  R.add("benchmarks.run_s", RunS, "s");
  R.add("benchmarks.train_feature_calls", static_cast<double>(FeatCalls),
        "count");
  R.add("benchmarks.train_feature_s", FeatS, "s");
  R.add("core.learn_s", Tp.TrainSeconds - RunS - FeatS, "s");
  double FamilySum = 0;
  for (size_t I = 0; I < Families.size(); ++I) {
    R.add("core.train_s." + Families[I].Name, Tp.FamilySeconds[I], "s");
    FamilySum += Tp.FamilySeconds[I];
  }
  R.add("serialize.train_save_ms", Tp.SaveSeconds * 1e3, "ms");

  double Share = FamilySum / Tp.TrainSeconds;
  bool Closes = Share <= 1.0 && Share >= 1.0 - kClosureTolerance;
  R.detail("closure",
           "{\"sum_core_train_s\": " + jsonNumber(FamilySum) +
               ", \"train_s\": " + jsonNumber(Tp.TrainSeconds) +
               ", \"share\": " + jsonNumber(Share) +
               ", \"tolerance\": " + jsonNumber(kClosureTolerance) +
               ", \"closes\": " + (Closes ? "true" : "false") + "}");
  R.detail("tracing_overhead",
           "{\"train_s_untraced\": " + jsonNumber(median(Trains)) +
               ", \"train_s_traced\": " + jsonNumber(Tp.TrainSeconds) +
               ", \"train_s_delta\": " +
               jsonNumber(Tp.TrainSeconds - median(Trains)) +
               "}");
  return R.Correct ? 0 : 1;
}

} // namespace perfbench
} // namespace pbt
