//===- perfbench/src/Main.cpp - pbt-perfbench entry point ------------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// pbt-perfbench runs one workload of the repository benchmark and prints
/// its report as one JSON line on stdout:
///
///   pbt-perfbench --workload=serve-warm|adapt|train --seed=N --seconds=S
///                 --trace=0|1 [--golden=DIR] [--work-dir=DIR]
///                 [--trace-out=FILE]
///
/// perfbench/run.py builds it and turns the report into the benchmark's
/// result line. Exit status: 0 when every output passed its oracle, 1 on
/// a wrong answer or failed run, 2 on bad arguments.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "core/Pipeline.h"
#include "daemon/Protocol.h"
#include "registry/BenchmarkRegistry.h"
#include "runtime/AdaptiveService.h"
#include "serialize/ModelIO.h"
#include "support/ParseNumber.h"
#include "support/SimdDispatch.h"
#include "support/Statistics.h"

#include <cstdio>
#include <cstring>
#include <map>
#include <exception>
#include <optional>
#include <string>
#include <sys/stat.h>

using namespace pbt;
using namespace pbt::perfbench;

const std::vector<std::string> &perfbench::goldenFamilies() {
  static const std::vector<std::string> Families = {
      "sort1", "binpacking", "clustering1", "clustering2",
      "svd",   "poisson2d",  "helmholtz3d"};
  return Families;
}

double perfbench::probeLayers(const RunOptions &Opts, unsigned Repeats,
                              Tracer &T, Report &R) {
  // Inputs per family the probe decides; bounds its time on families
  // with thousands of inputs.
  constexpr size_t kProbeInputs = 256;
  std::vector<double> LoadMs, SaveMs, ProgramMs, EvalMs, CompileMs, FeatMs;
  std::vector<double> ColdNs, WarmNs, CodecNs, Speedups;
  uint64_t ModelBytes = 0, FeatCalls = 0;
  for (unsigned Rep = 0; Rep < Repeats; ++Rep) {
    ScopedSpan Round(T, "bench.layer_probe");
    double Load = 0, Save = 0, Program = 0, Eval = 0, Compile = 0, Feat = 0;
    uint64_t Bytes = 0, Calls = 0;
    for (const std::string &F : goldenFamilies()) {
      uint64_t T0 = nowNs();
      serialize::TrainedModel Model;
      serialize::LoadStatus St;
      {
        ScopedSpan S(T, "serialize.load_model_file", Round.id());
        St = serialize::loadModelFile(Opts.GoldenDir + "/" + F + ".pbt",
                                      Model);
      }
      uint64_t T1 = nowNs();
      if (!St) {
        R.wrong("cannot load golden model " + F + ": " + St.Error);
        return 0;
      }
      {
        ScopedSpan S(T, "serialize.save", Round.id());
        Bytes += serialize::serializeModel(Model).size();
      }
      uint64_t T2 = nowNs();
      registry::ProgramPtr Prog;
      {
        ScopedSpan S(T, "registry.make_program", Round.id());
        Prog = registry::BenchmarkRegistry::instance()
                   .get(Model.Meta.Benchmark)
                   .makeProgram(Model.Meta.Scale, Model.Meta.ProgramSeed);
      }
      uint64_t T3 = nowNs();
      double Speedup;
      {
        ScopedSpan S(T, "core.evaluate_system", Round.id());
        Speedup = core::evaluateSystem(*Prog, Model.System).TwoLevelWithFeat;
      }
      uint64_t T4 = nowNs();
      CountingProgram Counted(*Prog);
      std::optional<runtime::AdaptiveService> Service;
      {
        ScopedSpan S(T, "runtime.compile", Round.id());
        Service.emplace(Counted, std::move(Model));
      }
      uint64_t T5 = nowNs();
      if (!Service->ready()) {
        R.wrong("golden model " + F + " does not bind to its program");
        return 0;
      }

      size_t N = std::min(Prog->numInputs(), kProbeInputs);
      std::vector<uint64_t> Inputs;
      std::vector<daemon::PredictedChoice> Choices;
      {
        ScopedSpan S(T, "runtime.cold_decides", Round.id());
        for (size_t I = 0; I < N; ++I) {
          uint64_t A = nowNs();
          runtime::AdaptiveService::Decision D = Service->decide(I);
          ColdNs.push_back(static_cast<double>(nowNs() - A));
          Inputs.push_back(I);
          Choices.push_back({D.Landmark, D.Epoch});
        }
        T.aggregate("benchmarks.extract_feature", S.id(),
                    Counted.FeatureCalls.load(), Counted.FeatureNs.load());
      }
      {
        ScopedSpan S(T, "runtime.decides", Round.id());
        for (size_t I = 0; I < N; ++I) {
          uint64_t A = nowNs();
          runtime::AdaptiveService::Decision D = Service->decide(I);
          WarmNs.push_back(static_cast<double>(nowNs() - A));
          if (D.Landmark != Choices[I].Landmark) {
            R.wrong("warm decide of " + F + " differs from its cold decide");
            return 0;
          }
        }
      }
      {
        ScopedSpan S(T, "daemon.codec", Round.id());
        uint64_t A = nowNs();
        daemon::Message M1, M2;
        bool Ok = daemon::decodeMessage(daemon::makePredict(Inputs), M1) &&
                  daemon::decodeMessage(daemon::makePredictions(Choices), M2);
        if (N > 0)
          CodecNs.push_back(static_cast<double>(nowNs() - A) /
                            static_cast<double>(N));
        if (!Ok || M1.Inputs != Inputs || M2.Choices.size() != N) {
          R.wrong("codec round trip changed the probe's request for " + F);
          return 0;
        }
      }
      Load += secondsBetween(T0, T1) * 1e3;
      Save += secondsBetween(T1, T2) * 1e3;
      Program += secondsBetween(T2, T3) * 1e3;
      Eval += secondsBetween(T3, T4) * 1e3;
      Compile += secondsBetween(T4, T5) * 1e3;
      Feat += static_cast<double>(Counted.FeatureNs.load()) * 1e-6;
      Calls += Counted.FeatureCalls.load();
      if (Rep == 0)
        Speedups.push_back(Speedup);
    }
    LoadMs.push_back(Load);
    SaveMs.push_back(Save);
    ProgramMs.push_back(Program);
    EvalMs.push_back(Eval);
    CompileMs.push_back(Compile);
    FeatMs.push_back(Feat);
    ModelBytes = Bytes;
    FeatCalls = Calls;
  }
  if (Opts.Trace) {
    R.add("registry.make_program_ms", median(ProgramMs), "ms", Repeats);
    R.add("serialize.load_ms", median(LoadMs), "ms", Repeats);
    R.add("serialize.save_ms", median(SaveMs), "ms", Repeats);
    R.add("serialize.model_bytes", static_cast<double>(ModelBytes), "bytes");
    R.add("core.evaluate_ms", median(EvalMs), "ms", Repeats);
    R.add("runtime.compile_ms", median(CompileMs), "ms", Repeats);
    R.add("runtime.cold_decide_ns", median(ColdNs), "ns", ColdNs.size());
    R.add("runtime.decide_ns", median(WarmNs), "ns", WarmNs.size());
    R.add("benchmarks.feature_calls", static_cast<double>(FeatCalls),
          "count");
    R.add("benchmarks.feature_ms", median(FeatMs), "ms", Repeats);
    R.add("daemon.codec_ns", median(CodecNs), "ns", CodecNs.size());
  }
  return support::geomean(Speedups);
}

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: pbt-perfbench --workload=serve-warm|adapt|train "
               "--seed=N --seconds=S --trace=0|1 [--golden=DIR] "
               "[--work-dir=DIR] [--trace-out=FILE]\n");
  return 2;
}

std::string hostJson() {
  return std::string("{\"simd_tier\": ") +
         jsonString(support::simdTierName(support::activeSimdTier())) +
         ", \"build_type\": " + jsonString(PBT_BUILD_TYPE) + "}";
}

} // namespace

int main(int argc, char **argv) {
  RunOptions Opts;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Value = [&](const char *Prefix) -> const char * {
      size_t N = std::strlen(Prefix);
      return Arg.compare(0, N, Prefix) == 0 ? Arg.c_str() + N : nullptr;
    };
    if (const char *V = Value("--workload=")) {
      Opts.Workload = V;
    } else if (const char *V = Value("--seed=")) {
      if (!support::parseUint64(V, Opts.Seed))
        return usage();
    } else if (const char *V = Value("--seconds=")) {
      if (!support::parseDouble(V, Opts.Seconds) || Opts.Seconds <= 0 ||
          Opts.Seconds > 600)
        return usage();
    } else if (const char *V = Value("--trace=")) {
      if (std::strcmp(V, "0") != 0 && std::strcmp(V, "1") != 0)
        return usage();
      Opts.Trace = V[0] == '1';
    } else if (const char *V = Value("--golden=")) {
      Opts.GoldenDir = V;
    } else if (const char *V = Value("--work-dir=")) {
      Opts.WorkDir = V;
    } else if (const char *V = Value("--trace-out=")) {
      Opts.TraceOut = V;
    } else {
      std::fprintf(stderr, "pbt-perfbench: unknown argument '%s'\n",
                   Arg.c_str());
      return usage();
    }
  }
  if (Opts.Workload != "serve-warm" && Opts.Workload != "adapt" &&
      Opts.Workload != "train")
    return usage();
  ::mkdir(Opts.WorkDir.c_str(), 0755);

  Report R;
  R.Workload = Opts.Workload;
  R.Seed = Opts.Seed;
  R.Traced = Opts.Trace;
  Tracer T(Opts.Trace);
  int Code = 1;
  try {
    Code = Opts.Workload == "train" ? runTrain(Opts, T, R)
                                    : runServe(Opts, T, R);
  } catch (const std::exception &E) {
    R.wrong(std::string("exception: ") + E.what());
    Code = 1;
  }
  if (!R.Correct)
    Code = 1;

  R.detail("host", hostJson());
  if (Opts.Trace) {
    // The layer probe has spans in every layer, so each of these is
    // measured on every workload.
    std::map<std::string, double> ByLayer = T.selfMsByLayer();
    for (const char *Layer : {"daemon", "runtime", "core", "benchmarks",
                              "serialize", "registry"})
      R.add(std::string("self_ms.") + Layer, ByLayer[Layer], "ms");
    R.detail("spans", std::to_string(T.size()));
    if (!Opts.TraceOut.empty()) {
      if (T.write(Opts.TraceOut))
        R.detail("span_file", jsonString(Opts.TraceOut));
      else
        std::fprintf(stderr, "pbt-perfbench: cannot write spans to '%s'\n",
                     Opts.TraceOut.c_str());
    }
  }
  for (const std::string &E : R.Errors)
    std::fprintf(stderr, "pbt-perfbench: %s\n", E.c_str());
  std::printf("%s\n", R.json().c_str());
  std::fflush(stdout);
  return Code;
}
