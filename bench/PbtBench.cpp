//===- bench/PbtBench.cpp - The unified experiment driver ------------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `pbt-bench <subcommand> [options]` reproduces the paper's experiments
/// over the benchmarks enumerated by the BenchmarkRegistry:
///
///   list                the registered workload catalog
///   table1              Table 1 speedup/satisfaction summary
///   fig6                per-input speedup distributions
///   fig7                closed-form landmark model curves
///   fig8                speedup vs landmark count sweep
///   ablation-eta        cost-matrix blend factor sweep
///   ablation-landmarks  K-means vs random landmark selection
///   ablation-twolevel   refinement disparity + classifier zoo
///   kernels             google-benchmark substrate micro-benchmarks
///
/// Shared options: --scale=S (or PBT_BENCH_SCALE), --only=a,b,c,
/// --threads=N, --sequential, --out-dir=DIR, --trials=N. Unrecognised
/// arguments of `kernels` pass through to google-benchmark.
///
//===----------------------------------------------------------------------===//

#include "Reports.h"

#include "support/ParseNumber.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

using namespace pbt;
using namespace pbt::benchharness;

static void printUsage() {
  std::fprintf(
      stderr,
      "usage: pbt-bench <subcommand> [options]\n"
      "\n"
      "subcommands:\n"
      "  list                 enumerate the registered benchmarks\n"
      "  table1               paper Table 1 (speedups over static oracle)\n"
      "  fig6                 paper Figure 6 (per-input speedup spread)\n"
      "  fig7                 paper Figure 7 (closed-form landmark model)\n"
      "  fig8                 paper Figure 8 (speedup vs landmark count)\n"
      "  ablation-eta         Section 3.2 cost-matrix blend sweep\n"
      "  ablation-landmarks   Section 3.1 landmark selection ablation\n"
      "  ablation-twolevel    Section 4.2 second-level evidence\n"
      "  kernels              substrate micro-benchmarks (google-benchmark)\n"
      "  train                train once, persist models for `predict`\n"
      "  predict              serve per-input decisions from a saved model\n"
      "  stream               nonstationary-traffic adaptation report;\n"
      "                       with --mix, a multi-tenant mixed-schedule\n"
      "                       replay through the daemon model registry\n"
      "  interact             input-vs-config interaction-strength sweep;\n"
      "                       BENCH_interact.json report\n"
      "  loadgen              drive a pbt-serve daemon over N concurrent\n"
      "                       connections; BENCH_serve_daemon.json report\n"
      "  rollout              staged fleet-rollout harness over the crash-\n"
      "                       safe model store; with --faults, kill-during-\n"
      "                       publish crash injection + recovery timing;\n"
      "                       BENCH_rollout.json report\n"
      "  fleet                supervised cross-process serving fleet: real\n"
      "                       pbt-serve replicas under restart/backoff\n"
      "                       supervision with client failover; with\n"
      "                       --chaos, the SIGKILL wall (parity + no lost\n"
      "                       answers + reconvergence); BENCH_fleet.json\n"
      "\n"
      "options:\n"
      "  --scale=S            input-count scale (default: PBT_BENCH_SCALE or 1)\n"
      "  --only=a,b,c         restrict to named benchmarks (see `list`)\n"
      "  --threads=N          worker threads (default: hardware concurrency)\n"
      "  --sequential         disable the thread pool (reference path)\n"
      "  --out-dir=DIR        directory for CSV series and models (default: .)\n"
      "  --trials=N           random subsets per fig8 landmark count\n"
      "  --out=FILE           train: model path (single benchmark only)\n"
      "  --model=FILE[,FILE]  predict/stream/loadgen: model file(s) to serve\n"
      "                       from (stream --mix and loadgen accept a\n"
      "                       comma-separated list)\n"
      "  --rows=WHICH         predict: test|train|all recorded rows\n"
      "  --repeat=N           predict: passes over the rows (memo check)\n"
      "  --csv=FILE           predict: write per-input decisions as CSV\n"
      "  --seconds=S          stream: wall-clock cap per serving loop;\n"
      "                       loadgen: sustained-phase length\n"
      "  --json               report subcommands: also write\n"
      "                       BENCH_<sub>.json into --out-dir\n"
      "  --schedule=KIND      stream: abrupt|ramp|periodic mixture\n"
      "  --requests=N         stream: request count (the deterministic\n"
      "                       bound; default 2000)\n"
      "  --stream-seed=N      stream: request-sequence seed\n"
      "  --key=P              stream: drift-key feature property index\n"
      "  --period=N           stream: periodic half-period in requests\n"
      "  --window=N           stream: drift-monitor window length\n"
      "  --reservoir=N        stream: retrain reservoir capacity\n"
      "                       (stream --scale overrides the model's\n"
      "                       recorded scale for the traffic universe)\n"
      "  --mix                stream: serve --model=a.pbt,b.pbt,... as\n"
      "                       tenants of one interleaved multi-tenant\n"
      "                       stream (BENCH_stream_mix.json report)\n"
      "  --socket=PATH        loadgen: Unix socket of a running pbt-serve\n"
      "  --spawn              loadgen: spawn a private pbt-serve for the\n"
      "                       run (needs --model; shut down afterwards)\n"
      "  --server-exe=PATH    loadgen: pbt-serve binary for --spawn\n"
      "                       (default: pbt-serve beside pbt-bench)\n"
      "  --connections=N      loadgen: concurrent client connections\n"
      "  --queue=N            loadgen --spawn: server Predicts waiting for a\n"
      "                       slot\n"
      "  --workers=N          loadgen --spawn: server Predicts served\n"
      "                       concurrently\n"
      "  --adapt              loadgen --spawn: per-tenant drift adaptation\n"
      "  --replicas=N         rollout: simulated serving replicas (default 3)\n"
      "  --cycles=N           rollout: staged rollout cycles (default 8)\n"
      "  --faults             rollout: arm one randomized failpoint per\n"
      "                       cycle (crash/corruption injection)\n"
      "  --fault-seed=N       rollout: failpoint-schedule seed\n"
      "  --chaos              fleet: SIGKILL random replicas mid-load and\n"
      "                       assert parity/no-loss/reconvergence\n"
      "  --kills=N            fleet --chaos: randomized kills (default 50)\n"
      "  --transport=KIND     fleet: unix|tcp replica transport\n"
      "\n"
      "`kernels` ignores the other options above; it takes\n"
      "google-benchmark flags (e.g. --benchmark_filter=...) instead.\n");
}

enum class ParseResult { Ok, Error, Help };

/// Loud rejection of a malformed numeric value: the checked parsers
/// (support/ParseNumber.h) refuse garbage, half-parses and out-of-range
/// values outright -- `--threads=abc` or `--seconds=1e` is an error and
/// a nonzero exit, never a silent zero.
static ParseResult badValue(const char *Flag, const char *Value,
                            const char *Expect) {
  std::fprintf(stderr, "pbt-bench: bad %s value '%s' (expected %s)\n", Flag,
               Value, Expect);
  return ParseResult::Error;
}

/// Consumes the shared --flag=value options from \p Args, leaving any
/// unrecognised ones (passed through to `kernels`) in place.
static ParseResult parseSharedOptions(std::vector<std::string> &Args,
                                      DriverOptions &Opts) {
  using support::parseDouble;
  using support::parseUint64;
  using support::parseUnsigned;
  std::vector<std::string> Rest;
  for (const std::string &Arg : Args) {
    auto Value = [&](const char *Flag) -> const char * {
      size_t Len = std::strlen(Flag);
      if (Arg.compare(0, Len, Flag) == 0 && Arg.size() > Len &&
          Arg[Len] == '=')
        return Arg.c_str() + Len + 1;
      return nullptr;
    };
    if (const char *V = Value("--scale")) {
      double S = 0.0;
      if (!parseDouble(V, S) || S <= 0.0)
        return badValue("--scale", V, "a positive number");
      Opts.Scale = std::clamp(S, 0.1, 100.0);
      Opts.ScaleExplicit = true;
    } else if (const char *V = Value("--only")) {
      Opts.Only = splitCommas(V);
      if (Opts.Only.empty()) {
        std::fprintf(stderr,
                     "pbt-bench: --only requires at least one benchmark "
                     "name (see `pbt-bench list`)\n");
        return ParseResult::Error;
      }
    } else if (const char *V = Value("--threads")) {
      if (!parseUnsigned(V, Opts.Threads))
        return badValue("--threads", V, "a non-negative integer");
    } else if (Arg == "--sequential") {
      Opts.Sequential = true;
    } else if (const char *V = Value("--out-dir")) {
      Opts.OutDir = V;
    } else if (const char *V = Value("--trials")) {
      if (!parseUnsigned(V, Opts.Fig8Trials) || Opts.Fig8Trials < 1)
        return badValue("--trials", V, "a positive integer");
    } else if (const char *V = Value("--out")) {
      Opts.Out = V;
    } else if (const char *V = Value("--model")) {
      Opts.Model = V;
    } else if (const char *V = Value("--rows")) {
      Opts.Rows = V;
    } else if (const char *V = Value("--repeat")) {
      if (!parseUnsigned(V, Opts.Repeat) || Opts.Repeat < 1)
        return badValue("--repeat", V, "a positive integer");
    } else if (const char *V = Value("--csv")) {
      Opts.Csv = V;
    } else if (const char *V = Value("--seconds")) {
      double S = 0.0;
      if (!parseDouble(V, S) || S <= 0.0)
        return badValue("--seconds", V, "a positive number");
      Opts.Seconds = S;
    } else if (Arg == "--json") {
      Opts.Json = true;
    } else if (const char *V = Value("--schedule")) {
      Opts.StreamSchedule = V;
    } else if (const char *V = Value("--requests")) {
      if (!parseUnsigned(V, Opts.StreamRequests) || Opts.StreamRequests < 1)
        return badValue("--requests", V, "a positive integer");
    } else if (const char *V = Value("--stream-seed")) {
      if (!parseUint64(V, Opts.StreamSeed))
        return badValue("--stream-seed", V, "an unsigned integer");
    } else if (const char *V = Value("--key")) {
      if (!parseUnsigned(V, Opts.StreamKey))
        return badValue("--key", V, "a non-negative integer");
    } else if (const char *V = Value("--period")) {
      if (!parseUnsigned(V, Opts.StreamPeriod))
        return badValue("--period", V, "a non-negative integer");
    } else if (const char *V = Value("--window")) {
      if (!parseUnsigned(V, Opts.StreamWindow) || Opts.StreamWindow < 8)
        return badValue("--window", V, "an integer >= 8");
    } else if (const char *V = Value("--reservoir")) {
      if (!parseUnsigned(V, Opts.StreamReservoir) || Opts.StreamReservoir < 8)
        return badValue("--reservoir", V, "an integer >= 8");
    } else if (const char *V = Value("--socket")) {
      Opts.Socket = V;
    } else if (const char *V = Value("--server-exe")) {
      Opts.ServerExe = V;
    } else if (Arg == "--spawn") {
      Opts.Spawn = true;
    } else if (const char *V = Value("--connections")) {
      if (!parseUnsigned(V, Opts.Connections) || Opts.Connections < 1)
        return badValue("--connections", V, "a positive integer");
    } else if (const char *V = Value("--queue")) {
      if (!parseUnsigned(V, Opts.QueueCapacity) || Opts.QueueCapacity < 1)
        return badValue("--queue", V, "a positive integer");
    } else if (const char *V = Value("--workers")) {
      if (!parseUnsigned(V, Opts.Workers) || Opts.Workers < 1)
        return badValue("--workers", V, "a positive integer");
    } else if (Arg == "--mix") {
      Opts.StreamMix = true;
    } else if (Arg == "--adapt") {
      Opts.Adapt = true;
    } else if (const char *V = Value("--replicas")) {
      if (!parseUnsigned(V, Opts.Replicas) || Opts.Replicas < 1)
        return badValue("--replicas", V, "a positive integer");
    } else if (const char *V = Value("--cycles")) {
      if (!parseUnsigned(V, Opts.Cycles) || Opts.Cycles < 1)
        return badValue("--cycles", V, "a positive integer");
    } else if (Arg == "--faults") {
      Opts.Faults = true;
    } else if (const char *V = Value("--fault-seed")) {
      if (!parseUint64(V, Opts.FaultSeed))
        return badValue("--fault-seed", V, "an unsigned integer");
    } else if (Arg == "--chaos") {
      Opts.Chaos = true;
    } else if (const char *V = Value("--kills")) {
      if (!parseUnsigned(V, Opts.Kills) || Opts.Kills < 1)
        return badValue("--kills", V, "a positive integer");
    } else if (const char *V = Value("--transport")) {
      Opts.FleetTransport = V;
      if (Opts.FleetTransport != "unix" && Opts.FleetTransport != "tcp")
        return badValue("--transport", V, "unix or tcp");
    } else if (Arg == "--help" || Arg == "-h") {
      printUsage();
      return ParseResult::Help;
    } else {
      Rest.push_back(Arg);
    }
  }
  Args = std::move(Rest);
  return ParseResult::Ok;
}

int main(int argc, char **argv) {
  if (argc < 2) {
    printUsage();
    return 1;
  }
  std::string Sub = argv[1];
  if (Sub == "help" || Sub == "--help" || Sub == "-h") {
    printUsage();
    return 0;
  }
  std::vector<std::string> Args(argv + 2, argv + argc);

  DriverOptions Opts;
  Opts.Scale = registry::scaleFromEnv();
  switch (parseSharedOptions(Args, Opts)) {
  case ParseResult::Ok:
    break;
  case ParseResult::Help:
    return 0;
  case ParseResult::Error:
    return 1;
  }
  if (!Opts.OutDir.empty() && Opts.OutDir != ".") {
    std::error_code EC;
    std::filesystem::create_directories(Opts.OutDir, EC);
    if (EC) {
      std::fprintf(stderr, "pbt-bench: cannot create --out-dir '%s': %s\n",
                   Opts.OutDir.c_str(), EC.message().c_str());
      return 1;
    }
  }

  // Everything except `kernels` must have consumed all arguments.
  if (Sub != "kernels" && !Args.empty()) {
    std::fprintf(stderr, "pbt-bench %s: unknown argument '%s'\n", Sub.c_str(),
                 Args.front().c_str());
    printUsage();
    return 1;
  }

  try {
    if (Sub == "list") {
      return runList(Opts);
    } else if (Sub == "fig7") {
      // Pure model evaluation; no programs, no pool.
      return runFig7(Opts);
    } else if (Sub == "predict") {
      // Online serving is deliberately single-threaded and cheap.
      return runPredict(Opts);
    } else if (Sub == "kernels") {
      // google-benchmark owns the remaining argv (argv[0] + passthrough).
      std::vector<char *> KArgv;
      KArgv.push_back(argv[0]);
      for (std::string &A : Args)
        KArgv.push_back(A.data());
      int KArgc = static_cast<int>(KArgv.size());
      return runKernels(Opts, KArgc, KArgv.data());
    }

    // The remaining subcommands train or retrain pipelines: give them
    // the pool (not constructed at all under --sequential).
    std::optional<support::ThreadPool> Pool;
    if (!Opts.Sequential) {
      Pool.emplace(Opts.Threads);
      Opts.Pool = &*Pool;
    }

    if (Sub == "loadgen")
      return runLoadgen(Opts, argv[0]);
    if (Sub == "rollout")
      return runRollout(Opts);
    if (Sub == "fleet")
      return runFleet(Opts, argv[0]);
    if (Sub == "stream")
      return Opts.StreamMix ? runStreamMix(Opts) : runStream(Opts);
    if (Sub == "interact")
      return runInteract(Opts);
    if (Sub == "train")
      return runTrain(Opts);
    if (Sub == "table1")
      return runTable1(Opts);
    if (Sub == "fig6")
      return runFig6(Opts);
    if (Sub == "fig8")
      return runFig8(Opts);
    if (Sub == "ablation-eta")
      return runAblationEta(Opts);
    if (Sub == "ablation-landmarks")
      return runAblationLandmarks(Opts);
    if (Sub == "ablation-twolevel")
      return runAblationTwoLevel(Opts);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "pbt-bench %s: %s\n", Sub.c_str(), E.what());
    return 1;
  }

  std::fprintf(stderr, "pbt-bench: unknown subcommand '%s'\n", Sub.c_str());
  printUsage();
  return 1;
}
