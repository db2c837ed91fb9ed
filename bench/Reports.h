//===- bench/Reports.h - pbt-bench subcommand implementations -------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The experiment subcommands of the unified `pbt-bench` driver. Each
/// reproduces one table/figure/in-text result of the paper over the
/// benchmarks enumerated by the BenchmarkRegistry, sharing one options
/// struct (scale, suite subset, thread pool, output directory).
///
//===----------------------------------------------------------------------===//

#ifndef PBT_BENCH_REPORTS_H
#define PBT_BENCH_REPORTS_H

#include "registry/BenchmarkRegistry.h"
#include "support/ThreadPool.h"

#include <string>
#include <vector>

namespace pbt {
namespace benchharness {

/// Options shared by every subcommand, parsed once in main.
struct DriverOptions {
  /// Input-count scale (PBT_BENCH_SCALE or --scale).
  double Scale = 1.0;
  /// Suite subset (--only=a,b,c); empty = the full registered suite.
  std::vector<std::string> Only;
  /// Training subcommands' worker threads (--threads); 0 = hardware
  /// concurrency.
  unsigned Threads = 0;
  /// --sequential: train without a pool (reference path).
  bool Sequential = false;
  /// Directory CSV series are written into (--out-dir).
  std::string OutDir = ".";
  /// Trials per landmark count in fig8 (--trials).
  unsigned Fig8Trials = 60;
  /// `train` only: explicit model output path (single benchmark); when
  /// empty each model lands in OutDir/<name>.pbt.
  std::string Out;
  /// `predict`/`stream`/`loadgen`: the model file to serve from
  /// (--model). `stream --mix` and `loadgen` accept a comma-separated
  /// list, one tenant per entry.
  std::string Model;
  /// `predict` only: which recorded rows to serve (--rows=test|train|all).
  std::string Rows = "test";
  /// `predict` only: passes over the row set (--repeat); passes beyond
  /// the first exercise the feature memo.
  unsigned Repeat = 1;
  /// `predict` only: optional CSV of per-input decisions (--csv).
  std::string Csv;
  /// `loadgen`: length of the sustained phase; `fleet` without --chaos:
  /// how long the load settles on the final fleet (--seconds).
  double Seconds = 1.0;
  /// Report subcommands: also write BENCH_<sub>.json into OutDir
  /// (--json), the machine-readable perf-trajectory record CI uploads as
  /// artifacts.
  bool Json = false;
  /// True when --scale was given explicitly (stream: overrides the
  /// model's recorded scale for the traffic universe).
  bool ScaleExplicit = false;
  /// `stream` only: mixture schedule (--schedule=abrupt|ramp|periodic).
  std::string StreamSchedule = "abrupt";
  /// `stream` only: requests in the generated stream (--requests).
  unsigned StreamRequests = 2000;
  /// `stream` only: stream seed (--stream-seed).
  uint64_t StreamSeed = 0xD81F7;
  /// `stream` only: drift-key property index (--key).
  unsigned StreamKey = 0;
  /// `stream` only: periodic half-period in requests (--period; 0 =
  /// requests/4).
  unsigned StreamPeriod = 0;
  /// `stream` only: drift-monitor window (--window).
  unsigned StreamWindow = 64;
  /// `stream` only: retrain reservoir capacity (--reservoir).
  unsigned StreamReservoir = 48;
  /// `stream` only: --mix. Serve several models as tenants of one
  /// deterministic multi-tenant MixedStream through the daemon's
  /// ModelRegistry instead of one model's single-workload stream.
  bool StreamMix = false;
  /// `loadgen` only: Unix-domain socket of a running pbt-serve (--socket).
  std::string Socket;
  /// `loadgen` only: spawn a private pbt-serve for the run (--spawn).
  bool Spawn = false;
  /// `loadgen` only: pbt-serve binary for --spawn (--server-exe; empty =
  /// the `pbt-serve` sitting beside the running pbt-bench).
  std::string ServerExe;
  /// `loadgen` only: concurrent client connections (--connections).
  unsigned Connections = 4;
  /// `loadgen --spawn` only: server Predicts waiting for a slot (--queue).
  unsigned QueueCapacity = 64;
  /// `loadgen --spawn` only: server Predicts served concurrently
  /// (--workers).
  unsigned Workers = 2;
  /// `loadgen --spawn` only: per-tenant drift adaptation (--adapt).
  bool Adapt = false;
  /// `fleet` only: pbt-serve replicas to supervise (--replicas); the
  /// harness runs at least 2.
  unsigned Replicas = 3;
  /// `rollout` only: publish/canary/promote cycles to drive (--cycles).
  unsigned Cycles = 8;
  /// `rollout` only: inject a randomized failpoint each cycle (--faults).
  bool Faults = false;
  /// `rollout` only: failpoint-schedule seed (--fault-seed).
  uint64_t FaultSeed = 0xFA117;
  /// `fleet` only: run the chaos wall (--chaos): SIGKILL random replicas
  /// mid-load and assert parity / no-lost-answers / reconvergence.
  bool Chaos = false;
  /// `fleet --chaos` only: randomized replica kills to deliver (--kills).
  unsigned Kills = 50;
  /// `fleet` only: replica transport, "unix" or "tcp" (--transport).
  std::string FleetTransport = "unix";
  /// The pool built from Threads/Sequential for the training
  /// subcommands; owned by main, null for loadgen and stream.
  support::ThreadPool *Pool = nullptr;
};

/// Quantile \p Q of \p V, or NaN -- which a report writes as null --
/// when \p V is empty: an empty phase has no percentiles, and
/// support::quantile would fabricate 0.0.
double quantileOrNaN(const std::vector<double> &V, double Q);

/// Loads the model file \p Path and binds it for decide-only serving
/// (registry::bindModel). Status names the step that failed.
registry::BoundModel loadBoundModel(const std::string &Path);

/// Splits a comma-separated option value (--only, --model), dropping
/// empty entries.
std::vector<std::string> splitCommas(const std::string &Text);

/// \p Name inside Opts.OutDir (just \p Name when OutDir is "." or empty).
std::string csvPath(const DriverOptions &Opts, const std::string &Name);

/// The pbt-serve binary loadgen and fleet start: --server-exe, or the
/// `pbt-serve` beside \p Argv0.
std::string serverExe(const DriverOptions &Opts, const char *Argv0);

/// Trains suite entry \p E and packages it with the provenance
/// registry::bindModel rebuilds: the entry's name, Opts.Scale and the
/// factory's default program seed.
serialize::TrainedModel trainModel(const DriverOptions &Opts,
                                   registry::SuiteEntry &E);

/// Prints the report \p Json to stdout and, under --json, also writes it
/// to \p Name in Opts.OutDir (the cwd when OutDir is "." or empty). A
/// failed open, short write or failed close prints "pbt-bench <Sub>:
/// cannot write '<path>'" and returns false; the subcommand then exits 1.
bool emitReport(const DriverOptions &Opts, const char *Sub,
                const std::string &Name, const std::string &Json);

/// Builds the suite the subcommand operates on (Only or the full suite).
std::vector<registry::SuiteEntry> suiteFor(const DriverOptions &Opts);

/// `list`: the registered catalog, one row per benchmark.
int runList(const DriverOptions &Opts);
/// `table1`: mean speedups over the static oracle (paper Table 1).
int runTable1(const DriverOptions &Opts);
/// `fig6`: distribution of per-input speedups (paper Figure 6).
int runFig6(const DriverOptions &Opts);
/// `fig7`: the closed-form landmark model (paper Figure 7, no programs).
int runFig7(const DriverOptions &Opts);
/// `fig8`: speedup vs landmark count over random subsets (paper Figure 8).
int runFig8(const DriverOptions &Opts);
/// `ablation-eta`: cost-matrix blend factor sweep (Section 3.2).
int runAblationEta(const DriverOptions &Opts);
/// `ablation-landmarks`: K-means vs random landmark selection (Section 3.1).
int runAblationLandmarks(const DriverOptions &Opts);
/// `ablation-twolevel`: refinement disparity + classifier zoo (Section 4.2).
int runAblationTwoLevel(const DriverOptions &Opts);
/// `kernels`: google-benchmark micro-benchmarks of the substrate kernels
/// plus the parallel-pipeline wall-clock comparison. Extra argv is passed
/// through to google-benchmark (e.g. --benchmark_filter=...).
int runKernels(const DriverOptions &Opts, int Argc, char **Argv);
/// `train`: train the suite (or --only subset) and persist each trained
/// system as a versioned model file for later `predict` processes.
int runTrain(const DriverOptions &Opts);
/// `predict`: load a persisted model in a fresh process and serve
/// per-input configuration decisions through an AdaptiveService.
int runPredict(const DriverOptions &Opts);
/// `stream`: the nonstationary-traffic harness. Loads a model, replays a
/// seeded mixture-schedule request stream (streams/WorkloadStream.h)
/// against an AdaptiveService AND a frozen no-adaptation control of the
/// same model, and reports decisions/sec, drift detections, swap history
/// and mean-cost/regret-vs-oracle per inter-swap segment as JSON (stdout;
/// also OutDir/BENCH_stream.json with --json). Both serving loops serve
/// the whole --requests stream; no wall clock cuts them short.
int runStream(const DriverOptions &Opts);
/// `stream --mix`: the multi-tenant traffic harness. Loads every --model
/// entry as a tenant of a daemon ModelRegistry (the same tenant table
/// pbt-serve serves from), builds one per-tenant WorkloadStream over
/// each tenant's own program -- schedules rotated abrupt/ramp/periodic,
/// per-tenant seeds -- interleaves them into one deterministic
/// streams::MixedStream, and replays the global sequence through each
/// tenant's registered service. Every decision is parity-checked against
/// an independent in-process AdaptiveService replay of the same model
/// file; any divergence is a nonzero exit. Per-tenant decisions/sec and
/// the interleave census go to JSON (stdout; also
/// OutDir/BENCH_stream_mix.json with --json).
int runStreamMix(const DriverOptions &Opts);
/// `interact`: the input-vs-config interaction sweep (the paper's core
/// premise, quantified per workload). For each suite entry it trains the
/// landmark evidence table, then measures how far the inputs-by-configs
/// cost matrix departs from an additive (input effect + config effect)
/// model: 1 - R^2 of the additive fit -- the interaction strength that
/// makes input-adaptive choice worth anything -- plus the oracle-vs-
/// best-static speedup it buys. JSON to stdout; also
/// OutDir/BENCH_interact.json with --json.
int runInteract(const DriverOptions &Opts);
/// `loadgen`: the multi-client daemon harness. Connects --connections
/// concurrent clients to a pbt-serve daemon (an existing one via
/// --socket, or a private child via --spawn) and drives each tenant's
/// WorkloadStream schedule through the framed Unix-socket protocol,
/// measuring sustained decisions/sec with p50/p99/p999 request latency,
/// then an oversubscribed saturation phase recording shed behavior at
/// the admission-control boundary. Every daemon decision is compared
/// with an in-process AdaptiveService::decideAnswers replay of the same
/// model and inputs; any divergence is a nonzero exit. JSON to stdout;
/// also OutDir/BENCH_serve_daemon.json with --json. \p Argv0 locates the
/// default pbt-serve binary for --spawn.
int runLoadgen(const DriverOptions &Opts, const char *Argv0);
/// `rollout`: the crash-safe rollout harness. Trains one model, seeds a
/// model store, then drives --cycles staged rollouts (publish -> canary
/// -> promote/rollback) through a RolloutController, alternating clone
/// candidates (equal shadow score: promote) with landmark-rotated
/// degraded candidates (worse: rollback). With --faults each cycle arms
/// one randomized failpoint (torn write, crash-before-rename,
/// crash-before-manifest, crash-between-manifest-and-CURRENT, checksum
/// corruption, failing or slow fsync); an injected crash kills the
/// publisher mid-protocol, and the harness restarts it from the store,
/// timing recovery. Replicas are store followers (daemon::ModelRegistry
/// store tenants, the code pbt-serve runs): one polls the store after
/// every cycle and recovery, and a fresh one loads it after every
/// recovery; each must serve CURRENT with decisions golden-identical to
/// that epoch's first serving. Reports publish/canary/promote latency,
/// recovery time, torn reads prevented (images refused by every
/// controller and follower of the run) and the zero-torn-reads-served
/// assertion as JSON (stdout; also OutDir/BENCH_rollout.json with
/// --json). Any torn read served, golden divergence, or failed recovery
/// is a nonzero exit.
int runRollout(const DriverOptions &Opts);
/// `fleet`: the supervised cross-process serving-fleet harness. Trains
/// one model, seeds a crash-safe model store, fork/execs --replicas
/// real pbt-serve processes (Unix sockets by default, --transport=tcp
/// for the cross-host path) under a fleet::Supervisor, and drives
/// --connections FailoverClient threads against the fleet while a
/// publisher promotes clone epochs through the store. With --chaos it
/// SIGKILLs --kills random replicas mid-load, waits for the supervisor
/// to restart each one and the fleet to reconverge onto CURRENT, then
/// crash-loops one replica into quarantine and proves the survivors
/// keep answering. Every successful prediction is parity-checked
/// against an in-process AdaptiveService replay; any mismatch, any
/// lost admitted request, or a reconvergence failure is a nonzero exit.
/// Reports availability, failover latency p50/p99, restart/quarantine
/// counts as JSON (stdout; also OutDir/BENCH_fleet.json with --json).
/// \p Argv0 locates the default pbt-serve binary (same rule as loadgen).
int runFleet(const DriverOptions &Opts, const char *Argv0);

} // namespace benchharness
} // namespace pbt

#endif // PBT_BENCH_REPORTS_H
