//===- bench/Loadgen.cpp - Multi-client daemon load harness ----------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `pbt-bench loadgen`: the measurement client for the pbt-serve
/// daemon. It drives N concurrent connections, each replaying a slice
/// of a tenant's deterministic WorkloadStream schedule through the
/// framed Unix-socket protocol, in two phases:
///
///   * sustained -- --connections clients for --seconds, measuring
///     end-to-end request latency (p50/p99/p999) and decisions/sec at
///     the configured concurrency;
///   * saturation -- the connection count is multiplied past the
///     server's queue bound and each request carries one input, so the
///     admission controller must shed; the phase records tail latency
///     and the shed rate at the overload boundary.
///
/// Every landmark the daemon answered during the sustained phase is
/// then replayed in-process through AdaptiveService::decideAnswers on the
/// same model file; any divergence is a nonzero exit. That is the
/// serving-stack parity wall extended across the process boundary: the
/// daemon may interleave sessions and tenants however load dictates,
/// but it must never change an answer.
///
/// With --spawn the harness forks its own pbt-serve (so CI needs no
/// background-process choreography), shuts it down over the protocol
/// when done, and reports the CPU the daemon burned (server_cpu_s, and
/// per decision answered in the two phases).
///
//===----------------------------------------------------------------------===//

#include "Reports.h"

#include "daemon/Client.h"
#include "daemon/ModelRegistry.h"
#include "daemon/Protocol.h"
#include "runtime/AdaptiveService.h"
#include "streams/WorkloadStream.h"
#include "support/Json.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

namespace pbt {
namespace benchharness {

namespace {

using Clock = std::chrono::steady_clock;

/// Inputs per sustained-phase Predict.
constexpr unsigned kRequestInputs = 256;

/// One tenant as the harness sees it: the daemon-side name, the model
/// file, and the in-process replica used for stream generation and the
/// parity replay.
struct LoadTenant {
  std::string Name;
  std::string ModelPath;
  std::string Benchmark;
  registry::BoundModel Replica;
  std::unique_ptr<streams::WorkloadStream> Stream;
};

/// What one connection thread, or merged, one phase measured.
struct ConnResult {
  std::vector<double> LatenciesUs;
  uint64_t Requests = 0;
  uint64_t Decisions = 0;
  uint64_t Shed = 0;
  /// input id -> daemon landmark, first answer per input (parity).
  std::unordered_map<uint64_t, uint32_t> Answers;
  bool Failed = false;
  std::string Error;
};

/// The phase total of \p Conns (without the parity answers).
ConnResult mergeConns(const std::vector<ConnResult> &Conns) {
  ConnResult P;
  for (const ConnResult &C : Conns) {
    P.Requests += C.Requests;
    P.Decisions += C.Decisions;
    P.Shed += C.Shed;
    P.LatenciesUs.insert(P.LatenciesUs.end(), C.LatenciesUs.begin(),
                         C.LatenciesUs.end());
    if (C.Failed && !P.Failed) {
      P.Failed = true;
      P.Error = C.Error;
    }
  }
  return P;
}

/// Writes phase \p P, \p Seconds long, as the object member \p Key of
/// \p W.
void writePhase(support::JsonWriter &W, const char *Key, const ConnResult &P,
                double Seconds, unsigned Connections) {
  double Total = static_cast<double>(P.Requests + P.Shed);
  W.beginObject(Key)
      .number("connections", Connections)
      .number("seconds", Seconds)
      .number("requests", P.Requests)
      .number("decisions", P.Decisions)
      .number("decisions_per_sec",
              Seconds > 0 ? static_cast<double>(P.Decisions) / Seconds : 0.0)
      .number("shed", P.Shed)
      .number("shed_rate", Total > 0 ? static_cast<double>(P.Shed) / Total
                                     : std::nan(""))
      .number("p50_us", quantileOrNaN(P.LatenciesUs, 0.5))
      .number("p99_us", quantileOrNaN(P.LatenciesUs, 0.99))
      .number("p999_us", quantileOrNaN(P.LatenciesUs, 0.999))
      .number("max_us", quantileOrNaN(P.LatenciesUs, 1.0))
      .end();
}

/// One connection's sustained-phase loop: attach, then replay this
/// connection's stride of the tenant's stream in kRequestInputs chunks
/// until the deadline.
void sustainedConn(const std::string &Socket, const LoadTenant &T,
                   unsigned Stride, unsigned Offset, unsigned BatchSize,
                   Clock::time_point Deadline, ConnResult &R) {
  daemon::DaemonClient C;
  std::string Err;
  daemon::DaemonClient::AttachInfo Info;
  if (!C.connect(Socket, Err) || !C.attach(T.Name, Info, Err)) {
    R.Failed = true;
    R.Error = Err;
    return;
  }
  const std::vector<size_t> &Seq = T.Stream->sequence();
  bool FirstPass = true;
  std::vector<uint64_t> Batch;
  std::vector<daemon::PredictedChoice> Choices;
  while (Clock::now() < Deadline) {
    for (size_t Tick = Offset; Tick < Seq.size(); Tick += Stride) {
      Batch.clear();
      for (size_t K = Tick; K < Seq.size() && Batch.size() < BatchSize;
           K += Stride) {
        Batch.push_back(Seq[K]);
        Tick = K;
      }
      if (Batch.empty())
        break;
      auto T0 = Clock::now();
      daemon::DaemonClient::PredictOutcome O = C.predict(Batch, Choices, Err);
      double Us =
          std::chrono::duration<double, std::micro>(Clock::now() - T0)
              .count();
      if (O == daemon::DaemonClient::PredictOutcome::Error) {
        R.Failed = true;
        R.Error = Err;
        return;
      }
      R.LatenciesUs.push_back(Us);
      if (O == daemon::DaemonClient::PredictOutcome::Shed) {
        ++R.Shed;
      } else {
        ++R.Requests;
        R.Decisions += Choices.size();
        if (FirstPass)
          for (size_t K = 0; K < Batch.size(); ++K)
            R.Answers.emplace(Batch[K], Choices[K].Landmark);
      }
      if (Clock::now() >= Deadline)
        return;
    }
    FirstPass = false;
  }
}

/// One connection's saturation-phase loop: single-input requests fired
/// back to back, so concurrency (not batching) stresses the admission
/// controller.
void saturationConn(const std::string &Socket, const LoadTenant &T,
                    unsigned Offset, Clock::time_point Deadline,
                    ConnResult &R) {
  daemon::DaemonClient C;
  std::string Err;
  daemon::DaemonClient::AttachInfo Info;
  if (!C.connect(Socket, Err) || !C.attach(T.Name, Info, Err)) {
    R.Failed = true;
    R.Error = Err;
    return;
  }
  const std::vector<size_t> &Seq = T.Stream->sequence();
  std::vector<daemon::PredictedChoice> Choices;
  size_t Tick = Offset % Seq.size();
  while (Clock::now() < Deadline) {
    std::vector<uint64_t> One{static_cast<uint64_t>(Seq[Tick])};
    Tick = (Tick + 1) % Seq.size();
    auto T0 = Clock::now();
    daemon::DaemonClient::PredictOutcome O = C.predict(One, Choices, Err);
    double Us = std::chrono::duration<double, std::micro>(Clock::now() - T0)
                    .count();
    if (O == daemon::DaemonClient::PredictOutcome::Error) {
      R.Failed = true;
      R.Error = Err;
      return;
    }
    R.LatenciesUs.push_back(Us);
    if (O == daemon::DaemonClient::PredictOutcome::Shed)
      ++R.Shed;
    else {
      ++R.Requests;
      R.Decisions += Choices.size();
    }
  }
}

} // namespace

int runLoadgen(const DriverOptions &Opts, const char *Argv0) {
  if (Opts.Model.empty()) {
    std::fprintf(stderr,
                 "pbt-bench loadgen: --model=[NAME=]FILE[,...] is required "
                 "(the files the daemon serves; also the parity replica)\n");
    return 1;
  }
  if (Opts.Socket.empty() && !Opts.Spawn) {
    std::fprintf(stderr, "pbt-bench loadgen: need --socket=PATH of a running "
                         "pbt-serve, or --spawn\n");
    return 1;
  }
  streams::Schedule Kind;
  if (!streams::parseSchedule(Opts.StreamSchedule, Kind)) {
    std::fprintf(stderr,
                 "pbt-bench loadgen: bad --schedule '%s' "
                 "(abrupt|ramp|periodic)\n",
                 Opts.StreamSchedule.c_str());
    return 1;
  }

  // Build the in-process tenant replicas: model -> provenance program ->
  // AdaptiveService (parity) + WorkloadStream (the request schedule).
  std::vector<LoadTenant> Tenants;
  for (const auto &[Name, Path] : daemon::splitModelSpec(Opts.Model)) {
    LoadTenant T;
    T.ModelPath = Path;
    T.Replica = loadBoundModel(Path);
    if (!T.Replica.Status) {
      std::fprintf(stderr, "pbt-bench loadgen: cannot load '%s': %s\n",
                   Path.c_str(), T.Replica.Status.Error.c_str());
      return 1;
    }
    T.Benchmark = T.Replica.Service->currentEpoch()->Model.Meta.Benchmark;
    T.Name = Name.empty() ? T.Benchmark : Name;

    streams::WorkloadStreamOptions SO;
    SO.Kind = Kind;
    SO.Requests = std::max(1u, Opts.StreamRequests);
    // Distinct per-tenant seeds so tenants do not replay each other.
    SO.Seed = Opts.StreamSeed + Tenants.size() * 0x9E37u;
    SO.KeyProperty = Opts.StreamKey;
    SO.Period = Opts.StreamPeriod;
    try {
      T.Stream =
          std::make_unique<streams::WorkloadStream>(*T.Replica.Program, SO);
    } catch (const std::invalid_argument &E) {
      std::fprintf(stderr, "pbt-bench loadgen: %s: %s\n", T.Name.c_str(),
                   E.what());
      return 1;
    }
    Tenants.push_back(std::move(T));
  }

  // Spawn a private daemon when asked.
  std::string Socket = Opts.Socket;
  pid_t Server = -1;
  if (Opts.Spawn) {
    if (Socket.empty())
      Socket = "/tmp/pbt-lg-" + std::to_string(::getpid()) + ".sock";
    std::string Exe = serverExe(Opts, Argv0);
    std::vector<std::string> Args = {
        Exe,
        "--socket=" + Socket,
        "--model=" + Opts.Model,
        "--workers=" + std::to_string(Opts.Workers),
        "--queue=" + std::to_string(Opts.QueueCapacity)};
    if (Opts.Adapt)
      Args.push_back("--adapt");
    Server = ::fork();
    if (Server < 0) {
      std::fprintf(stderr, "pbt-bench loadgen: fork(): %s\n",
                   std::strerror(errno));
      return 1;
    }
    if (Server == 0) {
      std::vector<char *> Argv;
      for (std::string &A : Args)
        Argv.push_back(A.data());
      Argv.push_back(nullptr);
      ::execv(Argv[0], Argv.data());
      std::fprintf(stderr, "pbt-bench loadgen: execv('%s'): %s\n",
                   Exe.c_str(), std::strerror(errno));
      ::_exit(127);
    }
  }

  auto FailShutdown = [&](int Code) {
    if (Server > 0) {
      daemon::DaemonClient C;
      std::string E;
      if (C.connect(Socket, E))
        C.shutdownServer(E);
      int Status = 0;
      ::waitpid(Server, &Status, 0);
    }
    return Code;
  };

  // Control connection: wait for the server, check the tenant table.
  daemon::DaemonClient Control;
  std::string Err;
  if (!Control.connectWithRetry(Socket, 10.0, Err)) {
    std::fprintf(stderr, "pbt-bench loadgen: cannot reach pbt-serve at %s: "
                         "%s\n",
                 Socket.c_str(), Err.c_str());
    return FailShutdown(1);
  }
  std::vector<std::string> ServerTenants;
  if (!Control.listTenants(ServerTenants, Err)) {
    std::fprintf(stderr, "pbt-bench loadgen: ListTenants: %s\n", Err.c_str());
    return FailShutdown(1);
  }
  for (const LoadTenant &T : Tenants) {
    if (std::find(ServerTenants.begin(), ServerTenants.end(), T.Name) ==
        ServerTenants.end()) {
      std::fprintf(stderr,
                   "pbt-bench loadgen: daemon has no tenant '%s' (it serves:",
                   T.Name.c_str());
      for (const std::string &N : ServerTenants)
        std::fprintf(stderr, " %s", N.c_str());
      std::fprintf(stderr, ")\n");
      return FailShutdown(1);
    }
  }

  double Seconds = std::max(0.05, Opts.Seconds);
  unsigned Conns = std::max(1u, Opts.Connections);
  unsigned BatchSize = std::min(kRequestInputs, daemon::kMaxBatchInputs);

  // Sustained phase.
  std::vector<ConnResult> SusConns(Conns);
  {
    // Connections round-robin over tenants; a tenant's connections
    // stride-partition its stream so together they replay the whole
    // schedule.
    std::vector<unsigned> PerTenant(Tenants.size(), 0);
    std::vector<std::thread> Threads;
    auto Deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(Seconds));
    for (unsigned C = 0; C < Conns; ++C) {
      unsigned TIdx = C % Tenants.size();
      unsigned Offset = PerTenant[TIdx]++;
      unsigned Stride = Conns / Tenants.size() +
                        (TIdx < Conns % Tenants.size() ? 1 : 0);
      Threads.emplace_back([&, C, TIdx, Offset, Stride] {
        sustainedConn(Socket, Tenants[TIdx], std::max(1u, Stride), Offset,
                      BatchSize, Deadline, SusConns[C]);
      });
    }
    for (std::thread &T : Threads)
      T.join();
  }
  ConnResult Sustained = mergeConns(SusConns);
  if (Sustained.Failed) {
    std::fprintf(stderr, "pbt-bench loadgen: sustained phase failed: %s\n",
                 Sustained.Error.c_str());
    return FailShutdown(1);
  }

  // Saturation phase: oversubscribe past the queue bound with
  // single-input requests so admission control must engage.
  unsigned SatConns = std::max(
      Conns * 4, static_cast<unsigned>(Opts.QueueCapacity) + Conns + 4);
  double SatSeconds = std::max(0.05, Seconds / 2);
  std::vector<ConnResult> SatResults(SatConns);
  {
    std::vector<std::thread> Threads;
    auto Deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(
                                           SatSeconds));
    for (unsigned C = 0; C < SatConns; ++C) {
      unsigned TIdx = C % Tenants.size();
      Threads.emplace_back([&, C, TIdx] {
        saturationConn(Socket, Tenants[TIdx], C, Deadline, SatResults[C]);
      });
    }
    for (std::thread &T : Threads)
      T.join();
  }
  ConnResult Saturation = mergeConns(SatResults);
  if (Saturation.Failed) {
    std::fprintf(stderr, "pbt-bench loadgen: saturation phase failed: %s\n",
                 Saturation.Error.c_str());
    return FailShutdown(1);
  }

  // Parity wall: every sustained-phase answer must match an in-process
  // decideAnswers replay of the same model file. Skipped under --adapt
  // (the daemon may legitimately hot-swap to a retrained epoch).
  bool ParityChecked = !Opts.Adapt;
  bool ParityOk = true;
  uint64_t ParityInputs = 0;
  if (ParityChecked) {
    for (size_t TIdx = 0; TIdx < Tenants.size(); ++TIdx) {
      std::unordered_map<uint64_t, uint32_t> Answers;
      for (unsigned C = 0; C < Conns; ++C)
        if (C % Tenants.size() == TIdx)
          Answers.insert(SusConns[C].Answers.begin(),
                         SusConns[C].Answers.end());
      std::vector<size_t> Inputs;
      Inputs.reserve(Answers.size());
      for (const auto &[In, L] : Answers)
        Inputs.push_back(static_cast<size_t>(In));
      std::sort(Inputs.begin(), Inputs.end());
      std::vector<daemon::PredictedChoice> Local(Inputs.size());
      Tenants[TIdx].Replica.Service->decideAnswers(Inputs.data(),
                                                   Inputs.size(), Local.data());
      for (size_t K = 0; K < Inputs.size(); ++K) {
        ++ParityInputs;
        uint32_t DaemonL = Answers[static_cast<uint64_t>(Inputs[K])];
        if (Local[K].Landmark != DaemonL) {
          if (ParityOk)
            std::fprintf(stderr,
                         "pbt-bench loadgen: PARITY MISMATCH tenant %s "
                         "input %zu: daemon landmark %u, in-process %u\n",
                         Tenants[TIdx].Name.c_str(), Inputs[K], DaemonL,
                         Local[K].Landmark);
          ParityOk = false;
        }
      }
    }
  }

  // Server-side stats, then shut a spawned daemon down cleanly.
  std::string ServerStatsJson = "null";
  if (!Control.stats(ServerStatsJson, Err))
    ServerStatsJson = "null";
  int ServerExit = -1;
  // The spawned daemon's user + system CPU, known once it has been shut
  // down over the protocol and reaped after a normal exit; NaN (written
  // as null) otherwise.
  double ServerCpuS = std::nan("");
  if (Server > 0) {
    if (Control.shutdownServer(Err)) {
      int Status = 0;
      struct rusage Usage = {};
      if (::wait4(Server, &Status, 0, &Usage) == Server &&
          WIFEXITED(Status)) {
        ServerExit = WEXITSTATUS(Status);
        auto Secs = [](const timeval &T) {
          return static_cast<double>(T.tv_sec) + T.tv_usec * 1e-6;
        };
        ServerCpuS = Secs(Usage.ru_utime) + Secs(Usage.ru_stime);
      }
    } else {
      std::fprintf(stderr, "pbt-bench loadgen: shutdown: %s\n", Err.c_str());
      ::kill(Server, SIGTERM);
      int Status = 0;
      ::waitpid(Server, &Status, 0);
    }
  }
  Control.close();

  support::JsonWriter W(support::JsonWriter::Layout::Indented);
  W.beginObject()
      .string("subcommand", "loadgen")
      .string("socket", Socket)
      .boolean("spawned", Opts.Spawn)
      .string("schedule", Opts.StreamSchedule)
      .number("requests_per_tenant", std::max(1u, Opts.StreamRequests))
      .number("batch", BatchSize)
      .number("queue_capacity", Opts.QueueCapacity)
      .number("workers", Opts.Workers)
      .boolean("adapt", Opts.Adapt)
      .beginArray("tenants");
  for (const LoadTenant &T : Tenants)
    W.beginObject()
        .string("name", T.Name)
        .string("benchmark", T.Benchmark)
        .string("model", T.ModelPath)
        .number("inputs", T.Replica.Program->numInputs())
        .end();
  W.end();
  writePhase(W, "sustained", Sustained, Seconds, Conns);
  writePhase(W, "saturation", Saturation, SatSeconds, SatConns);
  W.boolean("parity_checked", ParityChecked)
      .number("parity_inputs", ParityInputs)
      .boolean("choices_match_inprocess", ParityOk)
      .number("server_exit", ServerExit)
      .number("server_cpu_s", ServerCpuS)
      .number("server_cpu_us_per_decision",
              ServerCpuS * 1e6 /
                  static_cast<double>(Sustained.Decisions +
                                      Saturation.Decisions))
      .raw("server_stats", ServerStatsJson)
      .end();
  if (!emitReport(Opts, "loadgen", "BENCH_serve_daemon.json", W.str()))
    return 1;

  if (!ParityOk) {
    std::fprintf(stderr, "pbt-bench loadgen: daemon decisions diverged from "
                         "the in-process replay\n");
    return 1;
  }
  return 0;
}

} // namespace benchharness
} // namespace pbt
