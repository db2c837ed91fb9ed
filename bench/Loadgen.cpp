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
/// then replayed in-process through AdaptiveService::decideBatch on the
/// same model file; any divergence is a nonzero exit. That is the
/// serving-stack parity wall extended across the process boundary: the
/// daemon may interleave sessions and tenants however load dictates,
/// but it must never change an answer.
///
/// With --spawn the harness forks its own pbt-serve (so CI needs no
/// background-process choreography) and shuts it down over the
/// protocol when done.
///
//===----------------------------------------------------------------------===//

#include "Reports.h"

#include "daemon/Client.h"
#include "daemon/Protocol.h"
#include "runtime/AdaptiveService.h"
#include "serialize/ModelIO.h"
#include "streams/WorkloadStream.h"
#include "support/Statistics.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

namespace pbt {
namespace benchharness {

namespace {

using Clock = std::chrono::steady_clock;

/// Inputs per sustained-phase Predict.
constexpr unsigned kRequestInputs = 256;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// One tenant as the harness sees it: the daemon-side name, the model
/// file, and the in-process replica used for stream generation and the
/// parity replay.
struct LoadTenant {
  std::string Name;
  std::string ModelPath;
  std::string Benchmark;
  registry::ProgramPtr Program;
  std::unique_ptr<runtime::AdaptiveService> Replica;
  std::unique_ptr<streams::WorkloadStream> Stream;
};

/// What one connection thread measured.
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

struct PhaseSummary {
  double Seconds = 0;
  uint64_t Requests = 0;
  uint64_t Decisions = 0;
  uint64_t Shed = 0;
  std::vector<double> LatenciesUs;
  bool Failed = false;
  std::string Error;
};

PhaseSummary mergeConns(std::vector<ConnResult> &Conns, double Seconds) {
  PhaseSummary P;
  P.Seconds = Seconds;
  for (ConnResult &C : Conns) {
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

std::string jsonQuantile(const std::vector<double> &V, double Q) {
  // An empty phase has no percentiles; support::quantile would
  // fabricate 0.0 (the zero-batch bug the serve harness had).
  if (V.empty())
    return "null";
  return jsonNumber(support::quantile(V, Q));
}

std::string jsonPhaseSummary(const PhaseSummary &P, unsigned Connections) {
  double Dps = P.Seconds > 0 ? static_cast<double>(P.Decisions) / P.Seconds
                             : 0.0;
  double Total = static_cast<double>(P.Requests + P.Shed);
  std::string J = "{";
  J += "\"connections\": " + std::to_string(Connections);
  J += ", \"seconds\": " + jsonNumber(P.Seconds);
  J += ", \"requests\": " + std::to_string(P.Requests);
  J += ", \"decisions\": " + std::to_string(P.Decisions);
  J += ", \"decisions_per_sec\": " + jsonNumber(Dps);
  J += ", \"shed\": " + std::to_string(P.Shed);
  J += ", \"shed_rate\": " +
       (Total > 0 ? jsonNumber(static_cast<double>(P.Shed) / Total) : "null");
  J += ", \"p50_us\": " + jsonQuantile(P.LatenciesUs, 0.5);
  J += ", \"p99_us\": " + jsonQuantile(P.LatenciesUs, 0.99);
  J += ", \"p999_us\": " + jsonQuantile(P.LatenciesUs, 0.999);
  J += ", \"max_us\": " +
       (P.LatenciesUs.empty() ? "null"
                              : jsonNumber(support::maxOf(P.LatenciesUs)));
  J += "}";
  return J;
}

/// Splits --model=a.pbt,fast=b.pbt into (name, path); empty name means
/// "the model's benchmark key" (mirrors pbt-serve).
std::vector<std::pair<std::string, std::string>>
splitModelSpec(const std::string &Spec) {
  std::vector<std::pair<std::string, std::string>> Out;
  size_t Start = 0;
  while (Start <= Spec.size()) {
    size_t Comma = Spec.find(',', Start);
    std::string Entry = Spec.substr(
        Start, Comma == std::string::npos ? std::string::npos : Comma - Start);
    if (!Entry.empty()) {
      size_t Eq = Entry.find('=');
      if (Eq == std::string::npos)
        Out.emplace_back("", Entry);
      else
        Out.emplace_back(Entry.substr(0, Eq), Entry.substr(Eq + 1));
    }
    if (Comma == std::string::npos)
      break;
    Start = Comma + 1;
  }
  return Out;
}

std::string dirnameOf(const std::string &Path) {
  size_t Slash = Path.rfind('/');
  return Slash == std::string::npos ? std::string(".")
                                    : Path.substr(0, Slash);
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
  for (const auto &[Name, Path] : splitModelSpec(Opts.Model)) {
    LoadTenant T;
    T.ModelPath = Path;
    serialize::TrainedModel Model;
    serialize::LoadStatus Loaded = serialize::loadModelFile(Path, Model);
    if (!Loaded) {
      std::fprintf(stderr, "pbt-bench loadgen: cannot load '%s': %s\n",
                   Path.c_str(), Loaded.Error.c_str());
      return 1;
    }
    T.Benchmark = Model.Meta.Benchmark;
    T.Name = Name.empty() ? Model.Meta.Benchmark : Name;
    const registry::BenchmarkFactory *Factory =
        registry::BenchmarkRegistry::instance().lookup(Model.Meta.Benchmark);
    if (!Factory) {
      std::fprintf(stderr,
                   "pbt-bench loadgen: model benchmark '%s' is not "
                   "registered\n",
                   Model.Meta.Benchmark.c_str());
      return 1;
    }
    T.Program =
        Factory->makeProgram(Model.Meta.Scale, Model.Meta.ProgramSeed);

    T.Replica = std::make_unique<runtime::AdaptiveService>(*T.Program,
                                                           std::move(Model));
    if (!T.Replica->ready()) {
      std::fprintf(stderr, "pbt-bench loadgen: parity replica for '%s': %s\n",
                   Path.c_str(), T.Replica->status().Error.c_str());
      return 1;
    }

    streams::WorkloadStreamOptions SO;
    SO.Kind = Kind;
    SO.Requests = std::max(1u, Opts.StreamRequests);
    // Distinct per-tenant seeds so tenants do not replay each other.
    SO.Seed = Opts.StreamSeed + Tenants.size() * 0x9E37u;
    SO.KeyProperty = Opts.StreamKey;
    SO.Period = Opts.StreamPeriod;
    try {
      T.Stream = std::make_unique<streams::WorkloadStream>(*T.Program, SO);
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
    std::string Exe = Opts.ServerExe.empty()
                          ? dirnameOf(Argv0) + "/pbt-serve"
                          : Opts.ServerExe;
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
  PhaseSummary Sustained = mergeConns(SusConns, Seconds);
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
  PhaseSummary Saturation = mergeConns(SatResults, SatSeconds);
  if (Saturation.Failed) {
    std::fprintf(stderr, "pbt-bench loadgen: saturation phase failed: %s\n",
                 Saturation.Error.c_str());
    return FailShutdown(1);
  }

  // Parity wall: every sustained-phase answer must match an in-process
  // decideBatch replay of the same model file. Skipped under --adapt
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
      std::vector<runtime::AdaptiveService::Decision> Local =
          Tenants[TIdx].Replica->decideBatch(Inputs);
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
  if (Server > 0) {
    if (Control.shutdownServer(Err)) {
      int Status = 0;
      ::waitpid(Server, &Status, 0);
      ServerExit = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
    } else {
      std::fprintf(stderr, "pbt-bench loadgen: shutdown: %s\n", Err.c_str());
      ::kill(Server, SIGTERM);
      int Status = 0;
      ::waitpid(Server, &Status, 0);
    }
  }
  Control.close();

  std::string Json = "{\n  \"subcommand\": \"loadgen\",\n";
  Json += "  \"socket\": \"" + jsonString(Socket) + "\",\n";
  Json += std::string("  \"spawned\": ") + (Opts.Spawn ? "true" : "false") +
          ",\n";
  Json += "  \"schedule\": \"" + jsonString(Opts.StreamSchedule) + "\",\n";
  Json += "  \"requests_per_tenant\": " +
          std::to_string(std::max(1u, Opts.StreamRequests)) + ",\n";
  Json += "  \"batch\": " + std::to_string(BatchSize) + ",\n";
  Json += "  \"queue_capacity\": " + std::to_string(Opts.QueueCapacity) +
          ",\n";
  Json += "  \"workers\": " + std::to_string(Opts.Workers) + ",\n";
  Json += std::string("  \"adapt\": ") + (Opts.Adapt ? "true" : "false") +
          ",\n";
  Json += "  \"tenants\": [";
  for (size_t I = 0; I < Tenants.size(); ++I) {
    if (I)
      Json += ", ";
    Json += "{\"name\": \"" + jsonString(Tenants[I].Name) +
            "\", \"benchmark\": \"" + jsonString(Tenants[I].Benchmark) +
            "\", \"model\": \"" + jsonString(Tenants[I].ModelPath) +
            "\", \"inputs\": " +
            std::to_string(Tenants[I].Program->numInputs()) + "}";
  }
  Json += "],\n";
  Json += "  \"sustained\": " + jsonPhaseSummary(Sustained, Conns) + ",\n";
  Json += "  \"saturation\": " + jsonPhaseSummary(Saturation, SatConns) +
          ",\n";
  Json += "  \"parity_checked\": " +
          std::string(ParityChecked ? "true" : "false") + ",\n";
  Json += "  \"parity_inputs\": " + std::to_string(ParityInputs) + ",\n";
  Json += "  \"choices_match_inprocess\": " +
          std::string(ParityOk ? "true" : "false") + ",\n";
  Json += "  \"server_exit\": " + std::to_string(ServerExit) + ",\n";
  Json += "  \"server_stats\": " + ServerStatsJson + "\n";
  Json += "}\n";

  std::fputs(Json.c_str(), stdout);
  if (Opts.Json &&
      !writeReport(Opts, "loadgen", "BENCH_serve_daemon.json", Json))
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
