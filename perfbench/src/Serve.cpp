//===- perfbench/src/Serve.cpp - serve-warm and adapt workloads ------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two serving workloads drive a real pbt-serve process over its Unix
/// socket, serving all seven golden models as tenants, from closed-loop
/// client connections (Predict callers wait for their answer):
///
///   * serve-warm -- two connections, 64-input Predicts drawn from seeded
///     WorkloadStreams, every tenant visited in turn; an untimed pass over
///     every input fills the feature memo first. The daemon's headline
///     path: nearly all work is daemon framing, queueing and batching plus
///     runtime's memo-hit decide.
///   * adapt -- the daemon runs with --adapt; one connection each drives
///     sort1 and clustering1 over seeded abrupt streams with 16-input
///     Predicts. Drift flags retrain inline under the tenant lock, so core
///     retraining and runtime adaptation dominate, and the second tenant
///     shows head-of-line blocking.
///
/// A run is a fixed number of rounds, each on a freshly started daemon
/// with a fixed number of requests per connection; each end-to-end metric
/// is the best (or, for set-up and memory, the median) of its per-round
/// values: work_s is the wall time of the fastest round's requests.
/// speedup_over_static is the served golden models' Table 1 figure, from
/// the layer probe.
/// Failures (shed, error reply, transport failure) count as failed and as
/// +infinity latency. Every answer is checked: serve-warm against the
/// golden choices and an in-process replay, adapt for a landmark in
/// range and an epoch that never decreases.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "daemon/Client.h"
#include "daemon/ModelRegistry.h"
#include "daemon/Protocol.h"
#include "streams/WorkloadStream.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <limits>
#include <memory>
#include <sys/types.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#ifndef PBT_SERVE_BIN
#error "PBT_SERVE_BIN must name the pbt-serve binary"
#endif

namespace pbt {
namespace perfbench {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Requests per connection in one round, about 0.6 s (serve-warm) and
/// 1 s (adapt) on a 4-core x86 VM.
constexpr uint64_t kWarmRequestsPerRound = 5600;
constexpr uint64_t kAdaptRequestsPerRound = 1600;
constexpr unsigned kWarmBatch = 64;
constexpr unsigned kAdaptBatch = 16;
/// Consecutive requests a serve-warm connection sends to one tenant
/// before moving on to the next.
constexpr unsigned kSegment = 64;
/// Rounds per --seconds, each on a freshly started daemon. The host's
/// speed swings by a quarter over tens of seconds, so a run reports the
/// best round: the highest decisions_per_s and the lowest latency
/// percentiles (setup_s and rss_mb are medians). The best of many short
/// rounds varies far less from run to run than any average does.
constexpr double kWarmRoundsPerSecond = 1.6;
constexpr double kAdaptRoundsPerSecond = 1.0;
/// A traced run measures at most this many pairs of untraced and traced
/// rounds, which bounds its length and its span count.
constexpr unsigned kTracedPairs = 8;
/// adapt's streams do not follow --seed. How many retrains a stream
/// triggers swings by two orders of magnitude between stream draws (2 to
/// 319 per round measured over seeds), which would drown any change in
/// the system, so every adapt round of every run replays the same pair
/// of streams: one on which sort1 retrains on about one request in ten
/// and a third of the retrains swap, so the p99 is a retrain's latency.
constexpr uint64_t kAdaptStreamSeed = 0xADA97;
/// Recorded requests the traced run replays through the codec and the
/// in-process decide.
constexpr size_t kReplayCap = 8192;

std::string modelSpec(const RunOptions &Opts) {
  std::string Spec;
  for (const std::string &F : goldenFamilies())
    Spec += (Spec.empty() ? "" : ",") + Opts.GoldenDir + "/" + F + ".pbt";
  return Spec;
}

/// A pbt-serve child process, started and stopped by the harness.
class Daemon {
public:
  Daemon() = default;
  ~Daemon() { kill(); }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  /// Execs pbt-serve and waits until a ListTenants reply names every
  /// golden family; \p SetupSeconds is that wait, from exec.
  bool start(const RunOptions &Opts, bool Adapt, double &SetupSeconds,
             std::string &Err) {
    Socket = Opts.WorkDir + "/d" + std::to_string(::getpid()) + ".sock";
    ::unlink(Socket.c_str());
    std::vector<std::string> Args = {PBT_SERVE_BIN, "--socket=" + Socket,
                                     "--model=" + modelSpec(Opts),
                                     "--workers=2"};
    if (Adapt)
      Args.push_back("--adapt");
    std::vector<char *> Argv;
    for (std::string &A : Args)
      Argv.push_back(A.data());
    Argv.push_back(nullptr);

    uint64_t T0 = nowNs();
    Pid = ::fork();
    if (Pid < 0) {
      Err = std::string("fork: ") + std::strerror(errno);
      return false;
    }
    if (Pid == 0) {
      // The daemon prints its final stats on stdout; keep the harness's
      // stdout for the report alone.
      int Null = ::open("/dev/null", O_WRONLY);
      if (Null >= 0)
        ::dup2(Null, STDOUT_FILENO);
      ::execv(Argv[0], Argv.data());
      std::fprintf(stderr, "pbt-perfbench: execv(%s): %s\n", Argv[0],
                   std::strerror(errno));
      ::_exit(127);
    }
    daemon::ClientOptions CO;
    CO.MaxConnectAttempts = 1;
    while (true) {
      int Status = 0;
      if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
        Pid = -1;
        Err = "pbt-serve exited during start-up";
        return false;
      }
      daemon::DaemonClient C(CO);
      std::string E;
      std::vector<std::string> Names;
      if (C.connect(Socket, E) && C.listTenants(Names, E)) {
        bool All = true;
        for (const std::string &F : goldenFamilies())
          All = All && std::find(Names.begin(), Names.end(), F) != Names.end();
        if (All) {
          SetupSeconds = secondsBetween(T0, nowNs());
          return true;
        }
      }
      if (secondsBetween(T0, nowNs()) > 60) {
        Err = "pbt-serve did not list its tenants within 60 s";
        return false;
      }
      ::usleep(200);
    }
  }

  /// Clean stop over the protocol; the daemon drains and exits 0.
  bool shutdown(std::string &Err) {
    if (Pid <= 0)
      return true;
    daemon::DaemonClient C;
    bool Sent = C.connect(Socket, Err) && C.shutdownServer(Err);
    C.close();
    int Status = 0;
    bool Exited = reap(Sent ? 30.0 : 0.0, Status);
    if (!Exited) {
      kill();
      Err = Sent ? "pbt-serve did not exit after Shutdown" : Err;
      return false;
    }
    if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0) {
      Err = "pbt-serve exited abnormally";
      return false;
    }
    return true;
  }

  long pid() const { return Pid; }
  const std::string &socket() const { return Socket; }

private:
  /// Waits up to \p Seconds for the child; true once it is reaped.
  bool reap(double Seconds, int &Status) {
    uint64_t T0 = nowNs();
    while (true) {
      pid_t W = ::waitpid(Pid, &Status, WNOHANG);
      if (W == Pid || (W < 0 && errno == ECHILD)) {
        Pid = -1;
        return true;
      }
      if (secondsBetween(T0, nowNs()) >= Seconds)
        return false;
      ::usleep(500);
    }
  }

  void kill() {
    if (Pid <= 0)
      return;
    ::kill(Pid, SIGKILL);
    int Status = 0;
    ::waitpid(Pid, &Status, 0);
    Pid = -1;
    ::unlink(Socket.c_str());
  }

  pid_t Pid = -1;
  std::string Socket;
};

/// Reads one numeric member out of the daemon's Stats JSON, searching
/// from \p From (the start of a tenant object, or 0 for the top level,
/// whose members precede the tenant list).
double statsField(const std::string &Json, size_t From,
                  const std::string &Key) {
  std::string Needle = "\"" + Key + "\": ";
  size_t P = Json.find(Needle, From);
  if (P == std::string::npos)
    return std::numeric_limits<double>::quiet_NaN();
  return std::strtod(Json.c_str() + P + Needle.size(), nullptr);
}

size_t statsTenant(const std::string &Json, const std::string &Name) {
  size_t P = Json.find("{\"name\": \"" + Name + "\"");
  return P == std::string::npos ? Json.size() : P;
}

/// One request the traced run keeps for the codec and decide replays.
struct Recorded {
  unsigned Tenant = 0;
  uint64_t Request = 0;
  std::vector<uint64_t> Inputs;
  std::vector<daemon::PredictedChoice> Answers;
};

/// What one connection measured in one round.
struct ConnRound {
  std::vector<double> LatUs;
  std::vector<uint64_t> StartNs, EndNs;
  uint64_t Attempted = 0, Decisions = 0, Failed = 0;
  std::vector<std::string> Wrong;
  std::vector<Recorded> Kept;
  /// adapt: every answer in order, for the traced run's replay parity.
  std::vector<daemon::PredictedChoice> Answers;
};

/// A closed-loop client connection of one round.
struct Conn {
  unsigned Index = 0;
  /// adapt: the one tenant this connection drives.
  unsigned Tenant = 0;
  daemon::DaemonClient Client;
  int Attached = -1;
  /// Per tenant: the stream this connection draws from and its cursor.
  std::vector<std::unique_ptr<streams::WorkloadStream>> Streams;
  std::vector<size_t> Cursor;
  /// adapt: last epoch answered (it must never decrease).
  uint64_t LastEpoch = 0;
};

struct ServeState {
  bool Adapt = false;
  std::string Socket;
  std::vector<daemon::Tenant *> Tenants; // in goldenFamilies() order
  /// serve-warm oracle: the landmark every input must get, per tenant.
  std::vector<std::vector<uint32_t>> Expected;
};

bool ensureAttached(Conn &C, const ServeState &S, unsigned Tenant,
                    std::string &Err) {
  if (!C.Client.connected()) {
    C.Attached = -1;
    if (!C.Client.connect(S.Socket, Err))
      return false;
  }
  if (C.Attached == static_cast<int>(Tenant))
    return true;
  daemon::DaemonClient::AttachInfo Info;
  if (!C.Client.attach(S.Tenants[Tenant]->Name, Info, Err)) {
    C.Client.close();
    C.Attached = -1;
    return false;
  }
  C.Attached = static_cast<int>(Tenant);
  return true;
}

/// Sends \p Requests closed-loop Predicts on \p C and checks every answer.
void driveConn(const ServeState &S, Conn &C, uint64_t Requests, bool Keep,
               ConnRound &Out) {
  Out.LatUs.reserve(Requests);
  if (Keep) {
    Out.StartNs.reserve(Requests);
    Out.EndNs.reserve(Requests);
  }
  unsigned Batch = S.Adapt ? kAdaptBatch : kWarmBatch;
  std::vector<uint64_t> Inputs(Batch);
  std::vector<daemon::PredictedChoice> Choices;
  std::string Err;
  for (uint64_t Q = 0; Q < Requests; ++Q) {
    unsigned T = S.Adapt ? C.Tenant
                         : static_cast<unsigned>((C.Index * 3 + Q / kSegment) %
                                                 S.Tenants.size());
    const std::vector<size_t> &Seq = C.Streams[T]->sequence();
    for (unsigned K = 0; K < Batch; ++K) {
      Inputs[K] = Seq[C.Cursor[T]];
      C.Cursor[T] = (C.Cursor[T] + 1) % Seq.size();
    }
    ++Out.Attempted;
    if (!ensureAttached(C, S, T, Err)) {
      ++Out.Failed;
      Out.LatUs.push_back(kInf);
      continue;
    }
    uint64_t T0 = nowNs();
    daemon::DaemonClient::PredictOutcome O =
        C.Client.predict(Inputs, Choices, Err);
    uint64_t T1 = nowNs();
    if (Keep) {
      Out.StartNs.push_back(T0);
      Out.EndNs.push_back(T1);
    }
    if (O != daemon::DaemonClient::PredictOutcome::Ok) {
      ++Out.Failed;
      Out.LatUs.push_back(kInf);
      if (C.Client.lastRpcTransportFailed())
        C.Client.close();
      continue;
    }
    Out.LatUs.push_back(static_cast<double>(T1 - T0) * 1e-3);
    if (Choices.size() != Inputs.size()) {
      Out.Wrong.push_back("answer count " + std::to_string(Choices.size()) +
                          " for " + std::to_string(Inputs.size()) + " inputs");
      continue;
    }
    Out.Decisions += Choices.size();
    const daemon::Tenant &Ten = *S.Tenants[T];
    for (size_t K = 0; K < Choices.size(); ++K) {
      const daemon::PredictedChoice &A = Choices[K];
      bool Ok;
      if (S.Adapt) {
        Ok = A.Landmark < Ten.Landmarks.load() && A.Epoch >= C.LastEpoch;
        C.LastEpoch = std::max(C.LastEpoch, A.Epoch);
      } else {
        Ok = A.Landmark == S.Expected[T][Inputs[K]] && A.Epoch == 0;
      }
      if (!Ok && Out.Wrong.size() < 5)
        Out.Wrong.push_back(Ten.Name + " input " + std::to_string(Inputs[K]) +
                            ": landmark " + std::to_string(A.Landmark) +
                            " epoch " + std::to_string(A.Epoch) +
                            (S.Adapt ? " out of range or epoch went back"
                                     : ", oracle says landmark " +
                                           std::to_string(
                                               S.Expected[T][Inputs[K]])));
    }
    if (S.Adapt && Keep)
      Out.Answers.insert(Out.Answers.end(), Choices.begin(), Choices.end());
    if (!S.Adapt && Keep && Out.Kept.size() < kReplayCap)
      Out.Kept.push_back({T, (uint64_t(C.Index) << 32) | Q, Inputs, Choices});
  }
}

/// One round's figures, read before its daemon stops.
struct RoundFigures {
  double Setup = 0, Seconds = 0, DecisionsPerS = 0, P50 = 0, P99 = 0, Rss = 0;
  uint64_t Samples = 0;
  std::string Stats;
};

/// Sums one numeric member over the named tenants of a Stats reply.
double tenantSum(const std::string &Stats,
                 const std::vector<daemon::Tenant *> &Tenants,
                 const std::string &Key) {
  double Sum = 0;
  for (daemon::Tenant *T : Tenants)
    Sum += statsField(Stats, statsTenant(Stats, T->Name), Key);
  return Sum;
}

/// The serve-warm oracle: golden choices for the test rows, the
/// in-process decide for every other input. A golden row the in-process
/// decide disagrees with is itself a wrong answer.
void buildOracle(const RunOptions &Opts, ServeState &S, Report &R) {
  for (daemon::Tenant *T : S.Tenants) {
    size_t N = T->Program->numInputs();
    std::vector<size_t> All(N);
    for (size_t I = 0; I < N; ++I)
      All[I] = I;
    std::vector<uint32_t> Exp(N);
    std::vector<runtime::AdaptiveService::Decision> Ds =
        T->Service->decideBatch(All, nullptr);
    for (size_t I = 0; I < N; ++I)
      Exp[I] = Ds[I].Landmark;
    std::ifstream In(Opts.GoldenDir + "/" + T->Name + ".choices.csv");
    std::string Line;
    size_t Rows = 0;
    std::getline(In, Line);
    while (std::getline(In, Line)) {
      size_t Comma = Line.find(',');
      if (Line.empty() || Comma == std::string::npos)
        continue;
      size_t Input = std::strtoull(Line.c_str(), nullptr, 10);
      uint32_t L = static_cast<uint32_t>(
          std::strtoul(Line.c_str() + Comma + 1, nullptr, 10));
      if (Input >= N) {
        R.wrong(T->Name + ".choices.csv names input " + Line);
        continue;
      }
      if (Exp[Input] != L)
        R.wrong(T->Name + " input " + std::to_string(Input) +
                ": in-process decide gives landmark " +
                std::to_string(Exp[Input]) + ", golden choice " +
                std::to_string(L));
      Exp[Input] = L;
      ++Rows;
    }
    if (Rows == 0)
      R.wrong("no golden choices for " + T->Name);
    S.Expected.push_back(std::move(Exp));
  }
}

/// Untimed warm-up: every input of every tenant once, so the timed
/// requests see the warm (memo-hit) path.
bool warmUp(const ServeState &S, std::string &Err) {
  daemon::DaemonClient W;
  if (!W.connect(S.Socket, Err))
    return false;
  for (daemon::Tenant *T : S.Tenants) {
    daemon::DaemonClient::AttachInfo Info;
    std::vector<daemon::PredictedChoice> Choices;
    std::vector<uint64_t> All;
    for (size_t I = 0; I < T->Program->numInputs(); ++I)
      All.push_back(I);
    if (!W.attach(T->Name, Info, Err) ||
        W.predict(All, Choices, Err) !=
            daemon::DaemonClient::PredictOutcome::Ok)
      return false;
  }
  return true;
}

/// adapt, traced rounds: replays each connection's exact input sequence
/// through serve() on a fresh in-process registry with the daemon's
/// options, checking every answer and the retrain/swap counts against the
/// round's daemon Stats.
struct AdaptReplay {
  std::vector<double> ServeNs, RetrainMs, ShadowMs;
  uint64_t Mismatches = 0;
  uint64_t ReplayRetrains = 0, ReplaySwaps = 0;
  double DaemonRetrains = 0, DaemonSwaps = 0;
};

void replayAdapt(const RunOptions &Opts, const std::vector<ConnRound> &Out,
                 const std::vector<std::unique_ptr<Conn>> &Conns,
                 const ServeState &S, const std::string &Stats, Tracer &Tr,
                 AdaptReplay &A, Report &R) {
  daemon::ModelRegistryOptions RO;
  RO.AutoAdapt = true;
  daemon::ModelRegistry Fresh(RO);
  for (const auto &C : Conns) {
    const std::string &Name = S.Tenants[C->Tenant]->Name;
    serialize::LoadStatus St =
        Fresh.addTenant(Name, Opts.GoldenDir + "/" + Name + ".pbt");
    if (!St) {
      R.wrong("replay tenant " + Name + ": " + St.Error);
      return;
    }
  }
  for (size_t C = 0; C < Conns.size(); ++C) {
    daemon::Tenant &Ten = *Fresh.find(S.Tenants[Conns[C]->Tenant]->Name);
    runtime::AdaptiveService &Svc = *Ten.Service;
    const std::vector<size_t> &Seq =
        Conns[C]->Streams[Conns[C]->Tenant]->sequence();
    const std::vector<daemon::PredictedChoice> &Answers = Out[C].Answers;
    uint32_t Root = Tr.begin("bench.adapt_replay", 0, Conns[C]->Tenant);
    uint64_t ServeTotalNs = 0, ServeCalls = 0;
    for (size_t I = 0; I < Answers.size(); ++I) {
      uint64_t T0 = nowNs();
      runtime::AdaptiveService::Decision Dn = Svc.serve(Seq[I % Seq.size()]);
      uint64_t T1 = nowNs();
      if (Dn.DriftFlagged) {
        Tr.record("runtime.drift_response", Root, I, T0, T1);
      } else {
        A.ServeNs.push_back(static_cast<double>(T1 - T0));
        ServeTotalNs += T1 - T0;
        ++ServeCalls;
      }
      if (Dn.Landmark != Answers[I].Landmark || Dn.Epoch != Answers[I].Epoch)
        ++A.Mismatches;
    }
    Tr.aggregate("runtime.serve", Root, ServeCalls, ServeTotalNs);
    Tr.end(Root);
    for (const runtime::AdaptiveService::SwapRecord &Rec : Svc.history()) {
      A.RetrainMs.push_back(Rec.RetrainSeconds * 1e3);
      A.ShadowMs.push_back(Rec.ShadowSeconds * 1e3);
    }
    runtime::AdaptiveService::StatsSnapshot Mine = Svc.stats();
    A.ReplayRetrains += Mine.Retrains;
    A.ReplaySwaps += Mine.Swaps;
    size_t At = statsTenant(Stats, Ten.Name);
    A.DaemonRetrains += statsField(Stats, At, "retrains");
    A.DaemonSwaps += statsField(Stats, At, "swaps");
  }
}

} // namespace

int runServe(const RunOptions &Opts, Tracer &Tr, Report &R) {
  const bool Adapt = Opts.Workload == "adapt";
  std::string Err;

  // Harness-side preparation (outside setup_s): an in-process registry
  // built with the daemon's options serves as the stream universe, the
  // serve-warm oracle and the traced decide replay.
  const double Speedup = probeLayers(Opts, 3, Tr, R);
  if (!R.Correct)
    return 1;
  daemon::ModelRegistry Local;
  ServeState S;
  S.Adapt = Adapt;
  for (const std::string &F : goldenFamilies()) {
    serialize::LoadStatus St =
        Local.addTenant(F, Opts.GoldenDir + "/" + F + ".pbt");
    if (!St) {
      R.wrong("in-process tenant " + F + ": " + St.Error);
      return 1;
    }
    S.Tenants.push_back(Local.find(F));
  }
  if (!Adapt)
    buildOracle(Opts, S, R);

  const unsigned NumConns = 2;
  const unsigned PlainRounds = static_cast<unsigned>(std::max<long long>(
      2, std::llround(Opts.Seconds * (Adapt ? kAdaptRoundsPerSecond
                                            : kWarmRoundsPerSecond))));
  const uint64_t PerRound =
      Adapt ? kAdaptRequestsPerRound : kWarmRequestsPerRound;
  // The traced run pairs every untraced round with a traced one over the
  // same streams, so tracing overhead is measured on identical work.
  const unsigned Rounds =
      Opts.Trace ? 2 * std::min(PlainRounds, kTracedPairs) : PlainRounds;

  std::vector<RoundFigures> Plain, Traced;
  std::vector<Recorded> Kept;
  std::vector<std::vector<double>> TenantLat(S.Tenants.size());
  AdaptReplay Replay;
  double MaxQueueDepth = 0;
  for (unsigned Rd = 0; Rd < Rounds; ++Rd) {
    const bool TracedRound = Opts.Trace && Rd % 2 == 1;
    const uint64_t StreamRound = Adapt ? 0 : Opts.Trace ? Rd / 2 : Rd;
    RoundFigures F;

    // Set-up: every round starts its own daemon, so process placement
    // varies within a run rather than between runs.
    Daemon D;
    uint64_t T0 = nowNs();
    if (!D.start(Opts, Adapt, F.Setup, Err)) {
      R.wrong("daemon start: " + Err);
      return 1;
    }
    Tr.record("daemon.start", 0, Rd, T0,
              T0 + static_cast<uint64_t>(F.Setup * 1e9));
    S.Socket = D.socket();
    if (!Adapt && !warmUp(S, Err)) {
      R.wrong("warm-up: " + Err);
      return 1;
    }

    std::vector<std::unique_ptr<Conn>> Conns;
    for (unsigned C = 0; C < NumConns; ++C) {
      auto Cn = std::make_unique<Conn>();
      Cn->Index = C;
      // adapt: connection 0 drives sort1, connection 1 clustering1.
      Cn->Tenant = C == 0 ? 0 : 2;
      Cn->Streams.resize(S.Tenants.size());
      Cn->Cursor.assign(S.Tenants.size(), 0);
      for (unsigned T = 0; T < S.Tenants.size(); ++T) {
        if (Adapt && T != Cn->Tenant)
          continue;
        streams::WorkloadStreamOptions SO;
        SO.Kind = Adapt ? streams::Schedule::Abrupt : streams::Schedule::Ramp;
        // adapt cycles a 500-tick abrupt stream: the regime flips every
        // 250 inputs, so drift recurs all through the round.
        SO.Requests = Adapt ? 500 : 4096;
        uint64_t Base = Adapt ? kAdaptStreamSeed : Opts.Seed;
        SO.Seed = ((Base * 1000003u + StreamRound) * 131u + C) * 131u + T;
        Cn->Streams[T] = std::make_unique<streams::WorkloadStream>(
            *S.Tenants[T]->Program, SO);
      }
      Conns.push_back(std::move(Cn));
    }

    std::vector<ConnRound> Out(NumConns);
    uint64_t R0 = nowNs();
    std::vector<std::thread> Threads;
    for (unsigned C = 0; C < NumConns; ++C)
      Threads.emplace_back(
          [&, C] { driveConn(S, *Conns[C], PerRound, TracedRound, Out[C]); });
    for (std::thread &Th : Threads)
      Th.join();
    uint64_t R1 = nowNs();

    // Server-side counters and the daemon's peak RSS, before it stops.
    daemon::DaemonClient Control;
    if (!Control.connect(S.Socket, Err) || !Control.stats(F.Stats, Err)) {
      R.wrong("stats: " + Err);
      return 1;
    }
    Control.close();
    F.Rss = peakRssMiB(D.pid());
    if (!D.shutdown(Err)) {
      R.wrong("daemon shutdown: " + Err);
      return 1;
    }

    F.Seconds = secondsBetween(R0, R1);
    std::vector<double> Lat;
    uint64_t Decisions = 0;
    uint32_t RoundSpan = TracedRound ? Tr.record("bench.round", 0, Rd, R0, R1)
                                     : 0;
    for (unsigned C = 0; C < NumConns; ++C) {
      ConnRound &O = Out[C];
      Lat.insert(Lat.end(), O.LatUs.begin(), O.LatUs.end());
      Decisions += O.Decisions;
      R.Failed += O.Failed;
      R.Attempted += O.Attempted;
      for (const std::string &W : O.Wrong)
        R.wrong(W);
      if (!TracedRound)
        continue;
      for (size_t K = 0; K < O.StartNs.size(); ++K)
        Tr.record("daemon.predict", RoundSpan, (uint64_t(C) << 32) | K,
                  O.StartNs[K], O.EndNs[K]);
      std::vector<double> &TL = TenantLat[Conns[C]->Tenant];
      TL.insert(TL.end(), O.LatUs.begin(), O.LatUs.end());
      for (Recorded &K : O.Kept)
        if (Kept.size() < kReplayCap)
          Kept.push_back(std::move(K));
    }
    F.DecisionsPerS = static_cast<double>(Decisions) / F.Seconds;
    F.P50 = quantile(Lat, 0.50);
    F.P99 = quantile(Lat, 0.99);
    F.Samples = Lat.size();
    MaxQueueDepth =
        std::max(MaxQueueDepth, statsField(F.Stats, 0, "max_queue_depth"));
    if (Adapt && TracedRound)
      replayAdapt(Opts, Out, Conns, S, F.Stats, Tr, Replay, R);
    (TracedRound ? Traced : Plain).push_back(std::move(F));
  }

  auto QuantileOf = [](const std::vector<RoundFigures> &V,
                       double RoundFigures::*Field, double Q) {
    std::vector<double> X;
    for (const RoundFigures &F : V)
      X.push_back(F.*Field);
    return quantile(X, Q);
  };
  auto SumOf = [&](const std::vector<RoundFigures> &V, const char *Key) {
    double Sum = 0;
    for (const RoundFigures &F : V)
      Sum += tenantSum(F.Stats, S.Tenants, Key);
    return Sum;
  };
  uint64_t PlainSamples = 0;
  std::string RoundsJson = "[";
  for (const RoundFigures &F : Plain) {
    PlainSamples += F.Samples;
    RoundsJson += (RoundsJson.size() > 1 ? ", " : "") +
                  std::string("{\"setup_s\": ") + jsonNumber(F.Setup) +
                  ", \"seconds\": " + jsonNumber(F.Seconds) +
                  ", \"decisions_per_s\": " + jsonNumber(F.DecisionsPerS) +
                  ", \"p50_us\": " + jsonNumber(F.P50) +
                  ", \"p99_us\": " + jsonNumber(F.P99) +
                  ", \"samples\": " + std::to_string(F.Samples) +
                  ", \"rss_mb\": " + jsonNumber(F.Rss) +
                  ", \"retrains\": " +
                  jsonNumber(tenantSum(F.Stats, S.Tenants, "retrains")) +
                  ", \"swaps\": " +
                  jsonNumber(tenantSum(F.Stats, S.Tenants, "swaps")) + "}";
  }
  R.detail("rounds", RoundsJson + "]");
  R.detail("requests_per_connection_per_round", std::to_string(PerRound));

  if (!Opts.Trace) {
    R.add("setup_s", QuantileOf(Plain, &RoundFigures::Setup, 0.5), "s",
          Plain.size());
    R.add("work_s", QuantileOf(Plain, &RoundFigures::Seconds, 0), "s",
          Plain.size());
    R.add("decisions_per_s", QuantileOf(Plain, &RoundFigures::DecisionsPerS, 1),
          "1/s", Plain.size());
    R.add("latency_p50_us", QuantileOf(Plain, &RoundFigures::P50, 0), "us",
          PlainSamples);
    R.add("latency_p99_us", QuantileOf(Plain, &RoundFigures::P99, 0), "us",
          PlainSamples);
    R.add("speedup_over_static", Speedup, "x", goldenFamilies().size());
    R.add("rss_mb", QuantileOf(Plain, &RoundFigures::Rss, 0.5), "MiB",
          Plain.size());
    return R.Correct ? 0 : 1;
  }

  // --- Traced run: per-layer figures from the traced rounds. ---
  double PlainP50 = QuantileOf(Plain, &RoundFigures::P50, 0);
  double TracedP50 = QuantileOf(Traced, &RoundFigures::P50, 0);
  R.detail("tracing_overhead",
           "{\"latency_p50_us_untraced\": " + jsonNumber(PlainP50) +
               ", \"latency_p50_us_traced\": " + jsonNumber(TracedP50) +
               ", \"latency_p50_us_delta\": " +
               jsonNumber(TracedP50 - PlainP50) + "}");
  R.add("daemon.failed", static_cast<double>(R.Failed), "count");
  double ServiceDecisions = SumOf(Traced, "service_decisions");
  R.add("runtime.memo_hit_ratio",
        ServiceDecisions > 0 ? SumOf(Traced, "memoized") / ServiceDecisions
                             : 0.0,
        "ratio");

  if (!Adapt) {
    double Batches = 0, Batched = 0;
    for (const RoundFigures &F : Traced) {
      Batches += statsField(F.Stats, 0, "batches");
      Batched += statsField(F.Stats, 0, "batched_requests");
    }
    R.add("daemon.requests_per_batch", Batches > 0 ? Batched / Batches : 0.0,
          "count");

    // The recorded requests through the client+server codec, and through
    // the in-process decide of the registry built with the daemon's
    // options (its memo is warm from building the oracle).
    std::vector<double> CodecUs, DecideUs;
    uint32_t CodecRoot = Tr.begin("bench.codec_replay");
    for (const Recorded &K : Kept) {
      uint64_t T0 = nowNs();
      daemon::Message M1, M2;
      bool Ok = daemon::decodeMessage(daemon::makePredict(K.Inputs), M1) &&
                daemon::decodeMessage(daemon::makePredictions(K.Answers), M2);
      uint64_t T1 = nowNs();
      if (!Ok || M1.Inputs != K.Inputs || M2.Choices.size() != K.Answers.size())
        R.wrong("codec round trip changed a recorded request");
      Tr.record("daemon.codec", CodecRoot, K.Request, T0, T1);
      CodecUs.push_back(static_cast<double>(T1 - T0) * 1e-3);
    }
    Tr.end(CodecRoot);
    uint32_t DecideRoot = Tr.begin("bench.decide_replay");
    std::vector<size_t> In;
    for (const Recorded &K : Kept) {
      In.assign(K.Inputs.begin(), K.Inputs.end());
      runtime::AdaptiveService &Svc = *S.Tenants[K.Tenant]->Service;
      uint64_t T0 = nowNs();
      std::vector<runtime::AdaptiveService::Decision> Ds =
          Svc.decideBatch(In, nullptr);
      uint64_t T1 = nowNs();
      Tr.record("runtime.decide_batch", DecideRoot, K.Request, T0, T1);
      DecideUs.push_back(static_cast<double>(T1 - T0) * 1e-3);
      for (size_t I = 0; I < Ds.size(); ++I)
        if (Ds[I].Landmark != K.Answers[I].Landmark) {
          R.wrong("in-process decide disagrees with the daemon on " +
                  S.Tenants[K.Tenant]->Name);
          break;
        }
    }
    Tr.end(DecideRoot);
    double Codec = median(CodecUs), Decide = median(DecideUs);
    R.add("daemon.codec_us", Codec, "us", CodecUs.size());
    R.add("runtime.decide_us", Decide, "us", DecideUs.size());
    R.add("daemon.residual_us", TracedP50 - Codec - Decide, "us");
    return R.Correct ? 0 : 1;
  }

  // adapt: daemon counters over the traced rounds, the client-side split
  // by tenant, and the in-process replays.
  R.add("daemon.max_queue_depth", MaxQueueDepth, "count");
  for (unsigned T : {0u, 2u})
    R.add("daemon.tenant_p99_us." + S.Tenants[T]->Name,
          quantile(TenantLat[T], 0.99), "us", TenantLat[T].size());
  double Retrains = SumOf(Traced, "retrains");
  double Swaps = SumOf(Traced, "swaps");
  R.add("runtime.drift_detections", SumOf(Traced, "drift_detections"),
        "count");
  R.add("runtime.retrains", Retrains, "count");
  R.add("runtime.swaps", Swaps, "count");
  R.add("runtime.skipped_retrains", SumOf(Traced, "skipped_retrains"),
        "count");
  R.add("runtime.swap_ratio", Retrains > 0 ? Swaps / Retrains : 0.0, "ratio");
  R.add("runtime.serve_ns", median(Replay.ServeNs), "ns",
        Replay.ServeNs.size());
  R.add("core.retrain_ms", median(Replay.RetrainMs), "ms",
        Replay.RetrainMs.size());
  R.add("runtime.shadow_ms", median(Replay.ShadowMs), "ms",
        Replay.ShadowMs.size());

  bool Closes = static_cast<double>(Replay.ReplayRetrains) ==
                    Replay.DaemonRetrains &&
                static_cast<double>(Replay.ReplaySwaps) == Replay.DaemonSwaps;
  R.detail("closure",
           "{\"replay_retrains\": " + std::to_string(Replay.ReplayRetrains) +
               ", \"daemon_retrains\": " + jsonNumber(Replay.DaemonRetrains) +
               ", \"replay_swaps\": " + std::to_string(Replay.ReplaySwaps) +
               ", \"daemon_swaps\": " + jsonNumber(Replay.DaemonSwaps) +
               ", \"replay_answer_mismatches\": " +
               std::to_string(Replay.Mismatches) +
               ", \"closes\": " + (Closes ? "true" : "false") + "}");
  if (!Closes)
    R.wrong("replay retrain/swap counts differ from the daemon's Stats");
  if (Replay.Mismatches)
    R.wrong(std::to_string(Replay.Mismatches) +
            " daemon answers differ from the in-process replay");
  return R.Correct ? 0 : 1;
}

} // namespace perfbench
} // namespace pbt
