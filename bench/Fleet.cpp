//===- bench/Fleet.cpp - pbt-bench fleet: cross-process chaos wall ---------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `pbt-bench fleet`: the supervised cross-process serving harness and
/// its chaos wall. Real pbt-serve processes (fork/exec'd by a
/// fleet::Supervisor) serve one store-backed tenant; FailoverClient
/// threads drive load across the replica endpoints while the harness
/// SIGKILLs random replicas, promotes clone epochs through the store
/// mid-chaos, and finally crash-loops one replica into quarantine.
///
/// The wall's invariants (any violation is a nonzero exit):
///
///   * parity  -- every successful answer matches an in-process
///     AdaptiveService replay of the same model (promotions are clone
///     epochs, so decisions are epoch-invariant by construction);
///   * no loss -- no predict() call exhausts the replica list while a
///     survivor is healthy (Shed is an answer, not a loss);
///   * reconvergence -- after every kill the supervisor restarts the
///     victim and the whole fleet reports the store's CURRENT epoch;
///   * quarantine -- a crash-looping replica stops being restarted
///     while the survivors keep answering throughout.
///
/// See Reports.h for the full contract; BENCH_fleet.json is the
/// machine-readable record.
///
//===----------------------------------------------------------------------===//

#include "Reports.h"

#include "daemon/Client.h"
#include "fleet/Supervisor.h"
#include "rollout/RolloutController.h"
#include "runtime/AdaptiveService.h"
#include "serialize/ModelIO.h"
#include "support/Cost.h"
#include "support/Json.h"
#include "support/Random.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

namespace pbt {
namespace benchharness {

namespace {

using Clock = std::chrono::steady_clock;

double monotonic() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

/// What one load thread saw. Shed is admission control (an answer);
/// Lost is a predict() that exhausted every replica -- the wall's
/// no-loss invariant says this stays zero while a survivor lives.
struct LoadResult {
  uint64_t Ok = 0;
  uint64_t Shed = 0;
  uint64_t Lost = 0;
  uint64_t Decisions = 0;
  uint64_t ParityChecked = 0;
  uint64_t ParityMismatches = 0;
  uint64_t Failovers = 0;
  std::vector<double> LatenciesUs;
  std::vector<double> FailoverLatenciesUs;
  std::string FirstError;
  daemon::FailoverClient::Stats Client;
};

/// One load thread: a FailoverClient replaying its stride of the input
/// universe in small batches until the stop flag, parity-checking every
/// answer against the golden in-process decisions.
void loadThread(const std::vector<std::string> &Endpoints,
                const std::string &Tenant,
                const std::vector<uint32_t> &Golden, unsigned Offset,
                unsigned Stride, const std::atomic<bool> &Stop,
                std::atomic<uint64_t> &OkPulse, LoadResult &R) {
  daemon::FailoverOptions FO;
  FO.Client.ConnectTimeout = 1.0;
  FO.Client.IoTimeout = 10.0;
  FO.Client.MaxConnectAttempts = 1; // failover beats hammering a corpse
  FO.CooldownSeconds = 0.25;
  FO.PassesPerCall = 3;
  daemon::FailoverClient C(Endpoints, Tenant, FO);

  const size_t N = Golden.size();
  size_t Cursor = Offset % N;
  std::vector<uint64_t> Batch;
  std::vector<daemon::PredictedChoice> Choices;
  std::string Err;
  while (!Stop.load(std::memory_order_relaxed)) {
    Batch.clear();
    for (unsigned K = 0; K < 8; ++K) {
      Batch.push_back(static_cast<uint64_t>(Cursor));
      Cursor = (Cursor + Stride) % N;
    }
    auto T0 = Clock::now();
    daemon::DaemonClient::PredictOutcome O = C.predict(Batch, Choices, Err);
    double Us =
        std::chrono::duration<double, std::micro>(Clock::now() - T0).count();
    if (O == daemon::DaemonClient::PredictOutcome::Error) {
      ++R.Lost;
      if (R.FirstError.empty())
        R.FirstError = Err;
      continue;
    }
    R.LatenciesUs.push_back(Us);
    R.Failovers += C.lastFailovers();
    if (C.lastFailovers() > 0)
      R.FailoverLatenciesUs.push_back(Us);
    if (O == daemon::DaemonClient::PredictOutcome::Shed) {
      ++R.Shed;
      continue;
    }
    ++R.Ok;
    OkPulse.fetch_add(1, std::memory_order_relaxed);
    R.Decisions += Choices.size();
    for (size_t K = 0; K < Batch.size() && K < Choices.size(); ++K) {
      ++R.ParityChecked;
      if (Choices[K].Landmark != Golden[Batch[K]])
        ++R.ParityMismatches;
    }
  }
  R.Client = C.stats();
  C.close();
}

} // namespace

int runFleet(const DriverOptions &Opts, const char *Argv0) {
  using rollout::RolloutController;
  using serialize::LoadStatus;

  // --- Train one model and seed a fresh crash-safe store. -------------
  std::vector<registry::SuiteEntry> Suite = suiteFor(Opts);
  registry::SuiteEntry &E = Suite.front();
  std::fprintf(stderr, "[fleet] training %s at scale %.2f...\n",
               E.Name.c_str(), Opts.Scale);
  serialize::TrainedModel Base = trainModel(Opts, E);
  Base.System.Data.reset();

  std::string StoreDir = Opts.OutDir + "/fleet-store";
  std::error_code EC;
  std::filesystem::remove_all(StoreDir, EC);

  // One in-process replica: the publisher's canary. The real fleet is
  // the external pbt-serve processes below.
  rollout::RolloutOptions RO;
  RO.Replicas = 1;
  RolloutController Ctl(*E.Program, StoreDir, RO);
  LoadStatus St = Ctl.start(Base);
  if (!St) {
    std::fprintf(stderr, "pbt-bench fleet: store bootstrap failed: %s\n",
                 St.Error.c_str());
    return 1;
  }

  // --- Golden decisions: the parity baseline. Every promoted epoch is
  // a clone of Base, so one in-process replay covers the whole run.
  std::string ModelPath = Opts.OutDir + "/fleet-model.pbt";
  St = serialize::saveModelFile(ModelPath, Base);
  if (!St) {
    std::fprintf(stderr, "pbt-bench fleet: cannot save parity model: %s\n",
                 St.Error.c_str());
    return 1;
  }
  registry::BoundModel Parity = loadBoundModel(ModelPath);
  if (!Parity.Status) {
    std::fprintf(stderr, "pbt-bench fleet: parity replica: %s\n",
                 Parity.Status.Error.c_str());
    return 1;
  }
  std::vector<size_t> AllInputs(E.Program->numInputs());
  std::iota(AllInputs.begin(), AllInputs.end(), 0);
  std::vector<uint32_t> Golden;
  for (const runtime::AdaptiveService::Decision &D :
       Parity.Service->decideBatch(AllInputs))
    Golden.push_back(D.Landmark);

  // --- The supervised fleet: N real pbt-serve processes on the store. -
  bool Tcp = Opts.FleetTransport == "tcp";
  std::atomic<uint64_t> Resumes{0};
  fleet::SupervisorOptions SUP;
  SUP.ServerExe = serverExe(Opts, Argv0);
  SUP.ServerArgs = {"--store=" + E.Name + "=" + StoreDir,
                    "--store-poll-ms=25",
                    "--workers=" + std::to_string(std::max(1u, Opts.Workers)),
                    "--queue=" + std::to_string(std::max<size_t>(
                                     1, Opts.QueueCapacity)),
                    "--read-deadline=10"};
  SUP.Replicas = std::max(2u, Opts.Replicas);
  SUP.Tcp = Tcp;
  SUP.RuntimeDir = "/tmp/pbt-fleet-" + std::to_string(::getpid());
  SUP.HealthIntervalSeconds = 0.1;
  SUP.BackoffSeconds = 0.05;
  SUP.BackoffCapSeconds = 0.5;
  SUP.BackoffResetSeconds = 2.0;
  // The window must be generous: under ASan/TSan a respawn (fork, exec,
  // sanitizer init, model load) plus the capped backoff can take a
  // couple of seconds, and quarantine only engages if the kill-loop's
  // restarts all land inside one window.
  SUP.QuarantineRestarts = 4;
  SUP.QuarantineWindowSeconds = 12.0;
  // The supervisor, not the publisher, drives the resume path: before
  // each respawn the store's recovery is re-run and the canary
  // re-synced, so a replacement process always loads a durable CURRENT.
  SUP.OnRestart = [&](size_t) {
    Ctl.resume();
    Resumes.fetch_add(1, std::memory_order_relaxed);
  };
  fleet::Supervisor Sup(SUP);
  std::string Err;
  if (!Sup.start(Err)) {
    std::fprintf(stderr, "pbt-bench fleet: supervisor start: %s\n",
                 Err.c_str());
    return 1;
  }

  auto Fail = [&](const char *Why) {
    std::fprintf(stderr, "pbt-bench fleet: %s\n", Why);
    Sup.stop();
    return 1;
  };

  support::WallTimer StartupTimer;
  if (!Sup.waitConverged(Ctl.currentEpoch(), 120.0))
    return Fail("fleet never converged onto the bootstrap epoch");
  double StartupSeconds = StartupTimer.elapsedSeconds();

  // --- Load: FailoverClient threads over the (stable) endpoint list. --
  std::vector<std::string> Endpoints = Sup.endpoints();
  unsigned Conns = std::max(2u, Opts.Connections);
  std::vector<LoadResult> Results(Conns);
  std::atomic<bool> StopLoad{false};
  std::atomic<uint64_t> OkPulse{0};
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < Conns; ++C)
    Threads.emplace_back([&, C] {
      loadThread(Endpoints, E.Name, Golden, C, Conns, StopLoad, OkPulse,
                 Results[C]);
    });

  auto StopAll = [&] {
    StopLoad.store(true);
    for (std::thread &T : Threads)
      T.join();
    Threads.clear();
  };

  // --- Chaos: SIGKILL random replicas, reconverge after every kill,
  // promote clone epochs mid-chaos. Victim choice is random but rate-
  // limited per replica (at most 1 kill in any trailing 5 s: at most 3
  // restarts inside a 12 s quarantine window, below the threshold of 4)
  // so phase 1 chaos never trips quarantine by accident -- phase 2
  // tests quarantine deliberately.
  support::Rng Rng(Opts.FaultSeed);
  unsigned Kills = Opts.Chaos ? std::max(1u, Opts.Kills) : 0;
  unsigned Promotions = 0;
  uint64_t ConvergeFailures = 0;
  std::vector<double> ConvergeSeconds;
  std::vector<std::deque<double>> KillTimes(SUP.Replicas);
  for (unsigned Kill = 0; Kill < Kills; ++Kill) {
    size_t Victim = SUP.Replicas;
    for (unsigned Spin = 0; Spin < 600 && Victim == SUP.Replicas; ++Spin) {
      size_t I = Rng.index(SUP.Replicas);
      std::deque<double> &KT = KillTimes[I];
      double Now = monotonic();
      while (!KT.empty() && Now - KT.front() > 5.0)
        KT.pop_front();
      if (KT.empty() && Sup.pid(I) > 0)
        Victim = I;
      else
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    if (Victim == SUP.Replicas)
      return (StopAll(), Fail("no eligible chaos victim (fleet wedged?)"));
    KillTimes[Victim].push_back(monotonic());
    Sup.killReplica(Victim, SIGKILL);

    // Every 5th kill, promote a clone epoch while the victim is down:
    // reconvergence then proves restart and hot-swap compose.
    if (Kill % 5 == 4) {
      serialize::TrainedModel Clone;
      if (serialize::loadModel(serialize::serializeModel(Base), Clone)) {
        RolloutController::CycleReport Report;
        if (Ctl.rollout(std::move(Clone), Report) && Report.Promoted)
          ++Promotions;
      }
    }

    support::WallTimer ConvergeTimer;
    if (!Sup.waitConverged(Ctl.currentEpoch(), 120.0)) {
      ++ConvergeFailures;
      std::fprintf(stderr,
                   "[fleet] kill %u (replica %zu): fleet failed to "
                   "reconverge onto epoch %llu\n",
                   Kill, Victim,
                   static_cast<unsigned long long>(Ctl.currentEpoch()));
      break;
    }
    ConvergeSeconds.push_back(ConvergeTimer.elapsedSeconds());
  }

  // --- Quarantine: crash-loop replica 0 until the supervisor gives up
  // on it, while the survivors keep answering.
  bool QuarantineEngaged = false;
  uint64_t OkDuringQuarantine = 0;
  if (Opts.Chaos && ConvergeFailures == 0) {
    uint64_t PulseBefore = OkPulse.load();
    double Deadline = monotonic() + 120.0;
    while (monotonic() < Deadline) {
      if (Sup.quarantinedCount() > 0) {
        QuarantineEngaged = true;
        break;
      }
      std::vector<fleet::ReplicaStatus> Sts = Sup.statuses();
      if (Sts[0].State == fleet::ReplicaState::Starting ||
          Sts[0].State == fleet::ReplicaState::Healthy ||
          Sts[0].State == fleet::ReplicaState::Degraded)
        Sup.killReplica(0, SIGKILL);
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    }
    if (QuarantineEngaged) {
      // Survivors must still be answering *after* quarantine engaged.
      uint64_t PulseAt = OkPulse.load();
      double Until = monotonic() + 10.0;
      while (monotonic() < Until && OkPulse.load() == PulseAt)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      OkDuringQuarantine = OkPulse.load() - PulseBefore;
    }
  }

  // Let the load settle briefly on the final fleet shape, then stop.
  std::this_thread::sleep_for(std::chrono::milliseconds(
      static_cast<long>(std::max(0.05, Opts.Chaos ? 0.2 : Opts.Seconds) *
                        1000)));
  StopAll();

  uint64_t Restarts = Sup.totalRestarts();
  size_t Quarantined = Sup.quarantinedCount();
  size_t HealthyAtEnd = Sup.healthyCount();
  Sup.stop();
  std::filesystem::remove_all(SUP.RuntimeDir, EC);

  // --- Merge + report. ------------------------------------------------
  LoadResult Sum;
  std::string FirstError;
  for (LoadResult &R : Results) {
    Sum.Ok += R.Ok;
    Sum.Shed += R.Shed;
    Sum.Lost += R.Lost;
    Sum.Decisions += R.Decisions;
    Sum.ParityChecked += R.ParityChecked;
    Sum.ParityMismatches += R.ParityMismatches;
    Sum.Failovers += R.Failovers;
    Sum.Client.MarkDowns += R.Client.MarkDowns;
    Sum.Client.Reconnects += R.Client.Reconnects;
    Sum.LatenciesUs.insert(Sum.LatenciesUs.end(), R.LatenciesUs.begin(),
                           R.LatenciesUs.end());
    Sum.FailoverLatenciesUs.insert(Sum.FailoverLatenciesUs.end(),
                                   R.FailoverLatenciesUs.begin(),
                                   R.FailoverLatenciesUs.end());
    if (FirstError.empty())
      FirstError = R.FirstError;
  }
  double Answered = static_cast<double>(Sum.Ok + Sum.Shed);
  double Availability =
      Answered + Sum.Lost > 0 ? Answered / (Answered + Sum.Lost) : 1.0;

  support::JsonWriter W(support::JsonWriter::Layout::Indented);
  W.beginObject()
      .string("subcommand", "fleet")
      .string("benchmark", E.Name)
      .number("scale", Opts.Scale)
      .number("replicas", SUP.Replicas)
      .string("transport", Opts.FleetTransport)
      .number("connections", Conns)
      .boolean("chaos", Opts.Chaos)
      .number("kills", Kills)
      .number("promotions_mid_chaos", Promotions)
      .number("startup_converge_s", StartupSeconds)
      .number("requests_ok", Sum.Ok)
      .number("requests_shed", Sum.Shed)
      .number("requests_lost", Sum.Lost)
      .number("decisions", Sum.Decisions)
      .number("availability", Availability)
      .number("latency_p50_us", quantileOrNaN(Sum.LatenciesUs, 0.5))
      .number("latency_p99_us", quantileOrNaN(Sum.LatenciesUs, 0.99))
      .number("failovers", Sum.Failovers)
      .number("failover_latency_p50_us",
              quantileOrNaN(Sum.FailoverLatenciesUs, 0.5))
      .number("failover_latency_p99_us",
              quantileOrNaN(Sum.FailoverLatenciesUs, 0.99))
      .number("mark_downs", Sum.Client.MarkDowns)
      .number("reconnects", Sum.Client.Reconnects)
      .number("restarts", Restarts)
      .number("supervisor_resumes", Resumes.load())
      .number("converge_p50_s", quantileOrNaN(ConvergeSeconds, 0.5))
      .number("converge_max_s", quantileOrNaN(ConvergeSeconds, 1.0))
      .number("converge_failures", ConvergeFailures)
      .boolean("quarantine_engaged", QuarantineEngaged)
      .number("quarantined", Quarantined)
      .number("healthy_at_end", HealthyAtEnd)
      .number("ok_during_quarantine", OkDuringQuarantine)
      .number("parity_inputs", Sum.ParityChecked)
      .number("parity_mismatches", Sum.ParityMismatches)
      .number("final_epoch", Ctl.currentEpoch())
      .end();
  if (!emitReport(Opts, "fleet", "BENCH_fleet.json", W.str()))
    return 1;

  // --- The wall. ------------------------------------------------------
  int Rc = 0;
  if (Sum.ParityMismatches != 0) {
    std::fprintf(stderr,
                 "pbt-bench fleet: %llu PARITY MISMATCHES -- a replica "
                 "answered differently from the in-process replay\n",
                 static_cast<unsigned long long>(Sum.ParityMismatches));
    Rc = 1;
  }
  if (Sum.Lost != 0) {
    std::fprintf(stderr,
                 "pbt-bench fleet: %llu requests LOST (all replicas "
                 "exhausted; first error: %s)\n",
                 static_cast<unsigned long long>(Sum.Lost),
                 FirstError.c_str());
    Rc = 1;
  }
  if (ConvergeFailures != 0) {
    std::fprintf(stderr, "pbt-bench fleet: fleet failed to reconverge after "
                         "a kill\n");
    Rc = 1;
  }
  if (Opts.Chaos && ConvergeFailures == 0) {
    if (!QuarantineEngaged) {
      std::fprintf(stderr, "pbt-bench fleet: crash-looping replica was "
                           "never quarantined\n");
      Rc = 1;
    } else if (OkDuringQuarantine == 0) {
      std::fprintf(stderr, "pbt-bench fleet: survivors answered nothing "
                           "during the quarantine phase\n");
      Rc = 1;
    }
  }
  if (Sum.Ok == 0) {
    std::fprintf(stderr, "pbt-bench fleet: no request ever succeeded\n");
    Rc = 1;
  }
  return Rc;
}

} // namespace benchharness
} // namespace pbt
