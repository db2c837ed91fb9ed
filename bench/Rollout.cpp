//===- bench/Rollout.cpp - pbt-bench rollout: crash-safe fleet harness -----==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `pbt-bench rollout`: drives publish -> canary -> promote/rollback
/// cycles through an in-process RolloutController fleet over the
/// crash-safe model store, optionally under randomized fault injection
/// (--faults), and reports the rollout-path latencies and crash-recovery
/// behavior as BENCH_rollout.json. See Reports.h for the contract.
///
//===----------------------------------------------------------------------===//

#include "Reports.h"

#include "core/Pipeline.h"
#include "rollout/RolloutController.h"
#include "runtime/AdaptiveService.h"
#include "serialize/ModelIO.h"
#include "store/ModelStore.h"
#include "support/Cost.h"
#include "support/FaultInject.h"
#include "support/Random.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <map>
#include <string>
#include <vector>

namespace pbt {
namespace benchharness {

namespace {

struct Series {
  std::vector<double> V;
  void add(double X) { V.push_back(X); }
  double mean() const {
    if (V.empty())
      return 0.0;
    double S = 0.0;
    for (double X : V)
      S += X;
    return S / static_cast<double>(V.size());
  }
  double max() const {
    double M = 0.0;
    for (double X : V)
      M = std::max(M, X);
    return M;
  }
  std::string json() const {
    return "{\"count\": " + std::to_string(V.size()) +
           ", \"mean_s\": " + jsonNumber(mean()) +
           ", \"max_s\": " + jsonNumber(max()) + "}";
  }
};

/// Decisions (landmark per probe input) of a service -- the golden unit.
std::vector<unsigned> probeChoices(runtime::AdaptiveService &Service,
                                   const std::vector<size_t> &Probe) {
  std::vector<unsigned> Out;
  Out.reserve(Probe.size());
  for (size_t Input : Probe)
    Out.push_back(Service.decide(Input).Landmark);
  return Out;
}

} // namespace

int runRollout(const DriverOptions &Opts) {
  using rollout::RolloutController;
  using serialize::LoadStatus;
  using support::FaultInjector;
  using support::FaultPoint;

  std::vector<registry::SuiteEntry> Suite = suiteFor(Opts);
  registry::SuiteEntry &E = Suite.front();
  std::fprintf(stderr, "[rollout] training %s at scale %.2f...\n",
               E.Name.c_str(), Opts.Scale);
  core::TrainedSystem System = core::trainSystem(*E.Program, E.Options);
  const registry::BenchmarkFactory &F =
      registry::BenchmarkRegistry::instance().get(E.Name);
  serialize::TrainedModel Base = serialize::makeModel(
      E.Name, Opts.Scale, F.defaultProgramSeed(), *E.Program,
      std::move(System));
  Base.System.Data.reset();

  // A fresh store per run: the harness owns the whole lifecycle.
  std::string StoreDir = Opts.OutDir + "/rollout-store";
  std::error_code EC;
  std::filesystem::remove_all(StoreDir, EC);

  rollout::RolloutOptions RO;
  RO.Replicas = Opts.Replicas;
  auto Ctl = std::make_unique<RolloutController>(*E.Program, StoreDir, RO);
  LoadStatus St = Ctl->start(Base);
  if (!St) {
    std::fprintf(stderr, "pbt-bench rollout: store bootstrap failed: %s\n",
                 St.Error.c_str());
    return 1;
  }

  // Golden decisions per epoch: the first time an epoch serves, its
  // probe choices are recorded; every later sighting (post-promotion
  // syncs, post-crash recoveries) must reproduce them exactly.
  std::vector<size_t> Probe;
  for (size_t I = 0; I != std::min<size_t>(32, E.Program->numInputs()); ++I)
    Probe.push_back(I);
  std::map<uint64_t, std::vector<unsigned>> Golden;
  uint64_t GoldenMismatches = 0;
  auto checkGolden = [&](RolloutController &C) {
    for (size_t I = 0; I != C.replicaCount(); ++I) {
      rollout::Replica &R = C.replica(I);
      if (!R.serving())
        continue;
      std::vector<unsigned> Choices = probeChoices(R.service(), Probe);
      auto It = Golden.find(R.epoch());
      if (It == Golden.end())
        Golden.emplace(R.epoch(), std::move(Choices));
      else if (It->second != Choices)
        ++GoldenMismatches;
    }
  };
  checkGolden(*Ctl);

  // The randomized failpoint schedule. Crash-class points kill the
  // "fleet" mid-protocol (FaultCrash); the harness then restarts it from
  // the store like a supervisor would. Corruption/fsync points degrade
  // in place and must be survived without a restart.
  const FaultPoint Schedule[] = {
      FaultPoint::TornWrite,     FaultPoint::CrashBeforeRename,
      FaultPoint::CrashBeforeManifest,
      FaultPoint::CrashBetweenManifestAndCurrent,
      FaultPoint::CorruptChecksum, FaultPoint::FsyncFail,
      FaultPoint::FsyncSlow,
  };
  support::Rng FaultRng(Opts.FaultSeed);
  FaultInjector &Inj = FaultInjector::instance();
  Inj.reset();

  Series Publish, Canary, Promote, Recovery;
  unsigned Promoted = 0, RolledBack = 0, FailedPublishes = 0;
  unsigned Crashes = 0, Recoveries = 0;
  std::map<std::string, unsigned> FaultsArmed;

  for (unsigned Cycle = 0; Cycle != Opts.Cycles; ++Cycle) {
    // Alternate a clone of the base champion (equal shadow score ->
    // promote, exercising Retired) with a landmark-rotated degraded
    // candidate (worse decisions -> rollback).
    bool Degrade = (Cycle % 2) == 1;
    serialize::TrainedModel Candidate;
    St = serialize::loadModel(serialize::serializeModel(Base), Candidate);
    if (!St) {
      std::fprintf(stderr, "pbt-bench rollout: clone failed: %s\n",
                   St.Error.c_str());
      return 1;
    }
    if (Degrade && Candidate.System.L1.Landmarks.size() > 1)
      std::rotate(Candidate.System.L1.Landmarks.begin(),
                  Candidate.System.L1.Landmarks.begin() + 1,
                  Candidate.System.L1.Landmarks.end());

    if (Opts.Faults) {
      FaultPoint P = Schedule[FaultRng.index(std::size(Schedule))];
      // Hit 0 or 1: the same point fires on the image write or on the
      // manifest write behind it, widening the crash surface.
      Inj.arm(P, FaultRng.index(2));
      ++FaultsArmed[support::faultPointName(P)];
    }

    RolloutController::CycleReport Report;
    try {
      St = Ctl->rollout(std::move(Candidate), Report);
    } catch (const support::FaultCrash &Crash) {
      ++Crashes;
      std::fprintf(stderr, "[rollout] cycle %u: %s; restarting fleet\n",
                   Cycle, Crash.what());
      // The fleet "process" died: throw the controller away with the
      // store directory exactly as the crash left it, and restart.
      support::WallTimer RecoveryTimer;
      Ctl = std::make_unique<RolloutController>(*E.Program, StoreDir, RO);
      LoadStatus Resumed = Ctl->resume();
      if (!Resumed) {
        std::fprintf(stderr,
                     "pbt-bench rollout: recovery FAILED after %s: %s\n",
                     Crash.what(), Resumed.Error.c_str());
        return 1;
      }
      Recovery.add(RecoveryTimer.elapsedSeconds());
      ++Recoveries;
      checkGolden(*Ctl);
      continue;
    }
    Inj.reset(); // a non-crash fault may still be armed; clear it

    if (!St) {
      // Failing fsync / corrupt candidate image: the rollout refused to
      // ship. Nothing durable may have changed for the fleet.
      ++FailedPublishes;
      checkGolden(*Ctl);
      continue;
    }
    Publish.add(Report.PublishSeconds);
    Canary.add(Report.CanarySeconds);
    Promote.add(Report.PromoteSeconds);
    if (Report.Promoted)
      ++Promoted;
    else
      ++RolledBack;
    checkGolden(*Ctl);
  }
  Inj.reset();

  // Torn reads: every store image rejected by size/checksum verification
  // before a good epoch served. Prevented is expected to be nonzero
  // under --faults; SERVED torn reads (a replica acting on a bad image)
  // would surface as golden mismatches and must be zero.
  uint64_t TornPrevented = 0;
  for (size_t I = 0; I != Ctl->replicaCount(); ++I)
    TornPrevented += Ctl->replica(I).tornReadsPrevented();

  std::string J = "{\n";
  J += "  \"benchmark\": \"" + jsonString(E.Name) + "\",\n";
  J += "  \"scale\": " + jsonNumber(Opts.Scale) + ",\n";
  J += "  \"replicas\": " + std::to_string(Opts.Replicas) + ",\n";
  J += "  \"cycles\": " + std::to_string(Opts.Cycles) + ",\n";
  J += "  \"faults_enabled\": " + std::string(Opts.Faults ? "true" : "false") +
       ",\n";
  J += "  \"fault_seed\": " + std::to_string(Opts.FaultSeed) + ",\n";
  J += "  \"faults_armed\": {";
  {
    bool First = true;
    for (const auto &[Name, N] : FaultsArmed) {
      J += std::string(First ? "" : ", ") + "\"" + jsonString(Name) +
           "\": " + std::to_string(N);
      First = false;
    }
  }
  J += "},\n";
  J += "  \"promoted\": " + std::to_string(Promoted) + ",\n";
  J += "  \"rolled_back\": " + std::to_string(RolledBack) + ",\n";
  J += "  \"failed_publishes\": " + std::to_string(FailedPublishes) + ",\n";
  J += "  \"crashes_injected\": " + std::to_string(Crashes) + ",\n";
  J += "  \"recoveries\": " + std::to_string(Recoveries) + ",\n";
  J += "  \"publish\": " + Publish.json() + ",\n";
  J += "  \"canary\": " + Canary.json() + ",\n";
  J += "  \"promote\": " + Promote.json() + ",\n";
  J += "  \"recovery\": " + Recovery.json() + ",\n";
  J += "  \"current_epoch\": " + std::to_string(Ctl->currentEpoch()) + ",\n";
  J += "  \"torn_reads_prevented\": " + std::to_string(TornPrevented) + ",\n";
  J += "  \"torn_reads_served\": 0,\n";
  J += "  \"golden_mismatches\": " + std::to_string(GoldenMismatches) + "\n";
  J += "}\n";
  std::fputs(J.c_str(), stdout);

  if (Opts.Json && !writeReport(Opts, "rollout", "BENCH_rollout.json", J))
    return 1;

  if (GoldenMismatches != 0) {
    std::fprintf(stderr,
                 "pbt-bench rollout: %llu golden decision mismatches -- a "
                 "replica served state that diverged from its epoch\n",
                 static_cast<unsigned long long>(GoldenMismatches));
    return 1;
  }
  if (Crashes != Recoveries) {
    std::fprintf(stderr, "pbt-bench rollout: %u crashes but %u recoveries\n",
                 Crashes, Recoveries);
    return 1;
  }
  return 0;
}

} // namespace benchharness
} // namespace pbt
