//===- tests/fleet/SupervisorTest.cpp ----------------------------------------=//
//
// The fleet supervisor against real fork/exec'd pbt-serve replicas
// (located via PBT_SERVE_BIN): health-probe convergence, SIGKILL ->
// restart with a changed pid, crash-loop quarantine (exec failure and
// deliberate kill-looping), TCP port pinning across respawns, and a
// FailoverClient riding through a kill without a single lost request.
// Integration-labelled, so the whole file runs under the sanitizer CI
// matrix.
//
//===----------------------------------------------------------------------===//

#include "fleet/Supervisor.h"

#include "common/ScratchDir.h"
#include "common/TestModels.h"
#include "daemon/Client.h"

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace pbt;
using namespace pbt::testmodels;
using namespace pbt::fleet;

#ifndef PBT_SERVE_BIN
#error "PBT_SERVE_BIN must point at the pbt-serve binary"
#endif

namespace {

class SupervisorTest : public ::testing::Test {
protected:
  SupervisorOptions baseOptions(size_t Replicas) const {
    SupervisorOptions O;
    O.ServerExe = PBT_SERVE_BIN;
    O.ServerArgs = {"--model=" + modelFile()};
    O.Replicas = Replicas;
    O.RuntimeDir = RuntimeDir.path();
    O.HealthIntervalSeconds = 0.05;
    O.BackoffSeconds = 0.02;
    O.BackoffCapSeconds = 0.2;
    return O;
  }

  /// The replicas' socket directory, removed when the test ends (after
  /// its Supervisor has stopped them). Short, for sun_path.
  testdirs::ScratchDir RuntimeDir{"pbt-ft", "/tmp/"};
};

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

} // namespace

TEST_F(SupervisorTest, FleetComesUpHealthyAndServes) {
  Supervisor Sup(baseOptions(2));
  std::string Err;
  ASSERT_TRUE(Sup.start(Err)) << Err;
  ASSERT_TRUE(Sup.waitAllHealthy(60.0));
  EXPECT_EQ(Sup.healthyCount(), 2u);
  EXPECT_EQ(Sup.totalRestarts(), 0u);

  // Every replica endpoint answers the framed protocol.
  for (const std::string &Endpoint : Sup.endpoints()) {
    daemon::DaemonClient C;
    daemon::DaemonClient::AttachInfo Info;
    ASSERT_TRUE(C.connect(Endpoint, Err)) << Endpoint << ": " << Err;
    ASSERT_TRUE(C.attach("sort1", Info, Err)) << Err;
    std::vector<daemon::PredictedChoice> Choices;
    EXPECT_EQ(C.predict({0, 1, 2}, Choices, Err),
              daemon::DaemonClient::PredictOutcome::Ok)
        << Err;
  }
  Sup.stop();
}

TEST_F(SupervisorTest, SigkilledReplicaIsRestartedWithNewPid) {
  Supervisor Sup(baseOptions(2));
  std::string Err;
  ASSERT_TRUE(Sup.start(Err)) << Err;
  ASSERT_TRUE(Sup.waitAllHealthy(60.0));

  pid_t Old = Sup.pid(0);
  ASSERT_GT(Old, 0);
  ASSERT_TRUE(Sup.killReplica(0, SIGKILL));
  ASSERT_TRUE(Sup.waitAllHealthy(60.0)) << "victim never came back";
  EXPECT_NE(Sup.pid(0), Old);
  EXPECT_GE(Sup.totalRestarts(), 1u);
  EXPECT_EQ(Sup.quarantinedCount(), 0u);

  // The restarted replica serves again on its original endpoint.
  daemon::DaemonClient C;
  daemon::DaemonClient::AttachInfo Info;
  ASSERT_TRUE(C.connect(Sup.endpoints()[0], Err)) << Err;
  EXPECT_TRUE(C.attach("sort1", Info, Err)) << Err;
  Sup.stop();
}

TEST_F(SupervisorTest, ExecFailureCrashLoopIsQuarantined) {
  SupervisorOptions O = baseOptions(2);
  O.ServerExe = "/nonexistent/pbt-serve-missing"; // execv fails, _exit(127)
  O.QuarantineRestarts = 2;
  O.QuarantineWindowSeconds = 30.0;
  Supervisor Sup(O);
  std::string Err;
  ASSERT_TRUE(Sup.start(Err)) << Err;

  double Deadline = nowSeconds() + 60.0;
  while (nowSeconds() < Deadline && Sup.quarantinedCount() < 2)
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(Sup.quarantinedCount(), 2u)
      << "crash-looping replicas were never quarantined";
  for (const ReplicaStatus &S : Sup.statuses()) {
    EXPECT_EQ(S.State, ReplicaState::Quarantined);
    EXPECT_GE(S.Restarts, 2u);
  }
  Sup.stop();
}

TEST_F(SupervisorTest, KillLoopedReplicaQuarantinesWhileSurvivorServes) {
  SupervisorOptions O = baseOptions(2);
  O.QuarantineRestarts = 3;
  O.QuarantineWindowSeconds = 30.0;
  Supervisor Sup(O);
  std::string Err;
  ASSERT_TRUE(Sup.start(Err)) << Err;
  ASSERT_TRUE(Sup.waitAllHealthy(60.0));

  // Crash-loop replica 0 by SIGKILLing it every time it comes back.
  double Deadline = nowSeconds() + 120.0;
  while (nowSeconds() < Deadline && Sup.quarantinedCount() == 0) {
    ReplicaStatus S = Sup.statuses()[0];
    if (S.Pid > 0 && (S.State == ReplicaState::Starting ||
                      S.State == ReplicaState::Healthy ||
                      S.State == ReplicaState::Degraded))
      Sup.killReplica(0, SIGKILL);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_EQ(Sup.quarantinedCount(), 1u);
  EXPECT_EQ(Sup.statuses()[0].State, ReplicaState::Quarantined);

  // The fleet keeps serving on the survivor.
  daemon::DaemonClient C;
  daemon::DaemonClient::AttachInfo Info;
  ASSERT_TRUE(C.connect(Sup.endpoints()[1], Err)) << Err;
  ASSERT_TRUE(C.attach("sort1", Info, Err)) << Err;
  std::vector<daemon::PredictedChoice> Choices;
  EXPECT_EQ(C.predict({0, 1}, Choices, Err),
            daemon::DaemonClient::PredictOutcome::Ok)
      << Err;
  EXPECT_EQ(Sup.healthyCount(), 1u);
  Sup.stop();
}

TEST_F(SupervisorTest, TcpEndpointIsPinnedAcrossRestart) {
  SupervisorOptions O = baseOptions(1);
  O.Tcp = true;
  Supervisor Sup(O);
  std::string Err;
  ASSERT_TRUE(Sup.start(Err)) << Err;
  ASSERT_TRUE(Sup.waitAllHealthy(60.0));

  std::string Endpoint = Sup.endpoints()[0];
  ASSERT_EQ(Endpoint.rfind("tcp:", 0), 0u) << Endpoint;

  ASSERT_TRUE(Sup.killReplica(0, SIGKILL));
  ASSERT_TRUE(Sup.waitAllHealthy(60.0));
  // The respawn bound the pinned port: the endpoint a client holds
  // stays valid across the restart.
  EXPECT_EQ(Sup.endpoints()[0], Endpoint);
  daemon::DaemonClient C;
  daemon::DaemonClient::AttachInfo Info;
  ASSERT_TRUE(C.connect(Endpoint, Err)) << Err;
  EXPECT_TRUE(C.attach("sort1", Info, Err)) << Err;
  Sup.stop();
}

TEST_F(SupervisorTest, FailoverClientRidesThroughAKill) {
  Supervisor Sup(baseOptions(2));
  std::string Err;
  ASSERT_TRUE(Sup.start(Err)) << Err;
  ASSERT_TRUE(Sup.waitAllHealthy(60.0));

  daemon::FailoverOptions FO;
  FO.Client.ConnectTimeout = 1.0;
  FO.Client.MaxConnectAttempts = 1;
  FO.CooldownSeconds = 0.1;
  FO.PassesPerCall = 3;
  std::vector<std::string> Endpoints = Sup.endpoints();
  daemon::FailoverClient C(Endpoints, "sort1", FO);

  std::vector<daemon::PredictedChoice> Choices;
  ASSERT_EQ(C.predict({0, 1, 2}, Choices, Err),
            daemon::DaemonClient::PredictOutcome::Ok)
      << Err;

  // Kill the replica that just answered; the next predicts must fail
  // over to the survivor, never surfacing an error.
  size_t Victim = C.lastEndpoint() == Endpoints[0] ? 0 : 1;
  ASSERT_TRUE(Sup.killReplica(Victim, SIGKILL));
  unsigned Failovers = 0;
  for (int I = 0; I < 50; ++I) {
    ASSERT_EQ(C.predict({0, 1, 2}, Choices, Err),
              daemon::DaemonClient::PredictOutcome::Ok)
        << "request lost during failover: " << Err;
    Failovers += C.lastFailovers();
  }
  EXPECT_GE(Failovers, 1u) << "the kill was never even noticed";
  EXPECT_EQ(C.stats().Exhausted, 0u);
  EXPECT_EQ(C.lastEndpoint(), Endpoints[1 - Victim]);

  ASSERT_TRUE(Sup.waitAllHealthy(60.0));
  C.close();
  Sup.stop();
}
