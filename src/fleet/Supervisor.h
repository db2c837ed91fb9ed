//===- fleet/Supervisor.h - cross-process replica supervision --------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving-fleet supervisor: fork/execs N `pbt-serve` replica
/// processes that share one on-disk ModelStore, and keeps them alive.
///
/// Each replica is watched two ways: waitpid(WNOHANG) catches a process
/// that died (crash, SIGKILL, exec failure), and periodic Ping/Health
/// probes over the replica's own serving socket catch one that is alive
/// but wedged (a hung replica is SIGKILLed into the crash path). A dead
/// replica is restarted with bounded exponential backoff; a replica that
/// crash-loops -- M restarts inside a sliding window -- is quarantined:
/// no further restarts, the fleet keeps serving on the survivors, and an
/// operator (or test) can see exactly why via statuses().
///
/// Transport: Unix-domain sockets under RuntimeDir by default, or TCP
/// (each replica binds an ephemeral port on first spawn, written to a
/// port file; the supervisor pins that port for respawns so client
/// endpoint lists stay stable across restarts).
///
/// The OnRestart hook runs before each respawn. The fleet bench points
/// it at RolloutController::resume(), which reloads the publisher's
/// champion from CURRENT before the replacement process loads the store
/// -- the supervisor, not the publisher, drives the resume path after a
/// crash.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_FLEET_SUPERVISOR_H
#define PBT_FLEET_SUPERVISOR_H

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sys/types.h>

namespace pbt {
namespace fleet {

struct SupervisorOptions {
  /// Path of the pbt-serve executable to fork/exec.
  std::string ServerExe;
  /// Arguments shared by every replica (e.g. "--store=DIR",
  /// "--queue=64"). The supervisor appends the per-replica transport
  /// flags itself.
  std::vector<std::string> ServerArgs;
  /// Replica processes to run.
  size_t Replicas = 3;
  /// false: Unix sockets RuntimeDir/r<i>.sock. true: TCP on Host with
  /// an ephemeral first-spawn port pinned across respawns.
  bool Tcp = false;
  std::string Host = "127.0.0.1";
  /// Directory for sockets and port files; created if missing. Keep it
  /// short -- Unix socket paths live here (sun_path is ~107 bytes).
  std::string RuntimeDir = "/tmp";
  /// Seconds between health probes of a running replica.
  double HealthIntervalSeconds = 0.25;
  /// Per-probe connect+ping budget.
  double HealthTimeoutSeconds = 2.0;
  /// A replica younger than this may fail probes without penalty (model
  /// loading takes a moment, much longer under sanitizers).
  double StartupGraceSeconds = 30.0;
  /// Consecutive failed probes (after the grace period) before a live
  /// but wedged replica is SIGKILLed into the restart path.
  unsigned ProbesBeforeKill = 8;
  /// Restart backoff: first restart after BackoffSeconds, doubling per
  /// crash up to BackoffCapSeconds; reset to the base after the replica
  /// stays healthy for BackoffResetSeconds.
  double BackoffSeconds = 0.05;
  double BackoffCapSeconds = 2.0;
  double BackoffResetSeconds = 5.0;
  /// Quarantine: this many restarts within QuarantineWindowSeconds stops
  /// the restarting -- the replica is marked Quarantined and the fleet
  /// serves on survivors.
  unsigned QuarantineRestarts = 5;
  double QuarantineWindowSeconds = 20.0;
  /// Invoked (off-lock, from the monitor thread) right before a crashed
  /// replica is respawned. The fleet bench drives
  /// RolloutController::resume() here.
  std::function<void(size_t)> OnRestart;
};

enum class ReplicaState {
  Stopped,     ///< not started, or supervisor stopped
  Starting,    ///< spawned, not yet seen healthy
  Healthy,     ///< last probe answered
  Degraded,    ///< running but failing probes (counting toward a kill)
  Backoff,     ///< dead, waiting out the restart backoff
  Quarantined, ///< crash-looped; no further restarts
};

const char *replicaStateName(ReplicaState S);

struct ReplicaStatus {
  size_t Index = 0;
  ReplicaState State = ReplicaState::Stopped;
  pid_t Pid = -1;
  std::string Endpoint; ///< connectable spec ("unix:..." / "tcp:...")
  uint64_t Restarts = 0;
  /// Min store epoch over the replica's tenants at the last good probe
  /// (0 until one succeeds) -- the fleet-convergence signal.
  uint64_t StoreEpoch = 0;
  uint64_t ServiceEpoch = 0;
  int LastExitStatus = 0; ///< raw waitpid status of the last death
};

class Supervisor {
public:
  explicit Supervisor(SupervisorOptions Options);
  ~Supervisor();

  Supervisor(const Supervisor &) = delete;
  Supervisor &operator=(const Supervisor &) = delete;

  /// Creates RuntimeDir, spawns every replica, starts the monitor
  /// thread. False with \p Err on spawn/setup failure.
  bool start(std::string &Err);

  /// Stops monitoring, SIGTERMs every replica, reaps with a bounded
  /// grace period (then SIGKILL). Idempotent.
  void stop();

  std::vector<ReplicaStatus> statuses() const;

  /// Endpoint specs for clients, in replica order. Endpoints are stable
  /// across restarts; with \p HealthyOnly only currently-Healthy
  /// replicas are listed.
  std::vector<std::string> endpoints(bool HealthyOnly = false) const;

  pid_t pid(size_t I) const;
  uint64_t totalRestarts() const;
  size_t quarantinedCount() const;
  size_t healthyCount() const;

  /// Sends \p Sig to replica \p I's process (chaos: SIGKILL). False if
  /// it has no live process.
  bool killReplica(size_t I, int Sig);

  /// Waits until every non-quarantined replica is Healthy. False on
  /// timeout.
  bool waitAllHealthy(double TimeoutSeconds);

  /// Waits until every non-quarantined replica is Healthy *and* reports
  /// StoreEpoch == \p Epoch, i.e. the fleet has reconverged onto
  /// CURRENT. Requires at least one such replica. False on timeout.
  bool waitConverged(uint64_t Epoch, double TimeoutSeconds);

private:
  struct Replica {
    ReplicaState State = ReplicaState::Stopped;
    pid_t Pid = -1;
    std::string Endpoint;  ///< connectable spec; empty until known (TCP)
    std::string SocketPath; ///< unix transport
    std::string PortFile;   ///< tcp transport
    uint16_t PinnedPort = 0;
    uint64_t Restarts = 0;
    uint64_t StoreEpoch = 0;
    uint64_t ServiceEpoch = 0;
    int LastExitStatus = 0;
    unsigned FailedProbes = 0;
    double SpawnedAt = 0;
    double HealthySince = 0;
    double NextRestartAt = 0;
    double NextProbeAt = 0;
    double Backoff = 0;
    /// Bumped by killReplica() so an in-flight probe that raced the
    /// signal cannot re-mark a just-killed replica Healthy.
    uint64_t ProbeGen = 0;
    std::deque<double> RestartTimes; ///< for the quarantine window
  };

  bool spawn(size_t I, std::string &Err);
  void reapAndRestart(size_t I);
  void probe(size_t I);
  void monitorLoop();

  SupervisorOptions Opts;
  mutable std::mutex Mu;
  std::vector<Replica> Fleet;
  std::thread Monitor;
  std::atomic<bool> StopFlag{false};
  bool Started = false;
};

} // namespace fleet
} // namespace pbt

#endif // PBT_FLEET_SUPERVISOR_H
