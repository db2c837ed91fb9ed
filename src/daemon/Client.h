//===- daemon/Client.h - pbt-serve client ----------------------------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Blocking client for the pbt-serve protocol: one connected session
/// with attach / predict / stats / shutdown RPCs. Used by the
/// `pbt-bench loadgen` harness and the daemon tests; the raw fd is
/// exposed so the protocol fuzz wall can also speak garbage through an
/// otherwise-wellformed session.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_DAEMON_CLIENT_H
#define PBT_DAEMON_CLIENT_H

#include "daemon/Protocol.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace pbt {
namespace daemon {

/// Timeout and retry policy for a DaemonClient. The defaults make a
/// hung or wedged server a bounded error, never a hung client.
struct ClientOptions {
  /// Per-attempt connect timeout in seconds (nonblocking connect +
  /// poll). 0 = the OS's blocking connect.
  double ConnectTimeout = 5.0;
  /// Per-read/-write socket timeout in seconds (SO_RCVTIMEO /
  /// SO_SNDTIMEO). 0 = block forever (the pre-timeout behavior).
  double IoTimeout = 10.0;
  /// Connect attempts connectWithRetry makes before giving up, on top
  /// of its wall-clock deadline -- whichever trips first ends the loop.
  unsigned MaxConnectAttempts = 10;
  /// Sleep before the second connect attempt; doubles per attempt
  /// (exponential backoff) up to BackoffCapSeconds.
  double BackoffSeconds = 0.02;
  double BackoffCapSeconds = 0.5;
  /// Test hook: when set, called with each backoff duration instead of
  /// actually sleeping, so the retry schedule is testable in zero time.
  std::function<void(double)> SleepHook;
};

class DaemonClient {
public:
  DaemonClient() = default;
  explicit DaemonClient(ClientOptions Options) : Opts(Options) {}
  ~DaemonClient() { close(); }

  DaemonClient(const DaemonClient &) = delete;
  DaemonClient &operator=(const DaemonClient &) = delete;

  const ClientOptions &options() const { return Opts; }

  /// Connects to a listening pbt-serve endpoint, honoring
  /// ConnectTimeout, and arms the I/O timeouts on the resulting fd.
  /// \p Endpoint is a transport spec ("unix:/path", "tcp:host:port", or
  /// a bare Unix socket path). False with \p Err set on failure; retries
  /// are the caller's policy (see connectWithRetry).
  bool connect(const std::string &Endpoint, std::string &Err);

  /// connect() under the bounded-retry policy: up to MaxConnectAttempts
  /// attempts within \p TimeoutSeconds of wall clock, sleeping with
  /// exponential backoff between attempts -- the "server was just
  /// spawned" path.
  bool connectWithRetry(const std::string &Endpoint, double TimeoutSeconds,
                        std::string &Err);

  void close();
  bool connected() const { return Fd >= 0; }
  int fd() const { return Fd; }

  struct AttachInfo {
    uint64_t Epoch = 0;
    uint32_t Landmarks = 0;
    uint64_t NumInputs = 0;
  };

  /// Hello -> TenantOk. False (with Err) on transport failure, unknown
  /// tenant, or any unexpected reply.
  bool attach(const std::string &Tenant, AttachInfo &Out, std::string &Err);

  enum class PredictOutcome {
    Ok,    ///< Choices filled
    Shed,  ///< admission-control refusal; Err holds the reason
    Error, ///< server Error reply or transport failure; Err says which
  };

  /// Predict -> Predictions/Shed/Error.
  PredictOutcome predict(const std::vector<uint64_t> &Inputs,
                         std::vector<PredictedChoice> &Choices,
                         std::string &Err);

  bool stats(std::string &JsonOut, std::string &Err);
  bool listTenants(std::vector<std::string> &Names, std::string &Err);
  /// Shutdown -> Bye. The server exits afterwards.
  bool shutdownServer(std::string &Err);

  struct HealthInfo {
    uint64_t Pid = 0;
    uint32_t Sessions = 0;
    std::vector<TenantHealth> Tenants;
  };

  /// Ping -> Health. The liveness probe a supervisor drives.
  bool ping(HealthInfo &Out, std::string &Err);

  /// Sends raw bytes on the socket, bypassing framing entirely (fuzz
  /// tests only).
  bool sendRaw(const void *Data, size_t Size);

  /// True when the most recent RPC failed at the transport layer (write
  /// failed, connection closed, malformed frame) rather than being
  /// answered by the server. A FailoverClient fails over only on these:
  /// a server's Error *reply* is an answer and retrying it elsewhere
  /// would just repeat it.
  bool lastRpcTransportFailed() const { return TransportFailed; }

private:
  /// One request frame out, one response frame back, decoded.
  bool roundTrip(const std::string &Payload, Message &Reply,
                 std::string &Err);

  ClientOptions Opts;
  int Fd = -1;
  /// Reply reader for this connection; reset by connect() and close().
  FrameReader Reader;
  bool TransportFailed = false;
};

/// Failover policy for a FailoverClient.
struct FailoverOptions {
  /// Per-connection timeouts/backoff. MaxConnectAttempts is usually 1
  /// here: failover to the next replica beats hammering a dead one.
  ClientOptions Client;
  /// How long a failed endpoint stays marked down before it is eligible
  /// again. Expiry is the rejoin path -- a restarted replica gets
  /// traffic back without any external signal.
  double CooldownSeconds = 1.0;
  /// How many times each endpoint may be tried within one predict()
  /// call before the request is declared lost.
  unsigned PassesPerCall = 2;
};

/// A client over a *list* of replica endpoints with transparent
/// failover: endpoints are marked down on connect or I/O failure and
/// rejoin after a cooldown; Predict -- idempotent by construction, the
/// same input batch decides identically on every replica of an epoch --
/// is retried on the next replica when a transport error hits
/// mid-request. A Shed reply is an answer (admission control), never a
/// failover trigger. When every endpoint is in cooldown the
/// least-recently-failed one is probed anyway: with a whole fleet marked
/// down, a forced probe is strictly better than refusing to try.
class FailoverClient {
public:
  FailoverClient(std::vector<std::string> Endpoints, std::string Tenant,
                 FailoverOptions Options = FailoverOptions());

  /// Predict with failover across the endpoint list. Outcome::Error
  /// means every pass over every endpoint failed -- with any replica
  /// alive this should never happen, which is exactly what the chaos
  /// wall asserts.
  DaemonClient::PredictOutcome predict(const std::vector<uint64_t> &Inputs,
                                       std::vector<PredictedChoice> &Choices,
                                       std::string &Err);

  /// Transport failures survived by the most recent predict() call (0 =
  /// first replica answered).
  unsigned lastFailovers() const { return LastFailovers; }

  /// The endpoint that answered the most recent successful predict().
  const std::string &lastEndpoint() const { return LastEndpoint; }

  struct Stats {
    uint64_t Failovers = 0;  ///< transport failures skipped past
    uint64_t MarkDowns = 0;  ///< endpoints marked down
    uint64_t Reconnects = 0; ///< successful (re)connect+attach
    uint64_t Exhausted = 0;  ///< predict() calls that ran out of replicas
  };
  const Stats &stats() const { return Counters; }

  void close();

private:
  struct Replica {
    std::string Endpoint;
    double DownUntil = 0; ///< monotonic seconds; 0 = up
    double LastFail = 0;
  };

  bool ensureAttached(size_t I, std::string &Err);
  void markDown(size_t I);

  std::vector<Replica> Replicas;
  std::string Tenant;
  FailoverOptions Opts;
  DaemonClient Conn;
  size_t Attached = SIZE_MAX; ///< replica Conn is attached to
  size_t RoundRobin = 0;
  unsigned LastFailovers = 0;
  std::string LastEndpoint;
  Stats Counters;
};

} // namespace daemon
} // namespace pbt

#endif // PBT_DAEMON_CLIENT_H
