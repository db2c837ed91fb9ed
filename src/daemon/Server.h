//===- daemon/Server.h - pbt-serve daemon core -----------------------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pbt-serve daemon: a stream-socket server (Unix-domain and/or TCP,
/// see daemon/Transport.h) answering framed prediction requests
/// (daemon/Protocol.h) for the tenants of a ModelRegistry.
///
/// Thread shape: one accept thread (poll-based, so it can stop) and one
/// session thread per connection. The thread that reads a Predict
/// answers it: it passes the admission gate (daemon/RequestQueue.h),
/// serves the inputs under the tenant's ServeMutex with
/// AdaptiveService::decideBatch (or serve() when the registry's
/// AutoAdapt is on), leaves the gate, and writes the reply. The gate is
/// the admission control: at most Workers Predicts are served at once
/// and at most QueueCapacity more wait for a slot; a Predict that finds
/// the line full is answered Shed immediately, so backlog never grows
/// without limit and a client always learns its fate. The session calls
/// decideBatch without a pool, so a Predict is one inline arena walk on
/// the session thread, and its answers are choice-identical to an
/// in-process AdaptiveService replay of the same model (the loadgen
/// harness and the daemon tests assert exactly that). The session's own
/// FrameReader and writeFrame make a request one recv and its reply one
/// sendmsg in the common case; the stall guard (ReadDeadline) costs a
/// poll only when a frame's bytes are not all there yet.
///
/// Shutdown (requestStop(), a Shutdown frame, or a signal) is clean by
/// construction: the accept loop notices the flag at its next poll
/// tick, and session sockets are shut down to unblock their reads; a
/// session inside a Predict, or waiting at the gate, still serves it
/// before its thread is joined, so every admitted request is answered.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_DAEMON_SERVER_H
#define PBT_DAEMON_SERVER_H

#include "daemon/ModelRegistry.h"
#include "daemon/Protocol.h"
#include "daemon/RequestQueue.h"
#include "daemon/Transport.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace pbt {
namespace daemon {

struct ServerOptions {
  /// Filesystem path of the listening Unix socket (sun_path caps it at
  /// ~107 bytes; keep it short). Unlinked on stop. May be empty when
  /// Listen supplies a TCP endpoint instead; at least one of the two
  /// must be present.
  std::string SocketPath;
  /// Additional TCP listen endpoints, each "HOST:PORT" (port 0 binds an
  /// ephemeral port -- read it back via boundEndpoints()). The same
  /// framed protocol is spoken on every transport.
  std::vector<std::string> Listen;
  /// Cap on concurrent session threads. A connection over the cap is
  /// answered with one Shed frame and closed instead of getting a
  /// thread -- a connection storm degrades to refusals, not to
  /// unbounded thread growth. 0 = 1.
  unsigned MaxSessions = 256;
  /// Once a frame has started arriving on a session, the rest of it
  /// must land within this many seconds or the connection is dropped
  /// (FrameStatus::TimedOut): a stalled or malicious peer cannot pin a
  /// session thread mid-frame. Idle sessions are unaffected. 0 = no
  /// deadline (the pre-TCP behavior).
  double ReadDeadline = 30.0;
  /// Predicts served concurrently (session threads past the admission
  /// gate at once). 0 = 1.
  unsigned Workers = 2;
  /// Predicts waiting for a slot: the admission-control knob. A Predict
  /// that finds this many waiting is answered Shed. 0 = 1.
  size_t QueueCapacity = 64;
};

struct ServerStats {
  uint64_t Connections = 0;
  uint64_t Requests = 0;
  uint64_t Decisions = 0;
  uint64_t Shed = 0;
  uint64_t Malformed = 0;
  /// Each served Predict is one batch of one request.
  uint64_t Batches = 0;
  uint64_t BatchedRequests = 0;
  /// Peak number of Predicts waiting at the admission gate.
  uint64_t MaxQueueDepth = 0;
  /// Predicts admitted after finding every slot busy, and their summed
  /// wait for a slot.
  uint64_t AdmissionWaits = 0;
  uint64_t AdmissionWaitUsTotal = 0;
  /// Connections refused with Shed because MaxSessions was reached.
  uint64_t ShedSessions = 0;
  /// Sessions dropped for stalling mid-frame past ReadDeadline.
  uint64_t Stalled = 0;
};

class Server {
public:
  Server(ModelRegistry &Registry, ServerOptions Options);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds, listens, and starts the accept thread. False with
  /// \p Err set on any socket failure (stale path, path too long, ...).
  bool start(std::string &Err);

  /// Flags the server to stop; safe from any thread (and from the
  /// Shutdown-frame path). Returns immediately.
  void requestStop();

  /// Blocks until requestStop() (e.g. a client's Shutdown frame, or a
  /// signal handler). The pbt-serve main parks here.
  void waitForStop();

  /// Full teardown: stops accepting, unblocks and joins sessions,
  /// unlinks the socket. Idempotent.
  void stop();

  bool running() const { return Started && !StopFlag.load(); }
  const ServerOptions &options() const { return Opts; }
  /// The endpoints actually listening, as specs a DaemonClient can
  /// connect to ("unix:/path", "tcp:host:port" with ephemeral ports
  /// resolved). Valid after start().
  std::vector<std::string> boundEndpoints() const;
  ServerStats stats() const;
  /// The StatsReply body: server counters plus per-tenant serving and
  /// adaptation stats as one JSON object.
  std::string statsJson() const;

private:
  struct Session {
    int Fd = -1;
    /// Only the session thread reads; leftover bytes of a pipelined
    /// next frame wait here between requests.
    FrameReader Reader;
    std::thread Thread;
    std::atomic<bool> Finished{false};
  };

  void acceptLoop();
  void sessionLoop(Session *S);
  /// One decoded client frame -> exactly one response frame. False ends
  /// the session (Shutdown, or a response write failure).
  bool handleMessage(Session *S, const Message &M, Tenant *&Attached);
  /// Serves one admitted Predict under \p T's ServeMutex.
  std::vector<PredictedChoice> serve(Tenant &T,
                                     const std::vector<uint64_t> &Inputs);
  void noteQueueDepth(size_t Depth);

  ModelRegistry &Registry;
  ServerOptions Opts;
  AdmissionGate Gate;

  std::vector<Listener> Listeners;
  bool Started = false;
  std::atomic<bool> StopFlag{false};
  std::mutex StopMutex;
  std::condition_variable StopCv;

  std::thread Acceptor;
  std::mutex SessionsMutex;
  std::vector<std::unique_ptr<Session>> Sessions;

  std::atomic<uint64_t> ConnCount{0}, RequestCount{0}, DecisionCount{0},
      ShedCount{0}, MalformedCount{0}, MaxDepth{0}, AdmissionWaitCount{0},
      AdmissionWaitNs{0}, ShedSessionCount{0}, StalledCount{0};
};

} // namespace daemon
} // namespace pbt

#endif // PBT_DAEMON_SERVER_H
