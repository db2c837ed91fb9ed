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
/// AdaptiveService::serveAnswers -- which on a frozen tenant is
/// decideAnswers, and on an adapting (--adapt) one also observes and
/// retrains at a drift flag -- leaves the gate, and writes the reply.
/// The gate is the admission control: at most Workers Predicts are
/// served at once and at most QueueCapacity more wait for a slot; a
/// Predict that finds the line full is answered Shed immediately, so
/// backlog never grows without limit and a client always learns its
/// fate. A Predict is decided inline on the session thread, and its
/// answers are choice-identical to an in-process AdaptiveService replay
/// of the same model (the loadgen harness and the daemon tests assert
/// exactly that). A session's frames travel over its Channel: the
/// socket, or, from a Unix-domain session's first HelloRing on, the ring
/// pair whose sealed shared-memory region the TenantOk reply passed to
/// the client (daemon/Protocol.h). On a ring a request and its reply
/// cost no syscall unless an end sleeps; on a socket they are one recv
/// and one sendmsg in the common case. Either way the stall guard
/// (ReadDeadline) bounds a frame once it has started, and a session that
/// waits for a frame to start waits without a deadline. The session owns
/// its ring end and keeps its own positions, so a client that stores a
/// position that cannot be, or sends more doorbell bytes than the
/// session's sleeps let it, is dropped as malformed; the socket stays
/// the session's doorbell and lifetime, so closing it, or stop()
/// shutting it down, ends any wait on the ring.
///
/// Between requests a session waits in FrameReader::read, which polls
/// its channel for FrameReader::kSpinWindow before it blocks. A
/// closed-loop client's next request is then usually picked up by a
/// session thread that is still on its core, and the client's own
/// DaemonClient waits for the reply the same way, so a warm round trip
/// pays no scheduler wake-up on either end. The reader's gate (spin only
/// after a short wait) and its contention check (no spin while more
/// threads are runnable than the host has hardware threads) bound what
/// the spin burns; spinning threads are runnable themselves, so the
/// check also bounds how many spin at once. A session whose Predict
/// found every admission slot busy, like a client answered Shed, skips
/// its next spin: a saturated daemon needs those cores. The Stats
/// counters frame_waits_spun and frame_waits_slept show how many frame
/// waits the spin caught, and ring_sessions how many sessions are on a
/// ring. ROADMAP item 2 records what the spin and the ring saved on
/// `serve-warm` and what they cost in CPU.
///
/// A warm Predict allocates nothing and pays its bookkeeping per batch.
/// The session decodes every frame into one kept Message and hands its
/// input ids to serveAnswers as they are (uint64_t is size_t on the LP64
/// targets pbt-serve builds for). On a frozen tenant that is
/// decideAnswers, which writes each answer into the session's one kept
/// PredictedChoice buffer -- on a memo hit one compare and one store,
/// with no reference count -- and adds the batch to its service's
/// counters with one add per counter. An adapting tenant fills the same
/// buffer, holds one epoch per batch too (re-read only after its own
/// drift response swaps) and answers exactly as a loop of per-input
/// serve() calls would; encodePredictions turns the buffer into one kept
/// reply buffer. The session holds the batch's epoch only until the
/// reply is encoded, so an idle session never keeps a retired model
/// alive. The server's request and decision totals are the sums of its
/// tenants' counters, which a Predict adds to anyway.
///
/// The Stats reply is one line of JSON written by support::JsonWriter's
/// compact layout. Its keys, their order and the `"key": ` separator are
/// an interface: perfbench reads a key by its first match and a tenant
/// by `{"name": "`, so a new key goes last in its object.
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
  /// Frames whose first bytes a session waited for, split by how the
  /// wait ended: within the reader's spin, or in its blocking recv
  /// (FrameReader::read). A frame already buffered counts in neither.
  uint64_t FrameWaitsSpun = 0;
  uint64_t FrameWaitsSlept = 0;
  /// Sessions whose frames travel through a ring pair right now.
  uint64_t RingSessions = 0;
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
    /// Accepted on a Unix-domain listener, so a HelloRing moves it onto
    /// a ring pair.
    bool Local = false;
    /// The ring pair, from the session's first HelloRing on; null while
    /// its frames travel on the socket (session thread only).
    std::unique_ptr<FrameRing> Ring;
    Channel channel() const { return Channel{Fd, Ring.get()}; }
    /// Only the session thread reads; leftover bytes of a pipelined
    /// next frame wait here between requests.
    FrameReader Reader;
    /// The decoded request, a Predict's answers and the encoded
    /// Predictions reply, reused for every frame of the session (session
    /// thread only).
    Message Request;
    std::vector<PredictedChoice> Answers;
    std::string Reply;
    std::thread Thread;
    std::atomic<bool> Finished{false};
  };

  void acceptLoop();
  void sessionLoop(Session *S);
  /// One decoded client frame -> exactly one response frame. False ends
  /// the session (Shutdown, or a response write failure).
  bool handleMessage(Session *S, const Message &M, Tenant *&Attached);
  /// Writes one response frame on \p S's channel: whether it went out.
  /// A peer that broke its ring is counted malformed.
  bool reply(Session *S, const std::string &Payload);
  /// Answers a HelloRing with \p TenantOk and the fd of a fresh ring
  /// region, and moves \p S onto the ring. A session whose region cannot
  /// be made gets the plain reply and stays on its socket.
  bool attachRing(Session *S, const std::string &TenantOk);
  /// Serves one admitted Predict under \p T's ServeMutex into
  /// \p Answers, one per input. Returns the epoch that answered (on an
  /// adapting tenant, the one that answered the last input).
  runtime::AdaptiveService::EpochPtr
  serve(Tenant &T, const std::vector<uint64_t> &Inputs,
        std::vector<PredictedChoice> &Answers);
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

  // Requests and decisions are counted per tenant only; stats() sums
  // them.
  std::atomic<uint64_t> ConnCount{0}, ShedCount{0}, MalformedCount{0},
      MaxDepth{0}, AdmissionWaitCount{0}, AdmissionWaitNs{0},
      ShedSessionCount{0}, StalledCount{0}, FrameWaitsSpunCount{0},
      FrameWaitsSleptCount{0}, RingSessionCount{0};
};

} // namespace daemon
} // namespace pbt

#endif // PBT_DAEMON_SERVER_H
