//===- daemon/Server.cpp - pbt-serve daemon core ---------------------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//

#include "daemon/Server.h"

#include "daemon/Transport.h"
#include "support/Json.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <type_traits>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace pbt {
namespace daemon {

namespace {

/// How long a session that ends keeps reading what its peer still sends.
constexpr std::chrono::milliseconds kDrainWindow{100};

/// Lets the peer of a session that ends read EOF rather than a reset. A
/// socket closed with received bytes unread -- a ring client's doorbell,
/// the rest of a request the session dropped -- makes the peer's next
/// recv fail with ECONNRESET, and can discard a reply the peer has not
/// read yet. So the write side is shut first, which the peer reads as
/// EOF, and whatever the peer still sends is read and dropped until it
/// closes too, for at most kDrainWindow, so that a flooding peer cannot
/// hold the session thread.
void drainBeforeClose(int Fd) {
  ::shutdown(Fd, SHUT_WR);
  const auto Until = std::chrono::steady_clock::now() + kDrainWindow;
  char Sink[4096];
  for (;;) {
    const auto Now = std::chrono::steady_clock::now();
    if (Now >= Until)
      return;
    ssize_t N = ::recv(Fd, Sink, sizeof Sink, MSG_DONTWAIT);
    if (N > 0 || (N < 0 && errno == EINTR))
      continue;
    if (N == 0 || (errno != EAGAIN && errno != EWOULDBLOCK))
      return;
    struct pollfd Pfd = {Fd, POLLIN, 0};
    (void)::poll(&Pfd, 1, pollTimeoutMs(Until - Now));
  }
}

} // namespace

Server::Server(ModelRegistry &Registry, ServerOptions Options)
    : Registry(Registry), Opts(std::move(Options)),
      Gate(Opts.Workers, Opts.QueueCapacity) {
  if (Opts.Workers == 0)
    Opts.Workers = 1;
}

Server::~Server() { stop(); }

bool Server::start(std::string &Err) {
  if (Started) {
    Err = "server already started";
    return false;
  }
  if (Opts.SocketPath.empty() && Opts.Listen.empty()) {
    Err = "no listen endpoint: set SocketPath and/or Listen";
    return false;
  }
  Listeners.clear();
  auto Fail = [&](const std::string &Msg) {
    Err = Msg;
    Listeners.clear();
    return false;
  };
  if (!Opts.SocketPath.empty()) {
    Endpoint E;
    E.K = Endpoint::Kind::Unix;
    E.Path = Opts.SocketPath;
    Listeners.emplace_back();
    if (!Listeners.back().open(E, Err))
      return Fail(Err);
  }
  for (const std::string &Spec : Opts.Listen) {
    // A bare HOST:PORT here is TCP; "tcp:" prefixed specs also work.
    std::string Full = Spec.rfind("tcp:", 0) == 0 ? Spec : "tcp:" + Spec;
    Endpoint E;
    if (!parseEndpoint(Full, E, Err) || E.K != Endpoint::Kind::Tcp)
      return Fail("bad --listen endpoint '" + Spec + "': " + Err);
    Listeners.emplace_back();
    if (!Listeners.back().open(E, Err))
      return Fail(Err);
  }

  Started = true;
  StopFlag.store(false);
  Acceptor = std::thread([this] { acceptLoop(); });
  return true;
}

void Server::requestStop() {
  StopFlag.store(true);
  StopCv.notify_all();
}

void Server::waitForStop() {
  std::unique_lock<std::mutex> Lock(StopMutex);
  StopCv.wait(Lock, [&] { return StopFlag.load(); });
}

void Server::stop() {
  if (!Started)
    return;
  requestStop();
  if (Acceptor.joinable())
    Acceptor.join();
  Listeners.clear(); // closes fds, unlinks Unix paths

  // Unblock every session read; a session inside a Predict (or waiting
  // at the gate) still serves and answers it before its thread ends.
  {
    std::lock_guard<std::mutex> Lock(SessionsMutex);
    for (auto &S : Sessions)
      if (S->Fd >= 0)
        ::shutdown(S->Fd, SHUT_RDWR);
  }
  for (;;) {
    std::unique_ptr<Session> S;
    {
      std::lock_guard<std::mutex> Lock(SessionsMutex);
      if (Sessions.empty())
        break;
      S = std::move(Sessions.back());
      Sessions.pop_back();
    }
    if (S->Thread.joinable())
      S->Thread.join();
    if (S->Fd >= 0)
      ::close(S->Fd);
  }

  Started = false;
}

std::vector<std::string> Server::boundEndpoints() const {
  std::vector<std::string> Out;
  Out.reserve(Listeners.size());
  for (const Listener &L : Listeners)
    if (L.valid())
      Out.push_back(endpointString(L.bound()));
  return Out;
}

//===----------------------------------------------------------------------===//
// Accept + session threads
//===----------------------------------------------------------------------===//

void Server::acceptLoop() {
  std::vector<pollfd> Polls(Listeners.size());
  while (!StopFlag.load()) {
    for (size_t I = 0; I < Listeners.size(); ++I) {
      Polls[I].fd = Listeners[I].fd();
      Polls[I].events = POLLIN;
      Polls[I].revents = 0;
    }
    int R = ::poll(Polls.data(), Polls.size(), 100);
    if (R < 0) {
      if (errno == EINTR)
        continue;
      break;
    }

    // Reap sessions that ended on their own (client went away).
    {
      std::lock_guard<std::mutex> Lock(SessionsMutex);
      for (size_t I = 0; I < Sessions.size();) {
        if (Sessions[I]->Finished.load()) {
          if (Sessions[I]->Thread.joinable())
            Sessions[I]->Thread.join();
          if (Sessions[I]->Fd >= 0)
            ::close(Sessions[I]->Fd);
          Sessions.erase(Sessions.begin() + static_cast<long>(I));
        } else {
          ++I;
        }
      }
    }

    if (R == 0)
      continue;
    for (size_t I = 0; I < Listeners.size(); ++I) {
      if (!(Polls[I].revents & POLLIN))
        continue;
      int Fd = Listeners[I].acceptConnection();
      if (Fd < 0)
        continue;
      ConnCount.fetch_add(1, std::memory_order_relaxed);

      // Session cap: over the limit, answer one Shed frame and close
      // rather than spawning a thread -- a connection storm degrades to
      // refusals the client can see, not to unbounded thread growth.
      size_t Live;
      {
        std::lock_guard<std::mutex> Lock(SessionsMutex);
        Live = Sessions.size();
      }
      size_t Cap = Opts.MaxSessions > 0 ? Opts.MaxSessions : 1;
      if (Live >= Cap) {
        ShedSessionCount.fetch_add(1, std::memory_order_relaxed);
        writeFrame(Fd, makeShed(static_cast<uint32_t>(Live),
                                "session limit reached"));
        ::close(Fd);
        continue;
      }

      auto S = std::make_unique<Session>();
      S->Fd = Fd;
      S->Local = Listeners[I].bound().K == Endpoint::Kind::Unix;
      Session *Raw = S.get();
      {
        std::lock_guard<std::mutex> Lock(SessionsMutex);
        Sessions.push_back(std::move(S));
      }
      Raw->Thread = std::thread([this, Raw] { sessionLoop(Raw); });
    }
  }
}

void Server::sessionLoop(Session *S) {
  Tenant *Attached = nullptr;
  // The request buffer, like S->Request and S->Reply, lives as long as
  // the session: a warm Predict allocates none of them again.
  std::string Payload;
  while (!StopFlag.load()) {
    FrameStatus FS =
        S->Reader.read(S->channel(), Payload, Opts.ReadDeadline);
    if (FS == FrameStatus::Closed)
      break;
    if (FS == FrameStatus::TimedOut) {
      // The peer started a frame and stalled: drop it so it cannot pin
      // this session thread. One Error frame explains why, best-effort.
      StalledCount.fetch_add(1, std::memory_order_relaxed);
      reply(S, makeError("read deadline exceeded mid-frame"));
      break;
    }
    if (FS == FrameStatus::TooLarge) {
      // The one malformed case we can still answer: the length prefix
      // itself was bad, so the stream position is lost -- reply, drop.
      MalformedCount.fetch_add(1, std::memory_order_relaxed);
      reply(S, makeError("frame length invalid (cap " +
                         std::to_string(kMaxFrameBytes) + ")"));
      break;
    }
    if (FS != FrameStatus::Ok) {
      // Truncated mid-frame, a broken ring or errno: the peer is gone or
      // hostile.
      MalformedCount.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    if (S->Reader.lastWait() == FrameWait::Spun)
      FrameWaitsSpunCount.fetch_add(1, std::memory_order_relaxed);
    else if (S->Reader.lastWait() == FrameWait::Slept)
      FrameWaitsSleptCount.fetch_add(1, std::memory_order_relaxed);
    if (!decodeMessage(Payload, S->Request)) {
      MalformedCount.fetch_add(1, std::memory_order_relaxed);
      reply(S, makeError("malformed message payload"));
      break;
    }
    if (!handleMessage(S, S->Request, Attached))
      break;
  }
  drainBeforeClose(S->Fd);
  if (S->Ring) {
    S->Ring.reset();
    RingSessionCount.fetch_sub(1, std::memory_order_relaxed);
  }
  S->Finished.store(true);
}

bool Server::reply(Session *S, const std::string &Payload) {
  FrameStatus FS = writeFrame(S->channel(), Payload);
  if (FS == FrameStatus::BadRing)
    MalformedCount.fetch_add(1, std::memory_order_relaxed);
  return FS == FrameStatus::Ok;
}

bool Server::attachRing(Session *S, const std::string &TenantOk) {
  std::string Err;
  int MemFd = createSealedMemory(kRingRegionBytes, Err);
  std::unique_ptr<FrameRing> Ring =
      MemFd < 0 ? nullptr
                : FrameRing::map(MemFd, FrameRing::End::Server, Err);
  FrameStatus FS = writeFrame(S->Fd, TenantOk, Ring ? MemFd : -1);
  if (MemFd >= 0)
    ::close(MemFd);
  if (FS != FrameStatus::Ok)
    return false;
  if (Ring) {
    S->Ring = std::move(Ring);
    RingSessionCount.fetch_add(1, std::memory_order_relaxed);
  }
  return true;
}

bool Server::handleMessage(Session *S, const Message &M, Tenant *&Attached) {
  switch (M.Type) {
  case MsgType::Hello:
  case MsgType::HelloRing: {
    Tenant *T = Registry.find(M.Text);
    if (!T)
      return reply(S, makeError("unknown tenant '" + M.Text + "'"));
    Attached = T;
    // Epoch and landmark count come from one snapshot: a published
    // retrain or store swap changes both.
    runtime::AdaptiveService::EpochPtr Ep = T->Service->currentEpoch();
    uint32_t Landmarks =
        static_cast<uint32_t>(Ep->Model.System.L1.Landmarks.size());
    std::string Ok =
        makeTenantOk(Ep->Model.Meta.Epoch, Landmarks, T->Program->numInputs());
    // One ring per connection: a later Hello, of either kind, reuses it.
    if (M.Type == MsgType::HelloRing && S->Local && !S->Ring)
      return attachRing(S, Ok);
    return reply(S, Ok);
  }

  case MsgType::Predict: {
    if (!Attached)
      return reply(S, makeError("no tenant attached (send Hello first)"));
    const size_t Universe = Attached->Program->numInputs();
    for (uint64_t In : M.Inputs)
      if (In >= Universe) {
        Attached->Errors.fetch_add(1, std::memory_order_relaxed);
        return reply(S, makeError("input id " + std::to_string(In) +
                                  " out of range (tenant has " +
                                  std::to_string(Universe) + " inputs)"));
      }

    AdmissionGate::Entry E = Gate.enter();
    // Every slot was busy: while the daemon is saturated, this session's
    // next wait sleeps rather than spin on a core the slots need.
    if (!E.Admitted || E.Waited)
      S->Reader.skipNextSpin();
    if (!E.Admitted) {
      // Admission control: the line of Predicts waiting for a slot is
      // full; refuse now rather than queue without limit.
      ShedCount.fetch_add(1, std::memory_order_relaxed);
      Attached->Shed.fetch_add(1, std::memory_order_relaxed);
      return reply(S, makeShed(static_cast<uint32_t>(E.Waiting),
                               "request queue full"));
    }
    if (E.Waited) {
      noteQueueDepth(E.Waiting);
      AdmissionWaitCount.fetch_add(1, std::memory_order_relaxed);
      AdmissionWaitNs.fetch_add(static_cast<uint64_t>(E.WaitTime.count()),
                                std::memory_order_relaxed);
    }
    Attached->Requests.fetch_add(1, std::memory_order_relaxed);
    runtime::AdaptiveService::EpochPtr Answered;
    try {
      Answered = serve(*Attached, M.Inputs, S->Answers);
    } catch (const std::exception &Ex) {
      Gate.leave();
      Attached->Errors.fetch_add(1, std::memory_order_relaxed);
      // Release: a Stats reader that sees this failure sees the request
      // counted before it.
      Attached->ServeFailures.fetch_add(1, std::memory_order_release);
      return reply(S, makeError(std::string("serving failed: ") + Ex.what()));
    }
    // The slot bounds serving, not the reply encode and write: a client
    // slow to read its answer must not hold a slot.
    Gate.leave();
    encodePredictions(S->Reply, S->Answers);
    // Drop the epoch before the write, so that neither a session waiting
    // for its next frame nor a client that has read this reply finds the
    // session keeping a retired model alive.
    Answered.reset();
    return reply(S, S->Reply);
  }

  case MsgType::Stats:
    return reply(S, makeStatsReply(statsJson()));

  case MsgType::Ping: {
    // Liveness + convergence probe: which process is this, how loaded,
    // and which store epoch each tenant is actually serving.
    std::vector<TenantHealth> Tenants;
    for (size_t I = 0;; ++I) {
      Tenant *T = Registry.at(I);
      if (!T)
        break;
      TenantHealth H;
      H.Name = T->Name;
      H.ServiceEpoch = T->Service->epoch();
      H.StoreEpoch = T->StoreEpoch.load(std::memory_order_relaxed);
      Tenants.push_back(std::move(H));
    }
    uint32_t Live;
    {
      std::lock_guard<std::mutex> Lock(SessionsMutex);
      Live = static_cast<uint32_t>(Sessions.size());
    }
    return reply(S,
                 makeHealth(static_cast<uint64_t>(::getpid()), Live, Tenants));
  }

  case MsgType::ListTenants:
    return reply(S, makeTenantList(Registry.names()));

  case MsgType::Shutdown:
    reply(S, makeBye());
    requestStop();
    return false;

  default:
    // A server->client tag (or anything else) from a client is a
    // protocol violation.
    MalformedCount.fetch_add(1, std::memory_order_relaxed);
    reply(S, makeError("unexpected message type"));
    return false;
  }
}

//===----------------------------------------------------------------------===//
// Serving
//===----------------------------------------------------------------------===//

void Server::noteQueueDepth(size_t Depth) {
  uint64_t Cur = MaxDepth.load(std::memory_order_relaxed);
  while (Depth > Cur &&
         !MaxDepth.compare_exchange_weak(Cur, Depth,
                                         std::memory_order_relaxed)) {
  }
}

// The wire's input ids are the service's input indices, with no copy
// between the two.
static_assert(std::is_same<uint64_t, size_t>::value,
              "pbt-serve needs an LP64 target: a Predict's uint64_t input "
              "ids are passed to serveAnswers as size_t");

runtime::AdaptiveService::EpochPtr
Server::serve(Tenant &T, const std::vector<uint64_t> &Inputs,
              std::vector<PredictedChoice> &Answers) {
  Answers.resize(Inputs.size());
  // An adapting tenant also observes and runs its adaptation loop inline;
  // a frozen one only decides.
  std::unique_lock<std::mutex> Lock(T.ServeMutex);
  runtime::AdaptiveService::EpochPtr Answered =
      T.Service->serveAnswers(Inputs.data(), Inputs.size(), Answers.data());
  Lock.unlock();
  T.Decisions.fetch_add(Inputs.size(), std::memory_order_relaxed);
  return Answered;
}

//===----------------------------------------------------------------------===//
// Stats
//===----------------------------------------------------------------------===//

ServerStats Server::stats() const {
  ServerStats S;
  S.Connections = ConnCount.load(std::memory_order_relaxed);
  // The registry never removes a tenant, so the tenants' sums are the
  // server's totals.
  for (size_t I = 0;; ++I) {
    Tenant *T = Registry.at(I);
    if (!T)
      break;
    S.Requests += T->Requests.load(std::memory_order_relaxed);
    S.Decisions += T->Decisions.load(std::memory_order_relaxed);
  }
  S.Shed = ShedCount.load(std::memory_order_relaxed);
  S.Malformed = MalformedCount.load(std::memory_order_relaxed);
  S.MaxQueueDepth = MaxDepth.load(std::memory_order_relaxed);
  S.AdmissionWaits = AdmissionWaitCount.load(std::memory_order_relaxed);
  S.AdmissionWaitUsTotal =
      AdmissionWaitNs.load(std::memory_order_relaxed) / 1000;
  S.ShedSessions = ShedSessionCount.load(std::memory_order_relaxed);
  S.Stalled = StalledCount.load(std::memory_order_relaxed);
  S.FrameWaitsSpun = FrameWaitsSpunCount.load(std::memory_order_relaxed);
  S.FrameWaitsSlept = FrameWaitsSleptCount.load(std::memory_order_relaxed);
  S.RingSessions = RingSessionCount.load(std::memory_order_relaxed);
  return S;
}

std::string Server::statsJson() const {
  ServerStats S = stats();
  support::JsonWriter W(support::JsonWriter::Layout::Compact);
  W.beginObject()
      .number("connections", S.Connections)
      .number("requests", S.Requests)
      .number("decisions", S.Decisions)
      .number("shed", S.Shed)
      .number("malformed", S.Malformed)
      // Each served Predict is one batch of one request, so both keys
      // read the request count; perfbench reads them.
      .number("batches", S.Requests)
      .number("batched_requests", S.Requests)
      .number("max_queue_depth", S.MaxQueueDepth)
      .number("admission_waits", S.AdmissionWaits)
      .number("admission_wait_us_total", S.AdmissionWaitUsTotal)
      .number("shed_sessions", S.ShedSessions)
      .number("stalled", S.Stalled)
      .number("max_sessions", Opts.MaxSessions)
      .number("queue_capacity", Gate.capacity())
      .number("workers", Opts.Workers)
      .boolean("adapt", Registry.options().AutoAdapt)
      .number("frame_waits_spun", S.FrameWaitsSpun)
      .number("frame_waits_slept", S.FrameWaitsSlept)
      .number("ring_sessions", S.RingSessions)
      .beginArray("tenants");
  for (size_t I = 0;; ++I) {
    Tenant *T = Registry.at(I);
    if (!T)
      break;
    runtime::AdaptiveService::StatsSnapshot A = T->Service->stats();
    runtime::AdaptiveService::EpochPtr Ep = T->Service->currentEpoch();
    // Failures first, acquiring each failure's request count (counted
    // before it in the failing thread), so the difference never wraps.
    const uint64_t Failures =
        T->ServeFailures.load(std::memory_order_acquire);
    const uint64_t Requests = T->Requests.load(std::memory_order_relaxed);
    W.beginObject()
        .string("name", T->Name)
        .string("benchmark", T->Benchmark)
        .string("model", T->ModelPath)
        .number("epoch", Ep->Model.Meta.Epoch)
        .number("landmarks", Ep->Model.System.L1.Landmarks.size())
        .number("inputs", T->Program->numInputs())
        .number("requests", Requests)
        .number("decisions", T->Decisions.load(std::memory_order_relaxed))
        // Each admitted Predict is one batch, answered unless its serve
        // threw.
        .number("batches", Requests - Failures)
        .number("shed", T->Shed.load(std::memory_order_relaxed))
        .number("errors", T->Errors.load(std::memory_order_relaxed))
        .number("service_decisions", A.Decisions)
        .number("memoized", A.MemoizedDecisions)
        .number("drift_detections", A.DriftDetections)
        .number("retrains", A.Retrains)
        .number("swaps", A.Swaps)
        .number("rejected_candidates", A.RejectedCandidates)
        .number("skipped_retrains", A.SkippedRetrains)
        .number("retrain_seconds_total", A.RetrainSecondsTotal)
        .number("last_retrain_ms", A.LastRetrainSeconds * 1e3)
        .number("monitor_cost_paid", A.MonitorCostPaid)
        .number("feature_cost_paid", A.FeatureCostPaid)
        .string("last_skip_reason", A.LastSkipReason)
        // Last, so readers that take a key's first match still see the
        // keys above unchanged.
        .number("build_ms", T->BuildMs)
        .number("retrain_level1_ms_total", A.RetrainLevel1SecondsTotal * 1e3)
        .number("retrain_level2_ms_total", A.RetrainLevel2SecondsTotal * 1e3)
        .end();
  }
  W.end().end();
  return W.str();
}

} // namespace daemon
} // namespace pbt
