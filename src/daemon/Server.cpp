//===- daemon/Server.cpp - pbt-serve daemon core ---------------------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//

#include "daemon/Server.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace pbt {
namespace daemon {

namespace {

/// Minimal JSON string escape (the daemon does not link the bench
/// harness's helpers).
std::string jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

/// A finite double as a JSON number, to 6 significant digits (the retrain
/// timings and the feature cost totals).
std::string jsonDouble(double V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.6g", V);
  return Buf;
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
  std::string Payload;
  while (!StopFlag.load()) {
    FrameStatus FS = S->Reader.read(S->Fd, Payload, Opts.ReadDeadline);
    if (FS == FrameStatus::Closed)
      break;
    if (FS == FrameStatus::TimedOut) {
      // The peer started a frame and stalled: drop it so it cannot pin
      // this session thread. One Error frame explains why, best-effort.
      StalledCount.fetch_add(1, std::memory_order_relaxed);
      writeFrame(S->Fd, makeError("read deadline exceeded mid-frame"));
      break;
    }
    if (FS == FrameStatus::TooLarge) {
      // The one malformed case we can still answer: the length prefix
      // itself was bad, so the stream position is lost -- reply, drop.
      MalformedCount.fetch_add(1, std::memory_order_relaxed);
      writeFrame(S->Fd, makeError("frame length invalid (cap " +
                                  std::to_string(kMaxFrameBytes) + ")"));
      break;
    }
    if (FS != FrameStatus::Ok) {
      // Truncated mid-frame or errno: the peer is gone or hostile.
      MalformedCount.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    Message M;
    if (!decodeMessage(Payload, M)) {
      MalformedCount.fetch_add(1, std::memory_order_relaxed);
      writeFrame(S->Fd, makeError("malformed message payload"));
      break;
    }
    if (!handleMessage(S, M, Attached))
      break;
  }
  S->Finished.store(true);
}

bool Server::handleMessage(Session *S, const Message &M, Tenant *&Attached) {
  switch (M.Type) {
  case MsgType::Hello: {
    Tenant *T = Registry.find(M.Text);
    if (!T)
      return writeFrame(S->Fd, makeError("unknown tenant '" + M.Text +
                                         "'")) == FrameStatus::Ok;
    Attached = T;
    // Epoch and landmark count come from one snapshot: a published
    // retrain or store swap changes both.
    runtime::AdaptiveService::EpochPtr Ep = T->Service->currentEpoch();
    uint32_t Landmarks =
        static_cast<uint32_t>(Ep->Model.System.L1.Landmarks.size());
    return writeFrame(S->Fd, makeTenantOk(Ep->Model.Meta.Epoch, Landmarks,
                                          T->Program->numInputs())) ==
           FrameStatus::Ok;
  }

  case MsgType::Predict: {
    if (!Attached)
      return writeFrame(S->Fd, makeError(
                                   "no tenant attached (send Hello first)")) ==
             FrameStatus::Ok;
    const size_t Universe = Attached->Program->numInputs();
    for (uint64_t In : M.Inputs)
      if (In >= Universe) {
        Attached->Errors.fetch_add(1, std::memory_order_relaxed);
        return writeFrame(S->Fd,
                          makeError("input id " + std::to_string(In) +
                                    " out of range (tenant has " +
                                    std::to_string(Universe) + " inputs)")) ==
               FrameStatus::Ok;
      }

    AdmissionGate::Entry E = Gate.enter();
    if (!E.Admitted) {
      // Admission control: the line of Predicts waiting for a slot is
      // full; refuse now rather than queue without limit.
      ShedCount.fetch_add(1, std::memory_order_relaxed);
      Attached->Shed.fetch_add(1, std::memory_order_relaxed);
      return writeFrame(S->Fd, makeShed(static_cast<uint32_t>(E.Waiting),
                                        "request queue full")) ==
             FrameStatus::Ok;
    }
    if (E.Waited) {
      noteQueueDepth(E.Waiting);
      AdmissionWaitCount.fetch_add(1, std::memory_order_relaxed);
      AdmissionWaitNs.fetch_add(static_cast<uint64_t>(E.WaitTime.count()),
                                std::memory_order_relaxed);
    }
    RequestCount.fetch_add(1, std::memory_order_relaxed);
    Attached->Requests.fetch_add(1, std::memory_order_relaxed);
    std::vector<PredictedChoice> Choices;
    try {
      Choices = serve(*Attached, M.Inputs);
    } catch (const std::exception &Ex) {
      Gate.leave();
      Attached->Errors.fetch_add(1, std::memory_order_relaxed);
      return writeFrame(S->Fd, makeError(std::string("serving failed: ") +
                                         Ex.what())) == FrameStatus::Ok;
    }
    // The slot bounds serving, not the reply write: a client slow to
    // read its answer must not hold a slot.
    Gate.leave();
    return writeFrame(S->Fd, makePredictions(Choices)) == FrameStatus::Ok;
  }

  case MsgType::Stats:
    return writeFrame(S->Fd, makeStatsReply(statsJson())) == FrameStatus::Ok;

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
    return writeFrame(S->Fd,
                      makeHealth(static_cast<uint64_t>(::getpid()), Live,
                                 Tenants)) == FrameStatus::Ok;
  }

  case MsgType::ListTenants:
    return writeFrame(S->Fd, makeTenantList(Registry.names())) ==
           FrameStatus::Ok;

  case MsgType::Shutdown:
    writeFrame(S->Fd, makeBye());
    requestStop();
    return false;

  default:
    // A server->client tag (or anything else) from a client is a
    // protocol violation.
    MalformedCount.fetch_add(1, std::memory_order_relaxed);
    writeFrame(S->Fd, makeError("unexpected message type"));
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

std::vector<PredictedChoice>
Server::serve(Tenant &T, const std::vector<uint64_t> &Inputs) {
  std::vector<size_t> In(Inputs.begin(), Inputs.end());
  std::vector<runtime::AdaptiveService::Decision> Decisions;
  {
    std::lock_guard<std::mutex> Lock(T.ServeMutex);
    if (Registry.options().AutoAdapt) {
      // Observing mode: feed the tenant's drift monitor and reservoir;
      // serve() runs the adaptation loop inline.
      Decisions.reserve(In.size());
      for (size_t Input : In)
        Decisions.push_back(T.Service->serve(Input));
    } else {
      Decisions = T.Service->decideBatch(In, nullptr);
    }
  }
  std::vector<PredictedChoice> Choices;
  Choices.reserve(Decisions.size());
  for (const runtime::AdaptiveService::Decision &D : Decisions)
    Choices.push_back({D.Landmark, D.Epoch});
  DecisionCount.fetch_add(In.size(), std::memory_order_relaxed);
  T.Decisions.fetch_add(In.size(), std::memory_order_relaxed);
  T.Batches.fetch_add(1, std::memory_order_relaxed);
  return Choices;
}

//===----------------------------------------------------------------------===//
// Stats
//===----------------------------------------------------------------------===//

ServerStats Server::stats() const {
  ServerStats S;
  S.Connections = ConnCount.load(std::memory_order_relaxed);
  S.Requests = RequestCount.load(std::memory_order_relaxed);
  S.Decisions = DecisionCount.load(std::memory_order_relaxed);
  S.Shed = ShedCount.load(std::memory_order_relaxed);
  S.Malformed = MalformedCount.load(std::memory_order_relaxed);
  S.Batches = S.BatchedRequests = S.Requests;
  S.MaxQueueDepth = MaxDepth.load(std::memory_order_relaxed);
  S.AdmissionWaits = AdmissionWaitCount.load(std::memory_order_relaxed);
  S.AdmissionWaitUsTotal =
      AdmissionWaitNs.load(std::memory_order_relaxed) / 1000;
  S.ShedSessions = ShedSessionCount.load(std::memory_order_relaxed);
  S.Stalled = StalledCount.load(std::memory_order_relaxed);
  return S;
}

std::string Server::statsJson() const {
  ServerStats S = stats();
  std::string J = "{";
  J += "\"connections\": " + std::to_string(S.Connections);
  J += ", \"requests\": " + std::to_string(S.Requests);
  J += ", \"decisions\": " + std::to_string(S.Decisions);
  J += ", \"shed\": " + std::to_string(S.Shed);
  J += ", \"malformed\": " + std::to_string(S.Malformed);
  J += ", \"batches\": " + std::to_string(S.Batches);
  J += ", \"batched_requests\": " + std::to_string(S.BatchedRequests);
  J += ", \"max_queue_depth\": " + std::to_string(S.MaxQueueDepth);
  J += ", \"admission_waits\": " + std::to_string(S.AdmissionWaits);
  J += ", \"admission_wait_us_total\": " +
       std::to_string(S.AdmissionWaitUsTotal);
  J += ", \"shed_sessions\": " + std::to_string(S.ShedSessions);
  J += ", \"stalled\": " + std::to_string(S.Stalled);
  J += ", \"max_sessions\": " + std::to_string(Opts.MaxSessions);
  J += ", \"queue_capacity\": " + std::to_string(Gate.capacity());
  J += ", \"workers\": " + std::to_string(Opts.Workers);
  J += std::string(", \"adapt\": ") +
       (Registry.options().AutoAdapt ? "true" : "false");
  J += ", \"tenants\": [";
  for (size_t I = 0;; ++I) {
    Tenant *T = Registry.at(I);
    if (!T)
      break;
    runtime::AdaptiveService::StatsSnapshot A = T->Service->stats();
    runtime::AdaptiveService::EpochPtr Ep = T->Service->currentEpoch();
    if (I)
      J += ", ";
    J += "{\"name\": \"" + jsonEscape(T->Name) + "\"";
    J += ", \"benchmark\": \"" + jsonEscape(T->Benchmark) + "\"";
    J += ", \"model\": \"" + jsonEscape(T->ModelPath) + "\"";
    J += ", \"epoch\": " + std::to_string(Ep->Model.Meta.Epoch);
    J += ", \"landmarks\": " +
         std::to_string(Ep->Model.System.L1.Landmarks.size());
    J += ", \"inputs\": " + std::to_string(T->Program->numInputs());
    J += ", \"requests\": " +
         std::to_string(T->Requests.load(std::memory_order_relaxed));
    J += ", \"decisions\": " +
         std::to_string(T->Decisions.load(std::memory_order_relaxed));
    J += ", \"batches\": " +
         std::to_string(T->Batches.load(std::memory_order_relaxed));
    J += ", \"shed\": " +
         std::to_string(T->Shed.load(std::memory_order_relaxed));
    J += ", \"errors\": " +
         std::to_string(T->Errors.load(std::memory_order_relaxed));
    J += ", \"service_decisions\": " + std::to_string(A.Decisions);
    J += ", \"memoized\": " + std::to_string(A.MemoizedDecisions);
    J += ", \"drift_detections\": " + std::to_string(A.DriftDetections);
    J += ", \"retrains\": " + std::to_string(A.Retrains);
    J += ", \"swaps\": " + std::to_string(A.Swaps);
    J += ", \"rejected_candidates\": " + std::to_string(A.RejectedCandidates);
    J += ", \"skipped_retrains\": " + std::to_string(A.SkippedRetrains);
    J += ", \"retrain_seconds_total\": " + jsonDouble(A.RetrainSecondsTotal);
    J += ", \"last_retrain_ms\": " + jsonDouble(A.LastRetrainSeconds * 1e3);
    J += ", \"monitor_cost_paid\": " + jsonDouble(A.MonitorCostPaid);
    J += ", \"feature_cost_paid\": " + jsonDouble(A.FeatureCostPaid);
    J += ", \"last_skip_reason\": \"" + jsonEscape(A.LastSkipReason) + "\"";
    // Last, so readers that take a key's first match still see the keys
    // above unchanged.
    J += ", \"build_ms\": " + jsonDouble(T->BuildMs);
    J += "}";
  }
  J += "]}";
  return J;
}

} // namespace daemon
} // namespace pbt
