//===- daemon/Client.cpp - pbt-serve client --------------------------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//

#include "daemon/Client.h"

#include "daemon/Transport.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

namespace pbt {
namespace daemon {

namespace {

timeval toTimeval(double Seconds) {
  timeval TV{};
  TV.tv_sec = static_cast<time_t>(Seconds);
  TV.tv_usec =
      static_cast<suseconds_t>((Seconds - static_cast<double>(TV.tv_sec)) *
                               1e6);
  if (TV.tv_sec == 0 && TV.tv_usec == 0)
    TV.tv_usec = 1; // 0/0 would mean "no timeout" to setsockopt
  return TV;
}

double monotonicSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

} // namespace

bool DaemonClient::connect(const std::string &EndpointSpec, std::string &Err) {
  close();
  Endpoint E;
  if (!parseEndpoint(EndpointSpec, E, Err))
    return false;
  Fd = connectEndpoint(E, Opts.ConnectTimeout, Err);
  if (Fd < 0)
    return false;
  Local = E.K == Endpoint::Kind::Unix;

  // Arm the per-operation I/O timeouts: a server that accepts and then
  // wedges turns into an EAGAIN read error instead of a hung client.
  if (Opts.IoTimeout > 0) {
    timeval TV = toTimeval(Opts.IoTimeout);
    if (::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &TV, sizeof(TV)) < 0 ||
        ::setsockopt(Fd, SOL_SOCKET, SO_SNDTIMEO, &TV, sizeof(TV)) < 0) {
      Err = std::string("setsockopt(timeouts): ") + std::strerror(errno);
      close();
      return false;
    }
  }
  return true;
}

bool DaemonClient::connectWithRetry(const std::string &EndpointSpec,
                                    double TimeoutSeconds, std::string &Err) {
  auto Deadline = std::chrono::steady_clock::now() +
                  std::chrono::duration<double>(TimeoutSeconds);
  double Backoff = Opts.BackoffSeconds;
  unsigned MaxAttempts = std::max(1u, Opts.MaxConnectAttempts);
  for (unsigned Attempt = 1;; ++Attempt) {
    if (connect(EndpointSpec, Err))
      return true;
    if (Attempt >= MaxAttempts) {
      Err += " (gave up after " + std::to_string(Attempt) + " attempts)";
      return false;
    }
    if (std::chrono::steady_clock::now() >= Deadline)
      return false;
    if (Opts.SleepHook)
      Opts.SleepHook(Backoff);
    else
      std::this_thread::sleep_for(std::chrono::duration<double>(Backoff));
    Backoff = std::min(Backoff * 2.0, Opts.BackoffCapSeconds);
  }
}

void DaemonClient::close() {
  Ring.reset();
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
  Reader.reset();
}

bool DaemonClient::roundTrip(const std::string &Payload, Message &Reply,
                             std::string &Err, int *PassedFd) {
  TransportFailed = true;
  if (Fd < 0) {
    Err = "not connected";
    return false;
  }
  if (writeFrame(channel(), Payload) != FrameStatus::Ok) {
    Err = "request write failed (server gone?)";
    return false;
  }
  FrameStatus FS = Reader.read(channel(), ReplyPayload, 0, PassedFd);
  if (FS != FrameStatus::Ok) {
    Err = FS == FrameStatus::Closed ? "server closed the connection"
                                    : "response read failed";
    return false;
  }
  if (!decodeMessage(ReplyPayload, Reply)) {
    Err = "malformed server reply";
    return false;
  }
  // A shedding server is saturated: the next reply will not come within
  // a spin, and the spin would take CPU it needs.
  if (Reply.Type == MsgType::Shed)
    Reader.skipNextSpin();
  TransportFailed = false;
  return true;
}

bool DaemonClient::attach(const std::string &Tenant, AttachInfo &Out,
                          std::string &Err) {
  Message Reply;
  int RingFd = -1;
  const bool AskRing = Local && !Ring;
  if (!roundTrip(AskRing ? makeHelloRing(Tenant) : makeHello(Tenant), Reply,
                 Err, AskRing ? &RingFd : nullptr))
    return false;
  if (RingFd >= 0) {
    // The server has moved the session onto the ring: from here on no
    // frame travels on the socket, so a ring that cannot be mapped ends
    // the session.
    Ring = FrameRing::map(RingFd, FrameRing::End::Client, Err);
    ::close(RingFd);
    if (!Ring || Reply.Type != MsgType::TenantOk) {
      if (Ring)
        Err = "ring region passed with a reply other than TenantOk";
      close();
      TransportFailed = true;
      return false;
    }
  }
  if (Reply.Type == MsgType::Error || Reply.Type == MsgType::Shed) {
    // Shed here is the session cap ("session limit reached"), answered
    // before the server would spawn a session thread.
    Err = Reply.Text;
    return false;
  }
  if (Reply.Type != MsgType::TenantOk) {
    Err = "unexpected reply to Hello";
    return false;
  }
  Out.Epoch = Reply.Epoch;
  Out.Landmarks = Reply.Landmarks;
  Out.NumInputs = Reply.NumInputs;
  return true;
}

DaemonClient::PredictOutcome
DaemonClient::predict(const std::vector<uint64_t> &Inputs,
                      std::vector<PredictedChoice> &Choices,
                      std::string &Err) {
  encodePredict(Request, Inputs);
  // Lend the caller's vector to the decode, so a Predictions body lands
  // in its capacity, and take it back whatever the reply was.
  PredictReply.Choices.swap(Choices);
  bool Answered = roundTrip(Request, PredictReply, Err);
  Choices.swap(PredictReply.Choices);
  if (!Answered)
    return PredictOutcome::Error;
  const Message &Reply = PredictReply;
  switch (Reply.Type) {
  case MsgType::Predictions:
    if (Choices.size() != Inputs.size()) {
      Err = "prediction count mismatch";
      return PredictOutcome::Error;
    }
    return PredictOutcome::Ok;
  case MsgType::Shed:
    Err = Reply.Text;
    return PredictOutcome::Shed;
  case MsgType::Error:
    Err = Reply.Text;
    return PredictOutcome::Error;
  default:
    Err = "unexpected reply to Predict";
    return PredictOutcome::Error;
  }
}

bool DaemonClient::stats(std::string &JsonOut, std::string &Err) {
  Message Reply;
  if (!roundTrip(makeStats(), Reply, Err))
    return false;
  if (Reply.Type != MsgType::StatsReply) {
    Err = Reply.Type == MsgType::Error ? Reply.Text
                                       : "unexpected reply to Stats";
    return false;
  }
  JsonOut = std::move(Reply.Text);
  return true;
}

bool DaemonClient::listTenants(std::vector<std::string> &Names,
                               std::string &Err) {
  Message Reply;
  if (!roundTrip(makeListTenants(), Reply, Err))
    return false;
  if (Reply.Type != MsgType::TenantList) {
    Err = Reply.Type == MsgType::Error ? Reply.Text
                                       : "unexpected reply to ListTenants";
    return false;
  }
  Names = std::move(Reply.Names);
  return true;
}

bool DaemonClient::shutdownServer(std::string &Err) {
  Message Reply;
  if (!roundTrip(makeShutdown(), Reply, Err))
    return false;
  if (Reply.Type != MsgType::Bye) {
    Err = "unexpected reply to Shutdown";
    return false;
  }
  return true;
}

bool DaemonClient::ping(HealthInfo &Out, std::string &Err) {
  Message Reply;
  if (!roundTrip(makePing(), Reply, Err))
    return false;
  if (Reply.Type != MsgType::Health) {
    Err = Reply.Type == MsgType::Error ? Reply.Text
                                       : "unexpected reply to Ping";
    return false;
  }
  Out.Pid = Reply.Pid;
  Out.Sessions = Reply.Sessions;
  Out.Tenants = std::move(Reply.Tenants);
  return true;
}

bool DaemonClient::sendRaw(const void *Data, size_t Size) {
  return Fd >= 0 && writeRaw(channel(), Data, Size) == FrameStatus::Ok;
}

//===----------------------------------------------------------------------===//
// FailoverClient
//===----------------------------------------------------------------------===//

FailoverClient::FailoverClient(std::vector<std::string> Endpoints,
                               std::string TenantName, FailoverOptions Options)
    : Tenant(std::move(TenantName)), Opts(Options), Conn(Options.Client) {
  Replicas.reserve(Endpoints.size());
  for (std::string &E : Endpoints)
    Replicas.push_back(Replica{std::move(E), 0, 0});
}

void FailoverClient::close() {
  Conn.close();
  Attached = SIZE_MAX;
}

void FailoverClient::markDown(size_t I) {
  double Now = monotonicSeconds();
  Replicas[I].DownUntil = Now + Opts.CooldownSeconds;
  Replicas[I].LastFail = Now;
  ++Counters.MarkDowns;
  if (Attached == I)
    close();
}

bool FailoverClient::ensureAttached(size_t I, std::string &Err) {
  if (Attached == I && Conn.connected())
    return true;
  close();
  if (!Conn.connect(Replicas[I].Endpoint, Err))
    return false;
  DaemonClient::AttachInfo Info;
  if (!Conn.attach(Tenant, Info, Err)) {
    Conn.close();
    return false;
  }
  Attached = I;
  Replicas[I].DownUntil = 0;
  ++Counters.Reconnects;
  return true;
}

DaemonClient::PredictOutcome
FailoverClient::predict(const std::vector<uint64_t> &Inputs,
                        std::vector<PredictedChoice> &Choices,
                        std::string &Err) {
  LastFailovers = 0;
  if (Replicas.empty()) {
    Err = "no endpoints";
    return DaemonClient::PredictOutcome::Error;
  }
  std::string LastErr = "no replica reachable";
  unsigned Passes = std::max(1u, Opts.PassesPerCall);
  for (unsigned Pass = 0; Pass < Passes; ++Pass) {
    // Order candidates: the currently-attached replica first (the common
    // no-failure path reuses the warm session), then up replicas round-
    // robin, then cooled-down ones; on the final pass a last-resort probe
    // of the least-recently-failed endpoint beats refusing outright.
    std::vector<size_t> Order;
    Order.reserve(Replicas.size());
    double Now = monotonicSeconds();
    if (Attached != SIZE_MAX && Conn.connected())
      Order.push_back(Attached);
    for (size_t K = 0; K < Replicas.size(); ++K) {
      size_t I = (RoundRobin + K) % Replicas.size();
      if (I != Attached && Replicas[I].DownUntil <= Now)
        Order.push_back(I);
    }
    if (Order.empty() || Pass + 1 == Passes) {
      size_t Oldest = SIZE_MAX;
      for (size_t I = 0; I < Replicas.size(); ++I) {
        bool Listed = false;
        for (size_t O : Order)
          Listed |= O == I;
        if (!Listed && (Oldest == SIZE_MAX ||
                        Replicas[I].LastFail < Replicas[Oldest].LastFail))
          Oldest = I;
      }
      if (Oldest != SIZE_MAX)
        Order.push_back(Oldest);
    }
    for (size_t I : Order) {
      std::string E;
      if (!ensureAttached(I, E)) {
        LastErr = Replicas[I].Endpoint + ": " + E;
        markDown(I);
        ++Counters.Failovers;
        ++LastFailovers;
        continue;
      }
      auto Outcome = Conn.predict(Inputs, Choices, E);
      if (Outcome != DaemonClient::PredictOutcome::Error ||
          !Conn.lastRpcTransportFailed()) {
        // Ok, Shed, and a server's Error *reply* are all answers from a
        // live replica; only transport failures fail over.
        RoundRobin = (I + 1) % Replicas.size();
        LastEndpoint = Replicas[I].Endpoint;
        if (Outcome != DaemonClient::PredictOutcome::Ok)
          Err = E;
        return Outcome;
      }
      LastErr = Replicas[I].Endpoint + ": " + E;
      markDown(I);
      ++Counters.Failovers;
      ++LastFailovers;
    }
  }
  ++Counters.Exhausted;
  Err = "all replicas failed: " + LastErr;
  return DaemonClient::PredictOutcome::Error;
}

} // namespace daemon
} // namespace pbt
