//===- tests/daemon/TransportTest.cpp ----------------------------------------=//
//
// The transport layer under the daemon: endpoint-spec parsing, raw
// Listener/connectEndpoint round-trips over Unix and TCP, the framed
// protocol served over a TCP listener and over a Unix-domain session's
// ring pair (choice parity with the in-process oracle), the Ping/Health
// liveness probe, the mid-frame read deadline on both (a stalled peer
// is dropped, an idle one is not), and the session-thread cap under a
// connection storm (Shed + close over the cap, capacity restored when a
// session ends).
//
//===----------------------------------------------------------------------===//

#include "common/TestModels.h"
#include "daemon/Client.h"
#include "daemon/ModelRegistry.h"
#include "daemon/Protocol.h"
#include "daemon/Server.h"
#include "daemon/Transport.h"

#include "registry/BenchmarkRegistry.h"
#include "runtime/AdaptiveService.h"
#include "serialize/ModelIO.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <climits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

using namespace pbt;
using namespace pbt::testmodels;
using namespace pbt::daemon;

namespace {

std::string freshSocket() {
  static std::atomic<int> Counter{0};
  return "/tmp/pbt-tt-" + std::to_string(::getpid()) + "-" +
         std::to_string(Counter.fetch_add(1)) + ".sock";
}

/// A running server over the trained tenant; TCP-only unless a socket
/// path is requested via the options.
struct Harness {
  daemon::ModelRegistry Registry;
  std::unique_ptr<daemon::Server> Srv;

  explicit Harness(daemon::ServerOptions SO = {})
      : Registry(daemon::ModelRegistryOptions{}) {
    serialize::LoadStatus St = Registry.addTenant("", modelFile());
    EXPECT_TRUE(St.Ok) << St.Error;
    if (SO.SocketPath.empty() && SO.Listen.empty())
      SO.Listen = {"127.0.0.1:0"};
    Srv = std::make_unique<daemon::Server>(Registry, SO);
    std::string Err;
    EXPECT_TRUE(Srv->start(Err)) << Err;
  }

  std::string endpoint() const { return Srv->boundEndpoints().front(); }

  ~Harness() { Srv->stop(); }
};

std::vector<unsigned> inProcessLandmarks(const std::vector<size_t> &Inputs) {
  serialize::TrainedModel Model;
  EXPECT_TRUE(serialize::loadModelFile(modelFile(), Model).Ok);
  const registry::BenchmarkFactory &F =
      registry::BenchmarkRegistry::instance().get("sort1");
  registry::ProgramPtr P = F.makeProgram(kTestScale, F.defaultProgramSeed());
  runtime::AdaptiveService Service(*P, std::move(Model));
  EXPECT_TRUE(Service.ready()) << Service.status().Error;
  std::vector<runtime::AdaptiveService::Decision> Answers(Inputs.size());
  Service.decideAnswers(Inputs.data(), Inputs.size(), Answers.data());
  std::vector<unsigned> Out;
  for (const runtime::AdaptiveService::Decision &D : Answers)
    Out.push_back(D.Landmark);
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Endpoint specs
//===----------------------------------------------------------------------===//

TEST(TransportTest, ParseEndpointSpecs) {
  Endpoint E;
  std::string Err;
  ASSERT_TRUE(parseEndpoint("unix:/tmp/x.sock", E, Err)) << Err;
  EXPECT_EQ(E.K, Endpoint::Kind::Unix);
  EXPECT_EQ(E.Path, "/tmp/x.sock");

  // Bare paths stay valid: every pre-TCP caller passed one.
  ASSERT_TRUE(parseEndpoint("/tmp/bare.sock", E, Err)) << Err;
  EXPECT_EQ(E.K, Endpoint::Kind::Unix);
  EXPECT_EQ(E.Path, "/tmp/bare.sock");

  ASSERT_TRUE(parseEndpoint("tcp:127.0.0.1:8080", E, Err)) << Err;
  EXPECT_EQ(E.K, Endpoint::Kind::Tcp);
  EXPECT_EQ(E.Host, "127.0.0.1");
  EXPECT_EQ(E.Port, 8080);
  EXPECT_EQ(endpointString(E), "tcp:127.0.0.1:8080");

  EXPECT_FALSE(parseEndpoint("", E, Err));
  EXPECT_FALSE(parseEndpoint("tcp:nohost", E, Err));
  EXPECT_FALSE(parseEndpoint("tcp:host:notaport", E, Err));
  EXPECT_FALSE(parseEndpoint("tcp:host:99999", E, Err));
}

TEST(TransportTest, TcpListenerEphemeralPortRoundTrip) {
  Endpoint Spec;
  std::string Err;
  ASSERT_TRUE(parseEndpoint("tcp:127.0.0.1:0", Spec, Err)) << Err;
  Listener L;
  ASSERT_TRUE(L.open(Spec, Err)) << Err;
  ASSERT_NE(L.bound().Port, 0) << "ephemeral port was not resolved";

  int Client = connectEndpoint(L.bound(), 2.0, Err);
  ASSERT_GE(Client, 0) << Err;
  int Conn = L.acceptConnection();
  ASSERT_GE(Conn, 0);

  char Byte = 'x';
  ASSERT_EQ(::send(Client, &Byte, 1, 0), 1);
  char Got = 0;
  ASSERT_EQ(::recv(Conn, &Got, 1, 0), 1);
  EXPECT_EQ(Got, 'x');
  ::close(Client);
  ::close(Conn);
}

TEST(TransportTest, UnixListenerPrefixedSpecRoundTrip) {
  std::string Path = freshSocket();
  Endpoint Spec;
  std::string Err;
  ASSERT_TRUE(parseEndpoint("unix:" + Path, Spec, Err)) << Err;
  Listener L;
  ASSERT_TRUE(L.open(Spec, Err)) << Err;
  int Client = connectEndpoint(Spec, 2.0, Err);
  ASSERT_GE(Client, 0) << Err;
  int Conn = L.acceptConnection();
  ASSERT_GE(Conn, 0);
  ::close(Client);
  ::close(Conn);
  L.close();
  // close() unlinks the socket path.
  EXPECT_LT(::access(Path.c_str(), F_OK), 0);
}

//===----------------------------------------------------------------------===//
// The framed protocol over TCP
//===----------------------------------------------------------------------===//

/// One 64-input Predict on \p Endpoint answers like the in-process
/// oracle.
void expectOracleParity(const std::string &Endpoint) {
  DaemonClient C;
  std::string Err;
  ASSERT_TRUE(C.connect(Endpoint, Err)) << Err;
  DaemonClient::AttachInfo Info;
  ASSERT_TRUE(C.attach("sort1", Info, Err)) << Err;
  ASSERT_GT(Info.NumInputs, 0u);
  EXPECT_EQ(C.onRing(), Endpoint.rfind("unix:", 0) == 0);

  std::vector<size_t> Inputs;
  std::vector<uint64_t> Wire;
  for (size_t I = 0; I < std::min<uint64_t>(Info.NumInputs, 64); ++I) {
    Inputs.push_back(I);
    Wire.push_back(I);
  }
  std::vector<PredictedChoice> Choices;
  ASSERT_EQ(C.predict(Wire, Choices, Err), DaemonClient::PredictOutcome::Ok)
      << Err;
  std::vector<unsigned> Oracle = inProcessLandmarks(Inputs);
  ASSERT_EQ(Choices.size(), Oracle.size());
  for (size_t I = 0; I < Oracle.size(); ++I)
    EXPECT_EQ(Choices[I].Landmark, Oracle[I]) << "input " << I;
}

TEST(TransportTest, TcpServerAnswersMatchInProcessOracle) {
  Harness H;
  ASSERT_EQ(H.endpoint().rfind("tcp:", 0), 0u) << H.endpoint();
  expectOracleParity(H.endpoint());
}

TEST(TransportTest, RingSessionAnswersMatchInProcessOracle) {
  daemon::ServerOptions SO;
  SO.SocketPath = freshSocket();
  Harness H(SO);
  ASSERT_EQ(H.endpoint().rfind("unix:", 0), 0u) << H.endpoint();
  expectOracleParity(H.endpoint());
}

TEST(TransportTest, DualTransportServesBothListeners) {
  daemon::ServerOptions SO;
  SO.SocketPath = freshSocket();
  SO.Listen = {"127.0.0.1:0"};
  Harness H(SO);
  std::vector<std::string> Bound = H.Srv->boundEndpoints();
  ASSERT_EQ(Bound.size(), 2u);

  for (const std::string &Spec : Bound) {
    DaemonClient C;
    std::string Err;
    ASSERT_TRUE(C.connect(Spec, Err)) << Spec << ": " << Err;
    DaemonClient::AttachInfo Info;
    ASSERT_TRUE(C.attach("sort1", Info, Err)) << Spec << ": " << Err;
  }
}

TEST(TransportTest, PingReportsPidSessionsAndTenantEpochs) {
  Harness H;
  DaemonClient C;
  std::string Err;
  ASSERT_TRUE(C.connect(H.endpoint(), Err)) << Err;

  DaemonClient::HealthInfo Health;
  ASSERT_TRUE(C.ping(Health, Err)) << Err;
  // The server runs in this process: the pid answers "is the process I
  // think I'm probing the one actually behind this socket".
  EXPECT_EQ(Health.Pid, static_cast<uint64_t>(::getpid()));
  EXPECT_GE(Health.Sessions, 1u); // at least this probe's session
  ASSERT_EQ(Health.Tenants.size(), 1u);
  EXPECT_EQ(Health.Tenants[0].Name, "sort1");
}

//===----------------------------------------------------------------------===//
// Read deadline: a mid-frame stall is dropped, an idle session is not
//===----------------------------------------------------------------------===//

TEST(TransportTest, PollTimeoutRoundsUpAndClampsToIntMax) {
  using Ms = std::chrono::duration<double, std::milli>;
  EXPECT_EQ(pollTimeoutMs(Ms(0)), 1);
  EXPECT_EQ(pollTimeoutMs(Ms(0.4)), 1);
  EXPECT_EQ(pollTimeoutMs(Ms(250)), 251);
  EXPECT_EQ(pollTimeoutMs(Ms(-5)), 0);
  // ~35 days: past INT_MAX milliseconds, where a plain int cast wraps
  // negative and poll would wait forever.
  EXPECT_EQ(pollTimeoutMs(Ms(3e9)), INT_MAX);
  EXPECT_EQ(pollTimeoutMs(std::chrono::hours(24 * 365)), INT_MAX);
  EXPECT_GT(pollTimeoutMs(std::chrono::seconds(3'000'000)), 0);
}

TEST(TransportTest, MidFrameStallIsDroppedIdleSessionIsNot) {
  // Over TCP, and over the Unix socket, whose attached sessions stall
  // inside their ring.
  daemon::ServerOptions SO;
  SO.ReadDeadline = 0.15;
  SO.SocketPath = freshSocket();
  SO.Listen = {"127.0.0.1:0"};
  Harness H(SO);
  uint64_t Stalled = 0;
  for (const std::string &Endpoint : H.Srv->boundEndpoints()) {
    SCOPED_TRACE(Endpoint);
    // Idle is legitimate: a session that sends nothing must outlive many
    // deadlines, before its attach and on its ring after it.
    DaemonClient Idle;
    std::string Err;
    ASSERT_TRUE(Idle.connect(Endpoint, Err)) << Err;
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    DaemonClient::AttachInfo Info;
    EXPECT_TRUE(Idle.attach("sort1", Info, Err))
        << "idle session was dropped: " << Err;
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    EXPECT_TRUE(Idle.attach("sort1", Info, Err))
        << "idle session was dropped: " << Err;

    // A peer that starts a frame and stalls is not: the session must end
    // within the deadline, freeing its thread.
    DaemonClient Stall;
    ASSERT_TRUE(Stall.connect(Endpoint, Err)) << Err;
    ASSERT_TRUE(Stall.attach("sort1", Info, Err)) << Err;
    EXPECT_EQ(Stall.onRing(), Endpoint.rfind("unix:", 0) == 0);
    const char Partial[2] = {0x10, 0x00}; // 2 of 4 length-prefix bytes
    ASSERT_TRUE(Stall.sendRaw(Partial, sizeof(Partial)));
    auto Deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    bool SawEof = false;
    while (std::chrono::steady_clock::now() < Deadline) {
      char Buf[64];
      ssize_t N = ::recv(Stall.fd(), Buf, sizeof(Buf), 0);
      if (N == 0) {
        SawEof = true;
        break;
      }
      if (N < 0 && errno != EINTR && errno != EAGAIN)
        break;
      if (N < 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_TRUE(SawEof) << "stalled session was never dropped";
    EXPECT_EQ(H.Srv->stats().Stalled, ++Stalled);
  }
}

//===----------------------------------------------------------------------===//
// Session cap: a connection storm degrades to visible refusals
//===----------------------------------------------------------------------===//

TEST(TransportTest, ConnectionStormShedsOverSessionCap) {
  daemon::ServerOptions SO;
  SO.MaxSessions = 2;
  Harness H(SO);

  // Fill the cap with two attached sessions.
  DaemonClient A, B;
  std::string Err;
  DaemonClient::AttachInfo Info;
  ASSERT_TRUE(A.connect(H.endpoint(), Err) && A.attach("sort1", Info, Err))
      << Err;
  ASSERT_TRUE(B.connect(H.endpoint(), Err) && B.attach("sort1", Info, Err))
      << Err;

  // The storm: every extra connection gets one Shed frame and a close,
  // never a session thread. Read the refusal raw (no request first) so
  // the frame cannot be raced away by the server's close.
  Endpoint Spec;
  ASSERT_TRUE(parseEndpoint(H.endpoint(), Spec, Err)) << Err;
  unsigned Refused = 0;
  for (int I = 0; I < 8; ++I) {
    int Fd = connectEndpoint(Spec, 2.0, Err);
    ASSERT_GE(Fd, 0) << Err;
    std::string Payload;
    Message M;
    if (FrameReader().read(Channel{Fd}, Payload) == FrameStatus::Ok &&
        decodeMessage(Payload, M) && M.Type == MsgType::Shed) {
      EXPECT_NE(M.Text.find("session limit"), std::string::npos) << M.Text;
      ++Refused;
    }
    ::close(Fd);
  }
  EXPECT_EQ(Refused, 8u);
  EXPECT_GE(H.Srv->stats().ShedSessions, 8u);

  // Capped, not broken: the attached sessions still serve...
  std::vector<PredictedChoice> Choices;
  EXPECT_EQ(A.predict({0, 1, 2}, Choices, Err),
            DaemonClient::PredictOutcome::Ok)
      << Err;

  // ...and closing one restores capacity once the acceptor reaps it.
  B.close();
  bool Reattached = false;
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < Deadline) {
    DaemonClient C;
    DaemonClient::AttachInfo Again;
    if (C.connect(H.endpoint(), Err) && C.attach("sort1", Again, Err)) {
      Reattached = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_TRUE(Reattached) << "cap never freed after a session ended";
}

//===----------------------------------------------------------------------===//
// Per-tenant shed/error counters surface in the stats JSON
//===----------------------------------------------------------------------===//

TEST(TransportTest, PerTenantErrorCounterSurfacesInStatsJson) {
  Harness H;
  DaemonClient C;
  std::string Err;
  ASSERT_TRUE(C.connect(H.endpoint(), Err)) << Err;
  DaemonClient::AttachInfo Info;
  ASSERT_TRUE(C.attach("sort1", Info, Err)) << Err;

  // An out-of-range input is a per-tenant Error answer, not a transport
  // failure -- the counter attributes it to the tenant that sent it.
  std::vector<PredictedChoice> Choices;
  EXPECT_EQ(C.predict({Info.NumInputs + 5}, Choices, Err),
            DaemonClient::PredictOutcome::Error);

  std::string Json = H.Srv->statsJson();
  EXPECT_NE(Json.find("\"errors\": 1"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"shed\": 0"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"max_sessions\""), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"shed_sessions\""), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"stalled\""), std::string::npos) << Json;
}
