//===- tests/daemon/DaemonServerTest.cpp -------------------------------------=//
//
// The pbt-serve daemon end to end over a real Unix socket: tenant
// registration from persisted model files, choice parity between daemon
// answers and an in-process AdaptiveService replay, multi-tenant
// isolation, admission control (deterministic shedding with the serve
// path stalled, no queueing when idle), clean shutdown, and the
// protocol fuzz wall -- truncated frames, oversized length prefixes,
// garbage payloads, hostile tenant names and mid-request disconnects
// must never crash or wedge the server. Runs under the sanitizer CI
// matrix like every integration-labelled test.
//
//===----------------------------------------------------------------------===//

#include "daemon/Client.h"
#include "daemon/ModelRegistry.h"
#include "daemon/Protocol.h"
#include "daemon/Server.h"

#include "registry/BenchmarkRegistry.h"
#include "runtime/AdaptiveService.h"
#include "runtime/SubsetProgram.h"
#include "serialize/ModelIO.h"
#include "store/ModelStore.h"
#include "streams/WorkloadStream.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

using namespace pbt;

namespace {

constexpr double kScale = 0.1;

/// Trains the sort1 model once per process (the AdaptiveServiceTest
/// idiom); tests serve it from a temp file like a real deployment.
const std::string &modelBytes() {
  static const std::string Bytes = [] {
    const registry::BenchmarkFactory &F =
        registry::BenchmarkRegistry::instance().get("sort1");
    registry::ProgramPtr P = F.makeProgram(kScale, F.defaultProgramSeed());
    core::TrainedSystem Sys = core::trainSystem(*P, F.defaultOptions(kScale));
    serialize::TrainedModel M = serialize::makeModel(
        "sort1", kScale, F.defaultProgramSeed(), *P, std::move(Sys));
    return serialize::serializeModel(M);
  }();
  return Bytes;
}

/// A smaller sort1 model (the AdaptiveServiceTest idiom): trained with
/// the reservoir-retrain options on the first half of the inputs, the
/// way an adapting tenant's retrain is, so it has fewer landmarks.
serialize::TrainedModel smallModel() {
  const registry::BenchmarkFactory &F =
      registry::BenchmarkRegistry::instance().get("sort1");
  registry::ProgramPtr P = F.makeProgram(kScale, F.defaultProgramSeed());
  std::vector<size_t> Half;
  for (size_t I = 0; I != P->numInputs() / 2; ++I)
    Half.push_back(I);
  runtime::SubsetProgram View(*P, Half);
  core::PipelineOptions Opt =
      registry::reservoirRetrainOptions(F, kScale, Half.size(), nullptr);
  core::TrainedSystem Sys = core::trainSystem(View, Opt);
  return serialize::makeModel("sort1", kScale, F.defaultProgramSeed(), View,
                              std::move(Sys));
}

const std::string &modelPath() {
  static const std::string Path = [] {
    std::string P =
        "/tmp/pbt-dt-model-" + std::to_string(::getpid()) + ".pbt";
    EXPECT_TRUE(serialize::writeModelText(P, modelBytes()).Ok);
    return P;
  }();
  return Path;
}

/// Short unique socket paths: sun_path caps at ~107 bytes, so build
/// dirs are out.
std::string freshSocket() {
  static std::atomic<int> Counter{0};
  return "/tmp/pbt-dt-" + std::to_string(::getpid()) + "-" +
         std::to_string(Counter.fetch_add(1)) + ".sock";
}

/// A running server over one or more tenants of the trained model.
struct Harness {
  daemon::ModelRegistry Registry;
  std::unique_ptr<daemon::Server> Srv;
  std::string Socket = freshSocket();

  explicit Harness(daemon::ServerOptions SO = {},
                   daemon::ModelRegistryOptions RO = {},
                   std::vector<std::string> TenantNames = {""})
      : Registry(RO) {
    for (const std::string &Name : TenantNames) {
      serialize::LoadStatus St = Registry.addTenant(Name, modelPath());
      EXPECT_TRUE(St.Ok) << St.Error;
    }
    SO.SocketPath = Socket;
    Srv = std::make_unique<daemon::Server>(Registry, SO);
    std::string Err;
    EXPECT_TRUE(Srv->start(Err)) << Err;
  }

  ~Harness() { Srv->stop(); }
};

/// The in-process oracle: landmark decisions straight from
/// AdaptiveService::decideBatch on the same model file.
std::vector<unsigned> inProcessLandmarks(const std::vector<size_t> &Inputs) {
  serialize::TrainedModel Model;
  EXPECT_TRUE(serialize::loadModelFile(modelPath(), Model).Ok);
  const registry::BenchmarkFactory &F =
      registry::BenchmarkRegistry::instance().get("sort1");
  registry::ProgramPtr P = F.makeProgram(kScale, F.defaultProgramSeed());
  runtime::AdaptiveService Service(*P, std::move(Model));
  EXPECT_TRUE(Service.ready()) << Service.status().Error;
  std::vector<unsigned> Out;
  for (const runtime::AdaptiveService::Decision &D :
       Service.decideBatch(Inputs))
    Out.push_back(D.Landmark);
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Serving correctness
//===----------------------------------------------------------------------===//

TEST(DaemonServerTest, DaemonChoicesMatchInProcessDecideBatch) {
  Harness H;
  daemon::DaemonClient C;
  std::string Err;
  ASSERT_TRUE(C.connect(H.Socket, Err)) << Err;
  daemon::DaemonClient::AttachInfo Info;
  ASSERT_TRUE(C.attach("sort1", Info, Err)) << Err;
  // Offline-trained models carry epoch 0; adaptation bumps it.
  EXPECT_GT(Info.Landmarks, 0u);
  ASSERT_GT(Info.NumInputs, 0u);

  std::vector<size_t> Inputs;
  std::vector<uint64_t> Wire;
  for (size_t I = 0; I < Info.NumInputs; ++I) {
    Inputs.push_back(I);
    Wire.push_back(I);
  }
  std::vector<daemon::PredictedChoice> Choices;
  ASSERT_EQ(C.predict(Wire, Choices, Err),
            daemon::DaemonClient::PredictOutcome::Ok)
      << Err;
  ASSERT_EQ(Choices.size(), Inputs.size());

  std::vector<unsigned> Oracle = inProcessLandmarks(Inputs);
  for (size_t I = 0; I < Inputs.size(); ++I) {
    EXPECT_EQ(Choices[I].Landmark, Oracle[I]) << "input " << I;
    EXPECT_EQ(Choices[I].Epoch, Info.Epoch);
  }
}

TEST(DaemonServerTest, ConcurrentClientsAllGetParityAnswers) {
  daemon::ServerOptions SO;
  SO.Workers = 3;
  SO.QueueCapacity = 64;
  Harness H(SO);

  const std::vector<unsigned> Oracle = [] {
    std::vector<size_t> All;
    serialize::TrainedModel Probe;
    EXPECT_TRUE(serialize::loadModelFile(modelPath(), Probe).Ok);
    const size_t N = Probe.System.L1.Features.rows();
    for (size_t I = 0; I < N; ++I)
      All.push_back(I);
    return inProcessLandmarks(All);
  }();

  constexpr int kClients = 6;
  std::atomic<int> Mismatches{0};
  std::atomic<int> Failures{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T < kClients; ++T)
    Threads.emplace_back([&, T] {
      daemon::DaemonClient C;
      std::string Err;
      daemon::DaemonClient::AttachInfo Info;
      if (!C.connect(H.Socket, Err) || !C.attach("sort1", Info, Err)) {
        Failures.fetch_add(1);
        return;
      }
      // Each client walks the universe from its own offset, in small
      // batches, twice (second pass hits the decision memo).
      for (int Pass = 0; Pass < 2; ++Pass)
        for (size_t Base = T; Base < Oracle.size(); Base += 7) {
          std::vector<uint64_t> Wire;
          for (size_t K = Base; K < Oracle.size() && Wire.size() < 5; ++K)
            Wire.push_back(K);
          std::vector<daemon::PredictedChoice> Choices;
          auto O = C.predict(Wire, Choices, Err);
          if (O == daemon::DaemonClient::PredictOutcome::Shed)
            continue; // admission refusal is not an answer change
          if (O != daemon::DaemonClient::PredictOutcome::Ok) {
            Failures.fetch_add(1);
            return;
          }
          for (size_t K = 0; K < Wire.size(); ++K)
            if (Choices[K].Landmark != Oracle[Wire[K]])
              Mismatches.fetch_add(1);
        }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 0);
  EXPECT_EQ(Mismatches.load(), 0)
      << "daemon interleaving changed an answer";
}

TEST(DaemonServerTest, MultiTenantServingAndListing) {
  Harness H({}, {}, {"alpha", "beta"});
  daemon::DaemonClient C;
  std::string Err;
  ASSERT_TRUE(C.connect(H.Socket, Err)) << Err;

  std::vector<std::string> Names;
  ASSERT_TRUE(C.listTenants(Names, Err)) << Err;
  EXPECT_EQ(Names, (std::vector<std::string>{"alpha", "beta"}));

  // Unknown tenant is an Error reply, not a dropped session.
  daemon::DaemonClient::AttachInfo Info;
  EXPECT_FALSE(C.attach("gamma", Info, Err));
  EXPECT_NE(Err.find("unknown tenant"), std::string::npos) << Err;
  ASSERT_TRUE(C.attach("beta", Info, Err)) << Err;

  std::vector<daemon::PredictedChoice> Choices;
  ASSERT_EQ(C.predict({0, 1, 2}, Choices, Err),
            daemon::DaemonClient::PredictOutcome::Ok)
      << Err;
  EXPECT_EQ(Choices.size(), 3u);

  // Duplicate tenant names are rejected at registration.
  daemon::ModelRegistry Dup;
  ASSERT_TRUE(Dup.addTenant("x", modelPath()).Ok);
  serialize::LoadStatus St = Dup.addTenant("x", modelPath());
  EXPECT_FALSE(St.Ok);
  EXPECT_NE(St.Error.find("duplicate"), std::string::npos) << St.Error;
}

TEST(DaemonServerTest, PredictValidation) {
  Harness H;
  daemon::DaemonClient C;
  std::string Err;
  ASSERT_TRUE(C.connect(H.Socket, Err)) << Err;

  // Predict before Hello: Error reply, session stays usable.
  std::vector<daemon::PredictedChoice> Choices;
  EXPECT_EQ(C.predict({0}, Choices, Err),
            daemon::DaemonClient::PredictOutcome::Error);
  EXPECT_NE(Err.find("Hello"), std::string::npos) << Err;

  daemon::DaemonClient::AttachInfo Info;
  ASSERT_TRUE(C.attach("sort1", Info, Err)) << Err;

  // Out-of-range input id: Error reply, session stays usable.
  EXPECT_EQ(C.predict({Info.NumInputs + 5}, Choices, Err),
            daemon::DaemonClient::PredictOutcome::Error);
  EXPECT_NE(Err.find("out of range"), std::string::npos) << Err;

  EXPECT_EQ(C.predict({0}, Choices, Err),
            daemon::DaemonClient::PredictOutcome::Ok)
      << Err;
}

TEST(DaemonServerTest, HelloAndStatsReportTheServingEpochsLandmarks) {
  Harness H;
  daemon::DaemonClient C;
  std::string Err;
  ASSERT_TRUE(C.connect(H.Socket, Err)) << Err;
  daemon::DaemonClient::AttachInfo Before;
  ASSERT_TRUE(C.attach("sort1", Before, Err)) << Err;

  // Publish a smaller epoch through the tenant's own service, as an
  // adapting tenant's retrain does.
  serialize::TrainedModel Small = smallModel();
  uint32_t SmallLandmarks =
      static_cast<uint32_t>(Small.System.L1.Landmarks.size());
  ASSERT_NE(SmallLandmarks, Before.Landmarks)
      << "models coincide in landmark count; the report goes untested";
  Small.Meta.Epoch = Before.Epoch + 1;
  daemon::Tenant *T = H.Registry.find("sort1");
  ASSERT_NE(T, nullptr);
  serialize::LoadStatus St = T->Service->swapModel(std::move(Small));
  ASSERT_TRUE(St.Ok) << St.Error;

  daemon::DaemonClient::AttachInfo After;
  ASSERT_TRUE(C.attach("sort1", After, Err)) << Err;
  EXPECT_EQ(After.Landmarks, SmallLandmarks);
  EXPECT_EQ(After.Epoch, Before.Epoch + 1);

  std::string Json = H.Srv->statsJson();
  const std::string Needle = "\"landmarks\": ";
  size_t P = Json.find(Needle);
  ASSERT_NE(P, std::string::npos) << Json;
  EXPECT_EQ(std::strtoul(Json.c_str() + P + Needle.size(), nullptr, 10),
            SmallLandmarks)
      << Json;
}

TEST(DaemonServerTest, StatsReportEachTenantsBuildTimeLast) {
  // build_ms follows every older key; only the retrain split, added
  // after it, follows it, and the split closes the tenant object.
  Harness H({}, {}, {"alpha", "beta", "gamma"});
  std::string Json = H.Srv->statsJson();
  const std::string Needle = "\"build_ms\": ";
  const std::string Tail[] = {", \"retrain_level1_ms_total\": ",
                              ", \"retrain_level2_ms_total\": "};
  size_t Seen = 0;
  for (size_t P = Json.find(Needle); P != std::string::npos;
       P = Json.find(Needle, P + 1)) {
    char *End = nullptr;
    double Ms = std::strtod(Json.c_str() + P + Needle.size(), &End);
    EXPECT_TRUE(std::isfinite(Ms)) << Json;
    EXPECT_GE(Ms, 0.0) << Json;
    for (const std::string &Key : Tail) {
      ASSERT_EQ(std::string(End).rfind(Key, 0), 0u)
          << "build_ms must be followed only by the retrain split: " << Json;
      std::strtod(End + Key.size(), &End);
    }
    EXPECT_EQ(*End, '}') << "the retrain split must close its tenant object: "
                         << Json;
    ++Seen;
  }
  EXPECT_EQ(Seen, H.Registry.size()) << Json;
}

//===----------------------------------------------------------------------===//
// Admission control + shutdown
//===----------------------------------------------------------------------===//

TEST(DaemonServerTest, ShedsDeterministicallyWhenServingStalls) {
  daemon::ServerOptions SO;
  SO.Workers = 1;
  SO.QueueCapacity = 1;
  Harness H(SO);
  daemon::Tenant *T = H.Registry.find("sort1");
  ASSERT_NE(T, nullptr);

  // Stall the serve path: the one request past the gate blocks on the
  // tenant mutex, so the 1-place line must shed overflow.
  std::unique_lock<std::mutex> Stall(T->ServeMutex);

  std::atomic<int> Ok{0}, Shed{0}, Errors{0};
  auto OneClient = [&] {
    daemon::DaemonClient C;
    std::string Err;
    daemon::DaemonClient::AttachInfo Info;
    if (!C.connect(H.Socket, Err) || !C.attach("sort1", Info, Err)) {
      Errors.fetch_add(1);
      return;
    }
    std::vector<daemon::PredictedChoice> Choices;
    switch (C.predict({0}, Choices, Err)) {
    case daemon::DaemonClient::PredictOutcome::Ok:
      Ok.fetch_add(1);
      break;
    case daemon::DaemonClient::PredictOutcome::Shed:
      Shed.fetch_add(1);
      break;
    default:
      Errors.fetch_add(1);
    }
  };

  // First request takes the only slot and its serve blocks on the held
  // mutex.
  std::thread Pioneer(OneClient);
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  // Now flood. Exactly one flood request joins the 1-place line and
  // stays there (the slot is stalled, so nothing leaves); the other
  // three must be shed with an immediate reply -- poll for those
  // replies while the stall is still held.
  std::vector<std::thread> Flood;
  for (int I = 0; I < 4; ++I)
    Flood.emplace_back(OneClient);
  for (int Spin = 0; Spin < 500 && Shed.load() < 3; ++Spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(Shed.load(), 3) << "overflow must be refused while stalled";

  Stall.unlock();
  Pioneer.join();
  for (std::thread &F : Flood)
    F.join();
  EXPECT_EQ(Errors.load(), 0);
  EXPECT_EQ(Ok.load(), 2) << "the pioneer and the one queued request";
  EXPECT_EQ(Ok.load() + Shed.load(), 5);

  daemon::ServerStats Stats = H.Srv->stats();
  EXPECT_EQ(Stats.Shed, static_cast<uint64_t>(Shed.load()));
  EXPECT_EQ(Stats.Decisions, static_cast<uint64_t>(Ok.load()));
  EXPECT_EQ(Stats.MaxQueueDepth, 1u);
  EXPECT_EQ(Stats.AdmissionWaits, 1u) << "only the queued request waited";
  EXPECT_GT(Stats.AdmissionWaitUsTotal, 0u);
  std::string Json = H.Srv->statsJson();
  EXPECT_NE(Json.find("\"admission_waits\": 1,"), std::string::npos) << Json;
}

TEST(DaemonServerTest, IdleDaemonServesWithoutQueueing) {
  // One client sends one Predict at a time to a daemon with two slots:
  // each is served on arrival, so nothing ever waits and every Predict
  // is its own batch.
  daemon::ServerOptions SO;
  SO.Workers = 2;
  Harness H(SO);
  daemon::DaemonClient C;
  std::string Err;
  ASSERT_TRUE(C.connect(H.Socket, Err)) << Err;
  daemon::DaemonClient::AttachInfo Info;
  ASSERT_TRUE(C.attach("sort1", Info, Err)) << Err;
  constexpr uint64_t kPredicts = 50;
  std::vector<daemon::PredictedChoice> Choices;
  for (uint64_t I = 0; I < kPredicts; ++I)
    ASSERT_EQ(C.predict({I % Info.NumInputs}, Choices, Err),
              daemon::DaemonClient::PredictOutcome::Ok)
        << Err;

  daemon::ServerStats Stats = H.Srv->stats();
  EXPECT_EQ(Stats.Requests, kPredicts);
  EXPECT_EQ(Stats.MaxQueueDepth, 0u);
  EXPECT_EQ(Stats.Batches, Stats.Requests);
  EXPECT_EQ(Stats.BatchedRequests, Stats.Requests);
  // The same over the wire, where the top-level keys come first.
  std::string Json;
  ASSERT_TRUE(C.stats(Json, Err)) << Err;
  EXPECT_NE(Json.find("\"max_queue_depth\": 0,"), std::string::npos) << Json;
  EXPECT_EQ(Json.find("\"batches\": "), Json.find("\"batches\": 50,"))
      << Json;
}

TEST(DaemonServerTest, ShutdownFrameStopsServerAndDrainsAdmitted) {
  Harness H;
  daemon::DaemonClient C;
  std::string Err;
  ASSERT_TRUE(C.connect(H.Socket, Err)) << Err;
  daemon::DaemonClient::AttachInfo Info;
  ASSERT_TRUE(C.attach("sort1", Info, Err)) << Err;
  std::vector<daemon::PredictedChoice> Choices;
  ASSERT_EQ(C.predict({0, 1}, Choices, Err),
            daemon::DaemonClient::PredictOutcome::Ok)
      << Err;

  daemon::DaemonClient Killer;
  ASSERT_TRUE(Killer.connect(H.Socket, Err)) << Err;
  ASSERT_TRUE(Killer.shutdownServer(Err)) << Err;
  H.Srv->waitForStop(); // returns because the frame flipped the flag
  H.Srv->stop();
  EXPECT_FALSE(H.Srv->running());

  // The socket is unlinked; fresh connections must fail.
  daemon::DaemonClient After;
  EXPECT_FALSE(After.connect(H.Socket, Err));
}

//===----------------------------------------------------------------------===//
// The protocol fuzz wall
//===----------------------------------------------------------------------===//

namespace {

/// Deterministic xorshift (replayable fuzz).
struct Rng {
  uint64_t S = 0xC0FFEE123456789ull;
  uint64_t next() {
    S ^= S << 13;
    S ^= S >> 7;
    S ^= S << 17;
    return S;
  }
};

/// The liveness probe every hostile scenario ends with: a fresh
/// well-formed session must still be served correctly.
void expectServerAlive(const std::string &Socket) {
  daemon::DaemonClient C;
  std::string Err;
  ASSERT_TRUE(C.connect(Socket, Err)) << "server wedged: " << Err;
  daemon::DaemonClient::AttachInfo Info;
  ASSERT_TRUE(C.attach("sort1", Info, Err)) << "server wedged: " << Err;
  std::vector<daemon::PredictedChoice> Choices;
  ASSERT_EQ(C.predict({0}, Choices, Err),
            daemon::DaemonClient::PredictOutcome::Ok)
      << "server wedged: " << Err;
}

} // namespace

TEST(DaemonServerTest, FuzzWallTruncatedAndOversizedFrames) {
  Harness H;

  // Length prefix promising 100 bytes, 10 delivered, then disconnect.
  {
    daemon::DaemonClient C;
    std::string Err;
    ASSERT_TRUE(C.connect(H.Socket, Err)) << Err;
    uint8_t Hdr[4] = {100, 0, 0, 0};
    ASSERT_TRUE(C.sendRaw(Hdr, 4));
    ASSERT_TRUE(C.sendRaw("0123456789", 10));
    C.close();
  }
  expectServerAlive(H.Socket);

  // Oversized length prefix (4 GiB): must be rejected without the
  // server ever allocating it.
  {
    daemon::DaemonClient C;
    std::string Err;
    ASSERT_TRUE(C.connect(H.Socket, Err)) << Err;
    uint8_t Hdr[4] = {0xFF, 0xFF, 0xFF, 0xFF};
    ASSERT_TRUE(C.sendRaw(Hdr, 4));
    std::string Reply;
    // The server answers Error (best effort) and drops the connection.
    daemon::FrameStatus FS = daemon::FrameReader().read(C.fd(), Reply);
    if (FS == daemon::FrameStatus::Ok) {
      daemon::Message M;
      ASSERT_TRUE(daemon::decodeMessage(Reply, M));
      EXPECT_EQ(M.Type, daemon::MsgType::Error);
    }
    C.close();
  }
  expectServerAlive(H.Socket);

  // Zero-length frame: also a framing violation.
  {
    daemon::DaemonClient C;
    std::string Err;
    ASSERT_TRUE(C.connect(H.Socket, Err)) << Err;
    uint8_t Hdr[4] = {0, 0, 0, 0};
    ASSERT_TRUE(C.sendRaw(Hdr, 4));
    C.close();
  }
  expectServerAlive(H.Socket);

  EXPECT_GT(H.Srv->stats().Malformed, 0u);
}

TEST(DaemonServerTest, FuzzWallGarbageTenantNamesAndPayloads) {
  Harness H;
  std::string Err;

  // Hostile tenant names: huge, embedded NULs, non-UTF8. All must get
  // a clean "unknown tenant" Error on a session that stays usable.
  {
    daemon::DaemonClient C;
    ASSERT_TRUE(C.connect(H.Socket, Err)) << Err;
    daemon::DaemonClient::AttachInfo Info;
    for (const std::string &Name :
         {std::string(8192, 'x'), std::string("a\0b", 3),
          std::string("\xFF\xFE\x80 tenant"), std::string("../../etc")}) {
      EXPECT_FALSE(C.attach(Name, Info, Err));
    }
    ASSERT_TRUE(C.attach("sort1", Info, Err)) << Err;
  }

  // Well-framed garbage payloads: decode must fail server-side, the
  // reply is an Error, and the server survives every round.
  Rng R;
  for (int Round = 0; Round < 60; ++Round) {
    daemon::DaemonClient C;
    ASSERT_TRUE(C.connect(H.Socket, Err)) << Err;
    size_t Len = 1 + R.next() % 48;
    std::string Payload;
    for (size_t I = 0; I < Len; ++I)
      Payload.push_back(static_cast<char>(R.next()));
    (void)daemon::writeFrame(C.fd(), Payload);
    std::string Reply;
    (void)daemon::FrameReader().read(C.fd(), Reply); // Error or close; either is fine
    C.close();
  }
  expectServerAlive(H.Socket);

  // Raw random bytes, no framing discipline at all, disconnect
  // mid-stream: the pure mid-request-disconnect storm.
  for (int Round = 0; Round < 60; ++Round) {
    daemon::DaemonClient C;
    ASSERT_TRUE(C.connect(H.Socket, Err)) << Err;
    size_t Len = R.next() % 64;
    std::string Bytes;
    for (size_t I = 0; I < Len; ++I)
      Bytes.push_back(static_cast<char>(R.next()));
    if (!Bytes.empty())
      (void)C.sendRaw(Bytes.data(), Bytes.size());
    C.close(); // vanish mid-whatever
  }
  expectServerAlive(H.Socket);

  // A client speaking server->client types is a protocol violation.
  {
    daemon::DaemonClient C;
    ASSERT_TRUE(C.connect(H.Socket, Err)) << Err;
    (void)daemon::writeFrame(C.fd(), daemon::makePredictions({{1, 1}}));
    std::string Reply;
    daemon::FrameStatus FS = daemon::FrameReader().read(C.fd(), Reply);
    if (FS == daemon::FrameStatus::Ok) {
      daemon::Message M;
      ASSERT_TRUE(daemon::decodeMessage(Reply, M));
      EXPECT_EQ(M.Type, daemon::MsgType::Error);
    }
    C.close();
  }
  expectServerAlive(H.Socket);
  EXPECT_GT(H.Srv->stats().Malformed, 0u);
}

//===----------------------------------------------------------------------===//
// Adaptation mode
//===----------------------------------------------------------------------===//

/// Sends a cycled abrupt regime flip over \p T's inputs (sortedness is
/// the key), four inputs per Predict. An adapting tenant's drift monitor
/// fires on it and retrains.
static void sendAbruptFlip(daemon::DaemonClient &C, const daemon::Tenant &T) {
  streams::WorkloadStreamOptions Flip;
  Flip.Kind = streams::Schedule::Abrupt;
  Flip.Requests = 128;
  Flip.Seed = 0xADA97;
  Flip.KeyProperty = 2; // sortedness
  streams::WorkloadStream Stream(*T.Program, Flip);
  std::vector<daemon::PredictedChoice> Choices;
  std::string Err;
  for (size_t Tick = 0; Tick + 4 <= 4 * Stream.length(); Tick += 4) {
    std::vector<uint64_t> Inputs;
    for (size_t K = Tick; K != Tick + 4; ++K)
      Inputs.push_back(Stream.inputAt(K % Stream.length()));
    ASSERT_EQ(C.predict(Inputs, Choices, Err),
              daemon::DaemonClient::PredictOutcome::Ok)
        << Err;
  }
}

TEST(DaemonServerTest, AdaptModeServesAndObserves) {
  daemon::ModelRegistryOptions RO;
  RO.AutoAdapt = true;
  RO.Window = 16;
  RO.Reservoir = 16;
  Harness H({}, RO);

  daemon::DaemonClient C;
  std::string Err;
  ASSERT_TRUE(C.connect(H.Socket, Err)) << Err;
  daemon::DaemonClient::AttachInfo Info;
  ASSERT_TRUE(C.attach("sort1", Info, Err)) << Err;
  std::vector<daemon::PredictedChoice> Choices;
  for (int Pass = 0; Pass < 3; ++Pass)
    for (uint64_t I = 0; I + 4 <= Info.NumInputs; I += 4) {
      ASSERT_EQ(C.predict({I, I + 1, I + 2, I + 3}, Choices, Err),
                daemon::DaemonClient::PredictOutcome::Ok)
          << Err;
      for (const daemon::PredictedChoice &Ch : Choices) {
        EXPECT_LT(Ch.Landmark, Info.Landmarks);
        EXPECT_GE(Ch.Epoch, Info.Epoch);
      }
    }

  // The tenant's AdaptiveService actually observed the traffic.
  daemon::Tenant *T = H.Registry.find("sort1");
  ASSERT_NE(T, nullptr);
  EXPECT_GT(T->Service->reservoir().seen(), 0u);

  // A cycled abrupt regime flip makes the drift monitor fire.
  sendAbruptFlip(C, *T);
  runtime::AdaptiveService::StatsSnapshot A = T->Service->stats();
  EXPECT_GT(A.Decisions, 0u);

  // ...and the Stats JSON reports its retrain outcomes and cost.
  ASSERT_GT(A.Retrains, 0u) << "the traffic must drive shadow retrains";
  std::string Json = H.Srv->statsJson();
  auto Field = [&](const std::string &Key) {
    std::string Needle = "\"" + Key + "\": ";
    size_t P = Json.find(Needle);
    EXPECT_NE(P, std::string::npos) << Key << " missing from " << Json;
    return P == std::string::npos
               ? -1.0
               : std::strtod(Json.c_str() + P + Needle.size(), nullptr);
  };
  EXPECT_EQ(Field("rejected_candidates"),
            static_cast<double>(A.RejectedCandidates));
  EXPECT_EQ(Field("retrains"), static_cast<double>(A.Retrains));
  double TotalS = Field("retrain_seconds_total");
  double LastMs = Field("last_retrain_ms");
  EXPECT_GT(TotalS, 0.0);
  EXPECT_NEAR(TotalS, A.RetrainSecondsTotal, 1e-5 * A.RetrainSecondsTotal);
  EXPECT_GT(LastMs, 0.0);
  EXPECT_NEAR(LastMs, A.LastRetrainSeconds * 1e3,
              1e-5 * A.LastRetrainSeconds * 1e3);
  EXPECT_LE(LastMs, TotalS * 1e3 * (1 + 1e-5));
}

TEST(DaemonServerTest, StatsSplitRetrainTimeByLevelPerTenant) {
  // An adapting tenant's retrains report their Level-1 and Level-2 time;
  // both are parts of the retrain total. A frozen tenant never retrains.
  for (bool Adapt : {true, false}) {
    daemon::ModelRegistryOptions RO;
    RO.AutoAdapt = Adapt;
    RO.Window = 16;
    RO.Reservoir = 16;
    Harness H({}, RO);
    daemon::DaemonClient C;
    std::string Err;
    ASSERT_TRUE(C.connect(H.Socket, Err)) << Err;
    daemon::DaemonClient::AttachInfo Info;
    ASSERT_TRUE(C.attach("sort1", Info, Err)) << Err;
    daemon::Tenant *T = H.Registry.find("sort1");
    ASSERT_NE(T, nullptr);
    sendAbruptFlip(C, *T);
    runtime::AdaptiveService::StatsSnapshot A = T->Service->stats();
    if (Adapt)
      ASSERT_GT(A.Retrains, 0u) << "the traffic must drive shadow retrains";
    else
      ASSERT_EQ(A.Retrains, 0u);

    std::string Json = H.Srv->statsJson();
    auto Field = [&](const std::string &Key) {
      std::string Needle = "\"" + Key + "\": ";
      size_t P = Json.find(Needle);
      EXPECT_NE(P, std::string::npos) << Key << " missing from " << Json;
      return P == std::string::npos
                 ? -1.0
                 : std::strtod(Json.c_str() + P + Needle.size(), nullptr);
    };
    double L1Ms = Field("retrain_level1_ms_total");
    double L2Ms = Field("retrain_level2_ms_total");
    double TotalMs = Field("retrain_seconds_total") * 1e3;
    // Stats prints 6 significant digits.
    EXPECT_NEAR(L1Ms, A.RetrainLevel1SecondsTotal * 1e3,
                1e-5 * A.RetrainLevel1SecondsTotal * 1e3);
    EXPECT_NEAR(L2Ms, A.RetrainLevel2SecondsTotal * 1e3,
                1e-5 * A.RetrainLevel2SecondsTotal * 1e3);
    if (Adapt) {
      EXPECT_GT(L1Ms, 0.0) << Json;
      EXPECT_GT(L2Ms, 0.0) << Json;
      EXPECT_LE(L1Ms + L2Ms, TotalMs * (1 + 1e-5)) << Json;
    } else {
      EXPECT_EQ(L1Ms, 0.0) << Json;
      EXPECT_EQ(L2Ms, 0.0) << Json;
    }
  }
}

TEST(DaemonServerTest, StatsReportMonitorAndFeatureCostPerTenant) {
  // Cold Predicts (no input memoized yet) pay feature extraction. Only an
  // adapting tenant's drift monitor pays for its own observations, and
  // Stats reports both costs as the service keeps them.
  for (bool Adapt : {true, false}) {
    daemon::ModelRegistryOptions RO;
    RO.AutoAdapt = Adapt;
    Harness H({}, RO);
    daemon::DaemonClient C;
    std::string Err;
    ASSERT_TRUE(C.connect(H.Socket, Err)) << Err;
    daemon::DaemonClient::AttachInfo Info;
    ASSERT_TRUE(C.attach("sort1", Info, Err)) << Err;
    std::vector<daemon::PredictedChoice> Choices;
    for (uint64_t I = 0; I + 4 <= Info.NumInputs; I += 4)
      ASSERT_EQ(C.predict({I, I + 1, I + 2, I + 3}, Choices, Err),
                daemon::DaemonClient::PredictOutcome::Ok)
          << Err;

    runtime::AdaptiveService::StatsSnapshot A =
        H.Registry.find("sort1")->Service->stats();
    std::string Json = H.Srv->statsJson();
    auto Field = [&](const std::string &Key) {
      std::string Needle = "\"" + Key + "\": ";
      size_t P = Json.find(Needle);
      EXPECT_NE(P, std::string::npos) << Key << " missing from " << Json;
      return P == std::string::npos
                 ? -1.0
                 : std::strtod(Json.c_str() + P + Needle.size(), nullptr);
    };
    double Monitor = Field("monitor_cost_paid");
    double Feature = Field("feature_cost_paid");
    // Stats prints 6 significant digits.
    EXPECT_NEAR(Monitor, A.MonitorCostPaid, 1e-5 * A.MonitorCostPaid);
    EXPECT_NEAR(Feature, A.FeatureCostPaid, 1e-5 * A.FeatureCostPaid);
    EXPECT_GT(Feature, 0.0) << "cold Predicts extract features";
    if (Adapt)
      EXPECT_GT(Monitor, 0.0) << "the drift monitor observes cold inputs";
    else
      EXPECT_EQ(Monitor, 0.0) << "no monitor runs without --adapt";
  }
}

namespace {

/// \p Json with every number outside a string literal replaced by '#'.
std::string maskNumbers(const std::string &Json) {
  std::string Out;
  bool InString = false;
  for (size_t I = 0; I != Json.size(); ++I) {
    char C = Json[I];
    if (InString) {
      Out += C;
      if (C == '\\')
        Out += Json[++I];
      else if (C == '"')
        InString = false;
    } else if (C == '"') {
      InString = true;
      Out += C;
    } else if (C == '-' || (C >= '0' && C <= '9')) {
      while (I + 1 != Json.size() &&
             std::string("0123456789+-.eE").find(Json[I + 1]) !=
                 std::string::npos)
        ++I;
      Out += '#';
    } else {
      Out += C;
    }
  }
  return Out;
}

} // namespace

TEST(DaemonServerTest, StatsLayoutIsPinned) {
  // perfbench reads a Stats key by the first match of `"key": ` and a
  // tenant by `{"name": "`, so the keys, their order and the separators
  // are an interface. One file tenant (whose name needs escaping) and
  // one store tenant.
  Harness H({}, {}, {"a\"b\\c"});
  std::string Dir = ::testing::TempDir() + "pbt-dt-stats-store-" +
                    std::to_string(::getpid());
  std::filesystem::remove_all(Dir);
  {
    store::ModelStore Store(Dir);
    ASSERT_TRUE(Store.open().Ok);
    uint64_t Epoch = 0;
    ASSERT_TRUE(Store.publish(modelBytes(), Epoch).Ok);
    ASSERT_TRUE(Store.promote(Epoch).Ok);
  }
  serialize::LoadStatus St = H.Registry.addStoreTenant("stored", Dir);
  ASSERT_TRUE(St.Ok) << St.Error;

  auto Tenant = [](const std::string &Name, const std::string &Model) {
    return "{\"name\": \"" + Name +
           "\", \"benchmark\": \"sort1\", \"model\": \"" + Model +
           "\", \"epoch\": #, \"landmarks\": #, \"inputs\": #, "
           "\"requests\": #, \"decisions\": #, \"batches\": #, "
           "\"shed\": #, \"errors\": #, \"service_decisions\": #, "
           "\"memoized\": #, \"drift_detections\": #, \"retrains\": #, "
           "\"swaps\": #, \"rejected_candidates\": #, "
           "\"skipped_retrains\": #, \"retrain_seconds_total\": #, "
           "\"last_retrain_ms\": #, \"monitor_cost_paid\": #, "
           "\"feature_cost_paid\": #, \"last_skip_reason\": \"\", "
           "\"build_ms\": #, \"retrain_level1_ms_total\": #, "
           "\"retrain_level2_ms_total\": #}";
  };
  std::string Expected =
      "{\"connections\": #, \"requests\": #, \"decisions\": #, "
      "\"shed\": #, \"malformed\": #, \"batches\": #, "
      "\"batched_requests\": #, \"max_queue_depth\": #, "
      "\"admission_waits\": #, \"admission_wait_us_total\": #, "
      "\"shed_sessions\": #, \"stalled\": #, \"max_sessions\": #, "
      "\"queue_capacity\": #, \"workers\": #, \"adapt\": false, "
      "\"tenants\": [" +
      Tenant("a\\\"b\\\\c", modelPath()) + ", " + Tenant("stored", Dir) +
      "]}";
  EXPECT_EQ(maskNumbers(H.Srv->statsJson()), Expected);
  std::filesystem::remove_all(Dir);
}
