//===- tests/daemon/DaemonServerTest.cpp -------------------------------------=//
//
// The pbt-serve daemon end to end over a real Unix socket, whose
// attached sessions move their frames onto a shared-memory ring pair:
// tenant registration from persisted model files, choice parity between
// daemon answers and an in-process AdaptiveService replay, multi-tenant
// isolation, admission control (deterministic shedding with the serve
// path stalled, no queueing when idle), clean shutdown, and the
// protocol fuzz wall -- truncated frames, oversized length prefixes,
// garbage payloads, hostile tenant names, scribbled ring positions and
// mid-request disconnects must never crash or wedge the server. The
// parity and fuzz walls run once over a ring session and once over a
// TCP socket session. Runs under the sanitizer CI matrix like every
// integration-labelled test.
//
//===----------------------------------------------------------------------===//

#include "common/TestModels.h"
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
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

using namespace pbt;
using namespace pbt::testmodels;

namespace {

/// A smaller sort1 model (the AdaptiveServiceTest idiom): trained with
/// the reservoir-retrain options on the first half of the inputs, the
/// way an adapting tenant's retrain is, so it has fewer landmarks.
serialize::TrainedModel smallModel() {
  const registry::BenchmarkFactory &F =
      registry::BenchmarkRegistry::instance().get("sort1");
  registry::ProgramPtr P = F.makeProgram(kTestScale, F.defaultProgramSeed());
  std::vector<size_t> Half;
  for (size_t I = 0; I != P->numInputs() / 2; ++I)
    Half.push_back(I);
  runtime::SubsetProgram View(*P, Half);
  core::PipelineOptions Opt =
      registry::reservoirRetrainOptions(F, kTestScale, Half.size());
  core::TrainedSystem Sys = core::trainSystem(View, Opt);
  return serialize::makeModel("sort1", kTestScale, F.defaultProgramSeed(), View,
                              std::move(Sys));
}

/// Short unique socket paths: sun_path caps at ~107 bytes, so build
/// dirs are out.
std::string freshSocket() {
  static std::atomic<int> Counter{0};
  return "/tmp/pbt-dt-" + std::to_string(::getpid()) + "-" +
         std::to_string(Counter.fetch_add(1)) + ".sock";
}

/// A running server over one or more tenants of the trained model, on
/// a Unix socket (whose attached sessions use a ring pair) and, unless
/// the options list their own, a TCP socket.
struct Harness {
  daemon::ModelRegistry Registry;
  std::unique_ptr<daemon::Server> Srv;
  std::string Socket = freshSocket();

  explicit Harness(daemon::ServerOptions SO = {},
                   daemon::ModelRegistryOptions RO = {},
                   std::vector<std::string> TenantNames = {""})
      : Registry(RO) {
    for (const std::string &Name : TenantNames) {
      serialize::LoadStatus St = Registry.addTenant(Name, modelFile());
      EXPECT_TRUE(St.Ok) << St.Error;
    }
    SO.SocketPath = Socket;
    if (SO.Listen.empty())
      SO.Listen = {"127.0.0.1:0"};
    Srv = std::make_unique<daemon::Server>(Registry, SO);
    std::string Err;
    EXPECT_TRUE(Srv->start(Err)) << Err;
  }

  /// The TCP endpoint, "tcp:127.0.0.1:PORT".
  std::string tcp() const { return Srv->boundEndpoints().back(); }

  /// The two session kinds the parity walls run over: the Unix socket,
  /// where an attached session uses the ring pair, and TCP.
  std::vector<std::string> walls() const { return {Socket, tcp()}; }

  /// Where a fuzz wall's hostile session runs: attached on the Unix
  /// socket, so its bytes reach the ring's reader, or unattached on TCP,
  /// so they reach a session before any Hello.
  struct FuzzLeg {
    std::string Endpoint;
    bool Attach;
  };
  std::vector<FuzzLeg> fuzzLegs() const {
    return {{Socket, true}, {tcp(), false}};
  }

  ~Harness() { Srv->stop(); }
};

/// A session attached to sort1: on the Unix socket its frames then go
/// through the ring pair.
void connectAttached(daemon::DaemonClient &C, const std::string &Endpoint) {
  std::string Err;
  ASSERT_TRUE(C.connect(Endpoint, Err)) << Err;
  daemon::DaemonClient::AttachInfo Info;
  ASSERT_TRUE(C.attach("sort1", Info, Err)) << Err;
}

/// The in-process oracle: landmark decisions straight from
/// AdaptiveService::decideAnswers on the same model file.
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
// Serving correctness
//===----------------------------------------------------------------------===//

TEST(DaemonServerTest, DaemonChoicesMatchInProcessDecideBatch) {
  Harness H;
  for (const std::string &Endpoint : H.walls()) {
    SCOPED_TRACE(Endpoint);
    daemon::DaemonClient C;
    std::string Err;
    ASSERT_TRUE(C.connect(Endpoint, Err)) << Err;
    daemon::DaemonClient::AttachInfo Info;
    ASSERT_TRUE(C.attach("sort1", Info, Err)) << Err;
    EXPECT_EQ(C.onRing(), Endpoint == H.Socket);
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
}

TEST(DaemonServerTest, ConcurrentClientsAllGetParityAnswers) {
  daemon::ServerOptions SO;
  SO.Workers = 3;
  SO.QueueCapacity = 64;
  Harness H(SO);

  const std::vector<unsigned> Oracle = [] {
    std::vector<size_t> All;
    serialize::TrainedModel Probe;
    EXPECT_TRUE(serialize::loadModelFile(modelFile(), Probe).Ok);
    const size_t N = Probe.System.L1.Features.rows();
    for (size_t I = 0; I < N; ++I)
      All.push_back(I);
    return inProcessLandmarks(All);
  }();

  // Half the clients on ring sessions, half on TCP sockets.
  constexpr int kClients = 6;
  std::atomic<int> Mismatches{0};
  std::atomic<int> Failures{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T < kClients; ++T)
    Threads.emplace_back([&, T] {
      daemon::DaemonClient C;
      std::string Err;
      daemon::DaemonClient::AttachInfo Info;
      if (!C.connect(H.walls()[T % 2], Err) ||
          !C.attach("sort1", Info, Err)) {
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
  ASSERT_TRUE(Dup.addTenant("x", modelFile()).Ok);
  serialize::LoadStatus St = Dup.addTenant("x", modelFile());
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

TEST(DaemonServerTest, OneSessionReusesItsBuffersAcrossRequestSizes) {
  // A session decodes every request into one Message and encodes every
  // Predictions reply into one buffer. A shorter reply after a longer
  // one must be exactly its own size, and an Error or Stats reply in
  // between must not disturb the next Predict.
  Harness H;
  daemon::DaemonClient C;
  std::string Err;
  ASSERT_TRUE(C.connect(H.Socket, Err)) << Err;
  daemon::DaemonClient::AttachInfo Info;
  ASSERT_TRUE(C.attach("sort1", Info, Err)) << Err;
  ASSERT_GT(Info.NumInputs, 17u);

  std::vector<size_t> All;
  for (size_t I = 0; I < Info.NumInputs; ++I)
    All.push_back(I);
  const std::vector<unsigned> Oracle = inProcessLandmarks(All);

  // Raw frames on the attached session, so the reply bytes are visible.
  daemon::FrameReader Reader;
  auto Exchange = [&](const std::string &Request, std::string &Reply) {
    ASSERT_EQ(daemon::writeFrame(C.channel(), Request),
              daemon::FrameStatus::Ok);
    ASSERT_EQ(Reader.read(C.channel(), Reply), daemon::FrameStatus::Ok);
  };
  auto ExpectPredictions = [&](const std::vector<uint64_t> &Inputs) {
    SCOPED_TRACE(std::to_string(Inputs.size()) + "-input Predict");
    std::string Reply;
    Exchange(daemon::makePredict(Inputs), Reply);
    // One epoch run and 2-byte landmarks (see BuildersSizeSixtyFour...).
    EXPECT_EQ(Reply.size(), 1 + 4 + 4 + 12 + 1 + 2 * Inputs.size());
    daemon::Message M;
    ASSERT_TRUE(daemon::decodeMessage(Reply, M));
    ASSERT_EQ(M.Type, daemon::MsgType::Predictions);
    ASSERT_EQ(M.Choices.size(), Inputs.size());
    for (size_t K = 0; K < Inputs.size(); ++K) {
      EXPECT_EQ(M.Choices[K].Landmark, Oracle[Inputs[K]]) << "input "
                                                          << Inputs[K];
      EXPECT_EQ(M.Choices[K].Epoch, Info.Epoch);
    }
  };

  std::string Reply;
  daemon::Message M;
  Exchange(daemon::makeStats(), Reply);
  ASSERT_TRUE(daemon::decodeMessage(Reply, M));
  EXPECT_EQ(M.Type, daemon::MsgType::StatsReply);

  std::vector<uint64_t> Wide(64); // inputs repeat in a small universe
  for (size_t K = 0; K < Wide.size(); ++K)
    Wide[K] = (7 * K) % Info.NumInputs;
  ExpectPredictions(Wide);
  ExpectPredictions({Info.NumInputs - 1});

  Exchange(daemon::makePredict({2, Info.NumInputs + 5}), Reply);
  ASSERT_TRUE(daemon::decodeMessage(Reply, M));
  EXPECT_EQ(M.Type, daemon::MsgType::Error);
  EXPECT_NE(M.Text.find("out of range"), std::string::npos) << M.Text;

  ExpectPredictions({5, Info.NumInputs - 2, 17});
}

TEST(DaemonServerTest, RingSessionStreamsFramesLargerThanItsRing) {
  // A Predict of kMaxBatchInputs inputs and its reply (128 KiB each at
  // 2-byte ids and landmarks) are far larger than a ring: both stream
  // through in pieces, and the answers match the oracle's. A later Hello
  // reuses the session's ring.
  Harness H;
  daemon::DaemonClient C;
  connectAttached(C, H.Socket);
  ASSERT_TRUE(C.onRing());
  daemon::FrameRing *Ring = C.channel().Ring;
  std::string Err;
  daemon::DaemonClient::AttachInfo Info;
  ASSERT_TRUE(C.attach("sort1", Info, Err)) << Err;
  EXPECT_EQ(C.channel().Ring, Ring);
  EXPECT_EQ(H.Srv->stats().RingSessions, 1u);

  std::vector<size_t> All;
  for (size_t I = 0; I < Info.NumInputs; ++I)
    All.push_back(I);
  const std::vector<unsigned> Oracle = inProcessLandmarks(All);
  std::vector<uint64_t> Wire(daemon::kMaxBatchInputs);
  for (size_t K = 0; K < Wire.size(); ++K)
    Wire[K] = (K * 7) % Info.NumInputs;
  ASSERT_GT(daemon::makePredict(Wire).size(), daemon::kRingBytes);
  std::vector<daemon::PredictedChoice> Choices;
  ASSERT_EQ(C.predict(Wire, Choices, Err),
            daemon::DaemonClient::PredictOutcome::Ok)
      << Err;
  ASSERT_EQ(Choices.size(), Wire.size());
  size_t Wrong = 0;
  for (size_t K = 0; K < Wire.size(); ++K)
    Wrong += Choices[K].Landmark != Oracle[Wire[K]];
  EXPECT_EQ(Wrong, 0u);

  std::string Json;
  ASSERT_TRUE(C.stats(Json, Err)) << Err;
  EXPECT_NE(Json.find("\"ring_sessions\": 1,"), std::string::npos) << Json;
  // A TCP session, or a Unix one that never attached, stays off the ring.
  daemon::DaemonClient Tcp, Unattached;
  connectAttached(Tcp, H.tcp());
  EXPECT_FALSE(Tcp.onRing());
  ASSERT_TRUE(Unattached.connect(H.Socket, Err)) << Err;
  ASSERT_TRUE(Unattached.stats(Json, Err)) << Err;
  EXPECT_NE(Json.find("\"ring_sessions\": 1,"), std::string::npos) << Json;

  C.close();
  auto Until = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (H.Srv->stats().RingSessions != 0 &&
         std::chrono::steady_clock::now() < Until)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(H.Srv->stats().RingSessions, 0u);
}

namespace {

/// Delegates to a base program, except that one feature extraction
/// throws once armed.
class ThrowOnceProgram : public runtime::TunableProgram {
public:
  explicit ThrowOnceProgram(const runtime::TunableProgram &Base) : Base(Base) {}

  std::string name() const override { return Base.name(); }
  const runtime::ConfigSpace &space() const override { return Base.space(); }
  std::vector<runtime::FeatureInfo> features() const override {
    return Base.features();
  }
  std::optional<runtime::AccuracySpec> accuracy() const override {
    return Base.accuracy();
  }
  size_t numInputs() const override { return Base.numInputs(); }
  double extractFeature(size_t Input, unsigned Feature, unsigned Level,
                        support::CostCounter &Cost) const override {
    if (Armed.exchange(false))
      throw std::runtime_error("feature extraction failed");
    return Base.extractFeature(Input, Feature, Level, Cost);
  }
  runtime::RunResult run(size_t Input, const runtime::Configuration &Config,
                         support::CostCounter &Cost) const override {
    return Base.run(Input, Config, Cost);
  }

  mutable std::atomic<bool> Armed{false};

private:
  const runtime::TunableProgram &Base;
};

} // namespace

TEST(DaemonServerTest, FailedServeCountsARequestButNoBatch) {
  // A tenant's batches are its requests minus the Predicts whose serve
  // threw: one failing and one answered Predict read requests 2,
  // batches 1, errors 1.
  Harness H;
  daemon::Tenant *T = H.Registry.find("sort1");
  ASSERT_NE(T, nullptr);
  ThrowOnceProgram Program(*T->Program);
  serialize::TrainedModel Model;
  ASSERT_TRUE(serialize::loadModelFile(modelFile(), Model).Ok);
  {
    std::lock_guard<std::mutex> Lock(T->ServeMutex);
    T->Service =
        std::make_unique<runtime::AdaptiveService>(Program, std::move(Model));
  }
  ASSERT_TRUE(T->Service->ready());
  Program.Armed = true;

  daemon::DaemonClient C;
  connectAttached(C, H.Socket);
  std::string Err;
  std::vector<daemon::PredictedChoice> Choices;
  EXPECT_EQ(C.predict({0}, Choices, Err),
            daemon::DaemonClient::PredictOutcome::Error);
  EXPECT_NE(Err.find("serving failed"), std::string::npos) << Err;
  EXPECT_FALSE(C.lastRpcTransportFailed());
  EXPECT_EQ(C.predict({0}, Choices, Err),
            daemon::DaemonClient::PredictOutcome::Ok)
      << Err;

  std::string Json = H.Srv->statsJson();
  EXPECT_NE(Json.find("\"requests\": 2, \"decisions\": 1, \"batches\": 1, "
                      "\"shed\": 0, \"errors\": 1,"),
            std::string::npos)
      << Json;
  H.Srv->stop();
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

TEST(DaemonServerTest, EveryReplyComesFromOneEpochAndIsNotHeldAfterIt) {
  // A swapper alternates two models under a client's plain Predicts.
  // Each pushed model's epoch is the serving one's plus one, so epoch
  // Base + K serves the small model for odd K and the original for even
  // K.
  Harness H;
  daemon::Tenant *T = H.Registry.find("sort1");
  ASSERT_NE(T, nullptr);
  const std::string SmallBytes = serialize::serializeModel(smallModel());
  const uint64_t Base = T->Service->epoch();
  auto Landmarks = [](const std::string &Bytes, size_t N) {
    const registry::BenchmarkFactory &F =
        registry::BenchmarkRegistry::instance().get("sort1");
    registry::ProgramPtr P = F.makeProgram(kTestScale, F.defaultProgramSeed());
    runtime::AdaptiveService Service(*P, cloneModel(Bytes));
    EXPECT_TRUE(Service.ready()) << Service.status().Error;
    std::vector<size_t> Inputs(N);
    std::iota(Inputs.begin(), Inputs.end(), 0);
    std::vector<runtime::AdaptiveService::Decision> Answers(N);
    Service.decideAnswers(Inputs.data(), N, Answers.data());
    std::vector<unsigned> Out;
    for (const runtime::AdaptiveService::Decision &D : Answers)
      Out.push_back(D.Landmark);
    return Out;
  };

  daemon::DaemonClient C;
  std::string Err;
  ASSERT_TRUE(C.connect(H.Socket, Err)) << Err;
  daemon::DaemonClient::AttachInfo Info;
  ASSERT_TRUE(C.attach("sort1", Info, Err)) << Err;
  const std::vector<unsigned> Original =
      Landmarks(modelBytes(), Info.NumInputs);
  const std::vector<unsigned> Small = Landmarks(SmallBytes, Info.NumInputs);
  ASSERT_NE(Original, Small) << "the two models decide alike everywhere";
  std::vector<uint64_t> Wire;
  for (uint64_t I = 0; I != Info.NumInputs; ++I)
    Wire.push_back(I);

  std::atomic<bool> Done{false};
  std::atomic<uint64_t> Swaps{0};
  std::thread Swapper([&] {
    while (!Done.load()) {
      const std::string &Next = Swaps.load() % 2 ? modelBytes() : SmallBytes;
      if (!T->Service->swapModel(cloneModel(Next)).Ok)
        break;
      Swaps.fetch_add(1);
    }
  });
  // Until the replies have crossed a few swaps: a reply can only mix
  // epochs when a swap lands while its batch is decided. No fatal
  // assertion until the swapper is joined.
  std::vector<daemon::PredictedChoice> Choices;
  std::vector<uint64_t> Seen;
  for (int R = 0; (R < 100 || Seen.size() < 4) && R != 100000 &&
                  !::testing::Test::HasFailure();
       ++R) {
    if (C.predict(Wire, Choices, Err) !=
            daemon::DaemonClient::PredictOutcome::Ok ||
        Choices.size() != Wire.size() || Choices.front().Epoch < Base) {
      ADD_FAILURE() << "reply " << R << " failed or went back in time: "
                    << Err;
      break;
    }
    const uint64_t Epoch = Choices.front().Epoch;
    const std::vector<unsigned> &Want =
        (Epoch - Base) % 2 ? Small : Original;
    for (size_t I = 0; I != Choices.size(); ++I) {
      EXPECT_EQ(Choices[I].Epoch, Epoch) << "reply " << R << " input " << I;
      EXPECT_EQ(Choices[I].Landmark, Want[I])
          << "reply " << R << " at epoch " << Epoch << " input " << I;
    }
    if (Seen.empty() || Seen.back() != Epoch)
      Seen.push_back(Epoch);
  }
  Done.store(true);
  Swapper.join();
  EXPECT_GE(Seen.size(), 4u) << "the replies crossed too few swaps";

  // The epoch that answered the last reply dies with its retirement:
  // the session kept no hold on it once the reply was written.
  ASSERT_EQ(C.predict(Wire, Choices, Err),
            daemon::DaemonClient::PredictOutcome::Ok)
      << Err;
  std::weak_ptr<const runtime::AdaptiveService::ModelEpoch> Answered =
      T->Service->currentEpoch();
  ASSERT_EQ(Answered.lock()->Model.Meta.Epoch, Choices.front().Epoch);
  ASSERT_TRUE(T->Service->swapModel(cloneModel(modelBytes())).Ok);
  EXPECT_TRUE(Answered.expired());
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
  // The same over the wire, where the top-level keys come first.
  std::string Json;
  ASSERT_TRUE(C.stats(Json, Err)) << Err;
  EXPECT_NE(Json.find("\"max_queue_depth\": 0,"), std::string::npos) << Json;
  EXPECT_EQ(Json.find("\"batches\": "), Json.find("\"batches\": 50,"))
      << Json;
}

TEST(DaemonServerTest, FrameWaitCountersSplitSpunFromSlept) {
  // Each frame a session waited for counts once, as spun or as slept.
  // A closed-loop burst lands in a session's spin sooner or later (the
  // spin stands aside while the host's cores are all busy, so the burst
  // goes on until one does); a client that pauses 100 ms between
  // requests outlasts any spin, so each of its requests is one slept
  // wait.
  using namespace std::chrono_literals;
  Harness H;
  daemon::DaemonClient C;
  std::string Err;
  ASSERT_TRUE(C.connect(H.Socket, Err)) << Err;
  daemon::DaemonClient::AttachInfo Info;
  ASSERT_TRUE(C.attach("sort1", Info, Err)) << Err;
  std::vector<uint64_t> Wire;
  for (uint64_t I = 0; I < 64; ++I)
    Wire.push_back(I % Info.NumInputs);
  std::vector<daemon::PredictedChoice> Choices;
  uint64_t Frames = 1; // the Hello
  auto Until = std::chrono::steady_clock::now() + 30s;
  do {
    for (int I = 0; I < 100; ++I, ++Frames)
      ASSERT_EQ(C.predict(Wire, Choices, Err),
                daemon::DaemonClient::PredictOutcome::Ok)
          << Err;
  } while (H.Srv->stats().FrameWaitsSpun == 0 &&
           std::chrono::steady_clock::now() < Until);
  daemon::ServerStats Burst = H.Srv->stats();
  // The spin can only catch a peer that runs on another core.
  if (std::thread::hardware_concurrency() > 1) {
    EXPECT_GT(Burst.FrameWaitsSpun, 0u);
  }
  EXPECT_EQ(Burst.FrameWaitsSpun + Burst.FrameWaitsSlept, Frames);

  constexpr uint64_t kPaced = 2;
  for (uint64_t I = 0; I < kPaced; ++I) {
    std::this_thread::sleep_for(100ms);
    ASSERT_EQ(C.predict(Wire, Choices, Err),
              daemon::DaemonClient::PredictOutcome::Ok)
        << Err;
  }
  daemon::ServerStats Paced = H.Srv->stats();
  EXPECT_EQ(Paced.FrameWaitsSlept - Burst.FrameWaitsSlept, kPaced);
  EXPECT_EQ(Paced.FrameWaitsSpun, Burst.FrameWaitsSpun);

  // Two Predicts in one write after a pause: the session sleeps for the
  // first, and the second is already buffered when it looks for it, so
  // that one counts in neither.
  std::this_thread::sleep_for(20ms);
  const std::string Payload = daemon::makePredict(Wire);
  std::string Two;
  for (int I = 0; I < 2; ++I) {
    uint8_t Hdr[4];
    daemon::wire::putU32(Hdr, static_cast<uint32_t>(Payload.size()));
    Two.append(reinterpret_cast<const char *>(Hdr), sizeof Hdr);
    Two += Payload;
  }
  ASSERT_TRUE(C.sendRaw(Two.data(), Two.size()));
  daemon::FrameReader Replies;
  std::string Reply;
  for (int I = 0; I < 2; ++I)
    ASSERT_EQ(Replies.read(C.channel(), Reply), daemon::FrameStatus::Ok);
  daemon::ServerStats Piped = H.Srv->stats();
  EXPECT_EQ(Piped.FrameWaitsSlept - Paced.FrameWaitsSlept, 1u);
  EXPECT_EQ(Piped.FrameWaitsSpun, Paced.FrameWaitsSpun);
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

/// A hostile session on \p Leg: connected, and attached when the leg
/// says so.
void connectLeg(daemon::DaemonClient &C, const Harness::FuzzLeg &Leg) {
  if (Leg.Attach) {
    connectAttached(C, Leg.Endpoint);
    ASSERT_TRUE(C.onRing());
    return;
  }
  std::string Err;
  ASSERT_TRUE(C.connect(Leg.Endpoint, Err)) << Err;
}

/// The liveness probe every hostile scenario ends with: a fresh
/// well-formed session must still be served correctly.
void expectServerAlive(const std::string &Endpoint) {
  daemon::DaemonClient C;
  std::string Err;
  ASSERT_TRUE(C.connect(Endpoint, Err)) << "server wedged: " << Err;
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
  for (const Harness::FuzzLeg &Leg : H.fuzzLegs()) {
    SCOPED_TRACE(Leg.Endpoint);
    // Length prefix promising 100 bytes, 10 delivered, then disconnect.
    {
      daemon::DaemonClient C;
      connectLeg(C, Leg);
      uint8_t Hdr[4] = {100, 0, 0, 0};
      ASSERT_TRUE(C.sendRaw(Hdr, 4));
      ASSERT_TRUE(C.sendRaw("0123456789", 10));
      C.close();
    }
    expectServerAlive(Leg.Endpoint);

    // Oversized length prefix (4 GiB): must be rejected without the
    // server ever allocating it.
    {
      daemon::DaemonClient C;
      connectLeg(C, Leg);
      uint8_t Hdr[4] = {0xFF, 0xFF, 0xFF, 0xFF};
      ASSERT_TRUE(C.sendRaw(Hdr, 4));
      std::string Reply;
      // The server answers Error (best effort) and drops the connection.
      daemon::FrameStatus FS = daemon::FrameReader().read(C.channel(), Reply);
      if (FS == daemon::FrameStatus::Ok) {
        daemon::Message M;
        ASSERT_TRUE(daemon::decodeMessage(Reply, M));
        EXPECT_EQ(M.Type, daemon::MsgType::Error);
      }
      C.close();
    }
    expectServerAlive(Leg.Endpoint);

    // Zero-length frame: also a framing violation.
    {
      daemon::DaemonClient C;
      connectLeg(C, Leg);
      uint8_t Hdr[4] = {0, 0, 0, 0};
      ASSERT_TRUE(C.sendRaw(Hdr, 4));
      C.close();
    }
    expectServerAlive(Leg.Endpoint);
  }
  EXPECT_GT(H.Srv->stats().Malformed, 0u);
}

TEST(DaemonServerTest, FuzzWallGarbageTenantNamesAndPayloads) {
  Harness H;
  std::string Err;
  for (const Harness::FuzzLeg &Leg : H.fuzzLegs()) {
    SCOPED_TRACE(Leg.Endpoint);
    // Hostile tenant names: huge, embedded NULs, non-UTF8. All must get
    // a clean "unknown tenant" Error on a session that stays usable.
    {
      daemon::DaemonClient C;
      ASSERT_TRUE(C.connect(Leg.Endpoint, Err)) << Err;
      daemon::DaemonClient::AttachInfo Info;
      for (const std::string &Name :
           {std::string(8192, 'x'), std::string("a\0b", 3),
            std::string("\xFF\xFE\x80 tenant"), std::string("../../etc")}) {
        EXPECT_FALSE(C.attach(Name, Info, Err));
      }
      ASSERT_TRUE(C.attach("sort1", Info, Err)) << Err;
      // ...and again once attached (on the Unix socket, over the ring
      // the good attach set up).
      EXPECT_FALSE(C.attach(std::string("a\0b", 3), Info, Err));
      EXPECT_NE(Err.find("unknown tenant"), std::string::npos) << Err;
      ASSERT_TRUE(C.attach("sort1", Info, Err)) << Err;
    }

    // Well-framed garbage payloads: decode must fail server-side, the
    // reply is an Error, and the server survives every round.
    Rng R;
    for (int Round = 0; Round < 60; ++Round) {
      daemon::DaemonClient C;
      connectLeg(C, Leg);
      size_t Len = 1 + R.next() % 48;
      std::string Payload;
      for (size_t I = 0; I < Len; ++I)
        Payload.push_back(static_cast<char>(R.next()));
      (void)daemon::writeFrame(C.channel(), Payload);
      std::string Reply;
      // Error or close; either is fine.
      (void)daemon::FrameReader().read(C.channel(), Reply);
      C.close();
    }
    expectServerAlive(Leg.Endpoint);

    // Raw random bytes, no framing discipline at all, disconnect
    // mid-stream: the pure mid-request-disconnect storm.
    for (int Round = 0; Round < 60; ++Round) {
      daemon::DaemonClient C;
      connectLeg(C, Leg);
      size_t Len = R.next() % 64;
      std::string Bytes;
      for (size_t I = 0; I < Len; ++I)
        Bytes.push_back(static_cast<char>(R.next()));
      if (!Bytes.empty())
        (void)C.sendRaw(Bytes.data(), Bytes.size());
      C.close(); // vanish mid-whatever
    }
    expectServerAlive(Leg.Endpoint);

    // A client speaking server->client types is a protocol violation.
    {
      daemon::DaemonClient C;
      connectLeg(C, Leg);
      (void)daemon::writeFrame(C.channel(), daemon::makePredictions({{1, 1}}));
      std::string Reply;
      daemon::FrameStatus FS = daemon::FrameReader().read(C.channel(), Reply);
      if (FS == daemon::FrameStatus::Ok) {
        daemon::Message M;
        ASSERT_TRUE(daemon::decodeMessage(Reply, M));
        EXPECT_EQ(M.Type, daemon::MsgType::Error);
      }
      C.close();
    }
    expectServerAlive(Leg.Endpoint);
  }
  EXPECT_GT(H.Srv->stats().Malformed, 0u);
}

TEST(DaemonServerTest, ScribbledRingIsDroppedAsMalformedOthersKeepParity) {
  // A client can store anything in its ring pair's control page. The
  // daemon keeps its own positions, so a Head or Tail that cannot be
  // ends that one session as malformed -- no over-read, no hang -- and
  // every other session keeps getting the oracle's answers.
  Harness H;
  std::vector<size_t> All;
  std::vector<uint64_t> Wire;
  daemon::DaemonClient Good, GoodTcp;
  connectAttached(Good, H.Socket);
  connectAttached(GoodTcp, H.tcp());
  ASSERT_TRUE(Good.onRing());
  std::string Err;
  daemon::DaemonClient::AttachInfo Info;
  ASSERT_TRUE(Good.attach("sort1", Info, Err)) << Err;
  for (size_t I = 0; I < Info.NumInputs; ++I) {
    All.push_back(I);
    Wire.push_back(I);
  }
  const std::vector<unsigned> Oracle = inProcessLandmarks(All);
  auto ExpectParity = [&](daemon::DaemonClient &C) {
    std::vector<daemon::PredictedChoice> Choices;
    ASSERT_EQ(C.predict(Wire, Choices, Err),
              daemon::DaemonClient::PredictOutcome::Ok)
        << Err;
    for (size_t I = 0; I < Wire.size(); ++I)
      EXPECT_EQ(Choices[I].Landmark, Oracle[I]) << "input " << I;
  };

  // The hostile stores, each on a fresh ring session: a Head past a whole
  // ring of unread bytes, a Head behind the daemon's Tail (both seen by
  // the daemon's next look at its ring), and a Tail ahead of everything
  // the daemon has written (seen when it writes its next reply).
  struct Scribble {
    std::function<void(daemon::RingControl &)> Store;
    bool NeedsReply;
  };
  const std::vector<Scribble> Scribbles = {
      {[](daemon::RingControl &R) {
         R.Head[0].V.store(R.Tail[0].V.load() + daemon::kRingBytes + 1);
       },
       false},
      {[](daemon::RingControl &R) {
         R.Head[0].V.store(R.Tail[0].V.load() - 1);
       },
       false},
      {[](daemon::RingControl &R) {
         R.Tail[1].V.store(R.Head[1].V.load() + 4096);
       },
       true},
  };
  for (size_t K = 0; K < Scribbles.size(); ++K) {
    SCOPED_TRACE("scribble " + std::to_string(K));
    const uint64_t Malformed = H.Srv->stats().Malformed;
    daemon::DaemonClient Bad;
    connectAttached(Bad, H.Socket);
    ASSERT_TRUE(Bad.onRing());
    Scribbles[K].Store(Bad.channel().Ring->control());
    if (Scribbles[K].NeedsReply) {
      std::vector<daemon::PredictedChoice> Choices;
      EXPECT_EQ(Bad.predict({0}, Choices, Err),
                daemon::DaemonClient::PredictOutcome::Error);
      EXPECT_TRUE(Bad.lastRpcTransportFailed()) << Err;
    } else {
      // Ring the daemon's doorbell in case its session sleeps, then wait
      // for the drop; the closed socket ends the session for the client.
      (void)::send(Bad.fd(), "", 1, MSG_NOSIGNAL);
      auto Until = std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (H.Srv->stats().Malformed == Malformed &&
             std::chrono::steady_clock::now() < Until)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      char Byte;
      ssize_t N;
      while ((N = ::recv(Bad.fd(), &Byte, 1, 0)) > 0) {
      }
      const int RecvErrno = N < 0 ? errno : 0;
      // The daemon reads the doorbell byte before it closes, so the
      // client reads EOF, not a reset.
      EXPECT_EQ(N, 0) << "the hostile session did not end in EOF: errno "
                      << RecvErrno;
    }
    EXPECT_EQ(H.Srv->stats().Malformed, Malformed + 1);
    ExpectParity(Good);
    ExpectParity(GoodTcp);
  }
}

TEST(DaemonServerTest, DoorbellFloodIsDroppedAsMalformedOthersKeepParity) {
  // A ring client that keeps the socket full of junk "doorbells" -- in
  // the middle of a frame or between frames -- would otherwise keep its
  // session thread draining them on a full core, past ReadDeadline. The
  // daemon drops it as malformed within the deadline, and other sessions
  // keep their answers.
  daemon::ServerOptions SO;
  SO.ReadDeadline = 5.0;
  Harness H(SO);
  daemon::DaemonClient Good;
  connectAttached(Good, H.Socket);
  std::string Err;
  std::vector<daemon::PredictedChoice> Choices;
  const std::vector<unsigned> Oracle = inProcessLandmarks({0, 1, 2});
  for (bool MidFrame : {true, false}) {
    SCOPED_TRACE(MidFrame ? "flood mid-frame" : "flood between frames");
    const uint64_t Malformed = H.Srv->stats().Malformed;
    daemon::DaemonClient Bad;
    connectAttached(Bad, H.Socket);
    ASSERT_TRUE(Bad.onRing());
    const uint8_t Half[2] = {0x10, 0x00};
    if (MidFrame) {
      ASSERT_TRUE(Bad.sendRaw(Half, sizeof Half));
    }
    // Flood until the daemon closes the session, or for 10 s.
    const std::string Junk(4096, '\x5a');
    auto Start = std::chrono::steady_clock::now();
    while (std::chrono::steady_clock::now() - Start <
           std::chrono::seconds(10)) {
      ssize_t N = ::send(Bad.fd(), Junk.data(), Junk.size(),
                         MSG_NOSIGNAL | MSG_DONTWAIT);
      if (N < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)
        break;
      if (H.Srv->stats().Malformed != Malformed)
        break;
      if (N < 0)
        std::this_thread::yield();
    }
    EXPECT_LT(std::chrono::steady_clock::now() - Start,
              std::chrono::seconds(5));
    EXPECT_EQ(H.Srv->stats().Malformed, Malformed + 1);
    EXPECT_EQ(H.Srv->stats().Stalled, 0u);
    Bad.close();
    ASSERT_EQ(Good.predict({0, 1, 2}, Choices, Err),
              daemon::DaemonClient::PredictOutcome::Ok)
        << Err;
    for (size_t I = 0; I < Oracle.size(); ++I)
      EXPECT_EQ(Choices[I].Landmark, Oracle[I]) << "input " << I;
  }
}

//===----------------------------------------------------------------------===//
// Adaptation mode
//===----------------------------------------------------------------------===//

/// What one client sent and was answered, in order.
struct FlipRun {
  std::vector<uint64_t> Inputs;
  std::vector<daemon::PredictedChoice> Answers;
};

/// Sends a cycled abrupt regime flip over \p T's inputs (sortedness is
/// the key, \p Seed the stream's), four inputs per Predict. An adapting
/// tenant's drift monitor fires on it and retrains.
static FlipRun sendAbruptFlip(daemon::DaemonClient &C, const daemon::Tenant &T,
                              uint64_t Seed = 0xADA97) {
  streams::WorkloadStreamOptions Flip;
  Flip.Kind = streams::Schedule::Abrupt;
  Flip.Requests = 128;
  Flip.Seed = Seed;
  Flip.KeyProperty = 2; // sortedness
  streams::WorkloadStream Stream(*T.Program, Flip);
  FlipRun Run;
  std::vector<daemon::PredictedChoice> Choices;
  std::string Err;
  for (size_t Tick = 0; Tick + 4 <= 4 * Stream.length(); Tick += 4) {
    std::vector<uint64_t> Inputs;
    for (size_t K = Tick; K != Tick + 4; ++K)
      Inputs.push_back(Stream.inputAt(K % Stream.length()));
    if (C.predict(Inputs, Choices, Err) !=
        daemon::DaemonClient::PredictOutcome::Ok) {
      ADD_FAILURE() << "Predict failed: " << Err;
      break;
    }
    Run.Inputs.insert(Run.Inputs.end(), Inputs.begin(), Inputs.end());
    Run.Answers.insert(Run.Answers.end(), Choices.begin(), Choices.end());
  }
  return Run;
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
  // Every input the client sends, and every answer, in order.
  FlipRun Sent;
  std::vector<daemon::PredictedChoice> Choices;
  for (int Pass = 0; Pass < 3; ++Pass)
    for (uint64_t I = 0; I + 4 <= Info.NumInputs; I += 4) {
      std::vector<uint64_t> Inputs = {I, I + 1, I + 2, I + 3};
      ASSERT_EQ(C.predict(Inputs, Choices, Err),
                daemon::DaemonClient::PredictOutcome::Ok)
          << Err;
      for (const daemon::PredictedChoice &Ch : Choices) {
        EXPECT_LT(Ch.Landmark, Info.Landmarks);
        EXPECT_GE(Ch.Epoch, Info.Epoch);
      }
      Sent.Inputs.insert(Sent.Inputs.end(), Inputs.begin(), Inputs.end());
      Sent.Answers.insert(Sent.Answers.end(), Choices.begin(), Choices.end());
    }

  // The tenant's AdaptiveService actually observed the traffic. The
  // reservoir is the serving thread's, so it is read under the tenant's
  // serve lock, as a session would.
  daemon::Tenant *T = H.Registry.find("sort1");
  ASSERT_NE(T, nullptr);
  {
    std::lock_guard<std::mutex> Lock(T->ServeMutex);
    EXPECT_GT(T->Service->reservoir().seen(), 0u);
  }

  // A cycled abrupt regime flip makes the drift monitor fire.
  FlipRun Flip = sendAbruptFlip(C, *T);
  Sent.Inputs.insert(Sent.Inputs.end(), Flip.Inputs.begin(),
                     Flip.Inputs.end());
  Sent.Answers.insert(Sent.Answers.end(), Flip.Answers.begin(),
                      Flip.Answers.end());
  runtime::AdaptiveService::StatsSnapshot A = T->Service->stats();
  EXPECT_GT(A.Decisions, 0u);

  // The daemon's batched observing path answers exactly as per-input
  // serve() does on a fresh tenant -- the replay perfbench's traced adapt
  // run checks the daemon against.
  daemon::ModelRegistry Fresh(RO);
  ASSERT_TRUE(Fresh.addTenant("sort1", modelFile()).Ok);
  runtime::AdaptiveService &Replay = *Fresh.find("sort1")->Service;
  ASSERT_EQ(Sent.Answers.size(), Sent.Inputs.size());
  size_t Mismatches = 0;
  for (size_t I = 0; I != Sent.Inputs.size(); ++I) {
    runtime::AdaptiveService::Decision D = Replay.serve(Sent.Inputs[I]);
    if (D.Landmark != Sent.Answers[I].Landmark ||
        D.Epoch != Sent.Answers[I].Epoch)
      ++Mismatches;
  }
  EXPECT_EQ(Mismatches, 0u) << "the daemon's answers diverged from serve()";
  EXPECT_EQ(Replay.stats().Decisions, A.Decisions);
  EXPECT_EQ(Replay.stats().Retrains, A.Retrains);
  EXPECT_EQ(Replay.stats().Swaps, A.Swaps);

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

TEST(DaemonServerTest, MidBatchSwapSendsOneEpochRunPerModel) {
  // An adapting tenant that swaps while it answers a batch decides the
  // rest of the batch with the new model, so its reply carries two or
  // more epoch runs. Every answer, across every run, must be what
  // per-input serve() gives on a fresh tenant.
  daemon::ModelRegistryOptions RO;
  RO.AutoAdapt = true;
  RO.Window = 16;
  RO.Reservoir = 16;
  Harness H({}, RO);
  daemon::Tenant *T = H.Registry.find("sort1");
  ASSERT_NE(T, nullptr);
  daemon::DaemonClient C;
  connectAttached(C, H.Socket);

  // Raw frames on the attached session, so each reply's run count is
  // visible; 15 inputs a batch, so that a swap can land anywhere in one.
  constexpr size_t kBatch = 15;
  daemon::FrameReader Reader;
  FlipRun Sent;
  std::string Request, Reply;
  daemon::Message M;
  size_t MultiRun = 0;
  // Cycled abrupt sortedness flips, one stream after another.
  for (uint64_t Seed : {0xADA97ull, 0x5EED2ull, 0xBEEF1ull, 0x12345ull}) {
    streams::WorkloadStreamOptions Flip;
    Flip.Kind = streams::Schedule::Abrupt;
    Flip.Requests = 128;
    Flip.Seed = Seed;
    Flip.KeyProperty = 2; // sortedness
    streams::WorkloadStream Stream(*T->Program, Flip);
    for (size_t Tick = 0; Tick + kBatch <= 4 * Stream.length();
         Tick += kBatch) {
      std::vector<uint64_t> Inputs;
      for (size_t K = Tick; K != Tick + kBatch; ++K)
        Inputs.push_back(Stream.inputAt(K % Stream.length()));
      daemon::encodePredict(Request, Inputs);
      ASSERT_EQ(daemon::writeFrame(C.channel(), Request),
                daemon::FrameStatus::Ok);
      ASSERT_EQ(Reader.read(C.channel(), Reply), daemon::FrameStatus::Ok);
      ASSERT_TRUE(daemon::decodeMessage(Reply, M));
      ASSERT_EQ(M.Type, daemon::MsgType::Predictions);
      ASSERT_EQ(M.Choices.size(), Inputs.size());
      // The run count follows the tag and the answer count.
      uint32_t Runs = 0;
      for (int B = 0; B < 4; ++B)
        Runs |= uint32_t(uint8_t(Reply[5 + B])) << (8 * B);
      uint32_t Spans = 1;
      for (size_t K = 1; K < M.Choices.size(); ++K)
        Spans += M.Choices[K].Epoch != M.Choices[K - 1].Epoch;
      EXPECT_EQ(Runs, Spans) << "runs are the maximal spans of one epoch";
      MultiRun += Runs >= 2;
      Sent.Inputs.insert(Sent.Inputs.end(), Inputs.begin(), Inputs.end());
      Sent.Answers.insert(Sent.Answers.end(), M.Choices.begin(),
                          M.Choices.end());
    }
  }
  runtime::AdaptiveService::StatsSnapshot A = T->Service->stats();
  ASSERT_GT(A.Swaps, 0u) << "the streams must make the tenant swap";
  EXPECT_GE(MultiRun, 1u) << "no swap landed inside a batch";

  daemon::ModelRegistry Fresh(RO);
  ASSERT_TRUE(Fresh.addTenant("sort1", modelFile()).Ok);
  runtime::AdaptiveService &Replay = *Fresh.find("sort1")->Service;
  size_t Mismatches = 0;
  for (size_t I = 0; I != Sent.Inputs.size(); ++I) {
    runtime::AdaptiveService::Decision D = Replay.serve(Sent.Inputs[I]);
    Mismatches += D.Landmark != Sent.Answers[I].Landmark ||
                  D.Epoch != Sent.Answers[I].Epoch;
  }
  EXPECT_EQ(Mismatches, 0u) << "the daemon's answers diverged from serve()";
  EXPECT_EQ(Replay.stats().Swaps, A.Swaps);
}

TEST(DaemonServerTest, TwoAdaptingTenantsRetrainConcurrently) {
  // Two clients drive drift into two adapting tenants at the same time,
  // so both retrain at once, each on its own session thread. Every
  // answer must be what a fresh tenant serves when that client's inputs
  // alone are replayed in process: concurrent retrains share nothing.
  daemon::ServerOptions SO;
  SO.Workers = 2;
  daemon::ModelRegistryOptions RO;
  RO.AutoAdapt = true;
  RO.Window = 16;
  RO.Reservoir = 16;
  const std::vector<std::string> Names = {"a", "b"};
  const uint64_t Seeds[] = {0xADA97, 0x5EED2};
  Harness H(SO, RO, Names);

  std::vector<FlipRun> Runs(Names.size());
  std::atomic<size_t> Ready{0};
  std::vector<std::thread> Clients;
  for (size_t K = 0; K != Names.size(); ++K)
    Clients.emplace_back([&, K] {
      daemon::DaemonClient C;
      std::string Err;
      daemon::DaemonClient::AttachInfo Info;
      bool Attached = C.connect(H.Socket, Err) && C.attach(Names[K], Info, Err);
      EXPECT_TRUE(Attached) << Names[K] << ": " << Err;
      // Both flips start together, so the tenants' retrains overlap.
      Ready.fetch_add(1);
      while (Ready.load() != Names.size())
        std::this_thread::yield();
      if (Attached)
        Runs[K] = sendAbruptFlip(C, *H.Registry.find(Names[K]), Seeds[K]);
    });
  for (std::thread &T : Clients)
    T.join();

  daemon::ModelRegistry Fresh(RO);
  for (size_t K = 0; K != Names.size(); ++K) {
    daemon::Tenant *T = H.Registry.find(Names[K]);
    ASSERT_NE(T, nullptr);
    uint64_t Retrains = T->Service->stats().Retrains;
    EXPECT_GT(Retrains, 0u) << Names[K] << " never retrained";

    ASSERT_TRUE(Fresh.addTenant(Names[K], modelFile()).Ok);
    runtime::AdaptiveService &Replay = *Fresh.find(Names[K])->Service;
    const FlipRun &Run = Runs[K];
    ASSERT_FALSE(Run.Inputs.empty()) << Names[K];
    size_t Mismatches = 0;
    for (size_t I = 0; I != Run.Inputs.size(); ++I) {
      runtime::AdaptiveService::Decision D = Replay.serve(Run.Inputs[I]);
      if (D.Landmark != Run.Answers[I].Landmark ||
          D.Epoch != Run.Answers[I].Epoch)
        ++Mismatches;
    }
    EXPECT_EQ(Mismatches, 0u) << Names[K] << " answers diverged from replay";
    EXPECT_EQ(Replay.stats().Retrains, Retrains) << Names[K];
  }
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
      "\"frame_waits_spun\": #, \"frame_waits_slept\": #, "
      "\"ring_sessions\": #, \"tenants\": [" +
      Tenant("a\\\"b\\\\c", modelFile()) + ", " + Tenant("stored", Dir) +
      "]}";
  EXPECT_EQ(maskNumbers(H.Srv->statsJson()), Expected);
  std::filesystem::remove_all(Dir);
}

TEST(DaemonServerTest, StatsReplyCarriesAllSevenGoldenTenants) {
  // Seven tenants' stats outgrow a string field's 4 KiB cap; the reply
  // must still carry every byte of statsJson().
  daemon::ModelRegistry Registry;
  for (const char *Name : {"binpacking", "clustering1", "clustering2",
                           "helmholtz3d", "poisson2d", "sort1", "svd"}) {
    serialize::LoadStatus St = Registry.addTenant(
        Name, std::string(PBT_GOLDEN_DIR) + "/" + Name + ".pbt");
    ASSERT_TRUE(St.Ok) << St.Error;
  }
  daemon::ServerOptions SO;
  SO.SocketPath = freshSocket();
  daemon::Server Srv(Registry, SO);
  std::string Err;
  ASSERT_TRUE(Srv.start(Err)) << Err;
  daemon::DaemonClient C;
  ASSERT_TRUE(C.connect(SO.SocketPath, Err)) << Err;
  std::string Json;
  ASSERT_TRUE(C.stats(Json, Err)) << Err;
  EXPECT_GT(Json.size(), 4096u);
  EXPECT_EQ(Json, Srv.statsJson());
  Srv.stop();
}
