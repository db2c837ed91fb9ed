//===- tests/daemon/MixedTenantsTest.cpp -------------------------------------=//
//
// The multi-tenant acceptance wall: three different benchmarks, trained
// and persisted separately, are registered as tenants of one pbt-serve
// daemon and served CONCURRENTLY from one deterministic
// streams::MixedStream -- one client thread per tenant, each driving
// exactly its tenant's subsequence of the global mixed schedule over the
// real Unix-socket protocol. Every daemon answer must match an
// independent in-process AdaptiveService replay of the same model
// file, and the per-tenant accounting must add up to the mix. Runs under
// the sanitizer CI matrix like every integration-labelled test.
//
//===----------------------------------------------------------------------===//

#include "common/TestModels.h"
#include "daemon/Client.h"
#include "daemon/ModelRegistry.h"
#include "daemon/Server.h"

#include "registry/BenchmarkRegistry.h"
#include "runtime/AdaptiveService.h"
#include "serialize/ModelIO.h"
#include "streams/WorkloadStream.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace pbt;
using namespace pbt::testmodels;

namespace {

const char *const kTenants[3] = {"sort1", "clustering1", "binpacking"};

std::string freshSocket() {
  static std::atomic<int> Counter{0};
  return "/tmp/pbt-mx-" + std::to_string(::getpid()) + "-" +
         std::to_string(Counter.fetch_add(1)) + ".sock";
}

/// The in-process oracle for one tenant: decisions straight from a fresh
/// AdaptiveService over the same model file and provenance-rebuilt
/// program the daemon serves from.
std::vector<unsigned> oracleLandmarks(const std::string &Name,
                                      const std::vector<size_t> &Inputs) {
  serialize::TrainedModel Model;
  EXPECT_TRUE(serialize::loadModelFile(modelFile(Name), Model).Ok);
  const registry::BenchmarkFactory &F =
      registry::BenchmarkRegistry::instance().get(Name);
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

TEST(MixedTenantsTest, ThreeTenantsOneMixedStreamFullParity) {
  // The registry the daemon serves from: one tenant per benchmark.
  daemon::ModelRegistry Registry;
  for (const char *Name : kTenants) {
    serialize::LoadStatus St = Registry.addTenant(Name, modelFile(Name));
    ASSERT_TRUE(St.Ok) << Name << ": " << St.Error;
  }

  // One WorkloadStream per tenant over its own program -- rotated
  // schedules, decorrelated seeds -- interleaved into one global mix.
  const streams::Schedule Rotation[3] = {streams::Schedule::Abrupt,
                                         streams::Schedule::Ramp,
                                         streams::Schedule::Periodic};
  std::vector<std::unique_ptr<streams::WorkloadStream>> Streams;
  std::vector<streams::MixedTenantSpec> Specs;
  for (size_t I = 0; I != 3; ++I) {
    daemon::Tenant *T = Registry.find(kTenants[I]);
    ASSERT_NE(T, nullptr);
    streams::WorkloadStreamOptions SO;
    SO.Kind = Rotation[I];
    SO.Requests = 240;
    SO.Seed = 0xA11CE + 101 * I;
    Streams.push_back(
        std::make_unique<streams::WorkloadStream>(*T->Program, SO));
    Specs.push_back({kTenants[I], Streams.back().get(), 1.0});
  }
  streams::MixedStreamOptions MO;
  MO.Requests = 720;
  streams::MixedStream Mixed(Specs, MO);

  daemon::ServerOptions SO;
  SO.SocketPath = freshSocket();
  SO.Workers = 3;
  SO.QueueCapacity = 64;
  daemon::Server Server(Registry, SO);
  std::string Err;
  ASSERT_TRUE(Server.start(Err)) << Err;

  // One client thread per tenant, all live at once: each drives its
  // tenant's subsequence of the mix in small batches and checks every
  // answer against the in-process oracle.
  std::atomic<int> Mismatches{0}, Failures{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != 3; ++T)
    Threads.emplace_back([&, T] {
      std::vector<size_t> Inputs = Mixed.tenantInputs(T);
      std::vector<unsigned> Oracle = oracleLandmarks(kTenants[T], Inputs);
      daemon::DaemonClient C;
      std::string CErr;
      daemon::DaemonClient::AttachInfo Info;
      if (!C.connect(SO.SocketPath, CErr) ||
          !C.attach(kTenants[T], Info, CErr)) {
        Failures.fetch_add(1);
        return;
      }
      for (size_t Base = 0; Base < Inputs.size(); Base += 8) {
        std::vector<uint64_t> Wire;
        for (size_t K = Base; K < Inputs.size() && Wire.size() < 8; ++K)
          Wire.push_back(Inputs[K]);
        std::vector<daemon::PredictedChoice> Choices;
        auto O = C.predict(Wire, Choices, CErr);
        if (O == daemon::DaemonClient::PredictOutcome::Shed) {
          Base -= 8; // retry the same batch; shedding is not an answer
          continue;
        }
        if (O != daemon::DaemonClient::PredictOutcome::Ok ||
            Choices.size() != Wire.size()) {
          Failures.fetch_add(1);
          return;
        }
        for (size_t K = 0; K < Wire.size(); ++K)
          if (Choices[K].Landmark != Oracle[Base + K])
            Mismatches.fetch_add(1);
      }
    });
  for (std::thread &Th : Threads)
    Th.join();

  EXPECT_EQ(Failures.load(), 0);
  EXPECT_EQ(Mismatches.load(), 0)
      << "daemon answers diverged from the in-process replay";

  // The mix's per-tenant request counts must be what the daemon billed:
  // nothing dropped, nothing double-served (shed retries excepted --
  // Requests counts admitted work, and every admitted batch answered).
  size_t TotalAnswered = 0;
  for (unsigned T = 0; T != 3; ++T) {
    daemon::Tenant *Ten = Registry.find(kTenants[T]);
    ASSERT_NE(Ten, nullptr);
    EXPECT_GE(Ten->Decisions.load(), Mixed.tenantRequests(T))
        << kTenants[T] << " answered fewer decisions than its share";
    TotalAnswered += Mixed.tenantRequests(T);
  }
  EXPECT_EQ(TotalAnswered, Mixed.length());

  Server.stop();
}

} // namespace
