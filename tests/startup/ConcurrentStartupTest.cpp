//===- tests/startup/ConcurrentStartupTest.cpp -----------------------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
//
// ModelRegistry::addTenants builds every tenant of a daemon's command
// line concurrently. What start-up looks like from outside must not
// depend on which build finishes first: tenants publish in argument
// order, a failure is the first one in argument order with the message
// a one-at-a-time addTenant gives, nothing after it is published, and
// every tenant decides as a serially built one does.
//
//===----------------------------------------------------------------------===//

#include "daemon/ModelRegistry.h"

#include "common/ScratchDir.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

using namespace pbt;

namespace {

std::string golden(const std::string &Family) {
  return std::string(PBT_GOLDEN_DIR) + "/" + Family + ".pbt";
}

/// The seven golden families, deliberately not in alphabetical order.
const std::vector<std::string> kFamilies = {
    "svd",        "sort1",       "poisson2d",  "binpacking",
    "helmholtz3d", "clustering2", "clustering1"};

std::vector<daemon::TenantSource> goldenSources() {
  std::vector<daemon::TenantSource> Sources;
  for (const std::string &F : kFamilies)
    Sources.push_back({"", golden(F), false});
  return Sources;
}

TEST(ConcurrentStartupTest, GoldensPublishInArgumentOrder) {
  for (int Rep = 0; Rep != 3; ++Rep) {
    daemon::ModelRegistry Reg;
    size_t FailedAt = 0;
    serialize::LoadStatus St = Reg.addTenants(goldenSources(), &FailedAt);
    ASSERT_TRUE(St.Ok) << St.Error;
    EXPECT_EQ(FailedAt, kFamilies.size());
    EXPECT_EQ(Reg.names(), kFamilies);
    for (size_t I = 0; I != kFamilies.size(); ++I) {
      EXPECT_EQ(Reg.at(I)->ModelPath, golden(kFamilies[I]));
      EXPECT_EQ(Reg.at(I)->Benchmark, kFamilies[I]);
      EXPECT_GT(Reg.at(I)->BuildMs, 0.0);
    }
  }
}

TEST(ConcurrentStartupTest, TenantsDecideAsSeriallyBuiltOnes) {
  daemon::ModelRegistry Concurrent, Serial;
  ASSERT_TRUE(Concurrent.addTenants(goldenSources()).Ok);
  for (const std::string &F : kFamilies)
    ASSERT_TRUE(Serial.addTenant("", golden(F)).Ok);
  using Decision = runtime::AdaptiveService::Decision;
  for (size_t T = 0; T != kFamilies.size(); ++T) {
    SCOPED_TRACE(kFamilies[T]);
    daemon::Tenant &A = *Concurrent.at(T), &B = *Serial.at(T);
    ASSERT_EQ(A.Program->numInputs(), B.Program->numInputs());
    std::vector<size_t> Inputs(A.Program->numInputs());
    std::iota(Inputs.begin(), Inputs.end(), size_t{0});
    std::vector<Decision> GotA(Inputs.size()), GotB(Inputs.size());
    A.Service->decideAnswers(Inputs.data(), Inputs.size(), GotA.data());
    B.Service->decideAnswers(Inputs.data(), Inputs.size(), GotB.data());
    EXPECT_EQ(A.Landmarks.load(), B.Landmarks.load());
    for (size_t I = 0; I != Inputs.size(); ++I) {
      ASSERT_EQ(GotA[I].Landmark, GotB[I].Landmark) << "input " << I;
      ASSERT_EQ(GotA[I].Epoch, GotB[I].Epoch) << "input " << I;
    }
  }
}

TEST(ConcurrentStartupTest, FirstFailureInArgumentOrderStopsPublishing) {
  testdirs::ScratchDir Dir("pbt-startup");
  std::filesystem::create_directories(Dir.path());
  const std::string Missing = Dir.path() + "/missing.pbt";
  const std::string Corrupt = Dir.path() + "/corrupt.pbt";
  {
    // The first kilobyte of a golden model: a torn copy.
    std::ifstream In(golden("clustering1"), std::ios::binary);
    std::string Head(1024, '\0');
    In.read(Head.data(), static_cast<std::streamsize>(Head.size()));
    std::ofstream(Corrupt, std::ios::binary) << Head;
  }

  daemon::ModelRegistry Lone;
  ASSERT_FALSE(Lone.addTenant("", Corrupt).Ok);
  serialize::LoadStatus Serial = Lone.addTenant("", Missing);
  ASSERT_FALSE(Serial.Ok);
  EXPECT_EQ(Serial.Error, "cannot open '" + Missing + "'");

  daemon::ModelRegistry Reg;
  size_t FailedAt = 0;
  serialize::LoadStatus St = Reg.addTenants({{"", golden("sort1"), false},
                                             {"", Missing, false},
                                             {"", Corrupt, false},
                                             {"", golden("svd"), false}},
                                            &FailedAt);
  ASSERT_FALSE(St.Ok);
  EXPECT_EQ(St.Error, Serial.Error);
  EXPECT_EQ(FailedAt, 1u);
  EXPECT_EQ(Reg.names(), std::vector<std::string>{"sort1"});
}

TEST(ConcurrentStartupTest, DuplicateNameFailsOnTheLaterEntry) {
  daemon::ModelRegistry Serial;
  ASSERT_TRUE(Serial.addTenant("x", golden("sort1")).Ok);
  serialize::LoadStatus Want = Serial.addTenant("x", golden("svd"));
  ASSERT_FALSE(Want.Ok);
  EXPECT_EQ(Want.Error, "duplicate tenant name 'x' (use --model=NAME=FILE to "
                        "disambiguate)");

  daemon::ModelRegistry Reg;
  size_t FailedAt = 0;
  serialize::LoadStatus St = Reg.addTenants({{"x", golden("sort1"), false},
                                             {"", golden("clustering1"), false},
                                             {"x", golden("svd"), false},
                                             {"", golden("binpacking"), false}},
                                            &FailedAt);
  ASSERT_FALSE(St.Ok);
  EXPECT_EQ(St.Error, Want.Error);
  EXPECT_EQ(FailedAt, 2u);
  EXPECT_EQ(Reg.names(), (std::vector<std::string>{"x", "clustering1"}));
  EXPECT_EQ(Reg.at(0)->Benchmark, "sort1");
}

} // namespace
