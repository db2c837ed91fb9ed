//===- tests/registry/BenchmarkRegistryTest.cpp ------------------------------=//

#include "registry/BenchmarkRegistry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>

using namespace pbt;
using namespace pbt::registry;

namespace {

// The paper's eight suite rows, in Table 1 order, covering all six
// benchmark classes (sort and clustering contribute two dataset flavours
// each).
const char *ExpectedNames[] = {"sort1",      "sort2",     "clustering1",
                               "clustering2", "binpacking", "svd",
                               "poisson2d",  "helmholtz3d"};

TEST(BenchmarkRegistryTest, EnumerationReturnsStandardSuiteInOrder) {
  std::vector<std::string> Names = BenchmarkRegistry::instance().names();
  ASSERT_GE(Names.size(), 8u);
  // The paper rows come first (suiteOrder 0..7); extra workloads may
  // follow.
  for (size_t I = 0; I != 8; ++I)
    EXPECT_EQ(Names[I], ExpectedNames[I]);
}

TEST(BenchmarkRegistryTest, AllSixBenchmarkClassesConstructibleByName) {
  // makeProgram round-trips by name: each registry key builds a live
  // program whose self-reported name equals the key (sort and clustering
  // report their dataset flavour, so all eight keys round-trip exactly).
  for (const char *Key : ExpectedNames) {
    const BenchmarkFactory &F = BenchmarkRegistry::instance().get(Key);
    EXPECT_EQ(F.name(), Key);
    ProgramPtr P = F.makeProgram(0.15, F.defaultProgramSeed());
    ASSERT_NE(P, nullptr) << Key;
    EXPECT_EQ(P->name(), Key);
    EXPECT_GE(P->numInputs(), 4u) << Key;
    EXPECT_FALSE(P->features().empty()) << Key;
  }
}

TEST(BenchmarkRegistryTest, ScaleStretchesInputCounts) {
  const BenchmarkFactory &F = BenchmarkRegistry::instance().get("sort2");
  ProgramPtr Small = F.makeProgram(0.2, 1);
  ProgramPtr Large = F.makeProgram(2.0, 1);
  EXPECT_LT(Small->numInputs(), Large->numInputs());
}

TEST(BenchmarkRegistryTest, SameSeedSameInputs) {
  const BenchmarkFactory &F = BenchmarkRegistry::instance().get("sort2");
  ProgramPtr A = F.makeProgram(0.15, 7);
  ProgramPtr B = F.makeProgram(0.15, 7);
  ASSERT_EQ(A->numInputs(), B->numInputs());
  support::CostCounter CA, CB;
  for (size_t I = 0; I != A->numInputs(); ++I)
    EXPECT_EQ(A->extractFeature(I, 0, 0, CA), B->extractFeature(I, 0, 0, CB));
}

TEST(BenchmarkRegistryTest, LookupUnknownNameReturnsNull) {
  EXPECT_EQ(BenchmarkRegistry::instance().lookup("no-such-benchmark"),
            nullptr);
}

TEST(BenchmarkRegistryTest, GetUnknownNameThrowsListingCatalog) {
  try {
    BenchmarkRegistry::instance().get("no-such-benchmark");
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range &E) {
    std::string Msg = E.what();
    EXPECT_NE(Msg.find("no-such-benchmark"), std::string::npos);
    // The error names the available keys for discoverability.
    EXPECT_NE(Msg.find("sort1"), std::string::npos);
  }
}

TEST(BenchmarkRegistryTest, MakeSuiteUnknownNameThrows) {
  EXPECT_THROW(makeSuite({"sort1", "bogus"}, 0.15, nullptr),
               std::out_of_range);
}

TEST(BenchmarkRegistryTest, DefaultOptionsScaleLandmarks) {
  const BenchmarkFactory &F = BenchmarkRegistry::instance().get("svd");
  core::PipelineOptions Small = F.defaultOptions(0.25);
  core::PipelineOptions Large = F.defaultOptions(4.0);
  EXPECT_LT(Small.L1.NumLandmarks, Large.L1.NumLandmarks);
  EXPECT_GE(Small.L1.NumLandmarks, 4u);
}

TEST(BenchmarkRegistryTest, MakeSuiteWiresPoolIntoOptions) {
  support::ThreadPool Pool(1);
  std::vector<SuiteEntry> Suite = makeSuite({"binpacking"}, 0.15, &Pool);
  ASSERT_EQ(Suite.size(), 1u);
  EXPECT_EQ(Suite[0].Options.Pool, &Pool);
  EXPECT_EQ(Suite[0].Name, "binpacking");
}

// PBT_BENCH_SCALE follows --scale's parse rule. "nan" used to pass every
// check and reach a NaN-to-size_t cast; "2x" used to read as 2.
TEST(BenchmarkRegistryTest, ScaleFromEnvRejectsWhatScaleRejects) {
  const char *Old = std::getenv("PBT_BENCH_SCALE");
  std::optional<std::string> Saved;
  if (Old)
    Saved = Old;
  auto ScaleOf = [](const char *Value) {
    setenv("PBT_BENCH_SCALE", Value, /*overwrite=*/1);
    return scaleFromEnv();
  };
  EXPECT_EQ(ScaleOf("nan"), 1.0);
  EXPECT_EQ(ScaleOf("inf"), 1.0);
  EXPECT_EQ(ScaleOf("2x"), 1.0);
  EXPECT_EQ(ScaleOf("0"), 1.0);
  EXPECT_EQ(ScaleOf("0.5"), 0.5);
  EXPECT_EQ(ScaleOf("0.01"), 0.1); // clamped
  unsetenv("PBT_BENCH_SCALE");
  EXPECT_EQ(scaleFromEnv(), 1.0);
  if (Saved)
    setenv("PBT_BENCH_SCALE", Saved->c_str(), 1);
}

TEST(BenchmarkRegistryTest, DescribeIsNonEmptyForEveryEntry) {
  for (const BenchmarkFactory *F : BenchmarkRegistry::instance().all())
    EXPECT_FALSE(F->describe().empty()) << F->name();
}

} // namespace
