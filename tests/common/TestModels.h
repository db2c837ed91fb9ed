//===- tests/common/TestModels.h - Trained models shared by tests -*- C++ -*-=//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The trained models the store, rollout, daemon and fleet tests serve:
/// a registered benchmark at kTestScale and its default program seed,
/// trained once per test process.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_TESTS_COMMON_TESTMODELS_H
#define PBT_TESTS_COMMON_TESTMODELS_H

#include "core/Pipeline.h"
#include "registry/BenchmarkRegistry.h"
#include "serialize/ModelIO.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>

#include <unistd.h>

namespace pbt {
namespace testmodels {

constexpr double kTestScale = 0.1;

/// The serialized model of \p Benchmark, trained on first use.
inline const std::string &modelBytes(const std::string &Benchmark = "sort1") {
  static std::map<std::string, std::string> Trained;
  auto It = Trained.find(Benchmark);
  if (It != Trained.end())
    return It->second;
  const registry::BenchmarkFactory &F =
      registry::BenchmarkRegistry::instance().get(Benchmark);
  registry::ProgramPtr P = F.makeProgram(kTestScale, F.defaultProgramSeed());
  core::TrainedSystem Sys = core::trainSystem(*P, F.defaultOptions(kTestScale));
  serialize::TrainedModel M = serialize::makeModel(
      Benchmark, kTestScale, F.defaultProgramSeed(), *P, std::move(Sys));
  return Trained.emplace(Benchmark, serialize::serializeModel(M))
      .first->second;
}

/// modelBytes(\p Benchmark) written to a per-process temp file, for the
/// tests that serve it from a file like a real deployment. The files are
/// removed when the test process exits.
inline const std::string &modelFile(const std::string &Benchmark = "sort1") {
  static struct TempFiles {
    std::map<std::string, std::string> Paths;
    ~TempFiles() {
      for (const auto &Entry : Paths)
        std::remove(Entry.second.c_str());
    }
  } Files;
  auto It = Files.Paths.find(Benchmark);
  if (It != Files.Paths.end())
    return It->second;
  std::string Path = "/tmp/pbt-test-model-" + std::to_string(::getpid()) +
                     "-" + Benchmark + ".pbt";
  EXPECT_TRUE(serialize::writeModelText(Path, modelBytes(Benchmark)).Ok);
  return Files.Paths.emplace(Benchmark, Path).first->second;
}

/// A fresh in-memory copy of \p Bytes.
inline serialize::TrainedModel cloneModel(const std::string &Bytes) {
  serialize::TrainedModel M;
  EXPECT_TRUE(serialize::loadModel(Bytes, M).Ok);
  return M;
}

/// \p Benchmark's model with its Level-1 landmarks rotated by one: every
/// cluster runs another cluster's configuration, so it serves worse.
inline serialize::TrainedModel
degradedModel(const std::string &Benchmark = "sort1") {
  serialize::TrainedModel M = cloneModel(modelBytes(Benchmark));
  EXPECT_GT(M.System.L1.Landmarks.size(), 1u);
  std::rotate(M.System.L1.Landmarks.begin(),
              M.System.L1.Landmarks.begin() + 1, M.System.L1.Landmarks.end());
  return M;
}

} // namespace testmodels
} // namespace pbt

#endif // PBT_TESTS_COMMON_TESTMODELS_H
