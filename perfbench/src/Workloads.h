//===- perfbench/src/Workloads.h - The benchmark's workloads ---------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Entry points of the three workloads and what they share. Every run
/// does a fixed amount of work derived from --seconds (never "until a
/// deadline"), so counts repeat exactly and rates are work over time.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_PERFBENCH_WORKLOADS_H
#define PBT_PERFBENCH_WORKLOADS_H

#include "Trace.h"

#include "runtime/TunableProgram.h"

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace pbt {
namespace perfbench {

struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  /// Sets the fixed work of a run (rounds, training passes); a run
  /// measures for roughly this long.
  double Seconds = 10;
  bool Trace = false;
  /// Directory holding the golden <family>.pbt / .choices.csv oracles.
  std::string GoldenDir = "tests/golden";
  /// Scratch directory (socket, span file); relative keeps the Unix
  /// socket path short.
  std::string WorkDir = ".bench_build/run";
  /// Where the traced run writes its spans.
  std::string TraceOut;
};

/// The seven golden families, in the order the daemon lists them.
const std::vector<std::string> &goldenFamilies();

/// Forwards every call to a benchmark program, counting and timing its
/// runs and feature extractions: the benchmark's view of the benchmarks
/// layer from outside it.
class CountingProgram : public runtime::TunableProgram {
public:
  explicit CountingProgram(const runtime::TunableProgram &Inner)
      : Inner(Inner) {}

  std::string name() const override { return Inner.name(); }
  const runtime::ConfigSpace &space() const override { return Inner.space(); }
  std::vector<runtime::FeatureInfo> features() const override {
    return Inner.features();
  }
  std::optional<runtime::AccuracySpec> accuracy() const override {
    return Inner.accuracy();
  }
  size_t numInputs() const override { return Inner.numInputs(); }
  double extractFeature(size_t Input, unsigned Feature, unsigned Level,
                        support::CostCounter &Cost) const override {
    uint64_t T0 = nowNs();
    double V = Inner.extractFeature(Input, Feature, Level, Cost);
    FeatureNs.fetch_add(nowNs() - T0, std::memory_order_relaxed);
    FeatureCalls.fetch_add(1, std::memory_order_relaxed);
    return V;
  }
  runtime::RunResult run(size_t Input, const runtime::Configuration &Config,
                         support::CostCounter &Cost) const override {
    uint64_t T0 = nowNs();
    runtime::RunResult V = Inner.run(Input, Config, Cost);
    RunNs.fetch_add(nowNs() - T0, std::memory_order_relaxed);
    RunCalls.fetch_add(1, std::memory_order_relaxed);
    return V;
  }
  std::string describeInput(size_t Input) const override {
    return Inner.describeInput(Input);
  }
  std::string
  describeConfiguration(const runtime::Configuration &Config) const override {
    return Inner.describeConfiguration(Config);
  }

  mutable std::atomic<uint64_t> RunCalls{0}, RunNs{0}, FeatureCalls{0},
      FeatureNs{0};

private:
  const runtime::TunableProgram &Inner;
};

/// The layer probe every workload runs before its own work, \p Repeats
/// times over the seven golden models: loadModelFile, serializeModel,
/// makeProgram, evaluateSystem, AdaptiveService construction, a cold and
/// then a warm decide of each input, and the daemon codec round trip of
/// those inputs and decisions. It touches every layer, so every workload
/// reports the same per-layer metrics (traced runs only), and it returns
/// the golden models' speedup over the static oracle: the geometric mean
/// over families of evaluateSystem's two-level-with-features speedup.
double probeLayers(const RunOptions &Opts, unsigned Repeats, Tracer &T,
                   Report &R);

/// Both serving workloads ("serve-warm", "adapt").
int runServe(const RunOptions &Opts, Tracer &T, Report &R);
int runTrain(const RunOptions &Opts, Tracer &T, Report &R);

} // namespace perfbench
} // namespace pbt

#endif // PBT_PERFBENCH_WORKLOADS_H
