//===- benchmarks/SortBenchmark.h - The Sort benchmark ---------------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's Sort benchmark: sorting lists of doubles with a recursive
/// polyalgorithm over InsertionSort, QuickSort, MergeSort (tunable ways),
/// RadixSort and BitonicSort. Input features are standard deviation,
/// duplication, sortedness and a test-sort probe, each at three sampling
/// levels. Sort is the suite's only exact (non-variable-accuracy)
/// benchmark.
///
/// Two dataset flavours mirror the paper's sort1/sort2: RegistryLike
/// synthesises inputs shaped like the CCR FOIA contractor registry
/// (concatenated sorted runs, heavy duplication) -- our stand-in for the
/// real-world data; SyntheticMix spans the feature space with ten
/// generators.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_BENCHMARKS_SORTBENCHMARK_H
#define PBT_BENCHMARKS_SORTBENCHMARK_H

#include "benchmarks/SortAlgorithms.h"
#include "runtime/TunableProgram.h"
#include "support/Random.h"

#include <string>
#include <vector>

namespace pbt {
namespace bench {

class SortBenchmark : public runtime::TunableProgram {
public:
  enum class Dataset {
    RegistryLike, ///< sort1: real-world-like inputs
    SyntheticMix, ///< sort2: generator mixture spanning the feature space
  };

  struct Options {
    Dataset Data = Dataset::SyntheticMix;
    size_t NumInputs = 400;
    size_t MinSize = 256;
    size_t MaxSize = 8192;
    uint64_t Seed = 1;
    unsigned SelectorLevels = 3;
  };

  explicit SortBenchmark(const Options &Opts);
  ~SortBenchmark() override;

  // TunableProgram interface.
  std::string name() const override;
  const runtime::ConfigSpace &space() const override { return Space; }
  std::vector<runtime::FeatureInfo> features() const override;
  std::optional<runtime::AccuracySpec> accuracy() const override {
    return std::nullopt; // exact benchmark
  }
  size_t numInputs() const override { return Inputs.size(); }
  double extractFeature(size_t Input, unsigned Feature, unsigned Level,
                        support::CostCounter &Cost) const override;
  runtime::RunResult run(size_t Input, const runtime::Configuration &Config,
                         support::CostCounter &Cost) const override;

  /// Decodes the polyalgorithm a configuration describes (for reports).
  PolySorter sorterFor(const runtime::Configuration &Config) const;

  // Report hooks: input tag + length, and the decoded selector rule.
  std::string describeInput(size_t Input) const override;
  std::string
  describeConfiguration(const runtime::Configuration &Config) const override;

  const std::vector<double> &input(size_t I) const { return Inputs[I]; }
  const std::string &inputTag(size_t I) const { return Tags[I]; }
  const Options &options() const { return Opts; }

private:
  Options Opts;
  runtime::ConfigSpace Space;
  runtime::SelectorScheme Scheme;
  unsigned MergeWaysParam = 0;
  std::vector<std::vector<double>> Inputs;
  std::vector<std::string> Tags;
};

} // namespace bench
} // namespace pbt

#endif // PBT_BENCHMARKS_SORTBENCHMARK_H
