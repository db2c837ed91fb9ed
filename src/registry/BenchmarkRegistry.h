//===- registry/BenchmarkRegistry.h - Self-registering workload catalog ----==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Makes workloads first-class, enumerable objects. A BenchmarkFactory
/// knows how to instantiate one named benchmark (a TunableProgram) at a
/// given scale plus the pipeline options the paper's experiments use for
/// it; the BenchmarkRegistry is the process-wide catalog the factories
/// register themselves into at static-initialisation time.
///
/// Adding a workload is a one-file change: implement the TunableProgram,
/// then register it from the same .cpp with
///
///   static registry::RegisterBenchmark
///       Reg(std::make_unique<registry::SimpleBenchmarkFactory>(
///           "myworkload", "one-line description", /*SuiteOrder=*/1000,
///           /*ProgramSeed=*/42, /*PipelineSeed=*/4242,
///           [](double Scale, uint64_t Seed) -> ProgramPtr { ... }));
///
/// Every harness (pbt-bench subcommands, examples, tests) constructs
/// programs exclusively through this catalog, so nothing else needs
/// editing.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_REGISTRY_BENCHMARKREGISTRY_H
#define PBT_REGISTRY_BENCHMARKREGISTRY_H

#include "core/Pipeline.h"
#include "runtime/TunableProgram.h"
#include "support/ThreadPool.h"

#include <memory>
#include <string>
#include <vector>

namespace pbt {
namespace registry {

using ProgramPtr = std::unique_ptr<runtime::TunableProgram>;

/// Instantiates one named benchmark. \p Scale stretches input counts
/// towards the paper's original sizes (1.0 = laptop-scale defaults).
class BenchmarkFactory {
public:
  virtual ~BenchmarkFactory();

  /// Unique registry key, e.g. "sort1" or "helmholtz3d".
  virtual std::string name() const = 0;

  /// One-line human description for `pbt-bench list`.
  virtual std::string describe() const = 0;

  /// Position of this entry in the paper's standard suite (the Table 1
  /// row order); ties break by name. Workloads outside the paper's eight
  /// rows keep the default and sort alphabetically after them.
  virtual int suiteOrder() const { return 1000; }

  /// The input-generation seed the paper harness uses for this entry.
  virtual uint64_t defaultProgramSeed() const = 0;

  /// Builds the program with \p Seed driving input generation.
  virtual ProgramPtr makeProgram(double Scale, uint64_t Seed) const = 0;

  /// The pipeline options (landmark count, tuner budget, CV folds, ...)
  /// the paper's experiments use for this entry at \p Scale.
  virtual core::PipelineOptions defaultOptions(double Scale) const = 0;
};

/// Process-wide catalog of benchmark factories.
class BenchmarkRegistry {
public:
  static BenchmarkRegistry &instance();

  /// Registers \p Factory. Duplicate names are rejected (the first
  /// registration wins and the duplicate is dropped).
  void add(std::unique_ptr<BenchmarkFactory> Factory);

  /// All factories, ordered by (suiteOrder, name).
  std::vector<const BenchmarkFactory *> all() const;

  /// Registered names in the same order as all().
  std::vector<std::string> names() const;

  /// \returns the factory named \p Name, or nullptr when unknown.
  const BenchmarkFactory *lookup(const std::string &Name) const;

  /// Like lookup, but throws std::out_of_range naming the unknown key and
  /// the available ones.
  const BenchmarkFactory &get(const std::string &Name) const;

  size_t size() const { return Factories.size(); }

private:
  BenchmarkRegistry() = default;
  std::vector<std::unique_ptr<BenchmarkFactory>> Factories;
};

/// Registers a factory into BenchmarkRegistry::instance() at static-init
/// time; define one per workload in the workload's own .cpp.
class RegisterBenchmark {
public:
  explicit RegisterBenchmark(std::unique_ptr<BenchmarkFactory> Factory);
};

/// Covers the common case: a factory defined by constants plus a capture-
/// free maker function.
class SimpleBenchmarkFactory : public BenchmarkFactory {
public:
  using Maker = ProgramPtr (*)(double Scale, uint64_t Seed);

  SimpleBenchmarkFactory(std::string Name, std::string Description,
                         int SuiteOrder, uint64_t ProgramSeed,
                         uint64_t PipelineSeed, Maker Make);

  std::string name() const override { return Name; }
  std::string describe() const override { return Description; }
  int suiteOrder() const override { return Order; }
  uint64_t defaultProgramSeed() const override { return ProgramSeed; }
  ProgramPtr makeProgram(double Scale, uint64_t Seed) const override;
  core::PipelineOptions defaultOptions(double Scale) const override;

private:
  std::string Name;
  std::string Description;
  int Order;
  uint64_t ProgramSeed;
  uint64_t PipelineSeed;
  Maker Make;
};

/// The paper harness's shared pipeline defaults: landmark count scaling
/// with sqrt(Scale), the tuner budget, shallow trees, 50/50 split.
core::PipelineOptions paperPipelineOptions(double Scale, uint64_t PipelineSeed);

/// Pipeline options for (re)training on a live-traffic sample of
/// \p SampleSize inputs: the factory's defaults at \p Scale with the
/// landmark count, CV folds and tuning neighbourhood clamped to what the
/// sample supports, and \p Pool wired in. This is what the adaptive
/// serving loop (runtime/AdaptiveService.h) and the `pbt-bench stream`
/// harness hand to every shadow retrain.
core::PipelineOptions reservoirRetrainOptions(const BenchmarkFactory &Factory,
                                              double Scale, size_t SampleSize,
                                              support::ThreadPool *Pool);

/// Scales a base input count, clamped to a floor that keeps train/test
/// splits meaningful.
size_t scaledInputCount(double Scale, size_t Base);

/// Reads PBT_BENCH_SCALE, clamped to [0.1, 100]. Unset, or anything
/// support::parseDouble rejects or that is not positive ("nan", "inf",
/// "2x", "0"), gives 1.0.
double scaleFromEnv();

/// One ready-to-train suite row (the former bench harness SuiteEntry).
struct SuiteEntry {
  std::string Name;
  ProgramPtr Program;
  core::PipelineOptions Options;
};

/// Builds the full registered suite in catalog order. \p Pool is wired
/// into every entry's PipelineOptions (may be null).
std::vector<SuiteEntry> makeSuite(double Scale, support::ThreadPool *Pool);

/// Builds the named subset, in the order given. Throws std::out_of_range
/// on unknown names.
std::vector<SuiteEntry> makeSuite(const std::vector<std::string> &Names,
                                  double Scale, support::ThreadPool *Pool);

} // namespace registry
} // namespace pbt

#endif // PBT_REGISTRY_BENCHMARKREGISTRY_H
