//===- registry/BenchmarkRegistry.cpp ----------------------------------------=//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//

#include "registry/BenchmarkRegistry.h"

#include "runtime/AdaptiveService.h"
#include "support/ParseNumber.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

using namespace pbt;
using namespace pbt::registry;

BenchmarkFactory::~BenchmarkFactory() = default;

BenchmarkRegistry &BenchmarkRegistry::instance() {
  static BenchmarkRegistry R;
  return R;
}

void BenchmarkRegistry::add(std::unique_ptr<BenchmarkFactory> Factory) {
  if (!Factory)
    return;
  if (lookup(Factory->name())) {
    // First registration wins; shout so an accidental key reuse in a new
    // workload file is not a silent no-show in the catalog.
    std::fprintf(stderr,
                 "pbtuner: duplicate benchmark registration '%s' ignored\n",
                 Factory->name().c_str());
    return;
  }
  Factories.push_back(std::move(Factory));
}

std::vector<const BenchmarkFactory *> BenchmarkRegistry::all() const {
  std::vector<const BenchmarkFactory *> Out;
  Out.reserve(Factories.size());
  for (const auto &F : Factories)
    Out.push_back(F.get());
  // Static-initialisation order across translation units is unspecified,
  // so the catalog order is imposed here, not at registration time.
  std::sort(Out.begin(), Out.end(),
            [](const BenchmarkFactory *A, const BenchmarkFactory *B) {
              if (A->suiteOrder() != B->suiteOrder())
                return A->suiteOrder() < B->suiteOrder();
              return A->name() < B->name();
            });
  return Out;
}

std::vector<std::string> BenchmarkRegistry::names() const {
  std::vector<std::string> Out;
  for (const BenchmarkFactory *F : all())
    Out.push_back(F->name());
  return Out;
}

const BenchmarkFactory *
BenchmarkRegistry::lookup(const std::string &Name) const {
  for (const auto &F : Factories)
    if (F->name() == Name)
      return F.get();
  return nullptr;
}

const BenchmarkFactory &BenchmarkRegistry::get(const std::string &Name) const {
  if (const BenchmarkFactory *F = lookup(Name))
    return *F;
  std::string Msg = "unknown benchmark '" + Name + "'; registered:";
  for (const std::string &N : names())
    Msg += " " + N;
  throw std::out_of_range(Msg);
}

RegisterBenchmark::RegisterBenchmark(std::unique_ptr<BenchmarkFactory> Factory) {
  BenchmarkRegistry::instance().add(std::move(Factory));
}

SimpleBenchmarkFactory::SimpleBenchmarkFactory(std::string Name,
                                               std::string Description,
                                               int SuiteOrder,
                                               uint64_t ProgramSeed,
                                               uint64_t PipelineSeed,
                                               Maker Make)
    : Name(std::move(Name)), Description(std::move(Description)),
      Order(SuiteOrder), ProgramSeed(ProgramSeed), PipelineSeed(PipelineSeed),
      Make(Make) {}

ProgramPtr SimpleBenchmarkFactory::makeProgram(double Scale,
                                               uint64_t Seed) const {
  return Make(Scale, Seed);
}

core::PipelineOptions
SimpleBenchmarkFactory::defaultOptions(double Scale) const {
  return paperPipelineOptions(Scale, PipelineSeed);
}

/// Shared pipeline defaults; landmark count scales with sqrt of the input
/// scale so the evidence table stays roughly linear in Scale.
core::PipelineOptions registry::paperPipelineOptions(double Scale,
                                                     uint64_t PipelineSeed) {
  core::PipelineOptions O;
  O.L1.NumLandmarks = std::max<unsigned>(
      4, static_cast<unsigned>(12.0 * std::sqrt(Scale)));
  O.L1.Seed = PipelineSeed;
  O.L1.Tuner.PopulationSize = 14;
  O.L1.Tuner.Generations = 10;
  // Tune each landmark against a neighbourhood of its centroid so
  // variable-accuracy configurations stay safe on unseen cluster members;
  // this is what makes adaptive classifiers (not just static-best)
  // clear the satisfaction threshold at reduced scale.
  O.L1.TuningNeighborhood = 6;
  O.L2.CVFolds = 5;
  O.L2.Seed = PipelineSeed ^ 0xABCDEF;
  // Shallow trees generalise better at laptop-scale training-set sizes,
  // keeping cross-validated satisfaction honest.
  O.L2.Tree.MaxDepth = 8;
  O.L2.Tree.MinSamplesLeaf = 3;
  O.TrainFraction = 0.5;
  O.SplitSeed = PipelineSeed * 31 + 7;
  return O;
}

core::PipelineOptions
registry::reservoirRetrainOptions(const BenchmarkFactory &Factory,
                                  double Scale, size_t SampleSize,
                                  support::ThreadPool *Pool) {
  core::PipelineOptions O = Factory.defaultOptions(Scale);
  O.Pool = Pool;
  runtime::AdaptiveService::clampRetrainOptions(O, SampleSize);
  return O;
}

size_t registry::scaledInputCount(double Scale, size_t Base) {
  return std::max<size_t>(24, static_cast<size_t>(Base * Scale));
}

double registry::scaleFromEnv() {
  const char *Env = std::getenv("PBT_BENCH_SCALE");
  if (!Env)
    return 1.0;
  // The rule --scale uses: a whole, finite, positive number.
  double Scale = 0.0;
  if (!support::parseDouble(Env, Scale) || Scale <= 0.0)
    return 1.0;
  return std::clamp(Scale, 0.1, 100.0);
}

static SuiteEntry makeEntry(const BenchmarkFactory &F, double Scale,
                            support::ThreadPool *Pool) {
  SuiteEntry E;
  E.Name = F.name();
  E.Program = F.makeProgram(Scale, F.defaultProgramSeed());
  E.Options = F.defaultOptions(Scale);
  E.Options.Pool = Pool;
  return E;
}

std::vector<SuiteEntry> registry::makeSuite(double Scale,
                                            support::ThreadPool *Pool) {
  std::vector<SuiteEntry> Suite;
  for (const BenchmarkFactory *F : BenchmarkRegistry::instance().all())
    Suite.push_back(makeEntry(*F, Scale, Pool));
  return Suite;
}

std::vector<SuiteEntry>
registry::makeSuite(const std::vector<std::string> &Names, double Scale,
                    support::ThreadPool *Pool) {
  std::vector<SuiteEntry> Suite;
  for (const std::string &Name : Names)
    Suite.push_back(
        makeEntry(BenchmarkRegistry::instance().get(Name), Scale, Pool));
  return Suite;
}
